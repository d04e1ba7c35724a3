"""The witness search over I(A)'s minimizers against the full partition scan.

``tightness.witness_by_partition_search`` calls ``feasible_point`` only on
the minimizers of I(A), and only when I(A) = C_SK;
``helpers.reference_witness_by_partition_search`` scans every admissible
partition and skips those failing sum_i h(C_i^c) = (k-1) R_CO. Both must
give the same verdict, gap, witness partition and rates, through the same
``feasible_point`` calls, on every oracle: exact or tabular, valid or not.
"""

import random
from fractions import Fraction

import pytest

import helpers
import omniscio.tightness as tightness
from omniscio import (
    counterexample_entropy_vector,
    enumerate_admissible,
    make_counterexample,
    make_oracle,
    partition_dependence,
    r_co,
    random_linear_source,
    witness_by_partition_search,
)
from omniscio.errors import OmniscioError
from omniscio.omniscience import build_family
from omniscio.simplex import feasible_point
from omniscio.sources import EntropyVector, TabularSource
from omniscio.subsets import complement, full_mask

from helpers import reference_witness_by_partition_search

F = Fraction


def linear_cases():
    for m in (3, 4, 5, 6):
        for active in sorted({full_mask(m), 0b111}):
            for seed in range(3):
                source = random_linear_source(m, m, 2, seed)
                yield f"m{m}-a{active:b}-s{seed}", make_oracle(source), active
    source, active = make_counterexample()
    yield "generative", make_oracle(source), active
    yield "paper-h", make_oracle(counterexample_entropy_vector(), validate=False), 0b111


def random_pmf(m, seed):
    rng = random.Random(seed)
    symbols = sorted({tuple(rng.randrange(2) for _ in range(m)) for _ in range(5)})
    weights = [rng.randint(1, 6) for _ in symbols]
    return tuple((s, F(w, sum(weights))) for s, w in zip(symbols, weights))


def tabular_cases():
    for m in (3, 4):
        for seed in range(3):
            source = TabularSource(m, (2,) * m, random_pmf(m, seed))
            for active in sorted({full_mask(m), 0b111}):
                yield f"tab-m{m}-a{active:b}-s{seed}", make_oracle(source), active


def non_monotone_cases():
    """Random integer tables with H(X_S) <= H(X_M) that are neither
    monotone nor supermodular, loaded without validation."""
    rng = random.Random(7)
    found = 0
    while found < 12:
        m = rng.choice([3, 4])
        top = rng.randint(2, 4)
        values = [0] + [rng.randint(0, top) for _ in range((1 << m) - 2)] + [top]
        oracle = make_oracle(EntropyVector(m, tuple(map(F, values))), validate=False)
        monotone = all(
            values[s] <= values[s | 1 << j]
            for s in range(1 << m) for j in range(m)
        )
        if monotone:
            continue
        for active in (full_mask(m), 0b111):
            found += 1
            yield f"nonmono-{found}-m{m}-a{active:b}", oracle, active


CASES = [*linear_cases(), *tabular_cases(), *non_monotone_cases()]


def recorded(monkeypatch, refuse=0):
    """Patch both searches' feasible_point to record the partitions it is
    asked about, by their block complements; the first ``refuse`` calls
    answer None."""
    calls = []

    def wrapper(m, masks, b, comps, eq_b, *scale):
        calls.append(tuple(comps))
        if len(calls) <= refuse:
            return None
        return feasible_point(m, masks, b, comps, eq_b, *scale)

    monkeypatch.setattr(tightness, "feasible_point", wrapper)
    monkeypatch.setattr(helpers, "feasible_point", wrapper)
    return calls


@pytest.mark.parametrize(
    "name,oracle,active", CASES, ids=[case[0] for case in CASES]
)
def test_same_verdict_witness_and_calls_as_the_full_scan(
    name, oracle, active, monkeypatch
):
    try:
        report = r_co(oracle, active)
    except OmniscioError as exc:  # a table the rate LP rejects
        with pytest.raises(type(exc)):
            witness_by_partition_search(oracle, active)
        return
    calls = recorded(monkeypatch)
    new = witness_by_partition_search(oracle, active, report=report)
    new_calls = list(calls)
    calls.clear()
    old = reference_witness_by_partition_search(oracle, active, report=report)
    assert new == old
    assert new_calls == calls
    assert all(type(v) is Fraction for v in (new.witness or ((), ()))[1])


@pytest.mark.parametrize("refuse", [1, 3, 20])
@pytest.mark.parametrize("name", ["m4-a1111-s2", "m5-a111-s2", "m6-a111-s0"])
def test_refused_candidates_fall_through_in_order(name, refuse, monkeypatch):
    # With the rate LP's own report every candidate is feasible: the
    # singleton rows give every point of the region x >= 0, and an optimum
    # of the rate LP makes every candidate's complements tight. So the
    # fall-through to later minimizers (7, 17 and 8 of them here) is
    # exercised by refusing the first candidates, or all of them.
    oracle, active = next((o, a) for n, o, a in CASES if n == name)
    report = r_co(oracle, active)
    calls = recorded(monkeypatch, refuse)
    new = witness_by_partition_search(oracle, active, report=report)
    new_calls = list(calls)
    calls.clear()
    old = reference_witness_by_partition_search(oracle, active, report=report)
    assert new == old
    assert new_calls == calls


@pytest.mark.parametrize("seed", range(40))
def test_feasible_exactly_when_the_partition_meets_the_capacity(seed):
    # On valid exact tables, m <= 5: a partition hosts a witness exactly
    # when its mutual dependence equals C_SK.
    for m in (3, 4, 5):
        oracle = make_oracle(random_linear_source(m, m, 2, seed))
        for active in sorted({full_mask(m), 0b111}):
            report = r_co(oracle, active)
            family = build_family(m, active)
            b = [oracle.cond_entropy(mask) for mask in family.masks]
            for partition in enumerate_admissible(m, active):
                comps = [complement(block, m) for block in partition]
                eq_b = [oracle.cond_entropy(c) for c in comps]
                hosts = feasible_point(m, family.masks, b, comps, eq_b) is not None
                value = partition_dependence(oracle, partition)
                assert hosts == (value == report.c_sk), partition
