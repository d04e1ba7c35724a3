"""The witness search over I(A)'s minimizers against the full partition scan.

``tightness.witness_by_partition_search`` takes the rate LP's optimum as
the witness rates for the first minimizer of I(A), when I(A) = C_SK, and
solves no LP of its own; ``helpers.reference_witness_by_partition_search``
scans every admissible partition, skips those failing
sum_i h(C_i^c) = (k-1) R_CO and asks ``feasible_point`` for the rest. Both
must give the same verdict, gap and witness partition on every oracle:
exact or tabular, valid or not.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import omniscio.simplex as simplex
import omniscio.tightness as tightness
from omniscio import (
    counterexample_entropy_vector,
    enumerate_admissible,
    make_counterexample,
    make_oracle,
    mutual_dependence_bound,
    partition_dependence,
    r_co,
    random_linear_source,
    witness_by_partition_search,
)
from omniscio.errors import InternalContractError, OmniscioError
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


def recorded(monkeypatch):
    """Patch the LP entry points the search could reach to record each call."""
    calls = []

    def recording(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(
        tightness, "feasible_point", recording("feasible_point", feasible_point)
    )
    monkeypatch.setattr(
        simplex, "simplex_min", recording("simplex_min", simplex.simplex_min)
    )
    return calls


@pytest.mark.parametrize(
    "name,oracle,active", CASES, ids=[case[0] for case in CASES]
)
def test_same_verdict_witness_and_calls_as_the_full_scan(
    name, oracle, active, monkeypatch
):
    # The same verdict, gap, C_SK, bound and witness partition as the
    # reference scan, with no LP call: the witness rates are the report's.
    try:
        report = r_co(oracle, active)
    except OmniscioError as exc:  # a table the rate LP rejects
        with pytest.raises(type(exc)):
            witness_by_partition_search(oracle, active)
        return
    old = reference_witness_by_partition_search(oracle, active, report=report)
    calls = recorded(monkeypatch)
    new = witness_by_partition_search(oracle, active, report=report)
    assert calls == []
    assert (new.tight, new.gap, new.c_sk, new.bound) == (
        old.tight, old.gap, old.c_sk, old.bound,
    )
    assert (new.witness is None) == (old.witness is None)
    if new.witness is not None:
        assert new.witness[0] == old.witness[0]
        assert new.witness[1] == report.rates
        assert all(type(v) is Fraction for v in new.witness[1])


def bound_meets_capacity(oracle, active):
    try:
        return r_co(oracle, active).c_sk == mutual_dependence_bound(oracle, active)[0]
    except OmniscioError:  # a table the rate LP or the bound rejects
        return False


TIGHT_CASES = [case for case in CASES if bound_meets_capacity(*case[1:])]


@pytest.mark.parametrize(
    "name,oracle,active", TIGHT_CASES, ids=[case[0] for case in TIGHT_CASES]
)
def test_every_minimizer_hosts_a_witness(name, oracle, active):
    # When I(A) = C_SK every minimizer's feasibility set is the set of
    # points x >= 0 of the region with sum(x) = R_CO, so feasible_point
    # answers alike on all of them; the search asks only the first. The
    # rate LP's optimum lies in that set, so the answer is a point.
    m = oracle.m
    family = build_family(m, active)
    b = [oracle.cond_entropy(mask) for mask in family.masks]
    _, minimizers = mutual_dependence_bound(oracle, active)
    hosts = set()
    for partition in minimizers:
        comps = [complement(block, m) for block in partition]
        eq_b = [oracle.cond_entropy(c) for c in comps]
        hosts.add(feasible_point(m, family.masks, b, comps, eq_b) is not None)
    assert hosts == {True}, name


MOVES = {"raised": F(1), "lowered": F(-1, 2)}


@pytest.mark.parametrize("move", MOVES.values(), ids=MOVES.keys())
@pytest.mark.parametrize(
    "name,oracle,active", TIGHT_CASES, ids=[case[0] for case in TIGHT_CASES]
)
def test_rates_off_the_optimum_are_refused(name, oracle, active, move):
    # Raising a rate leaves every block complement that holds it slack;
    # lowering one takes the total below R_CO, so some row, or the rate's
    # own sign, fails. Either way the certificate refuses the witness.
    report = r_co(oracle, active)
    rates = (report.rates[0] + move, *report.rates[1:])
    moved = dataclasses.replace(report, rates=rates)
    with pytest.raises(InternalContractError):
        witness_by_partition_search(oracle, active, report=moved)


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
