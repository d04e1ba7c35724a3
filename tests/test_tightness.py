"""Tightness deciders, closure checks, and constructive extraction."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from omniscio import (
    check_bound,
    construct_partition_from_dual,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    make_sunflower,
    mutual_dependence_bound,
    parse_source_file,
    partition_dependence,
    r_co,
    random_linear_source,
    witness_by_partition_search,
)
from omniscio import tightness
from omniscio.cli import main
from omniscio.errors import (
    ComputationError,
    InternalContractError,
    InvalidInputError,
)
from omniscio.omniscience import ConstraintFamily
from omniscio.simplex import LpSolution
from omniscio.sources import LinearGF2Source
from omniscio.subsets import complement, full_mask, mask_from_terminals

from helpers import region_contains, sw_gap, verify_closure

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
PUBLISHED_X = (F(1, 4), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 2))


def shared_bit_source(m=3):
    return LinearGF2Source(m, 1, tuple((1,) for _ in range(m)))


def table_oracle():
    return make_oracle(counterexample_entropy_vector(), validate=False)


class TestCheckBound:
    def test_published_table_gap_quarter(self):
        verdict = check_bound(table_oracle(), 0b111)
        assert not verdict.tight
        assert verdict.c_sk == F(7, 4)
        assert verdict.bound == 2
        assert verdict.gap == F(1, 4)

    def test_generative_counterexample_gap_quarter(self):
        src, active = make_counterexample()
        verdict = check_bound(make_oracle(src), active)
        assert not verdict.tight
        assert verdict.c_sk == F(3, 4)
        assert verdict.bound == 1
        assert verdict.gap == F(1, 4)

    def test_all_active_always_tight(self):
        for seed in range(6):
            src = random_linear_source(4, 4, 2, seed)
            verdict = check_bound(make_oracle(src), full_mask(4))
            assert verdict.tight and verdict.gap == 0

    def test_shared_bit(self):
        verdict = check_bound(make_oracle(shared_bit_source(3)), 0b111)
        assert verdict.tight
        assert verdict.c_sk == 1 and verdict.bound == 1

    @pytest.mark.parametrize("name", ["counterexample", "tabular"])
    def test_bound_below_capacity_is_a_fault(self, name, monkeypatch, capsys):
        # I(A) >= C_SK holds on every integer table, exact or tabular, so a
        # bound below C_SK can only come from a fault.
        path = str(GOLDEN / f"{name}.input.json")
        oracle, active, _ = parse_source_file(path)

        def below_capacity(oracle, active):
            return r_co(oracle, active).c_sk - F(1, 4), ()

        monkeypatch.setattr(tightness, "mutual_dependence_bound", below_capacity)
        with pytest.raises(ComputationError, match="below capacity"):
            check_bound(oracle, active)
        assert main(["tight", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "below capacity" in err


class TestWitnessSearch:
    def test_two_terminals_witness_is_conditional_entropies(self):
        src = random_linear_source(2, 4, 2, seed=3)
        oracle = make_oracle(src)
        verdict = witness_by_partition_search(oracle, 0b11)
        assert verdict.tight
        partition, rates = verdict.witness
        assert partition == (0b01, 0b10)
        assert rates == (oracle.cond_entropy(0b01), oracle.cond_entropy(0b10))

    def test_shared_bit_witness_at_zero_rate(self):
        oracle = make_oracle(shared_bit_source(3))
        verdict = witness_by_partition_search(oracle, 0b111)
        assert verdict.tight
        partition, rates = verdict.witness
        # Canonical scan hits ({1,2},{3}) first; R_CO = 0 forces zero rates.
        assert partition == (0b011, 0b100)
        assert rates == (F(0), F(0), F(0))

    def test_counterexample_has_no_witness(self):
        src, active = make_counterexample()
        verdict = witness_by_partition_search(make_oracle(src), active)
        assert not verdict.tight
        assert verdict.witness is None

    def test_published_table_has_no_witness(self):
        verdict = witness_by_partition_search(table_oracle(), 0b111)
        assert not verdict.tight and verdict.witness is None

    def test_witness_constraints_actually_hold(self):
        src = random_linear_source(4, 4, 2, seed=1)
        oracle = make_oracle(src)
        report = r_co(oracle, full_mask(4))
        verdict = witness_by_partition_search(oracle, full_mask(4), report=report)
        assert verdict.tight
        partition, rates = verdict.witness
        ok, _ = region_contains(rates, report.family, oracle)
        assert ok
        for block in partition:
            assert sw_gap(rates, complement(block, 4), oracle) == 0
        assert sum(rates) == report.r_co

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_direct_decider(self, seed):
        src = random_linear_source(4, 5, 2, seed)
        oracle = make_oracle(src)
        for active in (0b0011, 0b0111, 0b1111):
            a = check_bound(oracle, active)
            b = witness_by_partition_search(oracle, active)
            assert a.tight == b.tight
            assert a.gap == b.gap


class TestClosure:
    def test_union_and_intersection_stay_tight_on_generative(self):
        src, active = make_counterexample()
        oracle = make_oracle(src)
        report = r_co(oracle, active)
        b1 = mask_from_terminals([1, 3, 4], 6)
        b2 = mask_from_terminals([1, 3, 4, 5, 6], 6)
        verdict = verify_closure(oracle, active, report.rates, b1, b2)
        assert verdict.preconditions_ok
        assert verdict.holds
        assert verdict.gap_intersection == 0

    def test_disjoint_tight_pair(self):
        src = random_linear_source(2, 3, 2, seed=2)
        oracle = make_oracle(src)
        report = r_co(oracle, 0b11)
        # B1 | B2 = M is not a constraint, so preconditions fail by design.
        verdict = verify_closure(oracle, 0b11, report.rates, 0b01, 0b10)
        assert not verdict.preconditions_ok
        assert verdict.gap_b1 == 0 and verdict.gap_b2 == 0
        assert verdict.gap_intersection is None

    def test_published_table_closure_fails(self):
        # At the published vertex both {1,2,4} and {1,2,5} are tight for the
        # cardinality table, but their intersection {1,2} is not: the
        # closure argument needs supermodularity and this table lacks it.
        oracle = table_oracle()
        b1 = mask_from_terminals([1, 2, 4], 6)
        b2 = mask_from_terminals([1, 2, 5], 6)
        verdict = verify_closure(oracle, 0b111, PUBLISHED_X, b1, b2)
        assert verdict.preconditions_ok
        assert verdict.gap_b1 == 0 and verdict.gap_b2 == 0
        assert not verdict.holds
        assert verdict.gap_intersection > 0


class TestConstructive:
    def test_two_terminals(self):
        src = random_linear_source(2, 3, 2, seed=4)
        oracle = make_oracle(src)
        report = r_co(oracle, 0b11)
        partition = construct_partition_from_dual(
            report.solution, report.family, oracle
        )
        assert partition == (0b01, 0b10)

    def test_shared_bit(self):
        oracle = make_oracle(shared_bit_source(3))
        report = r_co(oracle, 0b111)
        partition = construct_partition_from_dual(
            report.solution, report.family, oracle
        )
        value = partition_dependence(oracle, partition)
        assert value == 1
        assert value == report.c_sk

    def test_sunflower_achieves_bound(self):
        oracle = make_oracle(make_sunflower(3, 1, 1))
        report = r_co(oracle, 0b111)
        partition = construct_partition_from_dual(
            report.solution, report.family, oracle
        )
        value = partition_dependence(oracle, partition)
        bound, minimizers = mutual_dependence_bound(oracle, 0b111)
        assert value == bound == report.c_sk == 1
        assert partition in minimizers

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sources_constructed_partition_is_minimizing(self, seed):
        src = random_linear_source(4, 4, 2, seed)
        oracle = make_oracle(src)
        report = r_co(oracle, full_mask(4))
        partition = construct_partition_from_dual(
            report.solution, report.family, oracle
        )
        value = partition_dependence(oracle, partition)
        bound, minimizers = mutual_dependence_bound(oracle, full_mask(4))
        assert value == bound
        assert partition in minimizers
        assert partition_dependence(oracle, partition) == report.c_sk

    def test_rejects_partial_active_set(self):
        src, active = make_counterexample()
        oracle = make_oracle(src)
        report = r_co(oracle, active)
        with pytest.raises(InvalidInputError):
            construct_partition_from_dual(report.solution, report.family, oracle)


def crafted(masks, y, x=(F(0), F(0), F(0)), m=3):
    """A dual solution with weights y on the rows masks of an A = M family;
    objective and tight rows are not read by the extraction."""
    return LpSolution(sum(x), tuple(x), tuple(map(F, y)), ()), ConstraintFamily(
        m, full_mask(m), tuple(masks)
    )


class TestConstructiveContract:
    """Each machine-checked step of the extraction, broken on purpose.

    build_family never yields an empty, full or out-of-range row, and once
    no column class is dominated every complement is a union of retained
    rows, so three of these need a hand-made family: a row with a bit past
    terminal m stands for a corrupted one.
    """

    ORACLE = make_oracle(random_linear_source(3, 3, 2, 0))

    @pytest.mark.parametrize(
        "masks,y,message",
        [
            ((0b001, 0b010), (1, 0), "dual support size 1 < 2"),
            ((0b000, 0b010), (1, 1), "retained row is all-zero or all-one"),
            ((0b111, 0b010), (1, 1), "retained row is all-zero or all-one"),
            ((0b1000, 0b10000), (1, 1), r"all retained columns identical \(k < 2\)"),
            ((0b011, 0b010), (1, 1), "column class 1 dominated by 2"),
            (
                (0b1001, 0b1010, 0b1100),
                (1, 1, 1),
                "complement of block 1 is not a union of retained tight rows",
            ),
            (
                (0b001, 0b010, 0b100),
                (1, 1, 1),
                "block-complement constraint 2,3 not tight",
            ),
        ],
        ids=[
            "support", "empty-row", "full-row", "identical", "dominated",
            "not-union", "not-tight",
        ],
    )
    def test_broken_step_raises(self, masks, y, message):
        solution, family = crafted(masks, y)
        with pytest.raises(InternalContractError, match=message):
            construct_partition_from_dual(solution, family, self.ORACLE)

    def test_every_domination_check_comes_first(self):
        # No row misses block {1}, so its complement check would fail, but
        # class {2} is dominated by {1}, and that check must fire first.
        solution, family = crafted((0b101, 0b011), (1, 1))
        with pytest.raises(InternalContractError, match="column class 2 dominated by 1"):
            construct_partition_from_dual(solution, family, self.ORACLE)


class TestWitnessCertificate:
    """The witness search certifies the rates of the report it is given:
    rates that break a row, go below zero, or leave a block complement
    slack are refused, whatever the values say."""

    @pytest.fixture
    def instance(self):
        oracle = make_oracle(random_linear_source(4, 4, 2, 0))
        return oracle, r_co(oracle, full_mask(4))

    @pytest.mark.parametrize(
        "rates,message",
        [
            ((F(-1), F(9), F(9), F(9)), "witness rate below zero"),
            ((F(0),) * 4, "witness violates constraint"),
            (None, "block-complement constraint .* not tight"),
        ],
        ids=["below-zero", "breaks-a-row", "slack-complement"],
    )
    def test_bad_rates_raise(self, instance, rates, message):
        oracle, report = instance
        if rates is None:  # every row holds, none is tight
            rates = tuple(v + 1 for v in report.rates)
        with pytest.raises(InternalContractError, match=message):
            witness_by_partition_search(
                oracle, full_mask(4), report=replace(report, rates=rates)
            )

    def test_the_rate_lp_optimum_is_a_witness(self, instance):
        oracle, report = instance
        verdict = witness_by_partition_search(oracle, full_mask(4), report=report)
        assert verdict.tight and verdict.witness[1] == report.rates
