"""Constraint families, R_CO, C_SK, rate-region membership."""

from fractions import Fraction

import pytest

from omniscio import (
    build_family,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    r_co,
    random_linear_source,
)
from omniscio.errors import InvalidInputError
from omniscio.sources import LinearGF2Source
from omniscio.subsets import full_mask, mask_from_terminals

from helpers import region_contains, sw_gap

F = Fraction
PUBLISHED_X = (F(1, 4), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 2))


def shared_bit_source(m=3):
    return LinearGF2Source(m, 1, tuple((1,) for _ in range(m)))


def table_oracle():
    return make_oracle(counterexample_entropy_vector(), validate=False)


class TestBuildFamily:
    def test_counterexample_has_55_constraints(self):
        assert build_family(6, 0b111).size == 55

    def test_two_terminals(self):
        family = build_family(2, 0b11)
        assert family.masks == (0b01, 0b10)

    def test_three_terminals_all_active(self):
        assert build_family(3, 0b111).size == 6

    @pytest.mark.parametrize("m,a_size", [(4, 2), (5, 3), (6, 3)])
    def test_count_formula(self, m, a_size):
        active = (1 << a_size) - 1
        family = build_family(m, active)
        assert family.size == (1 << m) - (1 << (m - a_size)) - 1
        for mask in family.masks:
            assert 0 < mask < full_mask(m)
            assert mask & active != active

    def test_rejects_small_active_set(self):
        with pytest.raises(InvalidInputError):
            build_family(3, 0b001)

    def test_rows_ordered_by_mask(self):
        masks = build_family(5, 0b11).masks
        assert list(masks) == sorted(masks)


class TestSwGap:
    def test_published_vertex_tight_at_134(self):
        b = mask_from_terminals([1, 3, 4], 6)
        assert sw_gap(PUBLISHED_X, b, table_oracle()) == 0

    def test_zero_rates_zero_entropy(self):
        oracle = make_oracle(random_linear_source(3, 3, 1, seed=1))
        zero = (F(0),) * 3
        for b in range(1, 7):
            if oracle.cond_entropy(b) == 0:
                assert sw_gap(zero, b, oracle) == 0

    def test_published_vertex_slack_at_456(self):
        b = mask_from_terminals([4, 5, 6], 6)
        assert sw_gap(PUBLISHED_X, b, table_oracle()) == F(1, 2)


class TestRegionContains:
    def test_published_vertex_feasible(self):
        family = build_family(6, 0b111)
        ok, violated = region_contains(PUBLISHED_X, family, table_oracle())
        assert ok and violated is None

    def test_zero_rates_report_smallest_violated_mask(self):
        src, active = make_counterexample()
        oracle = make_oracle(src)
        family = build_family(6, active)
        ok, violated = region_contains((F(0),) * 6, family, oracle)
        assert not ok
        expected = next(m for m in family.masks if oracle.cond_entropy(m) > 0)
        assert violated == expected

    def test_uniform_total_entropy_rates_feasible(self):
        src, active = make_counterexample()
        oracle = make_oracle(src)
        family = build_family(6, active)
        rates = (oracle.total_entropy(),) * 6
        assert region_contains(rates, family, oracle)[0]


class TestRco:
    def test_published_table_values(self):
        report = r_co(table_oracle(), 0b111)
        assert report.r_co == F(9, 4)
        assert report.c_sk == F(7, 4)
        assert report.rates == PUBLISHED_X
        assert report.uniqueness.unique

    def test_shared_bit_all_active(self):
        report = r_co(make_oracle(shared_bit_source(3)), 0b111)
        assert report.r_co == 0
        assert report.c_sk == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_two_terminal_capacity_is_mutual_information(self, seed):
        src = random_linear_source(2, 4, 2, seed)
        oracle = make_oracle(src)
        report = r_co(oracle, 0b11)
        h1, h2 = oracle.cond_entropy(0b01), oracle.cond_entropy(0b10)
        assert report.r_co == h1 + h2
        mi = (
            oracle.joint_entropy(0b01)
            + oracle.joint_entropy(0b10)
            - oracle.total_entropy()
        )
        assert report.c_sk == mi

    def test_capacity_identity_and_feasibility(self):
        for seed in range(4):
            src = random_linear_source(4, 4, 2, seed)
            oracle = make_oracle(src)
            report = r_co(oracle, full_mask(4))
            assert report.c_sk == oracle.total_entropy() - report.r_co
            ok, _ = region_contains(report.rates, report.family, oracle)
            assert ok

    @pytest.mark.parametrize("seed", range(4))
    def test_rco_monotone_in_active_set(self, seed):
        src = random_linear_source(4, 4, 2, seed)
        oracle = make_oracle(src)
        smaller = r_co(oracle, 0b0011).r_co
        mid = r_co(oracle, 0b0111).r_co
        larger = r_co(oracle, 0b1111).r_co
        assert smaller <= mid <= larger
