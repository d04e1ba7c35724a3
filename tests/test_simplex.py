"""Exact LP solver: contracts, examples, uniqueness, brute-force agreement."""

from fractions import Fraction

import pytest

from omniscio import (
    build_family,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    make_system,
    random_linear_source,
    solve,
    uniqueness_test,
)
from omniscio.errors import InvalidInputError
from omniscio.simplex import LpSolution
from omniscio.subsets import full_mask, mask_from_terminals

from helpers import brute_force_lp_min, fraction_b, row_sum

F = Fraction
PUBLISHED_X = (F(1, 4), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 2))


def table_system():
    oracle = make_oracle(counterexample_entropy_vector(), validate=False)
    family = build_family(6, 0b111)
    return family.system(oracle), family


def generative_system():
    src, active = make_counterexample()
    oracle = make_oracle(src)
    family = build_family(6, active)
    return family.system(oracle), family


class TestSolveExamples:
    def test_published_table_objective_and_vertex(self):
        system, _ = table_system()
        sol = solve(system)
        assert sol.objective == F(9, 4)
        assert sol.x == PUBLISHED_X

    def test_two_independent_bits(self):
        system = make_system(2, [0b01, 0b10], [F(1), F(1)])
        sol = solve(system)
        assert sol.x == (F(1), F(1))
        assert sol.objective == 2

    def test_zero_rhs(self):
        masks = [b for b in range(1, 7)]
        system = make_system(3, masks, [F(0)] * 6)
        sol = solve(system)
        assert sol.objective == 0
        assert sol.x == (F(0), F(0), F(0))

    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidInputError):
            make_system(2, [0b00], [F(0)])
        with pytest.raises(InvalidInputError):
            make_system(2, [0b11], [F(1)])
        with pytest.raises(InvalidInputError):
            solve(make_system(2, [0b01, 0b10], [F(-1), F(0)]))


class TestTightRows:
    def test_generative_counterexample_has_the_six_published_rows(self):
        system, family = generative_system()
        sol = solve(system)
        expected = {
            mask_from_terminals(t, 6)
            for t in ([1, 3, 4], [2, 3, 5], [1, 2, 6],
                      [1, 2, 4, 5, 6], [1, 3, 4, 5, 6], [2, 3, 4, 5, 6])
        }
        assert {system.row_masks[i] for i in sol.tight_rows} == expected

    def test_published_table_tightens_twelve_rows_at_the_same_vertex(self):
        # The cardinality table makes every 2-active 3-set tight as well;
        # the six-row claim holds only for the generative entropies.
        system, _ = table_system()
        sol = solve(system)
        assert sol.x == PUBLISHED_X
        assert len(sol.tight_rows) == 12

    def test_dual_support_is_subset_of_tight_rows(self):
        for seed in range(5):
            src = random_linear_source(4, 4, 2, seed)
            oracle = make_oracle(src)
            family = build_family(4, full_mask(4))
            sol = solve(family.system(oracle))
            tight = set(sol.tight_rows)
            for i, w in enumerate(sol.y):
                if w > 0:
                    assert i in tight
            assert sol.support_size == len(sol.y) - sol.y.count(0) < len(sol.y)

    def test_two_terminal_system_both_tight(self):
        system = make_system(2, [0b01, 0b10], [F(1), F(1)])
        sol = solve(system)
        assert sol.tight_rows == (0, 1)


class TestDualContracts:
    @pytest.mark.parametrize("seed", range(10))
    def test_verified_contracts_hold_on_random_families(self, seed):
        # solve() raises InternalContractError if strong duality, dual
        # feasibility, or complementary slackness fail; reaching the
        # assertions below means all contracts were verified exactly.
        src = random_linear_source(5, 5, 2, seed)
        oracle = make_oracle(src)
        family = build_family(5, full_mask(5))
        system = family.system(oracle)
        sol = solve(system)
        b = fraction_b(system)
        assert sum(sol.y[i] * b[i] for i in range(system.l)) == sol.objective
        assert sol.support_size >= 2

    def test_determinism(self):
        system, _ = generative_system()
        a, b = solve(system), solve(system)
        assert a.x == b.x and a.y == b.y


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_small_family_optimum_matches_vertex_enumeration(self, seed):
        src = random_linear_source(3, 4, 2, seed)
        oracle = make_oracle(src)
        family = build_family(3, full_mask(3))
        system = family.system(oracle)
        assert solve(system).objective == brute_force_lp_min(system)

    def test_arbitrary_small_systems(self):
        cases = [
            (3, [0b001, 0b010, 0b100, 0b011], [F(1), F(2), F(1), F(4)]),
            (3, [0b001, 0b010, 0b100, 0b110], [F(1, 2), F(1), F(0), F(2)]),
            (2, [0b01, 0b10], [F(3, 7), F(2, 5)]),
        ]
        for m, masks, b in cases:
            system = make_system(m, masks, b)
            assert solve(system).objective == brute_force_lp_min(system)


class TestUniqueness:
    def test_generative_counterexample_is_unique(self):
        system, _ = generative_system()
        sol = solve(system)
        cert = uniqueness_test(system, sol)
        assert cert.unique and cert.auxiliary_value == 0

    def test_published_table_optimum_is_unique(self):
        system, _ = table_system()
        cert = uniqueness_test(system, solve(system))
        assert cert.verdict == "Unique"

    def test_degenerate_face_detected(self):
        # min x1+x2+x3 with R3 = 1 and R1 + R2 = 1 as the optimal face.
        masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
        b = [F(0), F(0), F(1), F(1), F(1), F(1)]
        system = make_system(3, masks, b)
        sol = solve(system)
        assert sol.objective == 2
        cert = uniqueness_test(system, sol)
        assert not cert.unique
        alt = cert.alternative
        assert alt is not None and alt != sol.x
        assert sum(alt) == 2
        b = fraction_b(system)
        for i in range(system.l):
            assert row_sum(system, alt, i) >= b[i]

    def test_optimal_point_off_a_vertex_is_not_unique(self):
        # min x1+x2+x3 with x1 + x2 >= 1: the optimal face is the edge from
        # (1, 0, 0) to (0, 1, 0). Along it the rows tight at the midpoint
        # stay tight, so the largest slack there is 0, as at a unique
        # vertex; the face LP's vertex is not the midpoint all the same.
        system = make_system(3, [0b001, 0b010, 0b100, 0b011], [0, 0, 0, 1])
        midpoint = LpSolution(F(1), (F(1, 2), F(1, 2), F(0)), (0, 0, 1, 1), (2, 3))
        cert = uniqueness_test(system, midpoint)
        assert cert.verdict == "NotUnique" and cert.auxiliary_value == 0
        assert cert.alternative in {(1, 0, 0), (0, 1, 0)}

    def test_two_independent_bits_unique(self):
        system = make_system(2, [0b01, 0b10], [F(1), F(1)])
        cert = uniqueness_test(system, solve(system))
        assert cert.unique

    def test_rejects_non_optimal_solution(self):
        system = make_system(2, [0b01, 0b10], [F(1), F(1)])
        sol = solve(system)
        fake = type(sol)(sol.objective + 1, sol.x, sol.y, sol.tight_rows)
        with pytest.raises(InvalidInputError):
            uniqueness_test(system, fake)

    @pytest.mark.parametrize(
        "x,message",
        [
            ((F(-1), F(3)), "not feasible for the system"),
            ((F(1, 2), F(3, 2)), "not feasible for the system"),
        ],
        ids=["negative", "outside-region"],
    )
    def test_rejects_point_off_the_region(self, x, message):
        # Both points keep the optimal total 2, so only the row check fails;
        # the negative coordinate fails its singleton row.
        system = make_system(2, [0b01, 0b10], [F(1), F(1)])
        sol = solve(system)
        fake = type(sol)(sol.objective, x, sol.y, sol.tight_rows)
        with pytest.raises(InvalidInputError, match=message):
            uniqueness_test(system, fake)
