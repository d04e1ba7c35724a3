"""The LP entry points on integer data, and their integer certificates.

``solve``, ``uniqueness_test`` and ``feasible_point`` hand ``simplex_min``
ints over common denominators, get back ints over one denominator, and
certify that answer in ints. These tests feed ``solve`` broken answers
through a patched ``simplex_min``, check the alternative-optimum search
against the constraint-per-row reference on random systems, and check that
the integer forms give the values the Fraction forms give.
"""

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omniscio.simplex as simplex
from omniscio import (
    build_family,
    make_counterexample,
    make_oracle,
    make_system,
    random_linear_source,
    solve,
    uniqueness_test,
)
from omniscio.errors import InternalContractError, InvalidInputError
from omniscio.simplex import ConstraintSystem, feasible_point
from omniscio.sources import TabularSource
from omniscio.subsets import complement, full_mask

from helpers import (
    LpInfeasibleError,
    admissible,
    brute_force_lp_min,
    fraction_b,
    lp_solution,
    packed_system,
    rational_simplex_min,
    reference_simplex_min,
    reference_uniqueness_test,
    row_sum,
    solution_values,
    sw_gap,
)

F = Fraction


def generative_system():
    source, active = make_counterexample()
    oracle = make_oracle(source)
    return build_family(6, active).system(oracle)


def scaled_system():
    # Fractional b, so the system's denominator b_den is 12, not 1.
    masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    b = [F(1, 2), F(1, 3), F(1), F(1, 4), F(2, 3), F(5, 6)]
    return make_system(3, masks, b)


def zero_row_system():
    # The only optimum x = (0, 1/2, 1) makes the singleton rows tight and
    # the others slack, so the only dual is y = 1 on the singletons, weight
    # 1 on the row x1 >= 0 among them; a unit more there keeps strong
    # duality and complementary slackness, and only y.A = 1 catches it.
    masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    b = [F(0), F(1, 2), F(1, 3), F(1), F(1, 2), F(1)]
    return make_system(3, masks, b)


SYSTEMS = {
    "generative": generative_system,
    "scaled": scaled_system,
    "zero-row": zero_row_system,
}


def tampered(change):
    """A simplex_min that hands solve ``change(z, pi, den)`` for its (z, pi),
    both int numerators over den."""
    real = simplex.simplex_min

    def wrapper(rows, rhs, costs, start, w):
        z, pi, objective, den = real(rows, rhs, costs, start, w)
        z, pi = change(list(z), list(pi), den)
        return z, pi, objective, den

    return wrapper


def move_to_slack_row(system):
    x = solve(system).x
    b = fraction_b(system)
    slack = [i for i in range(system.l) if row_sum(system, x, i) > b[i]]

    def change(z, pi, den):
        i = next(i for i, v in enumerate(z) if v)
        z[slack[0]], z[i] = z[slack[0]] + z[i], 0
        return z, pi

    return change


def shift_multipliers(system):
    return lambda z, pi, den: (z, [v - den for v in pi])


def one_unit_off(system):
    def change(z, pi, den):
        i = next(i for i, v in enumerate(z) if v)
        z[i] += den
        return z, pi

    return change


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize(
    "breakage", [move_to_slack_row, shift_multipliers, one_unit_off]
)
def test_solve_rejects_a_broken_answer(name, breakage, monkeypatch):
    system = SYSTEMS[name]()
    change = breakage(system)
    monkeypatch.setattr(simplex, "simplex_min", tampered(change))
    with pytest.raises(InternalContractError):
        solve(system)


THREE = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]


def test_solve_rejects_a_negative_dual_weight(monkeypatch):
    # At x = (1, 1, 1) the rows {1}, {2} and {1,2} are tight and
    # b{1} + b{2} = b{1,2}, so moving dual weight from {1} and {2} onto
    # {1,2} keeps y.A = 1, strong duality and complementary slackness; only
    # y >= 0 catches the weights it drives below zero.
    system = make_system(3, THREE, [F(1), F(1), F(2), F(1), F(0), F(0)])
    assert solve(system).x == (1, 1, 1)

    def change(z, pi, den):
        t = max(z[0], z[1]) + den
        z[0], z[1], z[2] = z[0] - t, z[1] - t, z[2] + t
        return z, pi

    monkeypatch.setattr(simplex, "simplex_min", tampered(change))
    with pytest.raises(InternalContractError):
        solve(system)


def test_solve_rejects_an_infeasible_point(monkeypatch):
    # The optimal face is x1 + x2 = 1, x3 = 1, and the dual weight sits on
    # the rows {1,2} and {3}. Moving x along (1, -1, 0) past that face keeps
    # those rows tight and sum x unchanged; only the check of every row
    # catches x2 < 0.
    system = make_system(3, THREE, [F(0), F(0), F(1), F(1), F(1), F(1)])
    sol = solve(system)
    assert {i for i, v in enumerate(sol.y) if v} == {2, 3}

    def change(z, pi, den):
        t = den - pi[1]  # (x2 + 1) * den, the multipliers being -x * den
        return z, [pi[0] - t, pi[1] + t, pi[2]]

    monkeypatch.setattr(simplex, "simplex_min", tampered(change))
    with pytest.raises(InternalContractError):
        solve(system)


def test_untampered_scaled_system_is_certified():
    system = scaled_system()
    sol = solve(system)
    assert sol.objective == brute_force_lp_min(system)
    assert all(type(v) is int for v in [*sol.x_num, sol.x_den, *sol.y_num, sol.y_den])
    assert all(type(v) is Fraction for v in [*sol.x, *sol.y, sol.objective])


def test_solve_and_a_unique_verdict_build_no_fraction(monkeypatch):
    # The solution keeps the LP's ints; its Fraction views are built only
    # when read. This system's only optimum is x = (0, 1/2, 1).
    system = zero_row_system()
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    sol = solve(system)
    assert uniqueness_test(system, sol).unique
    assert built == []
    assert sol.x and built


# One optimality proof, ``simplex._unproven``, certifies the answers of the
# simplex and the solutions handed to ``uniqueness_test``. Each case plants
# an answer (x, y) on THREE, with b, at which the named condition is the
# first of the proof to fail: every row holds, y >= 0, complementary
# slackness, y.A = 1. Strong duality b.y = sum x cannot fail first: once
# the others hold, sum x = y.(A x) = b.y + y.slack = b.y, which is why
# tests/mutants.py lists its refusal as equivalent. On FACE the optimal
# face is x1 + x2 = 1, x3 = 1, and y = 1 on the rows {1,2} and {3} proves it.
FACE = [0, 0, 1, 1, 1, 1]
PLANTED = {
    # x2 < 0 off the face, with sum x and the dual's rows kept.
    "row": (FACE, (2, -1, 1), (0, 0, 1, 1, 0, 0), "primal row violated"),
    # The dual of test_solve_rejects_a_negative_dual_weight.
    "negative-weight": (
        [1, 1, 2, 1, 0, 0], (1, 1, 1), (-1, -1, 2, 1, 0, 0),
        "negative dual weight",
    ),
    # A point above the optimum: the row {1,2} is slack under its weight.
    "slackness": (
        FACE, (1, 1, 1), (0, 0, 1, 1, 0, 0), "complementary slackness violated"
    ),
    # A unit more on the tight row {2}, of b = 0: b.y stays 2 = sum x.
    "y.A": (
        FACE, (1, 0, 1), (0, 1, 1, 1, 0, 0), "dual feasibility y.A = c violated"
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_fault_is_refused_by_both_callers(name, monkeypatch):
    b, x, y, condition = PLANTED[name]
    system = make_system(3, THREE, b)
    solution = lp_solution(x, y)
    with pytest.raises(InvalidInputError, match=re.escape(condition)):
        uniqueness_test(system, solution)

    def answers(rows, rhs, costs, start, w):
        # x and y as the vertex and the multipliers -x, over den = 1.
        return list(y), [-v for v in x], sum(x), 1

    monkeypatch.setattr(simplex, "simplex_min", answers)
    with pytest.raises(InternalContractError, match=f"^{re.escape(condition)}$"):
        solve(system)


# Singleton rows with small right-hand sides, and up to three rows on two
# or more terminals whose larger b repeat: those rows bind, and where they
# do not pin x down the optimal face is an edge or more. Of the 200 draws
# of the test below, 115 are NotUnique.
low_rhs = st.sampled_from([F(0), F(1, 2)])
high_rhs = st.sampled_from([F(1), F(2)])


@st.composite
def tied_systems(draw):
    m = draw(st.integers(3, 5))
    wide = st.integers(3, full_mask(m) - 1).filter(lambda mask: mask & (mask - 1))
    extra = draw(st.sets(wide, max_size=3))
    singles = draw(st.lists(low_rhs, min_size=m, max_size=m))
    masks = sorted(extra | {1 << j for j in range(m)})
    b = [
        draw(high_rhs) if mask in extra else singles[mask.bit_length() - 1]
        for mask in masks
    ]
    return make_system(m, masks, b)


def assert_alternative_is_optimal(system, sol, cert):
    """A NotUnique alternative is >= 0, meets every row, has sum z = R and
    is not x."""
    if cert.unique:
        return
    alt = cert.alternative
    assert alt != sol.x and min(alt) >= 0
    b = fraction_b(system)
    assert sum(alt) == sol.objective
    assert all(row_sum(system, alt, i) >= b[i] for i in range(system.l))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_systems())
def test_uniqueness_matches_reference_on_systems_with_ties(system):
    sol = solve(system)
    assert sol.objective == brute_force_lp_min(system)
    new = uniqueness_test(system, sol)
    old = reference_uniqueness_test(system, sol)
    assert new.verdict == old.verdict
    assert new.auxiliary_value == old.auxiliary_value
    assert_alternative_is_optimal(system, sol, new)


def tabular_oracle():
    pmf = (
        ((0, 0, 0), F(1, 4)), ((0, 1, 1), F(1, 4)),
        ((1, 0, 1), F(1, 8)), ((1, 1, 0), F(3, 8)),
    )
    return make_oracle(TabularSource(3, (2, 2, 2), pmf))


def family_systems():
    for seed in range(3):
        oracle = make_oracle(random_linear_source(5, 5, 2, seed))
        yield build_family(5, full_mask(5)), oracle
    source, active = make_counterexample()
    yield build_family(6, active), make_oracle(source)
    yield build_family(3, 0b111), tabular_oracle()


@pytest.mark.parametrize("index", range(5))
def test_table_scale_gives_the_fraction_system_results(index):
    family, oracle = list(family_systems())[index]
    system = family.system(oracle)
    fractions = make_system(system.m, system.row_masks, list(fraction_b(system)))
    assert isinstance(system, ConstraintSystem)
    assert fraction_b(system) == fraction_b(fractions)
    assert solution_values(solve(system)) == solution_values(solve(fractions))
    sol = solve(system)
    assert uniqueness_test(system, sol) == uniqueness_test(fractions, sol)
    m = oracle.m
    scale, joint = oracle.scale, oracle.joint
    assert system.b_den == scale
    partitions = admissible(m, family.active)[:12]
    for partition in partitions:
        comps = [complement(block, m) for block in partition]
        eq_b = [oracle.cond_entropy(c) for c in comps]
        eq_num = [joint[-1] - joint[block] for block in partition]
        point = feasible_point(m, family.masks, fraction_b(system), comps, eq_b)
        assert feasible_point(
            m,
            family.masks,
            [F(v, scale) for v in system.b_num],
            comps,
            [F(v, scale) for v in eq_num],
        ) == point
        if point is not None:
            # The point itself, read back over the table's scale: every row
            # holds and every block complement is tight.
            assert all(sw_gap(point, mask, oracle) >= 0 for mask in family.masks)
            assert all(sw_gap(point, c, oracle) == 0 for c in comps)


def permuted(system, order):
    """The system with row order[i] as its row i."""
    return ConstraintSystem(
        system.m,
        tuple(system.row_masks[i] for i in order),
        tuple(system.b_num[i] for i in order),
        system.b_den,
    )


# The tied systems above and the family systems, so both verdicts.
any_system = st.one_of(
    tied_systems(),
    st.sampled_from([family.system(oracle) for family, oracle in family_systems()]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(any_system.flatmap(
    lambda system: st.tuples(st.just(system), st.permutations(range(system.l)))
))
def test_uniqueness_verdict_and_value_do_not_depend_on_the_row_order(data):
    # uniqueness_test hands _optimum the rows tight at x first; the optimum
    # of its LP is the auxiliary value whatever the order of the rows. The
    # dual weights follow their rows.
    system, order = data
    sol = solve(system)
    base = uniqueness_test(system, sol)
    moved = replace(
        sol,
        y_num=tuple(sol.y_num[i] for i in order),
        tight_rows=tuple(k for k, i in enumerate(order) if i in sol.tight_rows),
    )
    shuffled = uniqueness_test(permuted(system, order), moved)
    assert shuffled.verdict == base.verdict
    assert shuffled.auxiliary_value == base.auxiliary_value
    assert_alternative_is_optimal(system, sol, base)
    assert_alternative_is_optimal(system, sol, shuffled)


integer_cells = st.integers(-3, 3)


@st.composite
def integer_systems(draw):
    """[I | A] with rhs >= 0, started at the identity: the two-phase
    reference's phase 1 ends at that basis with every row unchanged."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 7))
    matrix = [
        [int(k == i) for k in range(rows)]
        + draw(st.lists(integer_cells, min_size=cols, max_size=cols))
        for i in range(rows)
    ]
    rhs = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    costs = draw(st.lists(integer_cells, min_size=rows + cols, max_size=rows + cols))
    return matrix, rhs, costs, list(range(rows))


def outcome(fn, *system):
    try:
        return fn(*system)
    except (LpInfeasibleError, simplex.LpUnboundedError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_systems())
def test_all_int_systems_match_their_fraction_form(system):
    matrix, rhs, costs, start = system
    new = outcome(simplex.simplex_min, *packed_system(matrix, rhs, costs, start))
    as_fractions = (
        [[F(v) for v in row] for row in matrix],
        [F(v) for v in rhs],
        [F(v) for v in costs],
    )
    if not isinstance(new, type):
        z, y, objective, den = new
        assert den > 0 and all(type(v) is int for v in [*z, *y, objective])
        new = [F(v, den) for v in z], [F(v, den) for v in y], F(objective, den)
    assert new == outcome(rational_simplex_min, *as_fractions, start)
    assert new == outcome(reference_simplex_min, *as_fractions)
