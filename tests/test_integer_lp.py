"""The LP entry points on integer data, and their integer certificates.

``solve``, ``uniqueness_test`` and ``feasible_point`` hand ``simplex_min``
ints over common denominators and certify its answer in ints. These tests
feed ``solve`` broken answers through a patched ``simplex_min``, check the
alternative-optimum search against the constraint-per-row reference for
general objectives, and check that the integer forms give the values the
Fraction forms give.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omniscio.simplex as simplex
from omniscio import (
    build_family,
    enumerate_admissible,
    make_counterexample,
    make_oracle,
    make_system,
    random_linear_source,
    solve,
    uniqueness_test,
)
from omniscio.errors import InternalContractError
from omniscio.simplex import ConstraintSystem, feasible_point
from omniscio.sources import TabularSource, scaled_joint_table
from omniscio.subsets import complement, full_mask

from helpers import (
    brute_force_lp_min,
    reference_simplex_min,
    reference_uniqueness_test,
)

F = Fraction


def generative_system():
    source, active = make_counterexample()
    oracle = make_oracle(source)
    return build_family(6, active).system(oracle)


def scaled_system():
    # Fractional b and a general integer c, so both denominators are used.
    masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    b = [F(1, 2), F(1, 3), F(1), F(1, 4), F(2, 3), F(5, 6)]
    return make_system(3, masks, b, [2, 3, 1])


def zero_row_system():
    # The optimum x = (0, 1, 1) makes the row x1 >= 0 tight and gives it
    # dual weight 2; a unit more there keeps strong duality and
    # complementary slackness, and only y.A = c catches it.
    masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    b = [F(0), F(1, 2), F(1), F(1), F(1), F(3, 2)]
    return make_system(3, masks, b, [3, 1, 1])


SYSTEMS = {
    "generative": generative_system,
    "scaled": scaled_system,
    "zero-row": zero_row_system,
}


def tampered(change):
    """A simplex_min that hands solve ``change(z, pi)`` for its (z, pi)."""
    real = simplex.simplex_min

    def wrapper(matrix, rhs, costs):
        z, pi, objective = real(matrix, rhs, costs)
        z, pi = change(list(z), list(pi))
        return z, pi, objective

    return wrapper


def move_to_slack_row(system):
    x = solve(system).x
    slack = [i for i in range(system.l) if system.row_sum(x, i) > system.b[i]]

    def change(z, pi):
        i = next(i for i, v in enumerate(z) if v)
        z[slack[0]], z[i] = z[slack[0]] + z[i], F(0)
        return z, pi

    return change


def shift_multipliers(system):
    return lambda z, pi: (z, [v - 1 for v in pi])


def one_unit_off(system):
    def change(z, pi):
        i = next(i for i, v in enumerate(z) if v)
        z[i] += 1
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
    # {1,2} keeps y.A = c, strong duality and complementary slackness; only
    # y >= 0 catches the weights it drives below zero.
    system = make_system(3, THREE, [F(1), F(1), F(2), F(1), F(0), F(0)])
    assert solve(system).x == (1, 1, 1)

    def change(z, pi):
        t = max(z[0], z[1]) + 1
        z[0], z[1], z[2] = z[0] - t, z[1] - t, z[2] + t
        return z, pi

    monkeypatch.setattr(simplex, "simplex_min", tampered(change))
    with pytest.raises(InternalContractError):
        solve(system)


def test_solve_rejects_an_infeasible_point(monkeypatch):
    # The optimal face is x1 + x2 = 1, x3 = 1, and the dual weight sits on
    # the rows {1,2} and {3}. Moving x along (1, -1, 0) past that face keeps
    # those rows tight and c.x unchanged; only the check of every row
    # catches x2 < 0.
    system = make_system(3, THREE, [F(0), F(0), F(1), F(1), F(1), F(1)])
    sol = solve(system)
    assert {i for i, v in enumerate(sol.y) if v} == {2, 3}

    def change(z, pi):
        t = sol.x[1] + 1  # the multipliers are -x
        return z, [pi[0] - t, pi[1] + t, pi[2]]

    monkeypatch.setattr(simplex, "simplex_min", tampered(change))
    with pytest.raises(InternalContractError):
        solve(system)


def test_untampered_scaled_system_is_certified():
    system = scaled_system()
    sol = solve(system)
    assert sol.objective == brute_force_lp_min(system)
    assert all(type(v) is Fraction for v in [*sol.x, *sol.y, sol.objective])


# Few distinct weights and right-hand sides, and often one weight for every
# terminal, so that optimal faces of dimension one or more (a NotUnique
# verdict) come up often.
objective_weights = st.sampled_from([F(2), F(3), F(1, 2), F(3, 2), F(2, 3)])
rhs_values = st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3, 4)])

general_systems = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.sets(st.integers(1, full_mask(m) - 1), max_size=3),
        st.lists(rhs_values, min_size=1 << m, max_size=1 << m),
        st.one_of(
            st.lists(objective_weights, min_size=m, max_size=m),
            objective_weights.map(lambda w: [w] * m),
        ),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(general_systems)
def test_uniqueness_matches_reference_for_general_objectives(data):
    m, extra, b_pool, c = data
    masks = sorted(extra | {1 << j for j in range(m)})
    system = make_system(m, masks, [b_pool[mask] for mask in masks], c)
    sol = solve(system)
    assert sol.objective == brute_force_lp_min(system)
    new = uniqueness_test(system, sol)
    old = reference_uniqueness_test(system, sol)
    assert new.verdict == old.verdict
    assert new.auxiliary_value == old.auxiliary_value
    if not new.unique:
        alt = new.alternative
        assert alt != sol.x and min(alt) >= 0
        assert sum(cj * v for cj, v in zip(system.c, alt)) == sol.objective
        assert all(system.row_sum(alt, i) >= system.b[i] for i in range(system.l))


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
    fractions = make_system(system.m, system.row_masks, list(system.b))
    assert isinstance(system, ConstraintSystem) and system.b == fractions.b
    assert solve(system) == solve(fractions)
    sol = solve(system)
    assert uniqueness_test(system, sol) == uniqueness_test(fractions, sol)
    m = oracle.m
    scale, joint, _ = scaled_joint_table(oracle)
    assert system.b_den == scale
    partitions = list(enumerate_admissible(m, family.active))[:12]
    for partition in partitions:
        comps = [complement(block, m) for block in partition]
        eq_b = [oracle.cond_entropy(c) for c in comps]
        eq_num = [joint[-1] - joint[block] for block in partition]
        assert feasible_point(
            m, family.masks, system.b_num, comps, eq_num, scale
        ) == feasible_point(m, family.masks, system.b, comps, eq_b)


integer_cells = st.integers(-3, 3)


@st.composite
def integer_systems(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 7))
    matrix = [
        draw(st.lists(integer_cells, min_size=cols, max_size=cols))
        for _ in range(rows)
    ]
    rhs = draw(st.lists(integer_cells, min_size=rows, max_size=rows))
    costs = draw(st.lists(integer_cells, min_size=cols, max_size=cols))
    return matrix, rhs, costs


def outcome(fn, *system):
    try:
        return fn(*system)
    except (simplex.LpInfeasibleError, simplex.LpUnboundedError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_systems())
def test_all_int_systems_match_their_fraction_form(system):
    matrix, rhs, costs = system
    new = outcome(simplex.simplex_min, matrix, rhs, costs)
    as_fractions = (
        [[F(v) for v in row] for row in matrix],
        [F(v) for v in rhs],
        [F(v) for v in costs],
    )
    assert new == outcome(simplex.simplex_min, *as_fractions)
    assert new == outcome(reference_simplex_min, *as_fractions)
    if not isinstance(new, type):
        assert all(type(v) is Fraction for v in [*new[0], *new[1], new[2]])
