"""The m-row dual LP forms against the constraint-per-row reference path.

``solve``, ``uniqueness_test`` and ``feasible_point`` hand ``simplex_min``
one equality row per terminal; ``helpers.reference_*`` keep the equational
forms with one row per constraint. Both are exact, so every quantity that
does not depend on which optimal vertex is picked must agree bit for bit.
A partition's feasibility system has a point exactly when its mutual
dependence equals C_SK (the witness identity in ``tightness``), so
``feasible_point``'s verdicts are checked against that, with C_SK from the
reference dual solve.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omniscio.simplex as simplex
from omniscio import (
    build_family,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    make_system,
    partition_dependence,
    random_linear_source,
    solve,
    uniqueness_test,
)
from omniscio.errors import InternalContractError
from omniscio.simplex import feasible_point
from omniscio.subsets import complement, full_mask

from helpers import (
    admissible,
    brute_force_lp_min,
    rationals,
    reference_dual_solve,
    reference_solve,
    reference_uniqueness_test,
)

F = Fraction


def instances(seeds):
    for m in (3, 4, 5, 6):
        for active in (full_mask(m), 0b111):
            for seed in seeds:
                source = random_linear_source(m, m, 2, seed)
                yield f"m{m}-a{active:b}-s{seed}", source, active
    source, active = make_counterexample()
    yield "generative", source, active
    yield "paper-h", counterexample_entropy_vector(), 0b111


def over(cases):
    ids = [case[0] for case in cases]
    return pytest.mark.parametrize("name,source,active", cases, ids=ids)


def oracle_and_family(source, active):
    oracle = make_oracle(source, validate=False)
    return oracle, build_family(oracle.m, active)


@over(list(instances(range(3))))
def test_solve_and_uniqueness_match_reference(name, source, active):
    oracle, family = oracle_and_family(source, active)
    system = family.system(oracle)
    new, old = solve(system), reference_solve(system)
    assert new.objective == old.objective
    assert new.tight_rows == old.tight_rows
    new_cert = uniqueness_test(system, new)
    old_cert = reference_uniqueness_test(system, old)
    assert new_cert.verdict == old_cert.verdict
    assert new_cert.auxiliary_value == old_cert.auxiliary_value


@over(list(instances([0])))
def test_feasible_point_verdicts_match_reference(name, source, active):
    # Every admissible partition, not only those passing the witness
    # search's arithmetic filter, so infeasible systems are covered too.
    oracle, family = oracle_and_family(source, active)
    m = oracle.m
    system = family.system(oracle)
    c_sk = oracle.total_entropy() - reference_dual_solve(system).objective
    b = [oracle.cond_entropy(mask) for mask in family.masks]
    found = 0
    for partition in admissible(m, active):
        comps = [complement(block, m) for block in partition]
        eq_b = [oracle.cond_entropy(c) for c in comps]
        new = feasible_point(m, family.masks, b, comps, eq_b)
        meets = partition_dependence(oracle, partition) == c_sk
        assert (new is not None) == meets, partition
        found += new is not None
    if active == full_mask(m):
        assert found  # the bound is tight when every terminal is active


small_systems = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.sets(st.integers(1, full_mask(m) - 1)),
        st.lists(st.sampled_from(rationals(0, 3, 4)), min_size=1 << m,
                 max_size=1 << m),
    )
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_systems)
def test_objective_matches_vertex_enumeration(data):
    m, extra, b_pool = data
    # The singleton rows keep the program bounded with a basic optimum.
    masks = sorted(extra | {1 << j for j in range(m)})
    system = make_system(m, masks, [b_pool[mask] for mask in masks])
    assert solve(system).objective == brute_force_lp_min(system)


# Every singleton row plus up to four more, and b >= 0.
rate_systems = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.sets(st.integers(1, full_mask(m) - 1), max_size=4),
        st.lists(st.sampled_from(rationals(0, 3, 4)), min_size=1 << m,
                 max_size=1 << m),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rate_systems)
def test_solve_matches_reference_on_rate_systems(data):
    m, extra, b_pool = data
    masks = sorted(extra | {1 << j for j in range(m)})
    system = make_system(m, masks, [b_pool[mask] for mask in masks])
    # The two-phase path through the same dual form: its phase 1 ends at
    # the singleton basis that solve starts from, so x, y and the tight
    # rows agree exactly, even where the optimum is not unique.
    new = solve(system)
    assert new == reference_dual_solve(system)
    assert new.objective == reference_solve(system).objective


def test_alternative_optimum_is_certified(monkeypatch):
    # min x1+x2+x3 with R3 = 1 and R1 + R2 = 1 as the optimal face.
    masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    system = make_system(3, masks, [F(0), F(0), F(1), F(1), F(1), F(1)])
    sol = solve(system)
    assert not uniqueness_test(system, sol).unique
    real = simplex.simplex_min

    def returns_the_solution(matrix, rhs, costs, start):
        # sol.x as the multipliers: everything over den * k, k the lcm of
        # x's denominators, so that x * den * k is an int vector.
        z, _, objective, den = real(matrix, rhs, costs, start)
        k = math.lcm(*(v.denominator for v in sol.x))
        multipliers = [int(v * den * k) for v in sol.x]
        return [v * k for v in z], multipliers, objective * k, den * k

    monkeypatch.setattr(simplex, "simplex_min", returns_the_solution)
    with pytest.raises(InternalContractError):
        uniqueness_test(system, sol)


def test_unique_verdict_is_certified(monkeypatch):
    # The same optimal face as above, auxiliary value 3. A simplex_min that
    # returns the given optimum as the uniqueness LP's maximizer, with the
    # objective that point attains, claims an auxiliary value of 0; only a
    # certificate of that maximum can refuse it.
    masks = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    system = make_system(3, masks, [F(0), F(0), F(1), F(1), F(1), F(1)])
    sol = solve(system)
    assert uniqueness_test(system, sol).auxiliary_value == 3
    real = simplex.simplex_min

    def returns_the_optimum(matrix, rhs, costs, start):
        z, _, _, den = real(matrix, rhs, costs, start)
        k = math.lcm(*(v.denominator for v in sol.x))
        # The multipliers are -x, so they carry the point as -sol.x, and
        # the objective is their value multipliers.rhs.
        multipliers = [-int(v * den * k) for v in sol.x]
        objective = sum(p * r for p, r in zip(multipliers, rhs))
        return [v * k for v in z], multipliers, objective, den * k

    monkeypatch.setattr(simplex, "simplex_min", returns_the_optimum)
    # The point holds every row, so only the certificate refuses it.
    with pytest.raises(InternalContractError, match="complementary slackness"):
        uniqueness_test(system, sol)


def test_feasible_point_is_certified(monkeypatch):
    args = (2, [0b01, 0b10], [F(1), F(1)], [0b01], [F(2)])
    assert feasible_point(*args) == (F(2), F(1))
    real = simplex.simplex_min

    def shifted(matrix, rhs, costs, start):
        z, pi, objective, den = real(matrix, rhs, costs, start)
        return z, [v - den for v in pi], objective, den

    monkeypatch.setattr(simplex, "simplex_min", shifted)
    with pytest.raises(InternalContractError):
        feasible_point(*args)
