"""The entropy-table verbs' one integer pass against the paths it replaced.

``enumerate_admissible`` walks restricted-growth strings in one generator
frame per block count k and must yield exactly ``helpers.admissible``, the
admissible ones of every set partition, in the same order; the elemental
squares that let an exact table skip the pair listing are checked on the
packed table and must decide supermodularity as every pair does.
``parse_fraction`` reads plain ASCII ``p`` and ``p/q`` with ``int`` and
must agree with ``Fraction`` on everything else. The oracle's data is
one integer table over one scale: its Fraction reads must be built from
that table, a linear source and its own table loaded as an entropy vector
must give the same oracle, and every reader of the table (the rate LP's
right-hand side, I(A)) must see the values the Fraction reads give.
"""

import random
import re
from dataclasses import fields
from fractions import Fraction

import pytest

from omniscio import (
    build_family,
    enumerate_admissible,
    make_counterexample,
    make_oracle,
    mutual_dependence_bound,
    random_linear_source,
)
from omniscio.errors import InvalidInputError
from omniscio.fileio import parse_fraction
from omniscio.simplex import make_system
from omniscio import sources
from omniscio.sources import (
    DEFAULT_TOLERANCE,
    EntropyOracle,
    EntropyVector,
    check_validity,
)
from omniscio.subsets import full_mask

from helpers import (
    admissible,
    brute_force_joint_entropy,
    brute_force_mutual_dependence_bound,
    fraction_b,
    oracle_from_table,
)
from test_integer_tables import perturbed_vector, tabular_source

F = Fraction


def assert_same_partitions(m, active):
    walked = [p for _, p in enumerate_admissible(m, active, bytes(1 << m))]
    assert walked == admissible(m, active), (m, active)


class TestEnumeratorMatchesReference:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_every_active_set(self, m):
        for active in range(1 << m):
            if active.bit_count() >= 2:
                assert_same_partitions(m, active)

    @pytest.mark.parametrize("m", (8, 9))
    def test_sampled_active_sets(self, m):
        rng = random.Random(m)
        candidates = [a for a in range(1 << m) if a.bit_count() >= 2]
        for active in [full_mask(m)] + rng.sample(candidates, 8):
            assert_same_partitions(m, active)

    @pytest.mark.parametrize(
        "m, active, k",
        [
            (4, 0b0001, 2),  # |A| < 2
            (4, 0b0000, 2),
        ],
    )
    def test_bad_arguments_raise_on_call(self, m, active, k):
        with pytest.raises(InvalidInputError):
            enumerate_admissible(m, active, bytes(1 << m))  # not iterated

    def test_out_of_range_active_set_raises_on_call(self):
        with pytest.raises(ValueError):
            enumerate_admissible(3, 0b1000, bytes(8))


CORPUS = [
    "3", "-3", "+3", "0/5", "6/4", " 1/2 ", "1 / 2", "1_000/3", "1/0", "/",
    "1/", "", "٣/٤", "1.5", "1e3", "two",
]


class TestParseFraction:
    @pytest.mark.parametrize("text", CORPUS)
    def test_agrees_with_fraction(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            message = re.escape(f"bad rational {text!r}")
            with pytest.raises(InvalidInputError, match=message):
                parse_fraction(text)
        else:
            got = parse_fraction(text)
            assert type(got) is Fraction
            assert got == expected

    def test_json_numbers_still_parse(self):
        assert parse_fraction(3) == 3
        assert parse_fraction(0.5) == F(1, 2)


def oracles():
    source, _ = make_counterexample()
    return [
        make_oracle(source),
        make_oracle(random_linear_source(5, 5, 2, 3)),
        make_oracle(perturbed_vector(5, 1), validate=False),
        make_oracle(tabular_source(3, 0)),
    ]


class TestOracleTable:
    @pytest.mark.parametrize("index", range(4))
    def test_fraction_reads_come_from_the_table(self, index):
        oracle = oracles()[index]
        scale, joint, full = oracle.scale, oracle.joint, full_mask(oracle.m)
        assert isinstance(joint, tuple) and len(joint) == 1 << oracle.m
        assert all(type(v) is int for v in joint)
        assert isinstance(scale, int) and scale > 0
        for s in range(1 << oracle.m):
            assert oracle.joint_entropy(s) == F(joint[s], scale)
            assert oracle.cond_entropy(s) == F(joint[-1] - joint[full ^ s], scale)
        assert oracle.total_entropy() == F(joint[-1], scale)
        assert oracle.exact == (oracle.tol == 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_oracle_holds_ranks(self, seed):
        source = random_linear_source(4, 5, 2, seed)
        oracle = make_oracle(source)
        assert (oracle.scale, oracle.tol) == (1, 0) and oracle.exact
        assert all(type(v) is int for v in oracle.joint)
        assert list(oracle.joint) == [
            brute_force_joint_entropy(source, s) for s in range(16)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_source_and_its_table_give_one_oracle(self, seed):
        source = random_linear_source(5, 5, 2, seed)
        oracle = make_oracle(source)
        vector = EntropyVector(5, tuple(F(v) for v in oracle.joint))
        loaded = make_oracle(vector)
        assert loaded == oracle
        assert hash(loaded) == hash(oracle)
        assert repr(loaded) == repr(oracle)

    @pytest.mark.parametrize("seed", range(3))
    def test_tabular_oracle_carries_the_default_tolerance(self, seed):
        oracle = make_oracle(tabular_source(3, seed))
        assert F(oracle.tol, oracle.scale) == F(DEFAULT_TOLERANCE)
        assert not oracle.exact

    def test_fields(self):
        assert [f.name for f in fields(EntropyOracle)] == [
            "m", "scale", "joint", "tol",
        ]

    @pytest.mark.parametrize("h_empty", (F(1, 8), F(-1, 4)))
    def test_inexact_bound_with_small_empty_entropy(self, h_empty):
        values = list(make_oracle(random_linear_source(5, 5, 2, 2)).joint)
        values[0] = h_empty
        oracle = oracle_from_table(5, values, 0.25)
        for active in (full_mask(5), 0b10110):
            assert mutual_dependence_bound(oracle, active) == (
                brute_force_mutual_dependence_bound(oracle, active)
            )


class TestElementalSquares:
    def test_squares_decide_supermodularity(self, monkeypatch):
        """The packed square check against every pair, on linear tables
        with a few entries moved by one (both outcomes occur): an exact
        oracle lists pairs only when a square fails, and then lists every
        violating pair."""
        listings = []
        real = sources._violating_pairs

        def recording(*args):
            listings.append(args)
            return real(*args)

        monkeypatch.setattr(sources, "_violating_pairs", recording)
        rng = random.Random(0)
        outcomes = set()
        for seed in range(300):
            m = rng.randrange(2, 7)
            joint = make_oracle(random_linear_source(m, m, 2, seed)).joint
            n = 1 << m
            h = [int(joint[-1] - joint[(n - 1) ^ s]) for s in range(n)]
            for _ in range(rng.randrange(3)):
                h[rng.randrange(n)] += rng.choice((-1, 1))
            supermodular = all(
                h[a] + h[b] <= h[a | b] + h[a & b]
                for a in range(n)
                for b in range(n)
            )
            # Adding a constant to h moves both sides of every pair alike,
            # so h - h(empty set), the h of the joint table below, has the
            # same verdict and the same violating pairs.
            base = [v - h[0] for v in h]
            table = tuple(base[-1] - base[(n - 1) ^ s] for s in range(n))
            oracle = oracle_from_table(m, table)
            listings.clear()
            report = check_validity(oracle)
            assert bool(listings) != supermodular, (m, h)
            assert [pair[:2] for pair in report.supermodularity_violations] == [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if h[a] + h[b] > h[a | b] + h[a & b]
            ], (m, h)
            outcomes.add(supermodular)
        assert outcomes == {True, False}


class TestFamilyPricing:
    @pytest.mark.parametrize("index", range(4))
    def test_right_hand_side_is_cond_entropy(self, index):
        oracle = oracles()[index]
        active = full_mask(oracle.m) if index else make_counterexample()[1]
        family = build_family(oracle.m, active)
        b = fraction_b(family.system(oracle))
        assert b == tuple(oracle.cond_entropy(mask) for mask in family.masks)
        assert all(type(v) is Fraction for v in b)

    def test_make_system_keeps_fractions(self):
        value = F(7, 3)
        system = make_system(2, (0b01, 0b10), [value, 2])
        assert fraction_b(system) == (F(7, 3), F(2))
        assert type(fraction_b(system)[1]) is Fraction
