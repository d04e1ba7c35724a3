"""Acceptance suite: end-to-end checks of the published values, the
tightness theory, and the numerical contracts.

Each test covers one acceptance criterion and prints a PASS/FAIL line in
the terminal summary (see conftest.py). Criterion 1 is split: the value
checks are 1a, while 1b asserts the literal six-row quarter-weight dual
pattern for the cardinality entropy table. That pattern is provably not
forced by the table (twelve constraints are tight at the optimal vertex and
the optimal dual is not unique), so 1b fails honestly; the pattern does
hold for the generative realization, which criterion 2 verifies.
"""

import time
from fractions import Fraction


from omniscio import (
    build_family,
    check_bound,
    check_validity,
    construct_partition_from_dual,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    make_sunflower,
    make_system,
    merge_terminals,
    mutual_dependence_bound,
    partition_dependence,
    r_co,
    random_linear_source,
    solve,
    uniqueness_test,
    witness_by_partition_search,
)
from omniscio.reporting import (
    PUBLISHED_TIGHT_MASKS,
    audit_report,
    counterexample_report,
)
from omniscio.subsets import complement, full_mask, mask_from_terminals

from helpers import (
    admissible,
    brute_force_joint_entropy,
    brute_force_lp_min,
    fraction_b,
    fraction_c,
    row_sum,
    sw_gap,
)

F = Fraction
PUBLISHED_X = (F(1, 4), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 2))
SIX_ROWS = set(PUBLISHED_TIGHT_MASKS)


def suite3_instances():
    for seed in range(40):
        for m in (2, 3, 4, 5, 6):
            yield m, full_mask(m), random_linear_source(m, m, 2, seed)


def suite4_instances():
    for seed in range(200):
        yield 3, 0b011, random_linear_source(3, 3, 2, seed)


def test_criterion_01a_paper_h_values():
    start = time.time()
    report = counterexample_report("paper-h")
    elapsed = time.time() - start
    assert report["r_co"] == "9/4"
    assert report["c_sk"] == "7/4"
    assert report["mutual_dependence_bound"] == "2"
    assert report["rates"] == ["1/4", "1/4", "1/4", "1/2", "1/2", "1/2"]
    assert report["uniqueness"]["verdict"] == "Unique"
    assert report["strict_gap"] is True
    assert elapsed < 1.0


def test_criterion_01b_paper_h_dual_pattern():
    # Expected to fail: at x = (1/4,1/4,1/4,1/2,1/2,1/2) the cardinality
    # table tightens twelve constraints, not six, and its optimal dual is
    # not unique, so no solver output can be pinned to the six-row pattern.
    oracle = make_oracle(counterexample_entropy_vector(), validate=False)
    report = r_co(oracle, 0b111)
    tight = {frozenset(i + 1 for i in range(6) if mask >> i & 1)
             for mask in report.tight_masks}
    support = {
        frozenset(i + 1 for i in range(6) if report.family.masks[r] >> i & 1)
        for r, w in enumerate(report.dual)
        if w > 0
    }
    assert tight == SIX_ROWS, (
        "twelve constraints are tight for the cardinality entropy table; "
        "the six-row pattern holds only for the generative realization"
    )
    assert support == SIX_ROWS
    assert all(w in (F(0), F(1, 4)) for w in report.dual)


def test_criterion_02_generative_audit():
    source, active = make_counterexample()
    oracle = make_oracle(source)
    for subset in range(1 << 6):
        assert oracle.joint_entropy(subset) == brute_force_joint_entropy(
            source, subset
        )
    assert oracle.total_entropy() == 3

    report = r_co(oracle, active)
    bound, _ = mutual_dependence_bound(oracle, active)
    assert report.r_co == F(9, 4)
    assert report.c_sk == F(3, 4)
    assert bound == 1
    assert report.c_sk < bound

    tight = {frozenset(i + 1 for i in range(6) if mask >> i & 1)
             for mask in report.tight_masks}
    assert tight == SIX_ROWS
    support = [w for w in report.dual if w > 0]
    assert support == [F(1, 4)] * 6

    audit = audit_report()
    flagged = {tuple(row["subset"]) for row in audit["discrepancies"]
               if not row["equal"]}
    paper = make_oracle(counterexample_entropy_vector(), validate=False)
    family = build_family(6, active)
    for mask in family.masks:
        subset = tuple(i + 1 for i in range(6) if mask >> i & 1)
        differs = paper.cond_entropy(mask) != oracle.cond_entropy(mask)
        assert (subset in flagged) == differs
    assert (1, 2, 4) in flagged
    violation = audit["entropy_validity"]["paper_h"]
    assert violation["valid"] is False
    assert violation["supermodularity_violations"] > 0


def test_criterion_03_all_active_tightness_and_construction():
    start = time.time()
    count = 0
    for m, active, source in suite3_instances():
        oracle = make_oracle(source)
        report = r_co(oracle, active)
        bound, minimizers = mutual_dependence_bound(oracle, active)
        assert report.c_sk == bound

        partition = construct_partition_from_dual(
            report.solution, report.family, oracle
        )
        assert len(partition) >= 2
        for block in partition:
            assert block & active
            assert sw_gap(report.rates, complement(block, m), oracle) == 0
        assert partition_dependence(oracle, partition) == bound
        assert partition in minimizers
        count += 1
    assert count >= 200
    assert time.time() - start < 60


def test_criterion_04_helper_sweep():
    count = 0
    for m, active, source in suite4_instances():
        oracle = make_oracle(source)
        report = r_co(oracle, active)
        bound, _ = mutual_dependence_bound(oracle, active)
        assert report.c_sk == bound
        count += 1
    assert count >= 200

    # Four-terminal helper cases: gaps are reported, never asserted away.
    gaps = []
    for seed in range(20):
        source = random_linear_source(4, 4, 2, seed)
        oracle = make_oracle(source)
        for active in (0b0011, 0b0111):
            verdict = check_bound(oracle, active)
            if not verdict.tight:
                gaps.append((seed, active, verdict.gap))
    print(f"m=4 helper cases with a gap: {len(gaps)}")
    for seed, active, gap in gaps:
        print(f"  seed={seed} active={active:04b} gap={gap}")


def test_criterion_05_supermodularity():
    for seed in range(25):
        for m in (2, 3, 4, 5):
            oracle = make_oracle(random_linear_source(m, m, 2, seed))
            report = check_validity(oracle)
            assert report.ok, (seed, m)

    invalid = check_validity(
        make_oracle(counterexample_entropy_vector(), validate=False)
    )
    assert not invalid.ok
    b1 = mask_from_terminals([1, 2, 4], 6)
    b2 = mask_from_terminals([1, 2, 5], 6)
    pairs = {frozenset((v[0], v[1])) for v in invalid.supermodularity_violations}
    assert frozenset((b1, b2)) in pairs


def test_criterion_06_lp_contracts_and_brute_force():
    # solve() verifies strong duality, dual feasibility, primal feasibility,
    # and complementary slackness exactly on every call, raising on any
    # breach; the loop below exercises it broadly and re-checks externally.
    for seed in range(15):
        for m in (3, 4, 5):
            oracle = make_oracle(random_linear_source(m, m, 2, seed))
            family = build_family(m, full_mask(m))
            system = family.system(oracle)
            b, c = fraction_b(system), fraction_c(system)
            sol = solve(system)
            assert sum(sol.y[i] * b[i] for i in range(system.l)) == sol.objective
            for j in range(m):
                assert sum(
                    sol.y[i]
                    for i in range(system.l)
                    if system.row_masks[i] >> j & 1
                ) == c[j]
            for i in range(system.l):
                slack = row_sum(system, sol.x, i) - b[i]
                assert slack >= 0
                assert sol.y[i] >= 0
                assert sol.y[i] * slack == 0

    for seed in range(10):
        for m in (2, 3):
            oracle = make_oracle(random_linear_source(m, 4, 2, seed))
            family = build_family(m, full_mask(m))
            system = family.system(oracle)
            assert solve(system).objective == brute_force_lp_min(system)
    extra = [
        (3, [0b001, 0b010, 0b100, 0b011], [F(1), F(2), F(1), F(4)]),
        (3, [0b001, 0b010, 0b100, 0b110], [F(1, 2), F(1), F(0), F(2)]),
        (2, [0b01, 0b10], [F(3, 7), F(2, 5)]),
    ]
    for m, masks, b in extra:
        system = make_system(m, masks, b)
        assert solve(system).objective == brute_force_lp_min(system)


def test_criterion_07_uniqueness_verdicts():
    source, active = make_counterexample()
    oracle = make_oracle(source)
    family = build_family(6, active)
    system = family.system(oracle)
    cert = uniqueness_test(system, solve(system))
    assert cert.verdict == "Unique"
    assert cert.auxiliary_value == 0

    degenerate = make_system(
        3,
        [0b001, 0b010, 0b011, 0b100, 0b101, 0b110],
        [F(0), F(0), F(1), F(1), F(1), F(1)],
    )
    sol = solve(degenerate)
    cert = uniqueness_test(degenerate, sol)
    assert cert.verdict == "NotUnique"
    alt = cert.alternative
    assert alt is not None and alt != sol.x
    assert sum(alt) == sol.objective
    b = fraction_b(degenerate)
    for i in range(degenerate.l):
        assert row_sum(degenerate, alt, i) >= b[i]


def test_criterion_08_decider_agreement():
    import itertools

    for m, active, source in itertools.chain(
        suite3_instances(), suite4_instances()
    ):
        oracle = make_oracle(source)
        report = r_co(oracle, active)
        direct = check_bound(oracle, active, report=report)
        constructive = witness_by_partition_search(oracle, active, report=report)
        assert direct.tight == constructive.tight, (m, active, source)
        assert direct.gap == constructive.gap
        if constructive.tight:
            partition, rates = constructive.witness
            assert sum(rates) == report.r_co


def test_criterion_09_sunflower_identity():
    for m in (2, 3, 4):
        for core in (0, 1, 2):
            for petal in (0, 1):
                source = make_sunflower(m, core, petal)
                oracle = make_oracle(source)
                bound, minimizers = mutual_dependence_bound(oracle, full_mask(m))
                assert bound == core
                partitions = admissible(m, full_mask(m))
                assert minimizers == partitions

                for partition in partitions:
                    value = partition_dependence(oracle, partition)
                    merged = make_oracle(merge_terminals(source, partition))
                    k = len(partition)
                    singletons = tuple(1 << i for i in range(k))
                    assert partition_dependence(merged, singletons) == value
                    merged_bound, _ = mutual_dependence_bound(merged, full_mask(k))
                    assert merged_bound == core
