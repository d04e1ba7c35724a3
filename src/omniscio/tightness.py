"""Tightness of the mutual-dependence bound on the secret-key capacity.

Two independent deciders for the same question ("does C_SK(A) = I(A)?"):

* ``check_bound`` computes both sides and compares them.
* ``witness_by_partition_search`` looks for an admissible partition and a
  rate vector making every block-complement constraint tight, which is
  equivalent by the tightness condition.

When all users are active the bound is always tight, and
``construct_partition_from_dual`` extracts an optimal partition
constructively from the dual support, machine-checking every step of the
argument (tight rows, identical-column classes, complements as unions of
tight constraints, no dominated column patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

# enumerate_admissible and partition_dependence are not called in this
# module; they stay bound here because perfbench/tracer.py wraps them under
# this module's name.
from .dependence import (  # noqa: F401
    Partition,
    enumerate_admissible,
    mutual_dependence_bound,
    partition_dependence,
)
from .errors import ComputationError, InternalContractError, InvalidInputError
from .omniscience import (
    CapacityReport,
    ConstraintFamily,
    RateVector,
    build_family,
    r_co,
    region_contains,
    sw_gap,
)
from .simplex import LpSolution, feasible_point
from .sources import EntropyOracle
from .subsets import check_admissible, format_mask, full_mask


@dataclass(frozen=True)
class TightnessVerdict:
    tight: bool
    gap: Fraction  # I(A) - C_SK(A), always >= 0
    c_sk: Fraction
    bound: Fraction
    witness: Optional[Tuple[Partition, RateVector]] = None


def check_bound(
    oracle: EntropyOracle, active: int, *, report: Optional[CapacityReport] = None
) -> TightnessVerdict:
    """Direct form: compare C_SK(A) against I(A) computed independently."""
    if report is None:
        report = r_co(oracle, active)
    bound, _ = mutual_dependence_bound(oracle, active)
    gap = bound - report.c_sk
    if oracle.exact and gap < 0:
        raise ComputationError(
            f"mutual-dependence bound {bound} below capacity {report.c_sk}"
        )
    tight = gap == 0 if oracle.exact else oracle.isclose(bound, report.c_sk)
    return TightnessVerdict(tight, gap, report.c_sk, bound)


def witness_by_partition_search(
    oracle: EntropyOracle, active: int, *, report: Optional[CapacityReport] = None
) -> TightnessVerdict:
    """Constructive form: find (partition, rates) with every block-complement
    constraint tight, by one feasibility LP.

    Only the minimizers of I(A) can host a witness, and only when
    I(A) = C_SK. For an admissible P = (C_1, ..., C_k) every complement
    C_i^c is a row of the family (it is nonempty and proper, and misses the
    active terminals of C_i), and each terminal lies in exactly k - 1 of
    them, so every point x of the rate region has
    (k-1) sum(x) = sum_i x(C_i^c) >= sum_i h(C_i^c) = k H(M) - sum_i H(C_i).
    At an optimum sum(x) = R_CO = H(M) - C_SK, which reads I_P >= C_SK; a
    witness, with every C_i^c tight and sum(x) >= R_CO, forces I_P = C_SK.
    As I(A) is the least I_P, the partitions with I_P = C_SK are exactly
    the minimizers of I(A) when I(A) = C_SK, and none otherwise.

    The same identity makes one LP enough. For a minimizer P with
    I_P = C_SK, a point x >= 0 of the region has every C_i^c tight exactly
    when sum(x) = R_CO: each x(C_i^c) >= h(C_i^c), and their sum is
    (k-1) sum(x) against (k-1) R_CO. So every minimizer has the same
    feasibility set, and ``feasible_point`` on the first one, in canonical
    order, answers for all of them. Nothing here uses the validity of the
    entropy table, so this holds for every oracle, exact or tabular. The
    right-hand sides are read as ints from the oracle's table.
    """
    if report is None:
        report = r_co(oracle, active)
    bound, minimizers = mutual_dependence_bound(oracle, active)
    witness: Optional[Tuple[Partition, RateVector]] = None
    if bound == report.c_sk:
        system = report.family.system(oracle)
        _, joint, _ = oracle.scaled_table
        partition = minimizers[0]
        comps = [full_mask(oracle.m) ^ block for block in partition]
        eq_b = [joint[-1] - joint[block] for block in partition]
        rates = feasible_point(
            oracle.m, system.row_masks, system.b_num, comps, eq_b, system.b_den
        )
        if rates is not None:
            witness = (partition, rates)
    gap = bound - report.c_sk
    return TightnessVerdict(witness is not None, gap, report.c_sk, bound, witness)


@dataclass(frozen=True)
class ClosureVerdict:
    """Gaps of B1, B2, their union, and intersection at a rate vector."""

    preconditions_ok: bool
    holds: bool
    gap_b1: Fraction
    gap_b2: Fraction
    gap_union: Fraction
    gap_intersection: Optional[Fraction]  # None when B1 & B2 is empty


def verify_closure(
    oracle: EntropyOracle,
    active: int,
    rates: Sequence[Fraction],
    b1: int,
    b2: int,
) -> ClosureVerdict:
    """Check that union/intersection of two tight constraints stay tight.

    Report-only: with an invalid (non-supermodular) entropy table the
    closure can genuinely fail, and the verdict carries the gaps instead of
    asserting.
    """
    m = oracle.m
    family = build_family(m, active)
    gap1 = sw_gap(rates, b1, oracle)
    gap2 = sw_gap(rates, b2, oracle)
    union = b1 | b2
    inter = b1 & b2
    in_region, _ = region_contains(rates, family, oracle)
    pre = (
        in_region
        and gap1 == 0
        and gap2 == 0
        and union in set(family.masks)
    )
    gap_union = sw_gap(rates, union, oracle)
    gap_inter = sw_gap(rates, inter, oracle) if inter else None
    holds = gap_union == 0 and (gap_inter is None or gap_inter == 0)
    return ClosureVerdict(pre, holds, gap1, gap2, gap_union, gap_inter)


def construct_partition_from_dual(
    solution: LpSolution,
    family: ConstraintFamily,
    oracle: EntropyOracle,
) -> Partition:
    """Extract an optimal partition from the dual support (all-active case).

    Keeps the rows with positive dual weight, groups identical columns of
    the retained submatrix into classes, and returns the partition whose
    blocks are those classes. Every step of the supporting argument is
    verified; any failure raises an internal-contract error rather than
    degrading silently.
    """
    m = family.m
    full = full_mask(m)
    if family.active != full:
        raise InvalidInputError("constructive extraction requires A = M")
    rows = [mask for mask, w in zip(family.masks, solution.y) if w > 0]
    if len(rows) < 2:
        raise InternalContractError(f"dual support size {len(rows)} < 2")
    if 0 in rows or full in rows:
        raise InternalContractError("retained row is all-zero or all-one")

    # Terminal j's column over the retained rows is an int, bit r set when
    # row r contains j; identical columns share a block, and the blocks
    # come in the order of their smallest terminal.
    classes: Dict[int, int] = {}
    for j in range(m):
        column = sum(1 << r for r, mask in enumerate(rows) if mask >> j & 1)
        classes[column] = classes.get(column, 0) | 1 << j
    if len(classes) < 2:
        raise InternalContractError("all retained columns identical (k < 2)")

    # No retained column pattern may dominate a different one: for every
    # pair of classes some retained row must contain the one block and not
    # the other, else the dual constraint y.A = 1 would be violated.
    for column, block in classes.items():
        for other, block2 in classes.items():
            if other != column and not column & ~other:
                raise InternalContractError(
                    f"column class {format_mask(block)} dominated by "
                    f"{format_mask(block2)}"
                )

    # Each block complement must be the union of the retained rows that
    # miss the block, and tight at the primal optimum.
    for column, block in classes.items():
        union = 0
        for r, mask in enumerate(rows):
            if not column >> r & 1:
                union |= mask
        comp = full ^ block
        if union != comp:
            raise InternalContractError(
                f"complement of block {format_mask(block)} is not a "
                "union of retained tight rows"
            )
        if sw_gap(solution.x, comp, oracle) != 0:
            raise InternalContractError(
                f"block-complement constraint {format_mask(comp)} not tight"
            )

    partition = tuple(classes.values())
    check_admissible(partition, m, full)
    return partition
