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
from typing import Dict, List, Optional, Sequence, Tuple

# enumerate_admissible is not called in this module; it stays bound here
# because perfbench/tracer.py wraps it under this module's name.
from .dependence import (  # noqa: F401
    Partition,
    check_admissible,
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
from .sources import EntropyOracle, scaled_joint_table
from .subsets import complement, format_mask, full_mask


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
    constraint tight, trying partitions in canonical order.

    Only the minimizers of I(A) can host a witness, and only when
    I(A) = C_SK. For an admissible P = (C_1, ..., C_k) every complement
    C_i^c is a row of the family (it is nonempty and proper, and misses the
    active terminals of C_i), and each terminal lies in exactly k - 1 of
    them, so every point x of the rate region has
    (k-1) sum(x) = sum_i x(C_i^c) >= sum_i h(C_i^c) = k H(M) - sum_i H(C_i).
    At an optimum sum(x) = R_CO = H(M) - C_SK, which reads I_P >= C_SK; a
    witness, with every C_i^c tight and sum(x) >= R_CO, forces I_P = C_SK.
    As I(A) is the least I_P, the partitions with I_P = C_SK are exactly
    the minimizers of I(A) when I(A) = C_SK, and none otherwise. Nothing
    here uses the validity of the entropy table, so this holds for every
    oracle, exact or tabular. The search therefore runs ``feasible_point``
    over the argmin of ``mutual_dependence_bound``, in its canonical order,
    when the bound equals C_SK, with every right-hand side read as an int
    from the oracle's table.
    """
    if report is None:
        report = r_co(oracle, active)
    bound, minimizers = mutual_dependence_bound(oracle, active)
    witness: Optional[Tuple[Partition, RateVector]] = None
    if bound == report.c_sk:
        family = report.family
        m = oracle.m
        scale, joint, _ = scaled_joint_table(oracle)
        total, full = joint[-1], full_mask(m)
        b = [total - joint[full ^ mask] for mask in family.masks]
        for partition in minimizers:
            comps = [full ^ block for block in partition]
            eq_b = [total - joint[block] for block in partition]
            rates = feasible_point(m, family.masks, b, comps, eq_b, scale)
            if rates is not None:
                witness = (partition, rates)
                break
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
    if family.active != full_mask(m):
        raise InvalidInputError("constructive extraction requires A = M")
    retained = [i for i, w in enumerate(solution.y) if w > 0]
    t = len(retained)
    if t < 2:
        raise InternalContractError(f"dual support size {t} < 2")
    retained_masks = [family.masks[i] for i in retained]
    full = full_mask(m)
    for mask in retained_masks:
        if mask == 0 or mask == full:
            raise InternalContractError("retained row is all-zero or all-one")

    # Column patterns over the retained rows; identical columns share a block.
    patterns: List[Tuple[int, ...]] = []
    for j in range(m):
        patterns.append(tuple((mask >> j) & 1 for mask in retained_masks))
    classes: Dict[Tuple[int, ...], int] = {}
    blocks: List[int] = []
    for j in range(m):
        idx = classes.setdefault(patterns[j], len(blocks))
        if idx == len(blocks):
            blocks.append(0)
        blocks[idx] |= 1 << j
    k = len(blocks)
    if k < 2:
        raise InternalContractError("all retained columns identical (k < 2)")

    class_patterns = {blocks[i]: patterns[(blocks[i] & -blocks[i]).bit_length() - 1]
                      for i in range(k)}

    # No retained column pattern may dominate a different one: for every
    # pair of classes some retained row must contain the one block and not
    # the other, else the dual constraint y.A = 1 would be violated.
    for i in range(k):
        for i2 in range(k):
            if i == i2:
                continue
            s_i = class_patterns[blocks[i]]
            s_i2 = class_patterns[blocks[i2]]
            if not any(a == 1 and b2 == 0 for a, b2 in zip(s_i, s_i2)):
                raise InternalContractError(
                    f"column class {format_mask(blocks[i])} dominated by "
                    f"{format_mask(blocks[i2])}"
                )

    # Each block complement must be the union of the retained rows that
    # miss the block, and tight at the primal optimum.
    for i in range(k):
        s_i = class_patterns[blocks[i]]
        union = 0
        for r, bit in enumerate(s_i):
            if bit == 0:
                union |= retained_masks[r]
        comp = complement(blocks[i], m)
        if union != comp:
            raise InternalContractError(
                f"complement of block {format_mask(blocks[i])} is not a "
                "union of retained tight rows"
            )
        if sw_gap(solution.x, comp, oracle) != 0:
            raise InternalContractError(
                f"block-complement constraint {format_mask(comp)} not tight"
            )

    partition = tuple(blocks)
    check_admissible(partition, m, full)
    return partition


def dependence_of_constructed(
    oracle: EntropyOracle, report: CapacityReport
) -> Tuple[Partition, Fraction]:
    """Convenience: constructed partition and its dependence value."""
    partition = construct_partition_from_dual(report.solution, report.family, oracle)
    value = partition_dependence(oracle, partition).value
    return partition, value
