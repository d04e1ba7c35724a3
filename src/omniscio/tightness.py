"""Tightness of the mutual-dependence bound on the secret-key capacity.

Two independent deciders for the same question ("does C_SK(A) = I(A)?"):

* ``check_bound`` computes both sides and compares them.
* ``witness_by_partition_search`` looks for an admissible partition and a
  rate vector making every block-complement constraint tight, which is
  equivalent by the tightness condition; the rate LP's optimum is that
  vector whenever one exists.

When all users are active the bound is always tight, and
``construct_partition_from_dual`` extracts an optimal partition
constructively from the dual support, machine-checking every step of the
argument (tight rows, identical-column classes, complements as unions of
tight constraints, no dominated column patterns).

Both constructive paths certify their rates with one check on the
oracle's integer table, ``_certify_rates``: every rate is >= 0, every row
listed holds, and every block complement of the partition is tight.
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
from .omniscience import CapacityReport, ConstraintFamily, RateVector, r_co
# feasible_point is not called in this module either; it stays bound here
# because perfbench/tracer.py wraps it under this module's name.
from .simplex import LpSolution, _subset_sums, feasible_point  # noqa: F401
from .sources import EntropyOracle
from .subsets import check_partition, format_mask, full_mask


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
    """Direct form: compare C_SK(A) against I(A) computed independently.

    I(A) >= C_SK on every integer table, exact or tabular (the identity in
    ``witness_by_partition_search``), so a negative gap is a fault and
    raises ComputationError.
    """
    if report is None:
        report = r_co(oracle, active)
    bound, _ = mutual_dependence_bound(oracle, active)
    gap = bound - report.c_sk
    if gap < 0:
        raise ComputationError(
            f"mutual-dependence bound {bound} below capacity {report.c_sk}"
        )
    tight = oracle.isclose(bound, report.c_sk)
    return TightnessVerdict(tight, gap, report.c_sk, bound)


def witness_by_partition_search(
    oracle: EntropyOracle, active: int, *, report: Optional[CapacityReport] = None
) -> TightnessVerdict:
    """Constructive form: find (partition, rates) with every block-complement
    constraint tight; the rate LP's optimum is the rates.

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

    The same identity makes the rate LP's optimum a witness. For a
    minimizer P with I_P = C_SK, the optimum has sum(x) = R_CO, so
    sum_i x(C_i^c) = (k-1) R_CO = sum_i h(C_i^c); as no term is below its
    h, every C_i^c is tight. Its rates are >= 0 because the singleton rows
    are in the family and the rate LP refuses a negative h. Nothing here
    uses the validity of the entropy table, so this holds for every
    oracle, exact or tabular. ``_certify_rates`` checks the witness: every
    rate is >= 0, every row of the family holds, and every block complement
    of the first minimizer, in canonical order, is tight.
    """
    if report is None:
        report = r_co(oracle, active)
    bound, minimizers = mutual_dependence_bound(oracle, active)
    witness: Optional[Tuple[Partition, RateVector]] = None
    if bound == report.c_sk:
        partition = minimizers[0]
        solution = report.solution
        _certify_rates(
            oracle, solution.x_num, solution.x_den, report.family.masks, partition
        )
        witness = (partition, report.rates)
    gap = bound - report.c_sk
    return TightnessVerdict(witness is not None, gap, report.c_sk, bound, witness)


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
    if oracle.m != m:
        raise InvalidInputError("oracle terminal count mismatch")
    rows = [mask for mask, w in zip(family.masks, solution.y_num) if w > 0]
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
        if union != full ^ block:
            raise InternalContractError(
                f"complement of block {format_mask(block)} is not a "
                "union of retained tight rows"
            )
    partition = tuple(classes.values())
    _certify_rates(oracle, solution.x_num, solution.x_den, (), partition)
    check_partition(partition, m)
    return partition


def _certify_rates(
    oracle: EntropyOracle,
    x: Sequence[int],
    den: int,
    rows: Sequence[int],
    partition: Partition,
) -> None:
    """Certify the rates x_j / den, den > 0, on the oracle's integer table,
    from one table of the subset sums of x: every rate is >= 0, every row
    B of ``rows`` holds, x(B) >= h(B), and the complement of every block C
    of ``partition`` is tight, x(C^c) = h(C^c). Any failure raises
    InternalContractError."""
    if min(x) < 0:
        raise InternalContractError("witness rate below zero")
    sums = _subset_sums(x)
    scale, joint, full = oracle.scale, oracle.joint, full_mask(oracle.m)
    # x(B) >= h(B) reads sums[B] * scale >= (H(M) - H(B^c)) * den.
    for mask in rows:
        if sums[mask] * scale < (joint[-1] - joint[full ^ mask]) * den:
            raise InternalContractError(
                f"witness violates constraint {format_mask(mask)}"
            )
    for block in partition:
        if sums[full ^ block] * scale != (joint[-1] - joint[block]) * den:
            raise InternalContractError(
                f"block-complement constraint {format_mask(full ^ block)} "
                "not tight"
            )
