"""Admissible partitions and the mutual-dependence bound.

A k-partition (C_1, ..., C_k) of the terminals is admissible for an active
set A when every block meets A and 2 <= k <= |A|. Its mutual dependence is

    I(C_1, ..., C_k) = (1/(k-1)) (sum_i H(X_{C_i}) - H(X_M))

and the bound I(A) is the minimum over all admissible partitions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import InternalContractError, InvalidInputError
from .sources import EntropyOracle, scaled_joint_table
from .subsets import check_mask, complement, full_mask

# Bell-number growth makes exhaustive enumeration explode; refuse beyond
# this many terminals unless the caller raises the cap explicitly.
DEFAULT_MAX_M = 12

Partition = Tuple[int, ...]  # block masks, ordered by smallest element


def enumerate_partitions(m: int, active: int, k: int) -> Iterator[Partition]:
    """All admissible k-partitions, in restricted-growth (canonical) order.

    Blocks come out sorted by their smallest element; assignments that can
    no longer give every block an active terminal are pruned early.
    """
    check_mask(active, m)
    size_a = active.bit_count()
    if size_a < 2:
        raise InvalidInputError("active set must have at least two terminals")
    if not 2 <= k <= size_a:
        raise InvalidInputError(f"k={k} outside [2, |A|={size_a}]")

    blocks: List[int] = []

    def remaining_active(j: int) -> int:
        return (active >> j).bit_count()

    def rec(j: int) -> Iterator[Partition]:
        if j == m:
            if len(blocks) == k and all(b & active for b in blocks):
                yield tuple(blocks)
            return
        left = m - j
        # Must still be able to open enough blocks.
        if len(blocks) + left < k:
            return
        # Every activeless block, current or yet to be opened, still needs
        # its own active terminal from the unassigned ones.
        deficit = sum(1 for b in blocks if not b & active) + (k - len(blocks))
        if remaining_active(j) < deficit:
            return
        bit = 1 << j
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from rec(j + 1)
            blocks[i] &= ~bit
        if len(blocks) < k:
            blocks.append(bit)
            yield from rec(j + 1)
            blocks.pop()

    return rec(0)


def enumerate_admissible(m: int, active: int) -> Iterator[Partition]:
    """All admissible partitions for every k in [2, |A|], canonical order."""
    for k in range(2, active.bit_count() + 1):
        yield from enumerate_partitions(m, active, k)


def check_admissible(partition: Sequence[int], m: int, active: int) -> None:
    union = 0
    for block in partition:
        check_mask(block, m)
        if block == 0 or union & block:
            raise InvalidInputError("blocks must be nonempty and disjoint")
        if not block & active:
            raise InvalidInputError("every block must meet the active set")
        union |= block
    if union != full_mask(m):
        raise InvalidInputError("blocks must cover all terminals")
    if not 2 <= len(partition) <= active.bit_count():
        raise InvalidInputError("block count outside [2, |A|]")


@dataclass(frozen=True)
class DependenceValue:
    """Mutual dependence of one partition, cross-checked by both forms."""

    partition: Partition
    value: Fraction


def partition_dependence(
    oracle: EntropyOracle, partition: Sequence[int]
) -> DependenceValue:
    """I(C_1,...,C_k) via the entropy-sum form, cross-checked against the
    complement form h(M) - (1/(k-1)) sum_i h(C_i^c)."""
    k = len(partition)
    if k < 2:
        raise InvalidInputError("partition needs at least two blocks")
    m = oracle.m
    entropy_sum = sum(
        (oracle.joint_entropy(block) for block in partition), Fraction(0)
    )
    value = (entropy_sum - oracle.total_entropy()) / (k - 1)
    comp_sum = sum(
        (oracle.cond_entropy(complement(block, m)) for block in partition),
        Fraction(0),
    )
    alt = oracle.cond_entropy(full_mask(m)) - comp_sum / (k - 1)
    if not oracle.isclose(value, alt):
        raise InternalContractError(
            f"dependence forms disagree: {value} vs {alt} on {partition}"
        )
    return DependenceValue(tuple(partition), value)


def mutual_dependence_bound(
    oracle: EntropyOracle,
    active: int,
    *,
    max_m: Optional[int] = None,
) -> Tuple[Fraction, List[Partition]]:
    """I(A) and every minimizing partition, in canonical order.

    Runs on the oracle's integer table: each partition's scaled numerator
    N = sum_i H(X_{C_i}) - H(X_M) is an int, and values N/(k-1) are
    compared by cross-multiplying, so no Fraction is built per partition.
    """
    cap = max_m if max_m is not None else _enumeration_cap()
    if oracle.m > cap:
        raise InvalidInputError(
            f"m={oracle.m} exceeds the enumeration cap {cap}; raise it "
            "explicitly (max_m / OMNISCIO_MAX_M) to proceed"
        )
    scale, joint, tol = scaled_joint_table(oracle)
    # The two dependence forms differ by exactly (k-1) H(X_emptyset).
    if abs(joint[0]) > tol:
        raise InvalidInputError(
            f"H(X_emptyset) = {Fraction(joint[0], scale)} is not 0; I(A) "
            "needs a normalised entropy table"
        )
    total = joint[-1]
    h_full = total - joint[0]
    best_n = best_d = 0
    argmin: List[Partition] = []
    for partition in enumerate_admissible(oracle.m, active):
        d = len(partition) - 1
        block_sum = sum(map(joint.__getitem__, partition))
        n = block_sum - total
        # (k-1) times the complement form h(M) - sum_i h(C_i^c) / (k-1).
        alt = h_full * d - ((d + 1) * total - block_sum)
        if abs(n - alt) > tol * d:
            raise InternalContractError(
                f"dependence forms disagree: {Fraction(n, d * scale)} vs "
                f"{Fraction(alt, d * scale)} on {partition}"
            )
        if not argmin or n * best_d < best_n * d:
            best_n, best_d = n, d
            argmin = [partition]
        elif n * best_d == best_n * d:
            argmin.append(partition)
    if not argmin:
        raise InternalContractError("no admissible partition found")
    return Fraction(best_n, best_d * scale), argmin


def _enumeration_cap() -> int:
    raw = os.environ.get("OMNISCIO_MAX_M")
    if raw is None:
        return DEFAULT_MAX_M
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"bad OMNISCIO_MAX_M value {raw!r}") from exc
