"""Independent exact arithmetic for checking the program's outputs.

Nothing here imports ``omniscio``. Entropies come from this file's own
GF(2) rank, and I(A) and the validity listing from plain brute force, so a
wrong answer from the program cannot be confirmed by its own code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, Sequence, Tuple

Partition = Tuple[int, ...]


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2), eliminating on the lowest set bit."""
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def linear_joint(m: int, rows: Sequence[Sequence[int]]) -> Tuple[Fraction, ...]:
    """H(X_S) for every mask S of a GF(2)-linear source (rows per terminal)."""
    table = []
    for s in range(1 << m):
        stacked = [r for j in range(m) if s >> j & 1 for r in rows[j]]
        table.append(Fraction(gf2_rank(stacked)))
    return tuple(table)


def family(m: int, active: int) -> List[int]:
    """B(A): nonempty proper subsets not containing A, by increasing mask."""
    return [b for b in range(1, (1 << m) - 1) if b & active != active]


def cond(joint: Sequence[Fraction], mask: int) -> Fraction:
    """h(B) = H(M) - H(M minus B)."""
    return joint[-1] - joint[(len(joint) - 1) & ~mask]


def mask_of(terminals: Sequence[int]) -> int:
    mask = 0
    for t in terminals:
        mask |= 1 << (t - 1)
    return mask


def rate_sum(rates: Sequence[Fraction], mask: int) -> Fraction:
    return sum((r for j, r in enumerate(rates) if mask >> j & 1), Fraction(0))


def all_partitions(m: int) -> Iterator[Partition]:
    """Every set partition of m terminals, unfiltered, as block masks."""
    blocks: List[int] = []

    def rec(j: int) -> Iterator[Partition]:
        if j == m:
            yield tuple(blocks)
            return
        for i in range(len(blocks)):
            blocks[i] |= 1 << j
            yield from rec(j + 1)
            blocks[i] ^= 1 << j
        blocks.append(1 << j)
        yield from rec(j + 1)
        blocks.pop()

    return rec(0)


def is_admissible(partition: Sequence[int], m: int, active: int) -> bool:
    union = 0
    for block in partition:
        if block == 0 or union & block or not block & active:
            return False
        union |= block
    return union == (1 << m) - 1 and 2 <= len(partition) <= bin(active).count("1")


def dependence(joint: Sequence[Fraction], partition: Sequence[int]) -> Fraction:
    k = len(partition)
    return (sum(joint[b] for b in partition) - joint[-1]) / (k - 1)


def bound(joint: Sequence[Fraction], m: int, active: int) -> Tuple[Fraction, List[Partition], int]:
    """I(A), its minimizers as sorted block tuples, and the admissible count."""
    best = None
    argmin: List[Partition] = []
    count = 0
    for p in all_partitions(m):
        if not is_admissible(p, m, active):
            continue
        count += 1
        value = dependence(joint, p)
        if best is None or value < best:
            best, argmin = value, [tuple(sorted(p))]
        elif value == best:
            argmin.append(tuple(sorted(p)))
    return best, sorted(argmin), count


def violations(joint: Sequence[Fraction], m: int) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Monotonicity and supermodularity violations of h, in scan order.

    The table is scaled to integers first so the O(4^m) pair scan stays
    cheap.
    """
    scale = lcm(*(v.denominator for v in joint))
    full = (1 << m) - 1
    top = int(joint[-1] * scale)
    h = [top - int(joint[full & ~s] * scale) for s in range(1 << m)]
    mono = [
        (b, b | 1 << j)
        for b in range(1 << m)
        for j in range(m)
        if not b >> j & 1 and h[b] > h[b | 1 << j]
    ]
    supra = [
        (b1, b2)
        for b1 in range(1 << m)
        for b2 in range(b1, 1 << m)
        if h[b1] + h[b2] > h[b1 | b2] + h[b1 & b2]
    ]
    return mono, supra
