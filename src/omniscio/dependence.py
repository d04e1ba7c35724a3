"""Admissible partitions and the mutual-dependence bound.

A k-partition (C_1, ..., C_k) of the terminals is admissible for an active
set A when every block meets A and 2 <= k <= |A|. Its mutual dependence is

    I(C_1, ..., C_k) = (1/(k-1)) (sum_i H(X_{C_i}) - H(X_M))

and the bound I(A) is the minimum over all admissible partitions.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import chain
from typing import Iterator, List, Sequence, Tuple, Union

from .errors import InternalContractError, InvalidInputError
from .sources import EntropyOracle
from .subsets import check_active, check_admissible, full_mask

# Bell-number growth makes exhaustive enumeration explode; refuse beyond
# this many terminals unless OMNISCIO_MAX_M raises the cap.
DEFAULT_MAX_M = 12

Partition = Tuple[int, ...]  # block masks, ordered by smallest element


def enumerate_admissible(
    m: int, active: int, joint: Sequence[int]
) -> Iterator[Tuple[int, Partition]]:
    """Every admissible partition for every k in [2, |A|], in canonical
    order, as ``(key, partition)``.

    ``joint`` is an integer entropy table (H(X_S) times a common scale) of
    2^m entries, and key = (sum_i joint[C_i] - joint[-1]) * (L / (k-1))
    with L = lcm(1, ..., |A|-1): the partition's scaled dependence times
    L, an int, so keys compare across every k.

    Terminal j goes to one of the blocks opened so far or opens the next
    one, so the block indices form a restricted-growth string with exactly
    k blocks (Knuth, TAOCP 4A, 7.2.1.5), and blocks come out sorted by
    their smallest element. For each k the strings are walked in
    lexicographic order by one generator frame with O(m) state. It keeps a
    running count of open blocks with no active terminal and skips every
    assignment after which the unassigned terminals can no longer open the
    missing blocks and give each activeless block its own active terminal.

    The arguments are checked when this is called, not when the result is
    first iterated.
    """
    check_active(active, m)
    if len(joint) != 1 << m:
        raise InvalidInputError(
            f"entropy table has {len(joint)} entries; m={m} needs {1 << m}"
        )
    lcm = _key_lcm(active)
    return chain.from_iterable(
        _restricted_growth(m, active, k, joint, lcm // (k - 1))
        for k in range(2, active.bit_count() + 1)
    )


def _restricted_growth(
    m: int, active: int, k: int, joint: Sequence[int], weight: int
) -> Iterator[Tuple[int, Partition]]:
    """The admissible k-partitions, each with its key
    (sum_i joint[C_i] - joint[-1]) * weight.

    Alongside the block masks it keeps, per depth, the sum of ``joint``
    over all k block masks (an unopened block is the empty set), so each
    assignment costs one add and two table reads. The loop assigns
    terminals 0 .. m-3; each time it has placed terminal m-3 (at once when
    m = 2), one leaf places the last two terminals by two nested loops
    over the blocks, with the same tests and the same arithmetic, and
    stores no state for them.
    """
    blocks = [0] * k  # block masks; the first ``opened[j]`` are open
    choice = [0] * m  # block of terminal j on the current path
    # Before terminal j: open blocks, open blocks without an active
    # terminal, and the sum of joint over the k blocks less joint[-1];
    # active terminals among j..m-1.
    opened = [0] * m
    lacking = [0] * m
    held = [0] * m
    held[0] = k * joint[0] - joint[-1]
    active_left = [(active >> j).bit_count() for j in range(m + 1)]
    pen, last = m - 2, m - 1
    pen_bit, last_bit = 1 << pen, 1 << last
    pen_active = active & pen_bit
    last_active = active_left[last]
    j, c = 0, 0  # terminal, next block to try for it
    # (o, e, h): opened, lacking and held before terminal pen, for the leaf.
    o, e, h = 0, 0, held[0]
    leaf = not pen  # with m = 2 the root is the leaf
    while True:
        if leaf:
            for p in range(o + 1 if o < k else k):
                op, ep = o, e
                if p == o:
                    op += 1
                    if not pen_active:
                        ep += 1
                elif pen_active and not blocks[p] & active:
                    ep -= 1
                if op + 1 < k or last_active < ep + k - op:
                    continue
                block = blocks[p]
                blocks[p] = block | pen_bit
                hp = h + joint[block | pen_bit] - joint[block]
                # The tests leave the last terminal only the last block if
                # it is still unopened (then ep = 0), else the one block
                # without an active terminal if there is one, else any.
                for t in range(k - 1 if op < k else 0, k):
                    tail = blocks[t]
                    if ep and tail & active:
                        continue
                    blocks[t] = tail | last_bit
                    yield (
                        (hp + joint[tail | last_bit] - joint[tail]) * weight,
                        tuple(blocks),
                    )
                    blocks[t] = tail
                blocks[p] = block
            if not pen:
                return
            leaf = False
            blocks[c] ^= 1 << j
            c += 1
        o = opened[j]
        if c <= o and c < k:
            bit = 1 << j
            e = lacking[j]
            if c == o:
                o += 1
                if not active & bit:
                    e += 1
            elif active & bit and not blocks[c] & active:
                e -= 1
            block = blocks[c] = blocks[c] | bit
            nxt = j + 1
            # Enough terminals left to open the missing blocks, and enough
            # active ones for every block still without one.
            if o + m - nxt >= k and active_left[nxt] >= e + k - o:
                h = held[j] + joint[block] - joint[block ^ bit]
                if nxt == pen:
                    leaf = True
                    continue
                choice[j] = c
                opened[nxt], lacking[nxt], held[nxt] = o, e, h
                j, c = nxt, 0
                continue
            blocks[c] ^= bit
            c += 1
        elif j:
            j -= 1
            c = choice[j]
            blocks[c] ^= 1 << j
            c += 1
        else:
            return


def partition_dependence(
    oracle: EntropyOracle, partition: Sequence[int]
) -> Fraction:
    """I(C_1,...,C_k) = (sum_i H(X_{C_i}) - H(X_M)) / (k-1), from the
    oracle's integer table."""
    m = oracle.m
    check_admissible(partition, m, full_mask(m))
    _check_normalised(oracle)
    joint = oracle.joint
    n = sum(joint[block] for block in partition) - joint[-1]
    return Fraction(n, (len(partition) - 1) * oracle.scale)


def _check_normalised(oracle: EntropyOracle) -> None:
    """Refuse a table whose H(X_emptyset) is not 0 within the tolerance.

    For every partition, N = sum_i H(X_{C_i}) - H(X_M) minus (k-1) times
    the complement form h(M) - (1/(k-1)) sum_i h(C_i^c) is exactly
    (k-1) H(X_emptyset), so the two forms of I(C_1, ..., C_k) agree within
    the tolerance on every partition exactly when H(X_emptyset) does; that
    is checked once, here.
    """
    if abs(oracle.joint[0]) > oracle.tol:
        raise InvalidInputError(
            f"H(X_emptyset) = {Fraction(oracle.joint[0], oracle.scale)} is "
            "not 0; I(A) needs a normalised entropy table"
        )


def mutual_dependence_bound(
    oracle: EntropyOracle, active: int
) -> Tuple[Fraction, List[Partition]]:
    """I(A) and every minimizing partition, in canonical order.

    Runs on the oracle's integer table: the walk scores each partition
    with one int key, its scaled dependence times L = lcm(1, ..., |A|-1)
    (see ``enumerate_admissible``), so the scan keeps the least key and
    I(A) = key / (L * scale); no Fraction is built per partition.
    """
    check_active(active, oracle.m)
    cap = _enumeration_cap()
    if oracle.m > cap:
        raise InvalidInputError(
            f"m={oracle.m} exceeds the enumeration cap {cap}; raise it "
            "explicitly (OMNISCIO_MAX_M) to proceed"
        )
    _check_normalised(oracle)
    best: Union[int, float] = math.inf
    argmin: List[Partition] = []
    for key, partition in enumerate_admissible(oracle.m, active, oracle.joint):
        if key <= best:
            if key < best:
                best, argmin = key, [partition]
            else:
                argmin.append(partition)
    if not argmin:
        raise InternalContractError("no admissible partition found")
    return Fraction(best, _key_lcm(active) * oracle.scale), argmin


def _key_lcm(active: int) -> int:
    """L = lcm(1, ..., |A|-1): every k-1 of an admissible partition
    divides it, so L / (k-1) scales each dependence to an int key."""
    return math.lcm(*range(1, active.bit_count()))


def _enumeration_cap() -> int:
    raw = os.environ.get("OMNISCIO_MAX_M")
    if raw is None:
        return DEFAULT_MAX_M
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"bad OMNISCIO_MAX_M value {raw!r}") from exc
