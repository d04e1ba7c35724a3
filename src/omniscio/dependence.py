"""Admissible partitions and the mutual-dependence bound.

A k-partition (C_1, ..., C_k) of the terminals is admissible for an active
set A when every block meets A and 2 <= k <= |A|. Its mutual dependence is

    I(C_1, ..., C_k) = (1/(k-1)) (sum_i H(X_{C_i}) - H(X_M))

and the bound I(A) is the minimum over all admissible partitions.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

from .errors import InternalContractError, InvalidInputError
from .sources import EntropyOracle
from .subsets import check_admissible, check_mask, complement, full_mask

# Bell-number growth makes exhaustive enumeration explode; refuse beyond
# this many terminals unless OMNISCIO_MAX_M raises the cap.
DEFAULT_MAX_M = 12

Partition = Tuple[int, ...]  # block masks, ordered by smallest element


def enumerate_partitions(m: int, active: int, k: int) -> Iterator[Partition]:
    """All admissible k-partitions, in restricted-growth (canonical) order.

    Terminal j goes to one of the blocks opened so far or opens the next
    one, so the block indices form a restricted-growth string with exactly
    k blocks (Knuth, TAOCP 4A, 7.2.1.5), and blocks come out sorted by
    their smallest element. The strings are walked in lexicographic order
    by one generator frame with O(m) state. It keeps a running count of
    open blocks with no active terminal and skips every assignment after
    which the unassigned terminals can no longer open the missing blocks
    and give each activeless block its own active terminal.

    The arguments are checked when this is called, not when the result is
    first iterated.
    """
    check_mask(active, m)
    size_a = active.bit_count()
    if size_a < 2:
        raise InvalidInputError("active set must have at least two terminals")
    if not 2 <= k <= size_a:
        raise InvalidInputError(f"k={k} outside [2, |A|={size_a}]")
    return _restricted_growth(m, active, k)


def _restricted_growth(m: int, active: int, k: int) -> Iterator[Partition]:
    blocks = [0] * k  # block masks; the first ``opened[j]`` are open
    choice = [0] * m  # block of terminal j on the current path
    # Before terminal j: open blocks, and open blocks without an active
    # terminal; active terminals among j..m-1.
    opened = [0] * m
    lacking = [0] * m
    active_left = [(active >> j).bit_count() for j in range(m + 1)]
    last = m - 1
    last_bit = 1 << last
    j, c = 0, 0  # terminal, next block to try for it
    while True:
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
            blocks[c] |= bit
            nxt = j + 1
            # Enough terminals left to open the missing blocks, and enough
            # active ones for every block still without one.
            if o + m - nxt >= k and active_left[nxt] >= e + k - o:
                if nxt < last:
                    choice[j] = c
                    opened[nxt], lacking[nxt] = o, e
                    j, c = nxt, 0
                    continue
                # That check leaves the last terminal only these blocks:
                # the last one if it is still unopened, else the one block
                # without an active terminal if there is one, else any.
                if o < k:
                    targets = (o,)
                elif e:
                    targets = [i for i in range(k) if not blocks[i] & active]
                else:
                    targets = range(k)
                for t in targets:
                    blocks[t] |= last_bit
                    yield tuple(blocks)
                    blocks[t] ^= last_bit
            blocks[c] ^= bit
            c += 1
        elif j:
            j -= 1
            c = choice[j]
            blocks[c] ^= 1 << j
            c += 1
        else:
            return


def enumerate_admissible(m: int, active: int) -> Iterator[Partition]:
    """All admissible partitions for every k in [2, |A|], canonical order."""
    for k in range(2, active.bit_count() + 1):
        yield from enumerate_partitions(m, active, k)


def partition_dependence(
    oracle: EntropyOracle, partition: Sequence[int]
) -> Fraction:
    """I(C_1,...,C_k) via the entropy-sum form, cross-checked against the
    complement form h(M) - (1/(k-1)) sum_i h(C_i^c)."""
    m = oracle.m
    check_admissible(partition, m, full_mask(m))
    k = len(partition)
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
    return value


def mutual_dependence_bound(
    oracle: EntropyOracle, active: int
) -> Tuple[Fraction, List[Partition]]:
    """I(A) and every minimizing partition, in canonical order.

    Runs on the oracle's integer table: each partition's scaled numerator
    N = sum_i H(X_{C_i}) - H(X_M) is an int, and values N/(k-1) are
    compared by cross-multiplying, so no Fraction is built per partition.
    """
    cap = _enumeration_cap()
    if oracle.m > cap:
        raise InvalidInputError(
            f"m={oracle.m} exceeds the enumeration cap {cap}; raise it "
            "explicitly (OMNISCIO_MAX_M) to proceed"
        )
    scale, joint, tol = oracle.scaled_table
    # For every partition, N minus (k-1) times the complement form
    # h(M) - (1/(k-1)) sum_i h(C_i^c) is exactly (k-1) H(X_emptyset), so
    # the two forms agree within the tolerance on every partition exactly
    # when H(X_emptyset) does; that is checked once, here.
    if abs(joint[0]) > tol:
        raise InvalidInputError(
            f"H(X_emptyset) = {Fraction(joint[0], scale)} is not 0; I(A) "
            "needs a normalised entropy table"
        )
    total, entropy_of = joint[-1], joint.__getitem__
    best_n = best_d = 0
    argmin: List[Partition] = []
    for partition in enumerate_admissible(oracle.m, active):
        d = len(partition) - 1
        n = sum(map(entropy_of, partition)) - total
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
