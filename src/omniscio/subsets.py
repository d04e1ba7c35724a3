"""Bitmask representation of subsets of the terminal set {1, ..., m}.

A subset is a plain int: bit j-1 set means terminal j is in the subset.
All functions take the terminal count m alongside the mask where it matters.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from .errors import InvalidInputError

MAX_TERMINALS = 20


def check_terminal_count(m: int) -> None:
    if not 2 <= m <= MAX_TERMINALS:
        raise InvalidInputError(
            f"terminal count must be in [2, {MAX_TERMINALS}], got {m}"
        )


def full_mask(m: int) -> int:
    return (1 << m) - 1


def check_mask(mask: int, m: int) -> None:
    if not 0 <= mask < (1 << m):
        raise InvalidInputError(f"subset mask {mask:#b} out of range for m={m}")


def check_active(active: int, m: int) -> None:
    """Check that the active set A has at least two terminals, all in range."""
    if active.bit_count() < 2:
        raise InvalidInputError("active set must have at least two terminals")
    check_mask(active, m)


def check_partition(partition: Sequence[int], m: int) -> None:
    """Check that the blocks partition {1, ..., m} into at least two
    blocks."""
    union = 0
    for block in partition:
        check_mask(block, m)
        if block == 0 or union & block:
            raise InvalidInputError("blocks must be nonempty and disjoint")
        union |= block
    if union != full_mask(m):
        raise InvalidInputError("blocks must cover all terminals")
    if len(partition) < 2:
        raise InvalidInputError("a partition needs at least two blocks")


def complement(mask: int, m: int) -> int:
    return full_mask(m) & ~mask


def mask_from_terminals(terminals: Iterable[int], m: int) -> int:
    mask = 0
    for j in terminals:
        if not 1 <= j <= m:
            raise InvalidInputError(f"terminal {j} out of range for m={m}")
        mask |= 1 << (j - 1)
    return mask


def terminals_of(mask: int) -> List[int]:
    """Sorted 1-based terminal list of a mask."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Yield 0-based bit positions set in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def format_mask(mask: int) -> str:
    """Render as a sorted 1-based list, e.g. "1,3,4"; empty set as ""."""
    return ",".join(str(j) for j in terminals_of(mask))


def parse_mask_spec(spec: str, m: int) -> int:
    """Parse "1,3,4" (or "" for the empty set) into a mask."""
    spec = spec.strip()
    if not spec:
        return 0
    try:
        terminals = list(map(int, spec.split(",")))
    except ValueError as exc:
        raise InvalidInputError(f"bad subset spec {spec!r}") from exc
    return mask_from_terminals(terminals, m)
