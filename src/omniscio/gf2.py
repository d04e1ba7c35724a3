"""GF(2) linear algebra on int bitsets."""

from __future__ import annotations

from typing import Dict, Iterable

# Row vectors are ints; bit i is coordinate i. Any width works (Python ints
# are arbitrary precision), but elimination is O(rows * words).


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of the span of the given bit-vectors via Gaussian elimination."""
    basis: Dict[int, int] = {}
    for row in rows:
        while row:
            high = row.bit_length() - 1
            if high in basis:
                row ^= basis[high]
            else:
                basis[high] = row
                break
    return len(basis)
