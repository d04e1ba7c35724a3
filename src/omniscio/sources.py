"""Source models and the exact conditional-entropy oracle.

Three source representations share one oracle interface:

* ``LinearGF2Source`` -- each terminal observes XOR combinations of iid
  uniform base bits; joint entropies are GF(2) ranks, hence exact integers.
* ``TabularSource`` -- an explicit joint pmf with rational probabilities;
  entropies are generally irrational and carried as double-precision values
  (flagged inexact).
* ``EntropyVector`` -- a raw table of joint entropies, for feeding arbitrary
  (possibly invalid) entropy functions through the same pipeline.

Entropies are in bits throughout. The conditional-entropy function is
h(B) = H(X_B | X_{B^c}) = H(X_M) - H(X_{B^c}).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .errors import InvalidInputError, ValidationError
from .gf2 import gf2_rank
from .simplex import _over_common_denominator, _pack, _subset_sums
from .subsets import (
    check_mask,
    check_partition,
    check_terminal_count,
    complement,
    format_mask,
    iter_bits,
)

DEFAULT_TOLERANCE = 1e-9

SourceLike = Union["LinearGF2Source", "TabularSource", "EntropyVector"]


@dataclass(frozen=True)
class LinearGF2Source:
    """Terminals observing GF(2)-linear functions of n iid uniform bits.

    ``rows[j]`` holds terminal j+1's coefficient vectors as int bitmasks;
    bit t-1 of a mask selects base bit Y_t.
    """

    m: int
    n: int
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_terminal_count(self.m)
        if self.n < 0:
            raise InvalidInputError(f"base-bit count must be >= 0, got {self.n}")
        if len(self.rows) != self.m:
            raise InvalidInputError(
                f"expected {self.m} terminal row lists, got {len(self.rows)}"
            )
        for j, terminal_rows in enumerate(self.rows, start=1):
            for row in terminal_rows:
                if not 0 <= row < (1 << self.n):
                    raise InvalidInputError(
                        f"terminal {j} row {row:#b} exceeds {self.n} base bits"
                    )

    def stacked_rows(self, subset: int) -> List[int]:
        out: List[int] = []
        for j in iter_bits(subset):
            out.extend(self.rows[j])
        return out


@dataclass(frozen=True)
class TabularSource:
    """Explicit joint pmf over per-terminal finite alphabets {0..size-1}."""

    m: int
    alphabets: Tuple[int, ...]
    pmf: Tuple[Tuple[Tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        check_terminal_count(self.m)
        if len(self.alphabets) != self.m:
            raise InvalidInputError("one alphabet size per terminal required")
        if any(size < 1 for size in self.alphabets):
            raise InvalidInputError("alphabet sizes must be positive")
        seen = set()
        total = Fraction(0)
        for symbols, prob in self.pmf:
            if len(symbols) != self.m:
                raise InvalidInputError(f"symbol tuple {symbols} has wrong arity")
            for x, size in zip(symbols, self.alphabets):
                if not 0 <= x < size:
                    raise InvalidInputError(f"symbol {x} outside its alphabet")
            if symbols in seen:
                raise InvalidInputError(f"duplicate pmf entry for {symbols}")
            seen.add(symbols)
            if prob < 0:
                raise InvalidInputError("probabilities must be nonnegative")
            total += prob
        if total != 1:
            raise InvalidInputError(f"pmf sums to {total}, expected exactly 1")

    def marginal(self, subset: int) -> Dict[Tuple[int, ...], Fraction]:
        coords = list(iter_bits(subset))
        out: Dict[Tuple[int, ...], Fraction] = {}
        for symbols, prob in self.pmf:
            key = tuple(symbols[c] for c in coords)
            out[key] = out.get(key, Fraction(0)) + prob
        return out

    def joint_entropy(self, subset: int) -> float:
        """H(X_S) in bits, computed in double precision."""
        check_mask(subset, self.m)
        return -sum(
            float(p) * math.log2(float(p))
            for p in self.marginal(subset).values()
            if p > 0
        )


@dataclass(frozen=True)
class EntropyVector:
    """A raw joint-entropy table: mask S -> H(X_S), one value per subset."""

    m: int
    values: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_terminal_count(self.m)
        if len(self.values) != (1 << self.m):
            raise InvalidInputError(
                f"entropy vector needs {1 << self.m} values, got {len(self.values)}"
            )

    def joint_entropy(self, subset: int) -> Fraction:
        check_mask(subset, self.m)
        return self.values[subset]


@dataclass(frozen=True)
class EntropyOracle:
    """The joint entropies of every subset, as one integer table.

    ``joint[S] = H(X_S) * scale`` for all 2^m masks S, and ``tol`` is the
    comparison tolerance times ``scale``: 0 for an exact oracle. Every
    layer that compares sums of entropies reads these ints; the Fraction
    reads below build their value when called.
    """

    m: int
    scale: int
    joint: Tuple[int, ...]
    tol: int

    @property
    def exact(self) -> bool:
        return self.tol == 0

    def joint_entropy(self, subset: int) -> Fraction:
        """H(X_S)."""
        check_mask(subset, self.m)
        return Fraction(self.joint[subset], self.scale)

    def cond_entropy(self, subset: int) -> Fraction:
        """h(B) = H(X_B | X_{B^c}) = H(X_M) - H(X_{B^c})."""
        check_mask(subset, self.m)
        joint = self.joint
        return Fraction(joint[-1] - joint[complement(subset, self.m)], self.scale)

    def total_entropy(self) -> Fraction:
        return Fraction(self.joint[-1], self.scale)

    def isclose(self, a: Fraction, b: Fraction) -> bool:
        return abs(a - b) * self.scale <= self.tol


def make_oracle(source: SourceLike, *, validate: bool = True) -> EntropyOracle:
    """Build the entropy oracle for any source representation.

    Linear sources store their GF(2) ranks as they are, over scale 1.
    Tabular entropies are double precision, so their oracle compares at
    ``DEFAULT_TOLERANCE``; the table and the tolerance go over one common
    denominator. EntropyVector inputs are validated (normalization,
    monotonicity, supermodularity) unless ``validate`` is False; the other
    variants are genuine entropy functions by construction.
    """
    if not isinstance(source, (LinearGF2Source, TabularSource, EntropyVector)):
        raise InvalidInputError(f"unsupported source type {type(source).__name__}")
    m = source.m
    if isinstance(source, LinearGF2Source):
        # stacked_rows of every subset of the low m // 2 terminals and of
        # the high ones, built by doubling. stacked_rows(S_lo | S_hi) is
        # S_lo's list then S_hi's, and the pairs run in mask order.
        low: List[List[int]] = [[]]
        high: List[List[int]] = [[]]
        for j in range(m):
            half = low if j < m // 2 else high
            half += [[*rows, *source.rows[j]] for rows in half]
        ranks = tuple(gf2_rank(lo + hi) for hi in high for lo in low)
        return EntropyOracle(m, 1, ranks, 0)
    if isinstance(source, TabularSource):
        entropies = [source.joint_entropy(s) for s in range(1 << m)]
        nums, scale = _over_common_denominator([*entropies, DEFAULT_TOLERANCE])
        return EntropyOracle(m, scale, nums[:-1], nums[-1])
    # A table repeats a few values, and the reader hands out one object per
    # distinct value, so each distinct object (by id; the tuple keeps every
    # one alive) is read and scaled once.
    ids = list(map(id, source.values))
    distinct = dict(zip(ids, source.values))
    nums, scale = _over_common_denominator(list(distinct.values()))
    scaled = dict(zip(distinct, nums))
    joint = tuple(map(scaled.__getitem__, ids))
    oracle = EntropyOracle(m, scale, joint, 0)
    if validate:
        report = check_validity(oracle, first=True)
        if not report.ok:
            raise ValidationError(report.describe_first())
    return oracle


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the entropy-function sanity scan (report-only)."""

    normalized: bool
    monotonicity_violations: Tuple[Tuple[int, int], ...]
    supermodularity_violations: Tuple[Tuple[int, int, Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return (
            self.normalized
            and not self.monotonicity_violations
            and not self.supermodularity_violations
        )

    def describe_first(self) -> str:
        """The first violation found, or "no violation" for a valid report."""
        if self.ok:
            return "no violation"
        if not self.normalized:
            return "H(X_emptyset) != 0"
        if self.supermodularity_violations:
            b1, b2, lhs, rhs = self.supermodularity_violations[0]
            return (
                f"supermodularity violated at B1={{{format_mask(b1)}}}, "
                f"B2={{{format_mask(b2)}}}: h(B1)+h(B2) = {lhs} > {rhs} = "
                "h(B1|B2)+h(B1&B2)"
            )
        b1, b2 = self.monotonicity_violations[0]
        return (
            f"monotonicity violated: h({{{format_mask(b1)}}}) > "
            f"h({{{format_mask(b2)}}})"
        )


def check_validity(
    oracle: EntropyOracle, *, first: bool = False
) -> ValidityReport:
    """Scan for h-supermodularity and h-monotonicity violations.

    Lists every violated pair h(B1)+h(B2) <= h(B1|B2)+h(B1&B2), every
    single-step monotonicity violation h(B) > h(B+{j}), and whether
    H(X_emptyset) = 0. Inexact oracles are judged at their tolerance.
    With ``first``, the pair listing stops at the least violated pair
    (B1, B2) and lists only it, so the report is just as ok or not and
    gives the same ``describe_first()``.

    The scan runs on the oracle's integer table, packed into one int of
    w-bit fields (Lamport, "Multiple byte processing with full-word
    instructions", 1975): field S holds u(S) = h(S) - min h, in [0, R] with
    R = max H - min H. Each check is a few whole-int shifts and sums whose
    field S holds one inequality's slack plus a bias; one AND against the
    fields' sign bits reads every verdict at once. An h is supermodular
    exactly when its C(m,2)*2^(m-2) elemental squares are (Yeung,
    *Information Theory and Network Coding*, 2008, ch. 14), so the O(4^m)
    pair listing runs only when a square fails. The squares are judged
    with no tolerance, even on an inexact oracle: when they all hold, every
    pair holds with no tolerance, hence within any. (Squares that held
    only within a tolerance need not compose to pairs that do.)

    Width. Let t = tol. Every checked quantity is v + c in one field, v a
    signed sum of at most four table values, so |v| <= 2R, and c a bias in
    [2^(w-1) - 1 - t, 2^(w-1) + t]: the monotonicity fields
    u(S+j) - u(S) + t + 2^(w-1), the square fields
    u(S+i+j) + u(S) - u(S+i) - u(S+j) + 2^(w-1) (no t there)
    and the pair fields u(B1) + u(B2) - u(B1|B2) - u(B1&B2) - t + 2^(w-1) - 1.
    With w = bitlen(2R + t) + 1, 2R + t < 2^(w-1), so every v + c lies in
    [0, 2^w) and its sign bit (bit w-1) tells whether the inequality holds.
    Fields whose verdict is not read hold the same kind of sum, with
    shifted-in zeros, which lie in [0, R] too. The sums are linear in the
    fields, so once every field of the result is in range no field has
    carried into or borrowed from its neighbour, whatever the order of the
    operations, and every sign bit is exact.
    """
    m = oracle.m
    n = 1 << m
    scale, joint, tol = oracle.scale, oracle.joint, oracle.tol
    normalized = abs(joint[0]) <= tol
    top = max(joint)
    w = (2 * (top - min(joint)) + tol).bit_length() + 1
    half = 1 << (w - 1)
    # u(S) = h(S) - min h = max H - H(X_{M-S}).
    table = _pack([top - v for v in reversed(joint)], w)
    ones = ((1 << (n * w)) - 1) // ((1 << w) - 1)
    signs = half * ones
    # clear[j]: all w bits of every field whose index lacks bit j, built by
    # doubling a run of 2^j fields.
    clear = []
    for j in range(m):
        run = (1 << (w << j)) - 1
        period = 2 << j
        while period < n:
            run |= run << (period * w)
            period <<= 1
        clear.append(run)
    clear_signs = [c & signs for c in clear]
    # shifted[j] has u(S + 2^j) in field S: the table's up-neighbours in j.
    shifted = [table >> (w << j) for j in range(m)]

    # Field S of shifted[j] + base is u(S+j) - u(S) + t + 2^(w-1): its sign
    # bit is clear exactly when h(S) - h(S+j) > t.
    base = (half + tol) * ones - table
    mono = sorted(
        (b, b | 1 << j)
        for j in range(m)
        for b in _field_indices(clear_signs[j] & ~(shifted[j] + base), w)
    )

    pairs: List[Tuple[int, int]] = []
    if not _packed_squares_hold(table + signs, shifted, clear_signs, w):
        pairs = _violating_pairs(
            table, ones, clear, (half - 1 - tol) * ones + table, w, m, first
        )
    total = joint[-1]
    full = n - 1
    supra = tuple(
        (
            b1,
            b2,
            Fraction(2 * total - joint[full ^ b1] - joint[full ^ b2], scale),
            Fraction(
                2 * total - joint[full ^ (b1 | b2)] - joint[full ^ (b1 & b2)],
                scale,
            ),
        )
        for b1, b2 in pairs
    )

    return ValidityReport(normalized, tuple(mono), supra)


def _field_indices(bits: int, w: int) -> List[int]:
    """The indices of the fields of w bits whose sign bit is set in bits,
    ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() // w - 1)
        bits ^= low
    return out


def _packed_squares_hold(
    biased: int, shifted: Sequence[int], clear_signs: Sequence[int], w: int
) -> bool:
    """Whether u(S+i) + u(S+j) <= u(S+i+j) + u(S) for all i < j outside S.

    ``biased`` is the packed table plus 2^(w-1) in every field and
    ``shifted[i]`` the table shifted down by 2^i fields, so field S of the
    four-term sum below is the square's slack plus 2^(w-1); the square
    holds where its sign bit is set.
    """
    for i, up_i in enumerate(shifted):
        for j in range(i + 1, len(shifted)):
            want = clear_signs[i] & clear_signs[j]
            square = (up_i >> (w << j)) + biased - up_i - shifted[j]
            if square & want != want:
                return False
    return True


def _violating_pairs(
    table: int,
    ones: int,
    clear: Sequence[int],
    floor: int,
    w: int,
    m: int,
    first: bool,
) -> List[Tuple[int, int]]:
    """Every pair B1 < B2 with u(B1) + u(B2) - u(B1|B2) - u(B1&B2) > t, in
    order of B1, then B2; with ``first``, only the least of them.

    ``floor`` is the table plus 2^(w-1) - 1 - t in every field. A depth-first
    walk fixes the bits of B1 from the highest down, 0 before 1, so its
    leaves come in ascending B1. At a node with prefix p (the bits fixed so
    far, the rest 0) it keeps, for every B2 >= p from field B2 - p on,
    ``join`` = u(p | B2) and ``meet`` = u((p + 2^(k+1) - 1) & B2), k the
    highest open bit: each child updates one of them by projecting bit k,
    and the child that sets bit k drops the 2^k fields below its prefix.
    At leaf B1 the fields start at B2 = B1, whose slack 0 is never listed,
    so only B2 > B1 is read. A walk that may stop returns True once it
    has its pair, and the nodes above it return without visiting more.
    """
    out: List[Tuple[int, int]] = []
    low = (1 << w) - 1
    signs = ones << (w - 1)
    fields = ones * low
    setbits = [fields ^ c for c in clear]

    def leaf(b1: int, join: int, meet: int) -> bool:
        # Field 0 of join is u(B1 | B1) = u(B1), spread over every field.
        shift = b1 * w
        slack = (floor >> shift) + (join & low) * (ones >> shift) - join - meet
        bad = slack & signs
        if not bad:
            return False
        if first:
            bad &= -bad  # the least B2
        out.extend((b1, b1 + t) for t in _field_indices(bad, w))
        return first

    def walk(k: int, b1: int, join: int, meet: int) -> bool:
        s = w << k
        below = meet & clear[k]
        above = join & setbits[k]
        if k:
            return walk(k - 1, b1, join, below | below << s) or walk(
                k - 1, b1 | 1 << k, (above | above >> s) >> s, meet >> s
            )
        return leaf(b1, join, below | below << s) or leaf(
            b1 | 1, (above | above >> s) >> s, meet >> s
        )

    walk(m - 1, 0, table, table)
    return out


def merge_terminals(source: SourceLike, blocks: Sequence[int]) -> SourceLike:
    """Conglomerate terminals: block i becomes the new terminal i.

    The merged terminal observes everything its block's members observe.
    """
    check_partition(blocks, source.m)
    k = len(blocks)

    if isinstance(source, LinearGF2Source):
        merged = tuple(tuple(source.stacked_rows(block)) for block in blocks)
        return LinearGF2Source(k, source.n, merged)

    if isinstance(source, TabularSource):
        # Merged symbol = mixed-radix encoding of the member symbols.
        coords = [list(iter_bits(block)) for block in blocks]
        sizes = tuple(
            math.prod(source.alphabets[c] for c in cs) for cs in coords
        )
        entries: Dict[Tuple[int, ...], Fraction] = {}
        for symbols, prob in source.pmf:
            key = []
            for cs in coords:
                code = 0
                for c in cs:
                    code = code * source.alphabets[c] + symbols[c]
                key.append(code)
            key_t = tuple(key)
            entries[key_t] = entries.get(key_t, Fraction(0)) + prob
        return TabularSource(k, sizes, tuple(sorted(entries.items())))

    if isinstance(source, EntropyVector):
        # The blocks are disjoint, so a sum of blocks is their union.
        values = source.values
        return EntropyVector(k, tuple(values[u] for u in _subset_sums(blocks)))

    raise InvalidInputError(f"unsupported source type {type(source).__name__}")


# {1,2,3}: the active set of the paper's six-terminal example, for its
# generative source and its published h table alike.
COUNTEREXAMPLE_ACTIVE = 0b000111


def make_counterexample() -> Tuple[LinearGF2Source, int]:
    """The six-terminal source of pairwise XORs of four uniform bits.

    Terminals observe X1=Y1^Y3, X2=Y1^Y4, X3=Y3^Y4, X4=Y2^Y3, X5=Y2^Y4,
    X6=Y1^Y2; the active set is {1,2,3}.
    """
    y = [1 << t for t in range(4)]  # y[t] selects base bit Y_{t+1}
    rows = (
        (y[0] | y[2],),
        (y[0] | y[3],),
        (y[2] | y[3],),
        (y[1] | y[2],),
        (y[1] | y[3],),
        (y[0] | y[1],),
    )
    return LinearGF2Source(6, 4, rows), COUNTEREXAMPLE_ACTIVE


def counterexample_entropy_vector() -> EntropyVector:
    """The published cardinality-based h table for the six-terminal example.

    h(B) = 0, 1, 2 for |B| in {1,2}, {3,4}, {5} with H(X_M) = 4, stored as
    the equivalent joint-entropy table. This table is NOT a valid entropy
    function (it violates supermodularity); load with validation disabled.
    """
    h_by_size = {0: Fraction(0), 1: Fraction(0), 2: Fraction(0),
                 3: Fraction(1), 4: Fraction(1), 5: Fraction(2),
                 6: Fraction(4)}
    total = Fraction(4)
    values = []
    for s in range(1 << 6):
        comp_size = 6 - s.bit_count()
        values.append(total - h_by_size[comp_size])
    return EntropyVector(6, tuple(values))


# The paper's published values for the six-terminal example with active set
# {1,2,3}: R_CO(A), C_SK(A), the mutual-dependence bound I(A), the unique
# optimal rates, and the six constraints tight at them, as terminal sets.
PUBLISHED_R_CO = Fraction(9, 4)
PUBLISHED_C_SK = Fraction(7, 4)
PUBLISHED_BOUND = Fraction(2)
PUBLISHED_RATES = (
    Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
)
PUBLISHED_TIGHT_MASKS = (
    frozenset({1, 3, 4}),
    frozenset({2, 3, 5}),
    frozenset({1, 2, 6}),
    frozenset({1, 2, 4, 5, 6}),
    frozenset({1, 3, 4, 5, 6}),
    frozenset({2, 3, 4, 5, 6}),
)


def make_sunflower(m: int, core_bits: int, petal_bits: int) -> LinearGF2Source:
    """Source where every terminal sees a shared core plus its own petal."""
    check_terminal_count(m)
    if core_bits < 0 or petal_bits < 0:
        raise InvalidInputError("bit counts must be nonnegative")
    n = core_bits + m * petal_bits
    rows = []
    for i in range(m):
        mine = [1 << t for t in range(core_bits)]
        offset = core_bits + i * petal_bits
        mine.extend(1 << (offset + t) for t in range(petal_bits))
        rows.append(tuple(mine))
    return LinearGF2Source(m, n, tuple(rows))


def random_linear_source(
    m: int, n: int, rows_per_terminal: int, seed: int
) -> LinearGF2Source:
    """Deterministic random source; rows uniform over nonzero n-bit vectors."""
    check_terminal_count(m)
    if n < 1 or rows_per_terminal < 1:
        raise InvalidInputError("n and rows_per_terminal must be positive")
    rng = random.Random(seed)
    rows = tuple(
        tuple(rng.randrange(1, 1 << n) for _ in range(rows_per_terminal))
        for _ in range(m)
    )
    return LinearGF2Source(m, n, rows)
