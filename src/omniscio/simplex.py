"""Exact rational simplex for Slepian-Wolf style linear programs.

The rate LP  min sum x  s.t.  A x >= b  (x free), the paper's R_CO, has a
0/1 incidence matrix A whose l rows are subset masks: l is about 2^m for m
terminals, while x has only m coordinates. Every LP therefore goes through
one routine, ``_optimum``: it writes  min c.x  s.t.  A x >= b, E x = e  as
the dual with one equality row per terminal, hands that to ``simplex_min``
once and certifies the answer. Its cost c is all ones for the rate LP and
is chosen by the other two entry points.

Every LP of the package is a rate system, and ``_optimum`` refuses any
other: b >= 0 and every singleton row {j} present. The Slepian-Wolf
region always holds these rows, since |A| >= 2 and h({j}) >= 0, so
x_j >= b_{j} >= 0 at every feasible point and no LP needs x >= 0 rows.

* ``solve`` is the rate LP itself, x free. The dual's vertex is the rate
  LP's optimal dual y, and its simplex multipliers are -x.
* ``uniqueness_test`` maximizes, over the optimal face, the slacks of the
  rows tight at x plus the coordinates where x is zero (Mangasarian,
  "Uniqueness of solution in linear programming", 1979), and reports
  Unique exactly when the vertex z of the face that this LP returns is x.
  It hands ``_optimum`` the rows tight at x first, so Bland's rule enters
  the rows of the optimal face before any other; the optimum does not
  depend on the order.
* ``feasible_point`` decides a system of inequality and equality rows with
  objective 0: the dual is unbounded exactly when the system has no point.

``simplex_min`` takes ints only: the entry points put right-hand sides and
costs over common denominators. It returns ints too, the vertex, the dual
and the objective as numerators over one denominator. One routine,
``_unproven``, holds the optimality proof and returns the first of its
conditions that fails: every primal row, y >= 0, complementary slackness,
dual feasibility y.A = c and strong duality, checked exactly in ints off
the masks, with the row sums x(B) read from one table of the point's sums
over every subset mask (``_slacks``) and y.A summed over the nonzero
weights only (``_column_sums``). ``_optimum`` runs it on the
simplex's answer and raises InternalContractError on a failure;
``uniqueness_test`` runs it on the solution it is given and raises
InvalidInputError. ``solve`` returns the ints it proved, x and y each over
one positive denominator, in an ``LpSolution``; ``uniqueness_test`` reads
those ints, and Fractions are built only when a caller reads the
solution's ``x``, ``y`` or ``objective``. No dense matrix is built:
``simplex_min`` takes each row packed in w-bit signed fields of one int,
w from ``_width``'s Hadamard bound at t = 1 for the dual's 0/+-1 cells,
and ``_dual_rows`` stacks the masks as w-bit fields of one int; w > m, so
no mask carries into the next field, and row j is the stack shifted right
by j and masked to bit 0 of each field.

``simplex_min`` starts from a unit basis that its caller names, the dual's
singleton columns, so it has no phase 1, and it reads the dual off the
z-row's fields at those columns. It pivots a
fraction-free tableau: integer cells over one common denominator, the
determinant of the basis, updated by the exact divisions of Edmonds
("Systems of distinct representatives and linear algebra", 1967) and
Bareiss ("Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968). Each row's cells are
packed into one int of fixed-width signed fields (Lamport, "Multiple byte
processing with full-word instructions", 1975), so a row update is a few
whole-int operations; the width comes from a Hadamard bound on the cells.
The pivot rule is Bland's (least index), for guaranteed termination and
run-to-run determinism; the integer tableau holds the same values as a
Fraction one would, so it takes the same pivots to the same vertex and
dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InternalContractError, InvalidInputError
from .subsets import check_mask, check_terminal_count, full_mask

ZERO = Fraction(0)

Rational = Union[int, Fraction]


class LpUnboundedError(Exception):
    """The equality-form program is unbounded below."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Data of the rate LP  min sum x  s.t.  A x >= b: one row per subset
    mask, right-hand side b.

    The incidence row for mask B is its 0/1 indicator vector. b is held as
    ints over a positive common denominator, b_i = b_num[i] / b_den, the
    form in which the LP entry points solve and certify.
    """

    m: int
    row_masks: Tuple[int, ...]
    b_num: Tuple[int, ...]
    b_den: int

    def __post_init__(self) -> None:
        check_terminal_count(self.m)
        if len(self.b_num) != len(self.row_masks):
            raise InvalidInputError("row count mismatch between masks and b")
        if self.b_den <= 0:
            raise InvalidInputError("denominators must be positive")
        full = full_mask(self.m)
        for mask in self.row_masks:
            if not 0 < mask < full:
                check_mask(mask, self.m)
                kind = "all-zero" if mask == 0 else "all-one"
                raise InvalidInputError(f"{kind} constraint row not allowed")

    @property
    def l(self) -> int:  # noqa: E743 - row count
        return len(self.row_masks)


def make_system(
    m: int, row_masks: Sequence[int], b: Sequence[Rational]
) -> ConstraintSystem:
    """The system of rows (row_masks, b)."""
    return ConstraintSystem(m, tuple(row_masks), *_over_common_denominator(b))


def _over_common_denominator(
    values: Sequence[Rational],
) -> Tuple[Tuple[int, ...], int]:
    """``(nums, den)`` with den > 0 the lcm of the denominators and
    values[i] == nums[i] / den. A value that is neither an int nor a
    Fraction is read as ``Fraction(value)``."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


@dataclass(frozen=True)
class LpSolution:
    """A vertex primal optimum with its basis dual, as the ints the LP
    solved and proved: x_j = x_num[j] / x_den and y_k = y_num[k] / y_den,
    both denominators positive. ``objective`` (the sum of x), ``x`` and
    ``y`` are Fraction views, built each time they are read."""

    x_num: Tuple[int, ...]
    x_den: int
    y_num: Tuple[int, ...]
    y_den: int
    tight_rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.x_den <= 0 or self.y_den <= 0:
            raise InvalidInputError("denominators must be positive")

    @property
    def objective(self) -> Fraction:
        return Fraction(sum(self.x_num), self.x_den)

    @property
    def x(self) -> Tuple[Fraction, ...]:
        return tuple([Fraction(v, self.x_den) for v in self.x_num])

    @property
    def y(self) -> Tuple[Fraction, ...]:
        return tuple([Fraction(v, self.y_den) if v else ZERO for v in self.y_num])

    @property
    def support_size(self) -> int:
        return sum(1 for v in self.y_num if v > 0)


@dataclass(frozen=True)
class UniquenessCertificate:
    """Outcome of the alternative-optimum search on the optimal face."""

    unique: bool
    auxiliary_value: Fraction
    alternative: Optional[Tuple[Fraction, ...]] = None

    @property
    def verdict(self) -> str:
        return "Unique" if self.unique else "NotUnique"


def simplex_min(
    rows: Sequence[int],
    rhs: Sequence[int],
    costs: Sequence[int],
    start: Sequence[int],
    w: int,
) -> Tuple[List[int], List[int], int, int]:
    """min costs.z  s.t.  A z = rhs, z >= 0  (Bland's rule), from the basis
    whose column start[i] is the unit vector of row i.

    Row i of A comes packed in w-bit signed fields, rows[i] =
    sum_k a_ik 2^(k w), one per cost. Right-hand sides and costs are ints,
    and rhs >= 0, so the start basis is feasible and the simplex has no
    phase 1; anything else raises InternalContractError, as does a run
    that pivots comb(n_cols, n_rows) times: Bland's rule never returns to
    a basis, so it has cycled. Returns (z, y, objective, den): the vertex
    z, the equality-form dual vector y and the objective, all int
    numerators over the one denominator den > 0, |det| of the final basis.
    Raises LpUnboundedError.

    The Edmonds-Bareiss update is linear in the row, so it runs on whole
    packed rows; only the field reads need every stored |v_k| < 2^(w-1).
    A read adds half = 2^(w-1) to every field at once, so each field is
    v_k + half in [0, 2^w) and none borrows from the next; field j is then
    ((row + signs) >> j w & (2^w - 1)) - half, with no branch for j = 0
    and no rounding.
    The caller picks w with ``_width``; no cell is read for it here, and
    that w > n_rows lets ``_dual_rows`` stack masks exactly.

    Width. Let n = n_rows, B the current basis and T the packed part of
    the tableau. The update keeps T = |det B| B^-1 A and the z-row
    |det B| (c - c_B B^-1 A) (Edmonds 1967). By Cramer's rule every cell of
    T is +-det of B with one column swapped for a column of A: an
    n x n minor of A. Each column of A has norm at most sqrt(n) t,
    t = max(1, max|a_ij|), so by Hadamard's inequality every such minor is
    below H = (isqrt(n^n) + 1) t^n. A z-row cell is +-det[B A_k; c_B c_k],
    an (n+1)-minor of A over the cost row; expanded along that row it is
    at most (n+1) max|c| H, so w = bitlen((n+1) max(1, max|c|) H) + 1 fits
    every stored cell. The rhs column is never packed, so it does not
    enter t.
    """
    n_rows = len(rows)
    n_cols = len(costs)
    low, half = (1 << w) - 1, 1 << (w - 1)
    # half in every field: the sign bits of a packed row once half is added
    # to each of its fields.
    signs = half * (((1 << (n_cols * w)) - 1) // low)
    distinct = set(start)
    if (
        len(start) != n_rows
        or len(distinct) != n_rows
        or min(start, default=0) < 0
        or min(rhs, default=0) < 0
    ):
        raise InternalContractError("simplex start is not a feasible unit basis")
    # Column start[i] is the unit vector of row i when every row r, with
    # half added to each field (so none borrows from the next), reads half
    # at the start columns, plus 1 at start[r].
    fields = sum(low << (k * w) for k in distinct)
    halves = signs & fields
    if any(
        (row + signs) & fields != halves + (1 << (k * w))
        for row, k in zip(rows, start)
    ):
        raise InternalContractError("simplex start is not a feasible unit basis")

    def column(j: int) -> List[int]:
        # Field j of every packed row: with half added to each field, every
        # field lies in [0, 2^w) and none borrows from the next, so field j
        # is the low w bits of the biased row shifted right by j w, less
        # half.
        s = j * w
        return [((r + signs) >> s & low) - half for r in packed]

    # The start basis B is the identity, so the tableau is A itself and the
    # z-row, which rides along as row n_rows, is c - c_B A.
    packed = list(rows)
    right = list(rhs)
    zrow = _pack(costs, w)
    z_rhs = 0
    for i, k in enumerate(start):
        if costs[k]:
            zrow -= costs[k] * packed[i]
            z_rhs -= costs[k] * right[i]
    packed.append(zrow)
    right.append(z_rhs)
    basis = list(start)
    # The tableau's value is its cells / denom, denom > 0 shared by every
    # row and the z-row; denom is |det| of the basis, so every cell is an int.
    denom = 1
    # Bases not yet visited: each pivot moves to one more.
    unvisited = math.comb(n_cols, n_rows) - 1

    while True:
        # Bland: the least column whose z-row field is negative, i.e. whose
        # sign bit stays clear once half is added.
        negative = signs & ~(packed[n_rows] + signs)
        if not negative:
            break
        pj = (negative & -negative).bit_length() // w - 1
        col = column(pj)
        # Least ratio rhs / a over a > 0, cross-multiplied; ties go to the
        # least basic index.
        pi = -1
        for i in range(n_rows):
            a = col[i]
            if a > 0:
                if pi < 0:
                    pi = i
                    continue
                lhs, rhs_ = right[i] * col[pi], right[pi] * a
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[pi]):
                    pi = i
        if pi < 0:
            raise LpUnboundedError()
        if not unvisited:
            raise InternalContractError("simplex cycled: more pivots than bases")
        unvisited -= 1
        # Edmonds-Bareiss update: (row * p - row[pj] * prow) / denom is
        # exact, and p > 0 becomes the new denominator.
        p = col[pi]
        prow, prhs = packed[pi], right[pi]
        for r, f in enumerate(col):
            if r == pi:
                continue
            if not f:
                if p != denom:
                    packed[r] = packed[r] * p // denom
                    right[r] = right[r] * p // denom
            elif denom != 1:
                packed[r] = (packed[r] * p - f * prow) // denom
                right[r] = (right[r] * p - f * prhs) // denom
            # Most pivots of the rate LPs keep denom == p == 1.
            elif p == 1:
                packed[r] -= f * prow
                right[r] -= f * prhs
            else:
                packed[r] = packed[r] * p - f * prow
                right[r] = right[r] * p - f * prhs
        denom = p
        basis[pi] = pj

    z = [0] * n_cols
    for k, v in zip(basis, right):
        z[k] = v
    # Column start[i] is the unit vector of row i, so its reduced cost is
    # its cost minus y_i: the z-row field there is denom * (c_k - y_i). Only
    # the z-row's field is read, as ``column`` reads it.
    zrow = packed[n_rows] + signs
    y = [denom * costs[k] - ((zrow >> (k * w) & low) - half) for k in start]
    return z, y, -right[n_rows], denom


def _width(n_rows: int, top: int, costs: Sequence[int]) -> int:
    """``simplex_min``'s field width for n = n_rows rows of cells at most
    top >= 1 in magnitude, under these costs. It exceeds n, since
    (n + 1)(isqrt(n^n) + 1) >= 2^n."""
    hadamard = (math.isqrt(n_rows**n_rows) + 1) * top**n_rows
    top_cost = max(1, max(map(abs, costs), default=1))
    return ((n_rows + 1) * top_cost * hadamard).bit_length() + 1


def _dual_rows(m: int, masks: Sequence[int], n: int, w: int) -> List[int]:
    """The m rows of [A^T | E^T | -E^T] packed at width w > m, column k of
    [A^T | E^T] the 0/1 indicator of masks[k]: A^T's columns are the first
    n masks, E^T's the rest.

    With every mask in a w-bit field of one int s, bit k w + j of s is bit
    j of mask k, since a mask below 2^m < 2^w cannot carry into the next
    field: row j is (s >> j) & ones. -E^T is E^T's fields moved up and
    subtracted.
    """
    stack = _pack(masks, w)
    ones = ((1 << (len(masks) * w)) - 1) // ((1 << w) - 1)
    base, shift = n * w, (len(masks) - n) * w
    rows = [stack >> j & ones for j in range(m)]
    return [r - ((r >> base) << (base + shift)) for r in rows]


def _pack(values: Sequence[int], w: int) -> int:
    """sum_k values[k] 2^(k w): the values as signed w-bit fields.

    Horner's rule on runs of 32 values, then the runs merged pairwise, so
    the time stays about linear in the bits rather than quadratic."""
    runs = []
    for k in range(0, len(values), 32):
        packed = 0
        for v in reversed(values[k:k + 32]):
            packed = (packed << w) + v
        runs.append(packed)
    shift = 32 * w
    while len(runs) > 1:
        if len(runs) % 2:
            runs.append(0)
        runs = [lo + (hi << shift) for lo, hi in zip(runs[::2], runs[1::2])]
        shift *= 2
    return runs[0] if runs else 0


def _subset_sums(x: Sequence[int]) -> List[int]:
    """x(B) for every subset mask B, built by doubling: the sums of the masks
    holding bit j are those of the masks below 2^j plus x_j."""
    sums = [0]
    for v in x:
        sums += [s + v for s in sums]
    return sums


def _slacks(
    x: Sequence[int], masks: Sequence[int], b: Sequence[int], scale: int
) -> List[int]:
    """x(B) - scale b_B for every mask B, all ints."""
    sums = _subset_sums(x)
    return [sums[mask] - v * scale for mask, v in zip(masks, b)]


def _column_sums(m: int, masks: Sequence[int], y: Dict[int, int]) -> List[int]:
    """y.A: for each terminal j, the sum of the weights y[k] of the masks
    masks[k] that hold j."""
    totals = [0] * m
    for k, v in y.items():
        mask = masks[k]
        while mask:
            low = mask & -mask
            totals[low.bit_length() - 1] += v
            mask ^= low
    return totals


def _unproven(
    masks: Sequence[int], b: Sequence[int], scale: int, n: int, x: Sequence[int],
    slacks: Sequence[int], y: Dict[int, int], den: int, c: Sequence[int],
) -> Optional[str]:
    """The first condition of the optimality proof of x that fails, or None
    when the dual y proves x optimal.

    The program is  min c.x  s.t.  x(B) >= scale b_B for the first n masks
    and x(C) = scale b_C for the rest, all ints, and slacks is
    ``_slacks(x, masks, b, scale)``. y maps each row of nonzero dual weight
    to that weight, an int over den > 0; the proof reads only these. Its
    conditions, in this order: every row holds, y >= 0 on the first n
    masks (the equality rows' weights are free), complementary slackness
    (weight only on tight rows), y.A = c, and strong duality
    scale b.y = c.x, cross-multiplied. Strong duality cannot fail alone:
    once the others hold, c.x = y.(A x) = scale b.y + y.slacks.
    """
    if min(slacks, default=0) < 0 or any(slacks[n:]):
        return "primal row violated"
    for k, v in y.items():
        if v < 0 and k < n:
            return "negative dual weight"
    dual = 0
    for k, v in y.items():
        if slacks[k]:
            return "complementary slackness violated"
        dual += b[k] * v
    if _column_sums(len(c), masks, y) != [v * den for v in c]:
        return "dual feasibility y.A = c violated"
    if dual * scale != den * sum(map(mul, c, x)):
        return "strong duality violated"
    return None


def _optimum(
    m: int, masks: Sequence[int], b: Sequence[int], n: int, c: Sequence[int]
) -> Tuple[List[int], List[int], List[int], int]:
    """min c.x  s.t.  x(B) >= b_B for the first n masks B and x(C) = b_C for
    the rest; all data ints. Returns (x, y, slacks, d), ints over one
    denominator d > 0: an optimal x, an optimal dual y and the slacks at x,
    one per mask.

    Every LP of the package is a rate system, and this is its contract,
    checked first: b >= 0 and every singleton row {j} among the first n
    rows; anything else raises InvalidInputError. Then x_j >= b_{j} >= 0 at
    every feasible point, so no x >= 0 row is needed. The callers pass
    c >= 0, which keeps the objective bounded below on the rows;
    ``simplex_min`` refuses any other c as a start that is not feasible.

    ``simplex_min`` gets the m-row dual, whose vertex is y and whose
    multipliers are -x:

        min -b.u - e.v + e.w  s.t.  A^T u + E^T (v - w) = c,  u, v, w >= 0,

    A and E the incidence matrices of the inequality and equality rows,
    packed by ``_dual_rows`` at t = 1, and e the equality rows' b. The
    columns of the singleton rows, the first of each, are the unit vectors
    of the dual's rows, and with c >= 0 they are its feasible start. The
    dual weight of row x(C) = e_C is v_C - w_C. ``_unproven`` then proves x
    optimal with y; the first condition that fails raises
    InternalContractError. Raises LpUnboundedError when no x is feasible
    (the dual is unbounded).
    """
    if any(v < 0 for v in b[:n]):
        raise InvalidInputError("right-hand side must be nonnegative")
    try:
        start = [masks.index(1 << j, 0, n) for j in range(m)]
    except ValueError:
        j = next(j for j in range(m) if 1 << j not in masks[:n])
        raise InvalidInputError(
            f"every singleton row is needed, and {{{j + 1}}} is missing"
        ) from None
    costs = [-v for v in b] + [*b[n:]]
    w = _width(m, 1, costs)
    rows = _dual_rows(m, masks, n, w)
    u, pi, _, d = simplex_min(rows, c, costs, start, w)

    x = [-v for v in pi]
    y = u[:len(masks)]
    for k in range(n, len(masks)):
        y[k] -= u[k + len(masks) - n]
    slacks = _slacks(x, masks, b, d)
    support = {i: v for i, v in enumerate(y) if v}
    reason = _unproven(masks, b, d, n, x, slacks, support, d, c)
    if reason:
        raise InternalContractError(reason)
    return x, y, slacks, d


def solve(system: ConstraintSystem) -> LpSolution:
    """Solve min sum x s.t. A x >= b (x free) exactly; verify all contracts.

    ``_optimum`` solves and certifies it with b as the system's ints, so
    over its denominator d the point is b_den * x and the dual is y: the
    solution keeps those ints, x over d * b_den and y over d, and builds
    no Fraction. It refuses, with InvalidInputError, a negative b and a
    missing singleton row {j}.
    """
    m = system.m
    try:
        x_num, z, slacks, d = _optimum(
            m, system.row_masks, system.b_num, system.l, [1] * m
        )
    except LpUnboundedError as exc:
        raise InternalContractError("rate LP reported infeasible") from exc

    tight = tuple(i for i, v in enumerate(slacks) if not v)
    return LpSolution(tuple(x_num), d * system.b_den, tuple(z), d, tight)


def uniqueness_test(
    system: ConstraintSystem, solution: LpSolution
) -> UniquenessCertificate:
    """Search the optimal face for a point differing from the solution.

    Maximizes the slacks of the rows tight at x plus the coordinates where
    x is zero over the optimal face {A z >= b, sum z = R}, R the optimal
    value; the singleton rows and b >= 0 give z >= 0 there. Written as
    d.z - K, with d = [x == 0] + A^T [row tight] and K the sum of the tight
    rows' b. On the face that is lam R - K minus (lam - d).z, and
    lam = max d makes every cost lam - d_j >= 0, as ``_optimum`` needs; it
    solves and certifies min (lam - d).z over those rows, so strong duality
    proves the auxiliary value, the maximum of d.z - K.

    The verdict is Unique exactly when the vertex z of the face that this LP
    returns is x. If z = x, x is a vertex with maximum d.x - K = 0, which
    makes it the only optimum (Mangasarian). If x is a vertex and not the
    only optimum, the maximum is above 0 = d.x - K, so z != x; if x is no
    vertex, it is not z either. Otherwise z is returned as an optimal
    alternative to x.

    The rows tight at x go to ``_optimum`` first, in mask order, then the
    rest, so Bland's rule enters the rows of the optimal face before any
    other. Neither the LP's optimum nor the verdict depends on that order;
    only which alternative vertex comes back can. The rows go over in ints,
    with b and R over one denominator q, so the point comes back as q z.

    The solution is read as its ints: R is sum(x_num) / x_den by
    construction, and the dual's nonzero weights go to the proof over
    y_den as they are. InvalidInputError refuses a solution whose
    numerators and denominators are not all ints, a point with other than m
    coordinates or l dual weights, one off the rows, a negative b and a
    missing singleton row (``_optimum``'s contract), and then, naming the
    first condition that fails, a dual y that ``_unproven`` does not accept
    as a proof that x is optimal: y >= 0, complementary slackness, y.A = 1
    and b.y = R.
    """
    m, masks, b, b_den = system.m, system.row_masks, system.b_num, system.b_den
    x_num, x_den, y = solution.x_num, solution.x_den, solution.y_num
    if not all(isinstance(v, int) for v in (x_den, solution.y_den, *x_num, *y)):
        raise InvalidInputError("solution numerators and denominators must be ints")
    if len(x_num) != m:
        raise InvalidInputError(
            f"solution has {len(x_num)} coordinates, the system {m}"
        )
    if len(y) != system.l:
        raise InvalidInputError(
            f"solution has {len(y)} dual weights, the system {system.l} rows"
        )
    # The slacks over x_den b_den: x(B) b_den - b_B x_den.
    x_int = [v * b_den for v in x_num]
    slacks = _slacks(x_int, masks, b, x_den)
    if min(slacks, default=0) < 0:
        raise InvalidInputError("solution is not feasible: primal row violated")

    tight = [i for i, v in enumerate(slacks) if not v]
    in_tight = _column_sums(m, masks, dict.fromkeys(tight, 1))
    d = [(not v) + t for v, t in zip(x_num, in_tight)]
    lam = max(d, default=0)
    # R = sum(x_num) / x_den, and q = lcm(b_den, x_den).
    q = math.lcm(b_den, x_den)
    order = tight + [i for i, v in enumerate(slacks) if v]
    z_num, _, _, den = _optimum(
        m, [masks[i] for i in order] + [full_mask(m)],
        [q // b_den * b[i] for i in order] + [sum(x_num) * (q // x_den)],
        system.l, [lam - dj for dj in d],
    )
    # After ``_optimum``, so that its contract refuses a system first.
    support = {i: v for i, v in enumerate(y) if v}
    reason = _unproven(
        masks, b, x_den, system.l, x_int, slacks, support, solution.y_den, [1] * m
    )
    if reason:
        raise InvalidInputError(f"solution is not optimal: {reason}")
    z_den = q * den
    if all(u * z_den == v * x_den for u, v in zip(x_num, z_num)):
        return UniquenessCertificate(True, ZERO)
    # aux = d.z_num / (q den) - (sum of the tight rows' b_num) / b_den.
    aux = Fraction(sum(map(mul, d, z_num)), z_den) - Fraction(
        sum(b[i] for i in tight), b_den
    )
    return UniquenessCertificate(
        False, aux, tuple(Fraction(v, z_den) for v in z_num)
    )


def feasible_point(
    m: int,
    ineq_masks: Sequence[int],
    ineq_b: Sequence[Rational],
    eq_masks: Sequence[int],
    eq_b: Sequence[Rational],
) -> Optional[Tuple[Fraction, ...]]:
    """A point of {x >= 0 : sum_B x >= b for B, sum_C x = b for C}, or None.

    ``_optimum`` solves it with objective 0 and the right-hand sides times
    den, the lcm of their denominators, so the point comes back as den * x;
    its dual is unbounded exactly when no point exists. As ``_optimum``
    requires, every singleton mask must be among ineq_masks and ineq_b must
    be >= 0, or InvalidInputError is raised; then x_j >= b_{j} >= 0 holds
    at every point with no x >= 0 row.
    """
    b, den = _over_common_denominator([*ineq_b, *eq_b])
    try:
        x_num, _, _, x_den = _optimum(
            m, [*ineq_masks, *eq_masks], b, len(ineq_masks), [0] * m
        )
    except LpUnboundedError:
        return None
    x_den *= den
    return tuple(Fraction(v, x_den) for v in x_num)
