"""Exact rational simplex for Slepian-Wolf style linear programs.

The rate LP  min c.x  s.t.  A x >= b  (x free) has a 0/1 incidence matrix A
whose l rows are subset masks: l is about 2^m for m terminals, while x has
only m coordinates. Every LP therefore goes through one routine,
``_optimum``: it writes  min c.x  s.t.  A x >= b, E x = e  and, if asked,
x >= 0  as the dual with one equality row per terminal, hands that to
``simplex_min`` once and certifies the answer.

* ``solve`` is the rate LP itself, x free. The dual's vertex is the rate
  LP's optimal dual y, and its simplex multipliers are -x.
* ``uniqueness_test`` maximizes, over the optimal face, the slacks of the
  rows tight at x plus the coordinates where x is zero (Mangasarian,
  "Uniqueness of solution in linear programming", 1979).
* ``feasible_point`` decides a system of inequality and equality rows with
  objective 0: the dual is unbounded exactly when the system has no
  nonnegative point.

``simplex_min`` takes ints only: the entry points put right-hand sides and
costs over common denominators. It returns ints too, the vertex, the dual
and the objective as numerators over one denominator, and ``_optimum``
checks them exactly in ints: every primal row, y >= 0, dual feasibility,
complementary slackness and strong duality, the row sums x(B) read from one
table of the point's sums over every subset mask. Fractions are built only
for returned values.

``simplex_min`` starts from a unit basis that its caller names, the dual's
singleton or slack columns, so it has no phase 1. It pivots a
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
from typing import List, Optional, Sequence, Tuple, Union

from .errors import InternalContractError, InvalidInputError
from .subsets import check_mask, full_mask

ZERO = Fraction(0)

Rational = Union[int, Fraction]


class LpUnboundedError(Exception):
    """The equality-form program is unbounded below."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Data of the rate LP: one row per subset mask, right-hand side b.

    The incidence row for mask B is its 0/1 indicator vector. b and the
    objective c are held as ints over positive common denominators,
    b_i = b_num[i] / b_den and c_j = c_num[j] / c_den, the form in which the
    LP entry points solve and certify.
    """

    m: int
    row_masks: Tuple[int, ...]
    b_num: Tuple[int, ...]
    b_den: int
    c_num: Tuple[int, ...]
    c_den: int

    def __post_init__(self) -> None:
        if len(self.b_num) != len(self.row_masks):
            raise InvalidInputError("row count mismatch between masks and b")
        if len(self.c_num) != self.m:
            raise InvalidInputError("objective length must equal m")
        if self.b_den <= 0 or self.c_den <= 0:
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
    m: int,
    row_masks: Sequence[int],
    b: Sequence[Rational],
    c: Optional[Sequence[Rational]] = None,
) -> ConstraintSystem:
    """The system of rows (row_masks, b) and objective c (all ones if None)."""
    return ConstraintSystem(
        m, tuple(row_masks), *_over_common_denominator(b),
        *_over_common_denominator([1] * m if c is None else c),
    )


def _over_common_denominator(
    values: Sequence[Rational],
) -> Tuple[Tuple[int, ...], int]:
    """``(nums, den)`` with den > 0 the lcm of the denominators and
    values[i] == nums[i] / den. A value that is neither an int nor a
    Fraction is read as ``Fraction(value)``."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@dataclass(frozen=True)
class LpSolution:
    """A vertex primal optimum with its basis dual."""

    objective: Fraction
    x: Tuple[Fraction, ...]
    y: Tuple[Fraction, ...]
    tight_rows: Tuple[int, ...]

    @property
    def support_size(self) -> int:
        return sum(1 for v in self.y if v > 0)


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
    matrix: Sequence[Sequence[int]],
    rhs: Sequence[int],
    costs: Sequence[int],
    start: Sequence[int],
) -> Tuple[List[int], List[int], int, int]:
    """min costs.z  s.t.  matrix z = rhs, z >= 0  (Bland's rule), from the
    basis whose column start[i] is the unit vector of row i.

    Cells, right-hand sides and costs are ints, and rhs >= 0, so that basis
    is feasible and the simplex has no phase 1; anything else raises
    InternalContractError. Returns (z, y, objective, den): the vertex z, the
    equality-form dual vector y and the objective, all int numerators over
    the one denominator den > 0, |det| of the final basis. Raises
    LpUnboundedError.

    Each tableau row keeps its cells packed in one int of w-bit fields,
    sum_k v_k 2^(k w); its rhs cell, and the z-row's, are plain ints. The
    Edmonds-Bareiss update is linear in the row, so it runs on whole packed
    rows and yields exactly the cells of the unpacked tableau; only the
    field reads below need every stored |v_k| < 2^(w-1).

    Width. Let A be the matrix, n = n_rows, B the current basis and T the
    packed part of the tableau. The update keeps T = |det B| B^-1 A and the
    z-row |det B| (c - c_B B^-1 A) (Edmonds 1967). By Cramer's rule every
    cell of T is +-det of B with one column swapped for a column of A: an
    n x n minor of A. Each column of A has norm at most sqrt(n) t,
    t = max(1, max|a_ij|), so by Hadamard's inequality every such minor is
    below H = (isqrt(n^n) + 1) t^n. A z-row cell is +-det[B A_k; c_B c_k],
    an (n+1)-minor of A over the cost row; expanded along that row it is
    at most (n+1) max|c| H, so w = bitlen((n+1) max(1, max|c|) H) + 1 fits
    every stored cell. The rhs column is never packed, so it does not
    enter t.
    """
    n_rows = len(matrix)
    n_cols = len(costs)
    if len(start) != n_rows or min(rhs, default=0) < 0 or any(
        not 0 <= k < n_cols
        or any(row[k] != (r == i) for r, row in enumerate(matrix))
        for i, k in enumerate(start)
    ):
        raise InternalContractError("simplex start is not a feasible unit basis")

    top = max([1, *(max(map(abs, row), default=0) for row in matrix)])
    hadamard = (math.isqrt(n_rows**n_rows) + 1) * top**n_rows
    top_cost = max(1, max(map(abs, costs), default=1))
    w = ((n_rows + 1) * top_cost * hadamard).bit_length() + 1
    low, half = (1 << w) - 1, 1 << (w - 1)
    # half in every field: the sign bits of a packed row once half is added
    # to each of its fields.
    signs = half * (((1 << (n_cols * w)) - 1) // low)

    def column(j: int) -> List[int]:
        # Field j of every packed row. (r >> (jw - 1) + 1) >> 1 rounds
        # r / 2^(jw) to the nearest int, which drops the fields below j:
        # they sum to less than 2^(jw - 1) in magnitude. Field j is the low
        # w bits of that, read in two's complement.
        if not j:
            return [((r & low) ^ half) - half for r in packed]
        s = j * w - 1
        return [((((r >> s) + 1) >> 1 & low) ^ half) - half for r in packed]

    # The start basis B is the identity, so the tableau is the matrix
    # itself and the z-row, which rides along as row n_rows, is c - c_B A.
    packed = [_pack(row, w) for row in matrix]
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
    # its cost minus y_i: the z-row field there is denom * (c_k - y_i).
    y = [denom * costs[k] - column(k)[n_rows] for k in start]
    return z, y, -right[n_rows], denom


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


def _optimum(
    m: int,
    masks: Sequence[int],
    b: Sequence[int],
    eq_rows: Sequence[Sequence[int]],
    e: Sequence[int],
    c: Sequence[int],
    nonneg: bool,
) -> Tuple[List[int], List[int], List[int], int]:
    """min c.x  s.t.  x(B) >= b_B for B in masks, r.x = e_r for r in eq_rows
    and, if nonneg, x >= 0; all data ints, c >= 0. Returns (x, y, slacks,
    d), ints over one denominator d > 0: an optimal x, an optimal dual y,
    and the slack at x of the row each column of the dual stands for.

    ``simplex_min`` gets the m-row dual, whose vertex is y and whose
    multipliers are -x:

        min -b.u - e.v + e.w  s.t.  A^T u + E^T (v - w) + s = c,
        u, v, w, s >= 0  (s only if nonneg).

    Its column k, of cost a_k, stands for the row  col_k . x >= -a_k:
    x(B) >= b_B, r.x = e_r as two rows, or x_j >= 0. The columns of the
    singleton rows {j}, the first of each, or else those of x >= 0, are the
    unit vectors of the dual's rows, and with c >= 0 they are its feasible
    start; without either InvalidInputError is raised. The certificate
    checks that every such row holds, y >= 0, the columns on the support of
    y sum to c, complementary slackness and strong duality. Raises
    LpUnboundedError when no x is feasible (the dual is unbounded).
    """
    matrix = [[mask >> j & 1 for mask in masks] for j in range(m)]
    for j, row in enumerate(matrix):
        row += [r[j] for r in eq_rows] + [-r[j] for r in eq_rows]
        if nonneg:
            row += [int(k == j) for k in range(m)]
    costs = [-v for v in b] + [-v for v in e] + [*e] + [0] * (m if nonneg else 0)
    try:
        start = [masks.index(1 << j) for j in range(m)]
    except ValueError:
        if not nonneg:
            j = next(j for j in range(m) if 1 << j not in masks)
            raise InvalidInputError(
                f"every singleton row is needed, and {{{j + 1}}} is missing"
            ) from None
        start = list(range(len(costs) - m, len(costs)))
    y, pi, _, d = simplex_min(matrix, c, costs, start)

    x = [-v for v in pi]
    sums = _subset_sums(x)
    slacks = [sums[mask] - v * d for mask, v in zip(masks, b)]
    eq_gaps = [sum(map(mul, r, x)) - v * d for r, v in zip(eq_rows, e)]
    slacks += eq_gaps + [-v for v in eq_gaps] + (x if nonneg else [])
    if min(slacks, default=0) < 0:
        raise InternalContractError("primal infeasibility in solution")
    columns = [0] * m
    dual_value = 0
    for k in [k for k, v in enumerate(y) if v]:
        v = y[k]
        if v < 0:
            raise InternalContractError("negative dual weight")
        if slacks[k]:
            raise InternalContractError("complementary slackness violated")
        dual_value -= costs[k] * v
        for j, row in enumerate(matrix):
            columns[j] += row[k] * v
    if columns != [v * d for v in c]:
        raise InternalContractError("dual feasibility y.A + s = c violated")
    if dual_value != sum(map(mul, c, x)):
        raise InternalContractError("strong duality violated")
    return x, y, slacks, d


def solve(system: ConstraintSystem) -> LpSolution:
    """Solve min c.x s.t. A x >= b (x free) exactly; verify all contracts.

    ``_optimum`` solves and certifies it with b and c as the system's ints,
    so over its denominator d the point is b_den * x and the dual c_den * y.
    Every singleton row {j} must be present; with them, a negative weight
    c_j leaves c.x unbounded below, and raises InvalidInputError.
    """
    m, masks = system.m, system.row_masks
    b, c = system.b_num, system.c_num
    if any(v < 0 for v in b):
        raise InvalidInputError("right-hand side must be nonnegative")
    if any(v < 0 for v in c):
        raise InvalidInputError(
            "the rows do not bound the objective c.x from below: "
            "no dual weights y >= 0 have y.A = c"
        )

    try:
        x_num, z, slacks, d = _optimum(m, masks, b, (), (), c, False)
    except LpUnboundedError as exc:
        raise InternalContractError("rate LP reported infeasible") from exc

    x_den, y_den = d * system.b_den, d * system.c_den
    x = tuple(Fraction(v, x_den) for v in x_num)
    y = tuple(Fraction(v, y_den) if v else ZERO for v in z)
    tight = tuple(i for i, v in enumerate(slacks) if not v)
    r = sum(map(mul, c, x_num))
    return LpSolution(Fraction(r, x_den * system.c_den), x, y, tight)


def uniqueness_test(
    system: ConstraintSystem, solution: LpSolution
) -> UniquenessCertificate:
    """Search the optimal face for a point differing from the solution.

    Maximizes the slacks of the rows tight at x plus the coordinates where
    x is zero over {A z >= b, c.z = R, z >= 0}, R the optimal value.
    Written as d.z - K, with d = [x == 0] + A^T [row tight] and K the sum of
    the tight rows' b. On the face that is lam R - K minus (lam c - d).z,
    and lam = max ceil(d_j / c_j) makes that objective >= 0, as ``_optimum``
    needs; it solves and certifies min (lam c - d).z over those rows, so
    strong duality proves both the verdict and the auxiliary value. A
    maximum of 0 certifies uniqueness; otherwise z is the alternative
    optimum. The rows go over in ints: c.z = R as c_num.z = R c_den, with b
    and R c_den over one denominator q, so the point comes back as q z. A
    weight c_j <= 0 where d_j > 0 leaves the face unbounded in a direction
    d rewards, and it, or any negative weight, raises InvalidInputError.
    """
    m, masks = system.m, system.row_masks
    b, c, b_den, c_den = system.b_num, system.c_num, system.b_den, system.c_den
    x_num, x_den = _over_common_denominator(solution.x)
    if any(v < 0 for v in x_num):
        raise InvalidInputError("uniqueness test requires a nonnegative optimum")
    sums = _subset_sums(x_num)
    slacks = [sums[mask] * b_den - v * x_den for mask, v in zip(masks, b)]
    if any(v < 0 for v in slacks):
        raise InvalidInputError("solution is not feasible for the system")
    objective = solution.objective
    r_num, r_den = objective.numerator, objective.denominator
    if sum(map(mul, c, x_num)) * r_den != r_num * c_den * x_den:
        raise InvalidInputError("solution objective does not match the system")

    tight = [i for i, v in enumerate(slacks) if not v]
    tight_masks = [masks[i] for i in tight]
    d = [
        (not v) + sum(mask >> j & 1 for mask in tight_masks)
        for j, v in enumerate(x_num)
    ]
    if any(cj < 0 or cj == 0 < dj for cj, dj in zip(c, d)):
        raise InvalidInputError(
            "the optimal face is unbounded: the optimum is not unique and "
            "the auxiliary value has no finite maximum"
        )
    lam = max((-(-dj // cj) for cj, dj in zip(c, d) if cj), default=0)
    # R c_den = r_num c_den / r_den, and q = lcm(b_den, r_den).
    q = math.lcm(b_den, r_den)
    z_num, _, _, den = _optimum(
        m, masks, [q // b_den * v for v in b], [c],
        [r_num * c_den * (q // r_den)], [lam * cj - dj for cj, dj in zip(c, d)],
        True,
    )
    # aux = d.z_num / (q den) - (sum of the tight rows' b_num) / b_den.
    z_den = q * den
    d_z = sum(map(mul, d, z_num))
    tight_b = sum(b[i] for i in tight)
    if d_z * b_den == z_den * tight_b:
        return UniquenessCertificate(True, ZERO)
    aux = Fraction(d_z, z_den) - Fraction(tight_b, b_den)
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
    its dual is unbounded exactly when no point exists. Nonnegativity is
    harmless for rate regions: singleton constraints force
    x_j >= h({j}) >= 0 anyway.
    """
    n_ineq = len(ineq_masks)
    b, den = _over_common_denominator([*ineq_b, *eq_b])
    eq_rows = [[mask >> j & 1 for j in range(m)] for mask in eq_masks]
    try:
        x_num, _, _, x_den = _optimum(
            m, ineq_masks, b[:n_ineq], eq_rows, b[n_ineq:], [0] * m, True
        )
    except LpUnboundedError:
        return None
    x_den *= den
    return tuple(Fraction(v, x_den) for v in x_num)
