"""Exact rational simplex for Slepian-Wolf style linear programs.

The rate LP  min c.x  s.t.  A x >= b  (x free) has a 0/1 incidence matrix A
whose l rows are subset masks: l is about 2^m for m terminals, while x has
only m coordinates. Every LP is therefore handed to ``simplex_min`` in its
dual form, which has one equality row per terminal:

* ``solve`` minimizes -b.y s.t. A^T y = c, y >= 0. Its optimal y is the
  rate LP's dual, and the simplex multipliers pi of the m rows give the
  primal optimum x = -pi.
* ``uniqueness_test`` maximizes, over the optimal face, the slacks of the
  rows tight at x plus the coordinates where x is zero, through the dual of
  that auxiliary LP (Mangasarian, "Uniqueness of solution in linear
  programming", 1979).
* ``feasible_point`` decides a system of inequality and equality rows
  through its dual, which is unbounded exactly when the system has no
  nonnegative point.

Each outcome is checked exactly against every row before it is returned,
through one table of the point's sums over every subset mask.

``simplex_min`` pivots a fraction-free tableau: integer cells over one
common denominator, the determinant of the basis, updated by the exact
divisions of Edmonds ("Systems of distinct representatives and linear
algebra", 1967) and Bareiss ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", 1968). Fractions are built only
for the returned vertex, dual and objective. The pivot rule is Bland's
(least index) throughout, for guaranteed termination and run-to-run
determinism; the integer tableau holds the same values as a Fraction one
would, so it takes the same pivots to the same vertex and dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import InternalContractError, InvalidInputError
from .subsets import full_mask, iter_bits

ZERO = Fraction(0)
ONE = Fraction(1)

Rational = Union[int, Fraction]


class LpInfeasibleError(Exception):
    """The equality-form program has no feasible point."""


class LpUnboundedError(Exception):
    """The equality-form program is unbounded below."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Data of the rate LP: one row per subset mask, right-hand side b.

    The incidence row for mask B is its 0/1 indicator vector; the objective
    c defaults to all ones.
    """

    m: int
    row_masks: Tuple[int, ...]
    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.b) != len(self.row_masks):
            raise InvalidInputError("row count mismatch between masks and b")
        if len(self.c) != self.m:
            raise InvalidInputError("objective length must equal m")
        full = full_mask(self.m)
        for mask in self.row_masks:
            if mask == 0:
                raise InvalidInputError("all-zero constraint row not allowed")
            if mask == full:
                raise InvalidInputError("all-one constraint row not allowed")
            if mask > full:
                raise InvalidInputError(f"row mask {mask:#b} out of range")

    @property
    def l(self) -> int:  # noqa: E743 - row count
        return len(self.row_masks)

    def row_sum(self, x: Sequence[Fraction], i: int) -> Fraction:
        return sum((x[j] for j in iter_bits(self.row_masks[i])), ZERO)


def make_system(
    m: int,
    row_masks: Sequence[int],
    b: Sequence[Fraction],
    c: Optional[Sequence[Fraction]] = None,
) -> ConstraintSystem:
    if c is None:
        c = [ONE] * m
    return ConstraintSystem(m, tuple(row_masks), _fractions(b), _fractions(c))


def _fractions(values: Sequence[Rational]) -> Tuple[Fraction, ...]:
    """``values`` as Fractions, keeping those that already are."""
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


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
    matrix: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
) -> Tuple[List[Fraction], List[Fraction], Fraction]:
    """min costs.z  s.t.  matrix z = rhs, z >= 0  (two-phase, Bland's rule).

    Cells may be ints or Fractions. Returns (z, y, objective) as Fractions,
    where y is the equality-form dual vector. Raises LpInfeasibleError /
    LpUnboundedError.
    """
    n_rows = len(matrix)
    n_cols = len(costs)
    art0 = n_cols
    width = n_cols + n_rows  # structural + artificial columns; rhs appended

    # Row i is scale * (matrix[i] | rhs[i]), negated where rhs[i] < 0, with
    # a unit artificial column: each artificial is scale times the one of the
    # unscaled system, which multiplies the phase-1 objective by scale > 0
    # and changes no sign and no ratio.
    scale = math.lcm(
        *(v.denominator for row in matrix for v in row),
        *(v.denominator for v in rhs),
    )
    tableau: List[List[int]] = []
    signs: List[int] = []
    for i, r in enumerate(rhs):
        sign = -1 if r < 0 else 1
        row = [sign * v.numerator * (scale // v.denominator) for v in matrix[i]]
        row.extend(1 if k == i else 0 for k in range(n_rows))
        row.append(sign * r.numerator * (scale // r.denominator))
        tableau.append(row)
        signs.append(sign)
    basis = [art0 + i for i in range(n_rows)]
    # The tableau's value is tableau / denom, denom > 0 shared by every row
    # and by zrow; denom is |det| of the basis, so every cell stays an int.
    denom = 1

    def pivot(pi: int, pj: int) -> None:
        # Edmonds-Bareiss update: (row * p - row[pj] * prow) / denom is
        # exact, and p becomes the new denominator.
        nonlocal tableau, zrow, denom
        prow = tableau[pi]
        p = prow[pj]

        def update(row: List[int]) -> List[int]:
            f = row[pj]
            if not f:
                return row if p == denom else [v * p // denom for v in row]
            if denom != 1:
                return [(v * p - f * w) // denom for v, w in zip(row, prow)]
            # Most pivots of the rate LPs keep denom == p == 1.
            if p == 1:
                return [v - f * w for v, w in zip(row, prow)]
            return [v * p - f * w for v, w in zip(row, prow)]

        tableau = [prow if r == pi else update(row) for r, row in enumerate(tableau)]
        zrow = update(zrow)
        if p < 0:  # only the artificial drive-out pivots on a negative entry
            tableau = [[-v for v in row] for row in tableau]
            zrow = [-v for v in zrow]
            p = -p
        denom = p
        basis[pi] = pj

    def run(entering_limit: int) -> None:
        while True:
            pj = -1
            for j in range(entering_limit):
                if zrow[j] < 0:
                    pj = j
                    break
            if pj < 0:
                return
            # Least ratio rhs / a over a > 0, cross-multiplied; ties go to
            # the least basic index.
            pi = -1
            for i in range(n_rows):
                row = tableau[i]
                a = row[pj]
                if a > 0:
                    if pi < 0:
                        pi = i
                        continue
                    best = tableau[pi]
                    lhs, rhs_ = row[width] * best[pj], best[width] * a
                    if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[pi]):
                        pi = i
            if pi < 0:
                raise LpUnboundedError()
            pivot(pi, pj)

    # Phase 1: minimize the artificial sum.
    zrow = [0] * (width + 1)
    for row in tableau:
        for k in range(n_cols):
            zrow[k] -= row[k]
        zrow[width] -= row[width]
    run(n_cols)
    if zrow[width] < 0:
        raise LpInfeasibleError()
    # Drive artificials (basic at zero) out where possible.
    for i in range(n_rows):
        if basis[i] >= art0:
            row = tableau[i]
            for j in range(n_cols):
                if row[j]:
                    pivot(i, j)
                    break

    # Phase 2: the real objective (artificials cost 0 and never re-enter),
    # as denom * cost_scale * (c - c_B B^-1 A) in ints.
    cost_scale = math.lcm(*(c.denominator for c in costs))
    int_costs = [c.numerator * (cost_scale // c.denominator) for c in costs]
    zrow = [denom * c for c in int_costs] + [0] * (n_rows + 1)
    for i in range(n_rows):
        cb = int_costs[basis[i]] if basis[i] < n_cols else 0
        if cb:
            zrow = [zk - cb * v for zk, v in zip(zrow, tableau[i])]
    run(n_cols)

    z = [ZERO] * n_cols
    objective = 0
    basic_costs = []
    for i in range(n_rows):
        val = tableau[i][width]
        if basis[i] < n_cols:
            z[basis[i]] = Fraction(val, denom)
            cb = int_costs[basis[i]]
            objective += cb * val
            if cb:
                basic_costs.append((cb, tableau[i]))
        elif val != 0:
            raise InternalContractError("artificial variable basic at nonzero level")
    # On a row whose basic variable is structural, the scaled tableau's
    # artificial columns are the unscaled ones divided by scale.
    y = [
        Fraction(
            scale * signs[i] * sum(cb * row[art0 + i] for cb, row in basic_costs),
            denom * cost_scale,
        )
        for i in range(n_rows)
    ]
    return z, y, Fraction(objective, denom * cost_scale)


def _transposed(masks: Sequence[int], m: int) -> List[List[int]]:
    """The transpose of the 0/1 incidence rows: m rows, one column per mask."""
    return [[mask >> j & 1 for mask in masks] for j in range(m)]


def _scaled_slacks(
    x: Sequence[Rational], masks: Sequence[int], b: Sequence[Rational]
) -> List[int]:
    """The slacks x(B) - b_B of the rows (masks, b), each times the same
    positive int, so their signs and zeros are exact.

    x(B) is read from one table of x's sums over every mask, built over the
    common denominator in 2^m int additions: sums[B] = sums[B - low] + x_low
    for the lowest bit low of B.
    """
    qx = math.lcm(*(v.denominator for v in x))
    qb = math.lcm(*(v.denominator for v in b))
    scaled = [v.numerator * (qx // v.denominator) * qb for v in x]
    sums = [0] * (1 << len(x))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + scaled[low.bit_length() - 1]
    return [
        sums[mask] - v.numerator * (qb // v.denominator) * qx
        for mask, v in zip(masks, b)
    ]


def solve(system: ConstraintSystem) -> LpSolution:
    """Solve min c.x s.t. A x >= b (x free) exactly; verify all contracts."""
    m = system.m
    if any(v < 0 for v in system.b):
        raise InvalidInputError("right-hand side must be nonnegative")
    covered = 0
    for mask in system.row_masks:
        covered |= mask
    if covered != full_mask(m):
        raise InvalidInputError("every column must be covered by some row")

    matrix = _transposed(system.row_masks, m)
    # The dual is infeasible exactly when the rate LP is unbounded, and
    # unbounded exactly when the rate LP is infeasible.
    try:
        y, pi, objective = simplex_min(matrix, system.c, [-v for v in system.b])
    except LpInfeasibleError as exc:
        raise InternalContractError("rate LP reported unbounded") from exc
    except LpUnboundedError as exc:
        raise InternalContractError("rate LP reported infeasible") from exc

    x = tuple(-v for v in pi)
    slacks = _scaled_slacks(x, system.row_masks, system.b)
    tight = tuple(i for i, v in enumerate(slacks) if v == 0)
    solution = LpSolution(-objective, x, tuple(y), tight)
    _verify(system, solution, slacks)
    return solution


def _verify(
    system: ConstraintSystem, sol: LpSolution, slacks: Sequence[int]
) -> None:
    """Certify sol against every row, given the rows' scaled slacks at sol.x."""
    m = system.m
    if sum(system.c[j] * sol.x[j] for j in range(m)) != sol.objective:
        raise InternalContractError("objective mismatch with primal x")
    support = [
        (mask, y, b)
        for mask, y, b in zip(system.row_masks, sol.y, system.b)
        if y
    ]
    if sum((y * b for _, y, b in support), ZERO) != sol.objective:
        raise InternalContractError("strong duality violated")
    for y, slack in zip(sol.y, slacks):
        if y < 0:
            raise InternalContractError("negative dual weight")
        if slack < 0:
            raise InternalContractError("primal infeasibility in solution")
        if y > 0 and slack != 0:
            raise InternalContractError("complementary slackness violated")
    for j in range(m):
        col = sum((y for mask, y, _ in support if mask >> j & 1), ZERO)
        if col != system.c[j]:
            raise InternalContractError("dual feasibility y.A = c violated")


def tight_rows(
    solution: LpSolution, system: ConstraintSystem
) -> List[Tuple[int, int]]:
    """All rows holding with equality at the solution, as (index, mask)."""
    return [(i, system.row_masks[i]) for i in solution.tight_rows]


def uniqueness_test(
    system: ConstraintSystem, solution: LpSolution
) -> UniquenessCertificate:
    """Search the optimal face for a point differing from the solution.

    Maximizes the slacks of the rows tight at x plus the coordinates where
    x is zero over {A z >= b, c.z = R, z >= 0}, R the optimal value.
    Written as d.z - K, with d = [x == 0] + A^T [row tight] and K the sum of
    the tight rows' b, that LP is solved through its m-row dual

        min -b.u + R t  s.t.  -A^T u + t c - s = d,  u, s >= 0,  t free,

    whose simplex multipliers are an optimal z. A maximum of 0 certifies
    uniqueness; otherwise z is the alternative optimum.
    """
    m = system.m
    x = solution.x
    if any(v < 0 for v in x):
        raise InvalidInputError("uniqueness test requires a nonnegative optimum")
    slacks = _scaled_slacks(x, system.row_masks, system.b)
    if any(v < 0 for v in slacks):
        raise InvalidInputError("solution is not feasible for the system")
    objective = solution.objective
    if sum(system.c[j] * x[j] for j in range(m)) != objective:
        raise InvalidInputError("solution objective does not match the system")

    tight = [i for i, v in enumerate(slacks) if v == 0]
    d = [
        (v == 0) + sum(system.row_masks[i] >> j & 1 for i in tight)
        for j, v in enumerate(x)
    ]
    matrix = [
        [-v for v in row] + [system.c[j], -system.c[j]]
        + [-1 if k == j else 0 for k in range(m)]
        for j, row in enumerate(_transposed(system.row_masks, m))
    ]
    costs = [-v for v in system.b] + [objective, -objective] + [0] * m
    _, z, dual_objective = simplex_min(matrix, d, costs)
    aux = dual_objective - sum((system.b[i] for i in tight), ZERO)
    if aux == 0:
        return UniquenessCertificate(True, aux)
    alternative = tuple(z)
    alt_slacks = _scaled_slacks(alternative, system.row_masks, system.b)
    if (
        any(v < 0 for v in alternative)
        or any(v < 0 for v in alt_slacks)
        or sum(system.c[j] * alternative[j] for j in range(m)) != objective
        or alternative == x
    ):
        raise InternalContractError("alternative optimum fails its certificate")
    return UniquenessCertificate(False, aux, alternative)


def feasible_point(
    m: int,
    ineq_masks: Sequence[int],
    ineq_b: Sequence[Fraction],
    eq_masks: Sequence[int],
    eq_b: Sequence[Fraction],
) -> Optional[Tuple[Fraction, ...]]:
    """A point of {x >= 0 : sum_B x >= b for B, sum_C x = b for C}, or None.

    Solved through the m-row dual  min -(b.u + e.v)  s.t.
    A^T u + E^T v + w = 0  with u, w >= 0 and v free: that dual is unbounded
    exactly when no point exists, and otherwise its simplex multipliers pi
    give the point x = -pi. Nonnegativity is harmless for rate regions:
    singleton constraints force x_j >= h({j}) >= 0 anyway.
    """
    ineq_cols = _transposed(ineq_masks, m)
    eq_cols = _transposed(eq_masks, m)
    matrix = [
        ineq_cols[j] + eq_cols[j] + [-v for v in eq_cols[j]]
        + [1 if k == j else 0 for k in range(m)]
        for j in range(m)
    ]
    costs = [-v for v in ineq_b] + [-v for v in eq_b] + list(eq_b) + [0] * m
    try:
        _, pi, _ = simplex_min(matrix, [0] * m, costs)
    except LpUnboundedError:
        return None
    x = tuple(-v for v in pi)
    n_ineq = len(ineq_masks)
    slacks = _scaled_slacks(x, [*ineq_masks, *eq_masks], [*ineq_b, *eq_b])
    if (
        any(v < 0 for v in x)
        or any(v < 0 for v in slacks[:n_ineq])
        or any(slacks[n_ineq:])
    ):
        raise InternalContractError("feasible point fails its certificate")
    return x
