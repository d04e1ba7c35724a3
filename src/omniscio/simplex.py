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

Each outcome is checked exactly against every row before it is returned.
All arithmetic is over ``fractions.Fraction``, and the pivot rule is Bland's
(least index) throughout, for guaranteed termination and run-to-run
determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalContractError, InvalidInputError
from .subsets import full_mask, iter_bits

ZERO = Fraction(0)
ONE = Fraction(1)


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
    return ConstraintSystem(
        m, tuple(row_masks), tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in c)
    )


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
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    costs: Sequence[Fraction],
) -> Tuple[List[Fraction], List[Fraction], Fraction]:
    """min costs.z  s.t.  matrix z = rhs, z >= 0  (two-phase, Bland's rule).

    Returns (z, y, objective) where y is the equality-form dual vector.
    Raises LpInfeasibleError / LpUnboundedError.
    """
    n_rows = len(matrix)
    n_cols = len(costs)
    art0 = n_cols
    width = n_cols + n_rows  # structural + artificial columns; rhs appended

    tableau: List[List[Fraction]] = []
    signs: List[int] = []
    for i in range(n_rows):
        row = [Fraction(v) for v in matrix[i]]
        r = Fraction(rhs[i])
        if r < 0:
            row = [-v for v in row]
            r = -r
            signs.append(-1)
        else:
            signs.append(1)
        row.extend(ONE if k == i else ZERO for k in range(n_rows))
        row.append(r)
        tableau.append(row)
    basis = [art0 + i for i in range(n_rows)]

    def pivot(pi: int, pj: int) -> None:
        prow = tableau[pi]
        piv = prow[pj]
        if piv != 1:
            inv = 1 / piv
            prow = tableau[pi] = [v * inv for v in prow]
        nz = [k for k, v in enumerate(prow) if v]
        for r in range(n_rows):
            if r == pi:
                continue
            row = tableau[r]
            f = row[pj]
            if f:
                for k in nz:
                    row[k] -= f * prow[k]
        f = zrow[pj]
        if f:
            for k in nz:
                zrow[k] -= f * prow[k]
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
            pi = -1
            best: Optional[Fraction] = None
            for i in range(n_rows):
                a = tableau[i][pj]
                if a > 0:
                    ratio = tableau[i][width] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[pi]
                    ):
                        best = ratio
                        pi = i
            if pi < 0:
                raise LpUnboundedError()
            pivot(pi, pj)

    # Phase 1: minimize the artificial sum.
    zrow = [ZERO] * (width + 1)
    for i in range(n_rows):
        row = tableau[i]
        for k in range(n_cols):
            zrow[k] -= row[k]
        zrow[width] -= row[width]
    run(n_cols)
    if -zrow[width] > 0:
        raise LpInfeasibleError()
    # Drive artificials (basic at zero) out where possible.
    for i in range(n_rows):
        if basis[i] >= art0:
            row = tableau[i]
            for j in range(n_cols):
                if row[j]:
                    pivot(i, j)
                    break

    # Phase 2: the real objective (artificials cost 0 and never re-enter).
    zrow = [Fraction(c) for c in costs] + [ZERO] * (n_rows + 1)
    for i in range(n_rows):
        cb = costs[basis[i]] if basis[i] < n_cols else ZERO
        if cb:
            row = tableau[i]
            for k in range(width + 1):
                if row[k]:
                    zrow[k] -= cb * row[k]
    run(n_cols)

    z = [ZERO] * n_cols
    objective = ZERO
    for i in range(n_rows):
        val = tableau[i][width]
        if basis[i] < n_cols:
            z[basis[i]] = val
            objective += costs[basis[i]] * val
        elif val != 0:
            raise InternalContractError("artificial variable basic at nonzero level")
    y = []
    for i in range(n_rows):
        yi = ZERO
        for r in range(n_rows):
            cb = costs[basis[r]] if basis[r] < n_cols else ZERO
            if cb:
                yi += cb * tableau[r][art0 + i]
        y.append(yi * signs[i])
    return z, y, objective


def _transposed(masks: Sequence[int], m: int) -> List[List[Fraction]]:
    """The transpose of the 0/1 incidence rows: m rows, one column per mask."""
    return [[ONE if mask >> j & 1 else ZERO for mask in masks] for j in range(m)]


def solve(system: ConstraintSystem) -> LpSolution:
    """Solve min c.x s.t. A x >= b (x free) exactly; verify all contracts."""
    m, l = system.m, system.l
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
    tight = tuple(
        i for i in range(l) if system.row_sum(x, i) == system.b[i]
    )
    solution = LpSolution(-objective, x, tuple(y), tight)
    _verify(system, solution)
    return solution


def _verify(system: ConstraintSystem, sol: LpSolution) -> None:
    m, l = system.m, system.l
    if sum(system.c[j] * sol.x[j] for j in range(m)) != sol.objective:
        raise InternalContractError("objective mismatch with primal x")
    if sum(sol.y[i] * system.b[i] for i in range(l)) != sol.objective:
        raise InternalContractError("strong duality violated")
    for i in range(l):
        if sol.y[i] < 0:
            raise InternalContractError("negative dual weight")
        gap = system.row_sum(sol.x, i) - system.b[i]
        if gap < 0:
            raise InternalContractError("primal infeasibility in solution")
        if sol.y[i] > 0 and gap != 0:
            raise InternalContractError("complementary slackness violated")
    for j in range(m):
        col = sum(
            (sol.y[i] for i in range(l) if system.row_masks[i] >> j & 1), ZERO
        )
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
    m, l = system.m, system.l
    x = solution.x
    if any(v < 0 for v in x):
        raise InvalidInputError("uniqueness test requires a nonnegative optimum")
    slacks = [system.row_sum(x, i) - system.b[i] for i in range(l)]
    if any(v < 0 for v in slacks):
        raise InvalidInputError("solution is not feasible for the system")
    objective = solution.objective
    if sum(system.c[j] * x[j] for j in range(m)) != objective:
        raise InvalidInputError("solution objective does not match the system")

    tight = [i for i in range(l) if slacks[i] == 0]
    d = [ONE if v == 0 else ZERO for v in x]
    for i in tight:
        for j in iter_bits(system.row_masks[i]):
            d[j] += 1
    matrix = [
        [-v for v in row] + [system.c[j], -system.c[j]]
        + [-ONE if k == j else ZERO for k in range(m)]
        for j, row in enumerate(_transposed(system.row_masks, m))
    ]
    costs = [-v for v in system.b] + [objective, -objective] + [ZERO] * m
    _, z, dual_objective = simplex_min(matrix, d, costs)
    aux = dual_objective - sum((system.b[i] for i in tight), ZERO)
    if aux == 0:
        return UniquenessCertificate(True, aux)
    alternative = tuple(z)
    if (
        any(v < 0 for v in alternative)
        or any(system.row_sum(alternative, i) < system.b[i] for i in range(l))
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
        + [ONE if k == j else ZERO for k in range(m)]
        for j in range(m)
    ]
    costs = [-v for v in ineq_b] + [-v for v in eq_b] + list(eq_b) + [ZERO] * m
    try:
        _, pi, _ = simplex_min(matrix, [ZERO] * m, costs)
    except LpUnboundedError:
        return None
    x = tuple(-v for v in pi)

    def row_sum(mask: int) -> Fraction:
        return sum((x[j] for j in iter_bits(mask)), ZERO)

    if (
        any(v < 0 for v in x)
        or any(row_sum(mask) < b for mask, b in zip(ineq_masks, ineq_b))
        or any(row_sum(mask) != b for mask, b in zip(eq_masks, eq_b))
    ):
        raise InternalContractError("feasible point fails its certificate")
    return x
