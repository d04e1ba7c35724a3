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

The entry points hand ``simplex_min`` int matrices, right-hand sides and
costs over one common denominator, and check each outcome exactly against
every row in ints before it is returned, through one table of the point's
sums over every subset mask. Fractions are built only for returned values.

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
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import InternalContractError, InvalidInputError
from .subsets import full_mask, iter_bits

ZERO = Fraction(0)

Rational = Union[int, Fraction]


class LpInfeasibleError(Exception):
    """The equality-form program has no feasible point."""


class LpUnboundedError(Exception):
    """The equality-form program is unbounded below."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Data of the rate LP: one row per subset mask, right-hand side b.

    The incidence row for mask B is its 0/1 indicator vector. b and the
    objective c are held as ints over positive common denominators,
    b_i = b_num[i] / b_den and c_j = c_num[j] / c_den, the form in which the
    LP entry points solve and certify; ``b`` and ``c`` are their Fraction
    values, built on first use.
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
            if mask == 0:
                raise InvalidInputError("all-zero constraint row not allowed")
            if mask == full:
                raise InvalidInputError("all-one constraint row not allowed")
            if mask > full:
                raise InvalidInputError(f"row mask {mask:#b} out of range")

    @cached_property
    def b(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(v, self.b_den) for v in self.b_num)

    @cached_property
    def c(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(v, self.c_den) for v in self.c_num)

    @property
    def l(self) -> int:  # noqa: E743 - row count
        return len(self.row_masks)

    def row_sum(self, x: Sequence[Fraction], i: int) -> Fraction:
        return sum((x[j] for j in iter_bits(self.row_masks[i])), ZERO)


def make_system(
    m: int,
    row_masks: Sequence[int],
    b: Sequence[Rational],
    c: Optional[Sequence[Rational]] = None,
) -> ConstraintSystem:
    """The system of rows (row_masks, b) and objective c (all ones if None).

    ``b`` and ``c`` keep the caller's values, as Fractions.
    """
    b_values = _fractions(b)
    c_values = _fractions([1] * m if c is None else c)
    system = ConstraintSystem(
        m, tuple(row_masks), *_over_common_denominator(b_values),
        *_over_common_denominator(c_values),
    )
    # Fill the cached properties with the caller's own Fraction objects.
    object.__setattr__(system, "b", b_values)
    object.__setattr__(system, "c", c_values)
    return system


def _fractions(values: Sequence[Rational]) -> Tuple[Fraction, ...]:
    """``values`` as Fractions, keeping those that already are."""
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


_INT = frozenset({int})


def _all_ints(values: Iterable[Rational]) -> bool:
    return set(map(type, values)) <= _INT


def _over_common_denominator(
    values: Sequence[Rational],
) -> Tuple[Tuple[int, ...], int]:
    """``(nums, den)`` with den > 0 the lcm of the denominators and
    values[i] == nums[i] / den; ints come back as they are, over 1."""
    if _all_ints(values):
        return tuple(values), 1
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
    # and changes no sign and no ratio. An all-int system has scale 1.
    if _all_ints(chain(chain.from_iterable(matrix), rhs)):
        scale = 1
        rows = [list(row) for row in matrix]
        right = list(rhs)
    else:
        scale = math.lcm(
            *(v.denominator for row in matrix for v in row),
            *(v.denominator for v in rhs),
        )
        rows = [
            [v.numerator * (scale // v.denominator) for v in row]
            for row in matrix
        ]
        right = [v.numerator * (scale // v.denominator) for v in rhs]
    tableau: List[List[int]] = []
    signs: List[int] = []
    for i, (row, r) in enumerate(zip(rows, right)):
        sign = -1 if r < 0 else 1
        if sign < 0:
            row = [-v for v in row]
        row.extend(1 if k == i else 0 for k in range(n_rows))
        row.append(sign * r)
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
    int_costs, cost_scale = _over_common_denominator(costs)
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


def _slacks(
    x_num: Sequence[int],
    x_den: int,
    masks: Sequence[int],
    b_num: Sequence[int],
    b_den: int,
) -> List[int]:
    """The slacks x(B) - b_B of the rows (masks, b) for x = x_num / x_den and
    b = b_num / b_den, each times x_den * b_den > 0: exact signs and zeros.

    x(B) is read from one table of x_num's sums over every mask, built by
    doubling: the sums of the masks holding bit j are those of the masks
    below 2^j plus x_num[j].
    """
    sums = [0]
    for v in x_num:
        sums += [s + v for s in sums]
    return [sums[mask] * b_den - v * x_den for mask, v in zip(masks, b_num)]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def solve(system: ConstraintSystem) -> LpSolution:
    """Solve min c.x s.t. A x >= b (x free) exactly; verify all contracts.

    The dual goes to ``simplex_min`` with b and c as the system's ints, so
    its vertex is c_den * y, its multipliers are -b_den * x and its
    objective is -b_den * c_den * R. The certificate runs in ints on those:
    primal feasibility on every row, y >= 0, y.A = c, complementary
    slackness, strong duality and c.x = R.
    """
    m, masks = system.m, system.row_masks
    b, c = system.b_num, system.c_num
    if any(v < 0 for v in b):
        raise InvalidInputError("right-hand side must be nonnegative")
    covered = 0
    for mask in masks:
        covered |= mask
    if covered != full_mask(m):
        raise InvalidInputError("every column must be covered by some row")

    matrix = _transposed(masks, m)
    # The dual is infeasible exactly when the rate LP is unbounded, and
    # unbounded exactly when the rate LP is infeasible.
    try:
        z, pi, objective = simplex_min(matrix, c, [-v for v in b])
    except LpInfeasibleError as exc:
        raise InternalContractError("rate LP reported unbounded") from exc
    except LpUnboundedError as exc:
        raise InternalContractError("rate LP reported infeasible") from exc

    # b_den * x = x_num / x_den, c_den * y_i = z_i, b_den * c_den * R = r.
    p_num, x_den = _over_common_denominator(pi)
    x_num = [-v for v in p_num]
    r = -objective
    slacks = _slacks(x_num, x_den, masks, b, 1)
    support = [i for i, v in enumerate(z) if v]
    z_num, z_den = _over_common_denominator([z[i] for i in support])
    if _dot(c, x_num) * r.denominator != r.numerator * x_den:
        raise InternalContractError("objective mismatch with primal x")
    if _dot([b[i] for i in support], z_num) * r.denominator != r.numerator * z_den:
        raise InternalContractError("strong duality violated")
    if any(v < 0 for v in z_num):
        raise InternalContractError("negative dual weight")
    if any(v < 0 for v in slacks):
        raise InternalContractError("primal infeasibility in solution")
    if any(slacks[i] for i in support):
        raise InternalContractError("complementary slackness violated")
    support_masks = [masks[i] for i in support]
    for j in range(m):
        column = sum(w for mask, w in zip(support_masks, z_num) if mask >> j & 1)
        if column != c[j] * z_den:
            raise InternalContractError("dual feasibility y.A = c violated")

    x = tuple(Fraction(v, x_den * system.b_den) for v in x_num)
    y = tuple(z) if system.c_den == 1 else tuple(v / system.c_den for v in z)
    tight = tuple(i for i, v in enumerate(slacks) if not v)
    return LpSolution(
        Fraction(r.numerator, r.denominator * system.b_den * system.c_den),
        x, y, tight,
    )


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
    uniqueness; otherwise z is the alternative optimum. The dual is handed
    over in ints: t is scaled by c_den, so its columns read c_num, and every
    cost is put over one denominator q, so the multipliers are q z.
    """
    m, masks = system.m, system.row_masks
    b, c, b_den, c_den = system.b_num, system.c_num, system.b_den, system.c_den
    x_num, x_den = _over_common_denominator(solution.x)
    if any(v < 0 for v in x_num):
        raise InvalidInputError("uniqueness test requires a nonnegative optimum")
    slacks = _slacks(x_num, x_den, masks, b, b_den)
    if any(v < 0 for v in slacks):
        raise InvalidInputError("solution is not feasible for the system")
    objective = solution.objective
    r_num, r_den = objective.numerator, objective.denominator
    if _dot(c, x_num) * r_den != r_num * c_den * x_den:
        raise InvalidInputError("solution objective does not match the system")

    tight = [i for i, v in enumerate(slacks) if not v]
    tight_masks = [masks[i] for i in tight]
    d = [
        (not v) + sum(mask >> j & 1 for mask in tight_masks)
        for j, v in enumerate(x_num)
    ]
    matrix = [
        [-v for v in row] + [c[j], -c[j]] + [-1 if k == j else 0 for k in range(m)]
        for j, row in enumerate(_transposed(masks, m))
    ]
    # R c_den = r_num c_den / r_den, and q = lcm(b_den, r_den).
    q = math.lcm(b_den, r_den)
    per_b, t_cost = q // b_den, r_num * c_den * (q // r_den)
    costs = [-per_b * v for v in b] + [t_cost, -t_cost] + [0] * m
    _, pi, dual_objective = simplex_min(matrix, d, costs)
    # aux = dual_objective / q - (sum of the tight rows' b_num) / b_den.
    tight_b = sum(b[i] for i in tight)
    if dual_objective.numerator * b_den == q * tight_b * dual_objective.denominator:
        return UniquenessCertificate(True, ZERO)
    aux = dual_objective / q - Fraction(tight_b, b_den)
    z_num, z_den = _over_common_denominator(pi)
    z_den *= q
    alternative = tuple(Fraction(v, z_den) for v in z_num)
    if (
        any(v < 0 for v in z_num)
        or any(v < 0 for v in _slacks(z_num, z_den, masks, b, b_den))
        or _dot(c, z_num) * r_den != r_num * c_den * z_den
        or alternative == solution.x
    ):
        raise InternalContractError("alternative optimum fails its certificate")
    return UniquenessCertificate(False, aux, alternative)


def feasible_point(
    m: int,
    ineq_masks: Sequence[int],
    ineq_b: Sequence[Rational],
    eq_masks: Sequence[int],
    eq_b: Sequence[Rational],
    scale: int = 1,
) -> Optional[Tuple[Fraction, ...]]:
    """A point of {x >= 0 : sum_B x >= b for B, sum_C x = b for C}, or None.

    The right-hand sides are ``ineq_b`` and ``eq_b`` divided by ``scale``
    (a positive int), so ints over an oracle's integer table can be passed
    as they are. Solved through the m-row dual  min -(b.u + e.v)  s.t.
    A^T u + E^T v + w = 0  with u, w >= 0 and v free: that dual is unbounded
    exactly when no point exists, and otherwise its simplex multipliers pi
    give the point x = -pi. The costs go over as ints: the right-hand sides
    times den * scale, den the lcm of their denominators, so the multipliers
    are -den * scale * x. Nonnegativity is harmless for rate regions:
    singleton constraints force x_j >= h({j}) >= 0 anyway.
    """
    n_ineq = len(ineq_masks)
    b, den = _over_common_denominator([*ineq_b, *eq_b])
    ineq_cols = _transposed(ineq_masks, m)
    eq_cols = _transposed(eq_masks, m)
    matrix = [
        ineq_cols[j] + eq_cols[j] + [-v for v in eq_cols[j]]
        + [1 if k == j else 0 for k in range(m)]
        for j in range(m)
    ]
    costs = [-v for v in b] + list(b[n_ineq:]) + [0] * m
    try:
        _, pi, _ = simplex_min(matrix, [0] * m, costs)
    except LpUnboundedError:
        return None
    p_num, x_den = _over_common_denominator(pi)
    x_num = [-v for v in p_num]
    slacks = _slacks(x_num, x_den, [*ineq_masks, *eq_masks], b, 1)
    if (
        any(v < 0 for v in x_num)
        or any(v < 0 for v in slacks[:n_ineq])
        or any(slacks[n_ineq:])
    ):
        raise InternalContractError("feasible point fails its certificate")
    x_den *= den * scale
    return tuple(Fraction(v, x_den) for v in x_num)
