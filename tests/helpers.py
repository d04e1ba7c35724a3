"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they verify: entropies come from
enumerating base-bit assignments, LP optima from enumerating basic points,
partitions from unfiltered recursive generation. The reference enumerator
is the pruned recursive generator the library ran before its one-frame
walk. The reference LP path keeps the library's earlier constraint-per-row
LP forms on its earlier Fraction-tableau simplex, so the m-row dual forms
and the integer tableau can be cross-checked against them, and
``reference_dual_solve`` runs ``solve``'s own dual form on that two-phase
simplex, so the library's phase-2-only path can be checked against it;
the feasibility form runs on the list-of-ints tableau that preceded the
packed one, which takes the same pivots as the Fraction tableau. The
reference scans keep the earlier Fraction-arithmetic validity scan and
I(A) loop, so the integer table paths can be cross-checked against them;
the reference witness search at the end keeps the earlier scan of every
admissible partition with a Fraction arithmetic filter. The integer
validity scan that preceded the packed one, and the entropy-vector reader's
earlier per-entry loop, are kept as references too. ``rational_simplex_min``
hands a rational system and its start basis to the library's int-only
simplex, scaled to ints, and reads the answer back in the system's own
terms. Last come the pieces that only tests read: ``fraction_b`` and
``fraction_c``, a system's data as Fractions; ``sw_gap`` and ``region_contains``, the Fraction row check that
the library's integer certificates replaced; ``verify_closure``, the
paper's closure lemma for two tight constraints as a report-only check;
and ``render_bit_string``, the inverse of the source reader's bit-string
parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import le
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from omniscio.errors import InternalContractError, InvalidInputError
from omniscio.simplex import (
    ConstraintSystem,
    LpSolution,
    LpUnboundedError,
    Rational,
    UniquenessCertificate,
    _over_common_denominator,
    feasible_point,
    simplex_min,
)
from omniscio.dependence import (
    Partition,
    enumerate_admissible,
    mutual_dependence_bound,
    partition_dependence,
)
from omniscio.omniscience import (
    CapacityReport,
    ConstraintFamily,
    RateVector,
    build_family,
    r_co,
)
from omniscio.fileio import parse_fraction
from omniscio.sources import (
    EntropyOracle,
    EntropyVector,
    LinearGF2Source,
    ValidityReport,
)
from omniscio.subsets import (
    check_mask,
    complement,
    format_mask,
    iter_bits,
    parse_mask_spec,
)
from omniscio.tightness import TightnessVerdict


def brute_force_joint_entropy(source: LinearGF2Source, subset: int) -> int:
    """H(X_S) in bits by enumerating all 2^n base-bit assignments."""
    distinct = set()
    for assignment in range(1 << source.n):
        observation = tuple(
            (row & assignment).bit_count() & 1
            for j in iter_bits(subset)
            for row in source.rows[j]
        )
        distinct.add(observation)
    count = len(distinct)
    assert count & (count - 1) == 0, "observation count must be a power of two"
    return count.bit_length() - 1


def _solve_square(
    rows: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """Gaussian elimination over Fractions; None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def brute_force_lp_min(system: ConstraintSystem) -> Fraction:
    """Minimum of c.x over {A x >= b} by enumerating basic points."""
    m, l = system.m, system.l
    b, c = fraction_b(system), fraction_c(system)
    incidence = []
    for mask in system.row_masks:
        incidence.append([Fraction(mask >> j & 1) for j in range(m)])
    best: Optional[Fraction] = None
    for chosen in combinations(range(l), m):
        x = _solve_square(
            [incidence[i] for i in chosen], [b[i] for i in chosen]
        )
        if x is None:
            continue
        if all(
            sum(incidence[i][j] * x[j] for j in range(m)) >= b[i]
            for i in range(l)
        ):
            obj = sum(c[j] * x[j] for j in range(m))
            if best is None or obj < best:
                best = obj
    assert best is not None, "no basic feasible point found"
    return best


def brute_force_partitions(m: int) -> List[Tuple[int, ...]]:
    """All set partitions of {1..m} as tuples of masks (any block count)."""
    out: List[Tuple[int, ...]] = []

    def rec(j: int, blocks: List[int]) -> None:
        if j == m:
            out.append(tuple(blocks))
            return
        bit = 1 << j
        for i in range(len(blocks)):
            blocks[i] |= bit
            rec(j + 1, blocks)
            blocks[i] &= ~bit
        blocks.append(bit)
        rec(j + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def brute_force_mutual_dependence_bound(
    oracle: EntropyOracle, active: int
) -> Tuple[Fraction, List[Partition]]:
    """I(A) and its minimizers from the unfiltered partitions: keep the
    admissible ones, order them by block count (within a count they come
    in canonical order) and compare each value as a Fraction."""
    size_a = active.bit_count()
    admissible = sorted(
        (
            p
            for p in brute_force_partitions(oracle.m)
            if 2 <= len(p) <= size_a and all(b & active for b in p)
        ),
        key=len,
    )
    total = oracle.total_entropy()
    values = [
        (sum(map(oracle.joint_entropy, p)) - total) / (len(p) - 1)
        for p in admissible
    ]
    best = min(values)
    return best, [p for p, v in zip(admissible, values) if v == best]


def oracle_from_table(
    m: int, values: Sequence[Rational], tolerance: Rational = 0
) -> EntropyOracle:
    """The oracle of the joint-entropy table ``values``, compared at
    ``tolerance``, with no validation: the table and the tolerance go over
    one common denominator."""
    nums, scale = _over_common_denominator([*values, tolerance])
    return EntropyOracle(m, scale, nums[:-1], nums[-1])


def admissible(m: int, active: int) -> List[Partition]:
    """Every admissible partition, in canonical order: the library's walk
    run on a zero table, without its keys."""
    return [p for _, p in enumerate_admissible(m, active, bytes(1 << m))]


# Reference enumerator: the recursive generator (one frame per assigned
# terminal) that the library ran before it walked restricted-growth strings
# in one frame; the library enumerator must yield the same sequence.


def reference_enumerate_partitions(
    m: int, active: int, k: int
) -> Iterator[Partition]:
    """All admissible k-partitions, in restricted-growth (canonical) order.

    Blocks come out sorted by their smallest element; assignments that can
    no longer give every block an active terminal are pruned early.
    """
    check_mask(active, m)
    size_a = active.bit_count()
    if size_a < 2:
        raise InvalidInputError("active set must have at least two terminals")
    if not 2 <= k <= size_a:
        raise InvalidInputError(f"k={k} outside [2, |A|={size_a}]")

    blocks: List[int] = []

    def remaining_active(j: int) -> int:
        return (active >> j).bit_count()

    def rec(j: int) -> Iterator[Partition]:
        if j == m:
            if len(blocks) == k and all(b & active for b in blocks):
                yield tuple(blocks)
            return
        left = m - j
        # Must still be able to open enough blocks.
        if len(blocks) + left < k:
            return
        # Every activeless block, current or yet to be opened, still needs
        # its own active terminal from the unassigned ones.
        deficit = sum(1 for b in blocks if not b & active) + (k - len(blocks))
        if remaining_active(j) < deficit:
            return
        bit = 1 << j
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from rec(j + 1)
            blocks[i] &= ~bit
        if len(blocks) < k:
            blocks.append(bit)
            yield from rec(j + 1)
            blocks.pop()

    return rec(0)


def rational_simplex_min(
    matrix: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
    start: Sequence[int],
) -> Tuple[List[Fraction], List[Fraction], Fraction]:
    """The library's int-only ``simplex_min`` on a system of ints or
    Fractions, read back as that system's (z, y, objective) in Fractions.

    The rows go over times s, the lcm of their denominators, and each start
    column, now s times a unit vector, stands for s z_k instead, so it is a
    unit vector again and costs c_k / s. The costs then go over times k, the
    lcm of their denominators. The int answer (z, y, objective, den) must
    be all ints with den > 0; row scaling multiplies y by 1/s, cost scaling
    multiplies y and the objective by k, so the system's own values are
    z / den (z / (s den) on a start column), s y / (k den) and
    objective / (k den). Raises what ``simplex_min`` raises.
    """
    scale = math.lcm(
        *(Fraction(v).denominator for v in chain(chain.from_iterable(matrix), rhs))
    )
    unit = [scale if k in start else 1 for k in range(len(costs))]
    costs = [Fraction(v) / u for v, u in zip(costs, unit)]
    cost_scale = math.lcm(*(v.denominator for v in costs))
    z, y, objective, den = simplex_min(
        [[int(v * scale / u) for v, u in zip(row, unit)] for row in matrix],
        [int(v * scale) for v in rhs],
        [int(v * cost_scale) for v in costs],
        start,
    )
    assert den > 0 and all(type(v) is int for v in [*z, *y, objective, den])
    return (
        [Fraction(v, u * den) for v, u in zip(z, unit)],
        [Fraction(scale * v, cost_scale * den) for v in y],
        Fraction(objective, cost_scale * den),
    )


# Reference simplex: the two-phase Bland simplex over a dense Fraction
# tableau that the library ran before it moved to a fraction-free integer
# tableau. Every reference LP below runs on it, so the cross-checks never
# compare the library's simplex with itself.

ZERO = Fraction(0)
ONE = Fraction(1)


class LpInfeasibleError(Exception):
    """The equality-form program has no feasible point: the two-phase
    references' phase 1 ends above zero."""


def reference_simplex_min(
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


_INT = frozenset({int})


def _all_ints(values: Iterable[Rational]) -> bool:
    return set(map(type, values)) <= _INT


def reference_integer_simplex_min(
    matrix: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
) -> Tuple[List[Fraction], List[Fraction], Fraction]:
    """min costs.z  s.t.  matrix z = rhs, z >= 0  (two-phase, Bland's rule).

    The fraction-free list-of-ints tableau the library pivoted before it
    packed each row into one int: Edmonds-Bareiss updates on integer cells
    over one common denominator, on the same Bland path. Cells may be ints
    or Fractions. Returns (z, y, objective) as Fractions, where y is the
    equality-form dual vector. Raises LpInfeasibleError / LpUnboundedError.
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



# Reference LP path: the equational forms the library solved before it moved
# to the m-row dual forms. Each builds a tableau with one row per constraint
# (about 2^m), so it is only fit for small cross-checks.


def row_sum(system: ConstraintSystem, x: Sequence[Fraction], i: int) -> Fraction:
    """x(B) for the mask B of the system's row i."""
    return sum((x[j] for j in iter_bits(system.row_masks[i])), ZERO)


def _incidence_row(mask: int, m: int) -> List[Fraction]:
    return [Fraction(mask >> j & 1) for j in range(m)]


def reference_solve(system: ConstraintSystem) -> LpSolution:
    """min c.x s.t. A x >= b with x = x+ - x- and l surplus columns."""
    m, l = system.m, system.l
    b, c = fraction_b(system), fraction_c(system)
    matrix = []
    for i, mask in enumerate(system.row_masks):
        a = _incidence_row(mask, m)
        row = a + [-v for v in a]
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(l))
        matrix.append(row)
    costs = list(c) + [-v for v in c] + [Fraction(0)] * l
    z, y, objective = reference_simplex_min(matrix, b, costs)
    x = tuple(z[j] - z[m + j] for j in range(m))
    tight = tuple(i for i in range(l) if row_sum(system, x, i) == b[i])
    return LpSolution(objective, x, tuple(y), tight)


def reference_dual_solve(system: ConstraintSystem) -> LpSolution:
    """``solve``'s m-row dual form, max b.y s.t. y.A = c, y >= 0, on the
    two-phase Fraction tableau: its vertex is y and its multipliers -x."""
    m = system.m
    b, c = fraction_b(system), fraction_c(system)
    matrix = [[Fraction(mask >> j & 1) for mask in system.row_masks] for j in range(m)]
    y, pi, _ = reference_simplex_min(matrix, c, [-v for v in b])
    x = tuple(-v for v in pi)
    tight = tuple(i for i in range(system.l) if row_sum(system, x, i) == b[i])
    objective = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    return LpSolution(objective, x, tuple(y), tight)


def reference_uniqueness_test(
    system: ConstraintSystem, solution: LpSolution
) -> UniquenessCertificate:
    """Maximize the coordinates of (x, slacks) that vanish at the solution
    over {[A | -I](x; s) = b, c.x = objective, x, s >= 0}."""
    m, l = system.m, system.l
    b = fraction_b(system)
    slacks = [row_sum(system, solution.x, i) - b[i] for i in range(l)]
    point = list(solution.x) + slacks
    matrix = []
    for i, mask in enumerate(system.row_masks):
        row = _incidence_row(mask, m)
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(l))
        matrix.append(row)
    matrix.append(list(fraction_c(system)) + [Fraction(0)] * l)
    rhs = list(b) + [solution.objective]
    costs = [Fraction(-1) if v == 0 else Fraction(0) for v in point]
    z, _, objective = reference_simplex_min(matrix, rhs, costs)
    aux = -objective
    if aux == 0:
        return UniquenessCertificate(True, aux)
    return UniquenessCertificate(False, aux, tuple(z[:m]))


def reference_feasible_point(
    m: int,
    ineq_masks: Sequence[int],
    ineq_b: Sequence[Fraction],
    eq_masks: Sequence[int],
    eq_b: Sequence[Fraction],
) -> Optional[Tuple[Fraction, ...]]:
    """Phase 1 on {x >= 0 : sum_B x - s_B = b for B, sum_C x = b for C},
    pivoted on the list-of-ints tableau: with one row per constraint it is
    the slowest reference, and the Fraction tableau takes the same path."""
    n_ineq = len(ineq_masks)
    matrix = []
    for i, mask in enumerate(ineq_masks):
        row = [mask >> j & 1 for j in range(m)]
        row.extend(-1 if k == i else 0 for k in range(n_ineq))
        matrix.append(row)
    for mask in eq_masks:
        matrix.append([mask >> j & 1 for j in range(m)] + [0] * n_ineq)
    try:
        z, _, _ = reference_integer_simplex_min(
            matrix, list(ineq_b) + list(eq_b), [0] * (m + n_ineq)
        )
    except LpInfeasibleError:
        return None
    return tuple(z[:m])


# Reference scans: the Fraction-arithmetic validity scan over every pair and
# the I(A) loop over partition_dependence that the library ran before it
# moved both onto an integer entropy table.


def reference_check_validity(oracle: EntropyOracle) -> ValidityReport:
    """Every pair of subsets scanned in Fraction arithmetic."""
    m = oracle.m
    h = [oracle.cond_entropy(s) for s in range(1 << m)]
    slack = Fraction(oracle.tol, oracle.scale)
    normalized = abs(oracle.joint_entropy(0)) <= slack

    mono: List[Tuple[int, int]] = []
    for b in range(1 << m):
        for j in range(m):
            if not b & (1 << j):
                bigger = b | (1 << j)
                if h[b] - h[bigger] > slack:
                    mono.append((b, bigger))

    supra: List[Tuple[int, int, Fraction, Fraction]] = []
    for b1 in range(1 << m):
        for b2 in range(b1, 1 << m):
            lhs = h[b1] + h[b2]
            rhs = h[b1 | b2] + h[b1 & b2]
            if lhs - rhs > slack:
                supra.append((b1, b2, lhs, rhs))

    return ValidityReport(normalized, tuple(mono), tuple(supra))


# Reference integer scan: the list-of-ints validity scan that preceded the
# packed one, with its slice-wise elemental squares and its pair listing
# over every b1 < b2.


def _elemental_squares_hold(h: Sequence[int], m: int) -> bool:
    """Whether h(S+i) + h(S+j) <= h(S+i+j) + h(S) for all i < j outside S.

    That is, whether each gain g_i(S) = h(S+i) - h(S) is nondecreasing in
    every coordinate j > i. Listed over all S, g_i(S+j) sits 2^j places
    after g_i(S), so each coordinate is checked by comparing list slices
    (g_i is 0 on both sides when S holds i).
    """
    n = 1 << m
    for i in range(m):
        bit = 1 << i
        gain = [h[s | bit] - h[s] for s in range(n)]
        for j in range(i + 1, m):
            w = 1 << j
            step = 2 * w
            # The S without j: w strided slices or n/2w runs, the fewer.
            if w * w <= n // 2:
                spans = [(slice(r, n, step), slice(r + w, n, step))
                         for r in range(w)]
            else:
                spans = [(slice(b, b + w), slice(b + w, b + step))
                         for b in range(0, n, step)]
            if not all(all(map(le, gain[lo], gain[hi])) for lo, hi in spans):
                return False
    return True


def reference_integer_check_validity(oracle: EntropyOracle) -> ValidityReport:
    """Scan for h-supermodularity and h-monotonicity violations.

    Lists every violated pair h(B1)+h(B2) <= h(B1|B2)+h(B1&B2), every
    single-step monotonicity violation h(B) > h(B+{j}), and whether
    H(X_emptyset) = 0. Inexact oracles are judged at their tolerance.

    The scan runs on the oracle's integer table. An exact h is supermodular
    exactly when its C(m,2)*2^(m-2) elemental squares are (Yeung,
    *Information Theory and Network Coding*, 2008, ch. 14), so the O(4^m)
    pair listing runs only when a square fails or the oracle is inexact:
    squares that hold within a tolerance need not compose to pairs that do.
    """
    m = oracle.m
    n = 1 << m
    scale, joint, tol = oracle.scale, oracle.joint, oracle.tol
    total = joint[-1]
    h = [total - v for v in reversed(joint)]  # h(S) = H(M) - H(M - S)
    normalized = abs(joint[0]) <= tol

    bits = [1 << j for j in range(m)]
    mono = [
        (b, b | bit)
        for b in range(n)
        for bit in bits
        if not b & bit and h[b] - h[b | bit] > tol
    ]

    pairs: List[Tuple[int, int]] = []
    if not oracle.exact or not _elemental_squares_hold(h, m):
        # b2 = b1 gives lhs = rhs, which never violates: tol >= 0.
        pairs = [
            (b1, b2)
            for b1 in range(n)
            for h1 in (h[b1] - tol,)
            for b2 in range(b1 + 1, n)
            if h1 + h[b2] > h[b1 | b2] + h[b1 & b2]
        ]
    supra = tuple(
        (
            b1,
            b2,
            Fraction(h[b1] + h[b2], scale),
            Fraction(h[b1 | b2] + h[b1 & b2], scale),
        )
        for b1, b2 in pairs
    )

    return ValidityReport(normalized, tuple(mono), supra)


def reference_mutual_dependence_bound(
    oracle: EntropyOracle, active: int
) -> Tuple[Fraction, List[Partition]]:
    """I(A) as the minimum of partition_dependence over every partition."""
    best: Optional[Fraction] = None
    argmin: List[Partition] = []
    for partition in admissible(oracle.m, active):
        value = partition_dependence(oracle, partition)
        if best is None or value < best:
            best = value
            argmin = [partition]
        elif value == best:
            argmin.append(partition)
    assert best is not None, "no admissible partition found"
    return best, argmin


# Reference entropy-vector reader: the loop the file reader ran before it
# looked canonical keys up in an index and memoised the values, one
# parse_mask_spec and one parse_fraction per entry.


def reference_entropy_vector(values_map, m: int) -> EntropyVector:
    """The ``values`` map of an ``entropy_vector`` document as a vector."""
    values: List[Fraction] = [Fraction(0)] * (1 << m)
    seen = {0}
    spellings: Dict[int, str] = {}
    try:
        for key, text in values_map.items():
            mask = parse_mask_spec(key, m)
            values[mask] = parse_fraction(text)
            seen.add(mask)
            spellings.setdefault(mask, key)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    for key in values_map:
        mask = parse_mask_spec(key, m)
        if spellings[mask] != key:
            raise InvalidInputError(
                f"entropy vector gives subset {{{format_mask(mask)}}} twice, "
                f"as {spellings[mask]!r} and {key!r}"
            )
    missing = [s for s in range(1, 1 << m) if s not in seen]
    if missing:
        raise InvalidInputError(
            f"entropy vector missing subset {{{format_mask(missing[0])}}}"
        )
    return EntropyVector(m, tuple(values))


# Reference witness search: the scan of every admissible partition with a
# Fraction arithmetic filter that the library ran before it read the
# candidates off the minimizers of I(A).


def reference_witness_by_partition_search(
    oracle: EntropyOracle, active: int, *, report: Optional[CapacityReport] = None
) -> TightnessVerdict:
    """Constructive form: find (partition, rates) with every block-complement
    constraint tight, scanning partitions in canonical order.

    A partition can only host a witness when sum_i h(C_i^c) = (k-1) R_CO
    (tight constraints pin the total rate to the optimum), so partitions
    failing that arithmetic are skipped without solving a feasibility LP.
    """
    if report is None:
        report = r_co(oracle, active)
    family = report.family
    b = [oracle.cond_entropy(mask) for mask in family.masks]
    m = oracle.m

    witness: Optional[Tuple[Partition, RateVector]] = None
    for partition in admissible(m, active):
        k = len(partition)
        comps = [complement(block, m) for block in partition]
        total = sum((oracle.cond_entropy(c) for c in comps), Fraction(0))
        if total != (k - 1) * report.r_co:
            continue
        eq_b = [oracle.cond_entropy(c) for c in comps]
        rates = feasible_point(m, family.masks, b, comps, eq_b)
        if rates is not None:
            witness = (partition, rates)
            break

    bound, _ = mutual_dependence_bound(oracle, active)
    gap = bound - report.c_sk
    return TightnessVerdict(witness is not None, gap, report.c_sk, bound, witness)


def fraction_b(system: ConstraintSystem) -> Tuple[Fraction, ...]:
    """The right-hand side b of a system as Fractions."""
    return tuple(Fraction(v, system.b_den) for v in system.b_num)


def fraction_c(system: ConstraintSystem) -> Tuple[Fraction, ...]:
    """The objective c of a system as Fractions."""
    return tuple(Fraction(v, system.c_den) for v in system.c_num)


def sw_gap(rates: Sequence[Fraction], mask: int, oracle: EntropyOracle) -> Fraction:
    """Constraint slack sum_{j in B} R_j - h(B); >=0 satisfied, =0 tight."""
    check_mask(mask, oracle.m)
    total = sum((rates[j] for j in iter_bits(mask)), Fraction(0))
    return total - oracle.cond_entropy(mask)


def region_contains(
    rates: Sequence[Fraction], family: ConstraintFamily, oracle: EntropyOracle
) -> Tuple[bool, Optional[int]]:
    """Membership in the rate region; on failure, the smallest violated mask."""
    if oracle.m != family.m:
        raise InvalidInputError("oracle terminal count mismatch")
    for mask in family.masks:
        if sw_gap(rates, mask, oracle) < 0:
            return False, mask
    return True, None


@dataclass(frozen=True)
class ClosureVerdict:
    """Gaps of B1, B2, their union, and intersection at a rate vector."""

    preconditions_ok: bool
    holds: bool
    gap_b1: Fraction
    gap_b2: Fraction
    gap_union: Fraction
    gap_intersection: Optional[Fraction]  # None when B1 & B2 is empty


def verify_closure(
    oracle: EntropyOracle,
    active: int,
    rates: Sequence[Fraction],
    b1: int,
    b2: int,
) -> ClosureVerdict:
    """Check that union/intersection of two tight constraints stay tight.

    Report-only: with an invalid (non-supermodular) entropy table the
    closure can genuinely fail, and the verdict carries the gaps instead of
    asserting.
    """
    m = oracle.m
    family = build_family(m, active)
    gap1 = sw_gap(rates, b1, oracle)
    gap2 = sw_gap(rates, b2, oracle)
    union = b1 | b2
    inter = b1 & b2
    in_region, _ = region_contains(rates, family, oracle)
    pre = (
        in_region
        and gap1 == 0
        and gap2 == 0
        and union in set(family.masks)
    )
    gap_union = sw_gap(rates, union, oracle)
    gap_inter = sw_gap(rates, inter, oracle) if inter else None
    holds = gap_union == 0 and (gap_inter is None or gap_inter == 0)
    return ClosureVerdict(pre, holds, gap1, gap2, gap_union, gap_inter)


def render_bit_string(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))
