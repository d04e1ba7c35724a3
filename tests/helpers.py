"""Independent references for the test suite, one per quantity.

- H(X_S): ``brute_force_joint_entropy``, over every base-bit assignment.
- The LP optimum: ``brute_force_lp_min``, over every basic point.
- LP vertices, duals and Bland's pivot path: ``reference_simplex_min``, the
  two-phase Fraction tableau, under ``reference_solve``,
  ``reference_dual_solve`` and ``reference_uniqueness_test``.
- Admissible partitions: ``admissible``, from ``brute_force_partitions``.
- I(A) and its minimizers: ``brute_force_mutual_dependence_bound``.
- Validity: ``reference_check_validity``, every pair of the oracle's int table.
- Entropy-vector documents: ``reference_entropy_vector``, one read per entry.

The rest only adapts or reads data: ``packed_system`` and ``unpack`` turn
a dense int matrix into the packed rows the library's simplex takes and
back, ``rational_simplex_min`` hands a rational system to that simplex,
``lp_solution`` and ``with_rates`` put rationals into a solution's or a
report's int form, ``solution_values`` reads a solution back as
Fractions, and ``sw_gap``, ``verify_closure`` and their kin are Fraction
row checks that only tests read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Dict, List, Optional, Sequence, Tuple

from omniscio.errors import InternalContractError, InvalidInputError
from omniscio.simplex import (
    ConstraintSystem,
    LpSolution,
    LpUnboundedError,
    Rational,
    UniquenessCertificate,
    _over_common_denominator,
    _pack,
    _width,
    simplex_min,
)
from omniscio.dependence import Partition
from omniscio.omniscience import CapacityReport, ConstraintFamily, build_family
from omniscio.fileio import parse_fraction
from omniscio.sources import (
    EntropyOracle,
    EntropyVector,
    LinearGF2Source,
    ValidityReport,
)
from omniscio.subsets import check_mask, format_mask, iter_bits, parse_mask_spec


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
    """Minimum of sum x over {A x >= b} by enumerating basic points."""
    m, l = system.m, system.l
    b = fraction_b(system)
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
            obj = sum(x)
            if best is None or obj < best:
                best = obj
    assert best is not None, "no basic feasible point found"
    return best


@lru_cache(maxsize=None)
def brute_force_partitions(m: int) -> Tuple[Partition, ...]:
    """All set partitions of {1..m} as tuples of masks (any block count)."""
    out: List[Partition] = []

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
    return tuple(out)


def admissible(m: int, active: int) -> List[Partition]:
    """Every admissible partition, in canonical order: the unfiltered
    partitions with 2 <= k <= |A| blocks that each meet A, stable-sorted by
    block count (within a count they already come in canonical order)."""
    size_a = active.bit_count()
    return sorted(
        (
            p
            for p in brute_force_partitions(m)
            if 2 <= len(p) <= size_a and all(b & active for b in p)
        ),
        key=len,
    )


def brute_force_mutual_dependence_bound(
    oracle: EntropyOracle, active: int
) -> Tuple[Fraction, List[Partition]]:
    """I(A) and its minimizers over ``admissible``, each value a Fraction."""
    partitions = admissible(oracle.m, active)
    total = oracle.total_entropy()
    values = [
        (sum(map(oracle.joint_entropy, p)) - total) / (len(p) - 1)
        for p in partitions
    ]
    best = min(values)
    return best, [p for p, v in zip(partitions, values) if v == best]


def rationals(lo: int, hi: int, max_denominator: int) -> List[Fraction]:
    """Every p/q in [lo, hi] with 0 < q <= max_denominator, ascending: what
    ``st.fractions(lo, hi, max_denominator=...)`` draws, as one finite set."""
    return sorted({
        Fraction(p, q)
        for q in range(1, max_denominator + 1)
        for p in range(lo * q, hi * q + 1)
    })


def oracle_from_table(
    m: int, values: Sequence[Rational], tolerance: Rational = 0
) -> EntropyOracle:
    """The oracle of the joint-entropy table ``values``, compared at
    ``tolerance``, with no validation: the table and the tolerance go over
    one common denominator."""
    nums, scale = _over_common_denominator([*values, tolerance])
    return EntropyOracle(m, scale, nums[:-1], nums[-1])


def packed_system(
    matrix: Sequence[Sequence[int]],
    rhs: Sequence[int],
    costs: Sequence[int],
    start: Sequence[int],
) -> Tuple[List[int], Sequence[int], Sequence[int], Sequence[int], int]:
    """The int system as ``simplex_min`` takes it: every row packed by
    ``_pack`` at the ``_width`` that the largest |cell| and the costs set."""
    top = max([1, *(abs(v) for row in matrix for v in row)])
    w = _width(len(matrix), top, costs)
    return [_pack(row, w) for row in matrix], rhs, costs, start, w


def unpack(row: int, n: int, w: int) -> List[int]:
    """The n signed w-bit fields of a packed row, lowest first; nothing may
    be left above them."""
    values = []
    for _ in range(n):
        v = row & ((1 << w) - 1)
        if v >> (w - 1):
            v -= 1 << w
        values.append(v)
        row = (row - v) >> w
    assert row == 0, "the packed row holds fields past its columns"
    return values


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
    z, y, objective, den = simplex_min(*packed_system(
        [[int(v * scale / u) for v, u in zip(row, unit)] for row in matrix],
        [int(v * scale) for v in rhs],
        [int(v * cost_scale) for v in costs],
        start,
    ))
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


# Reference LP path: the equational forms the library solved before it moved
# to the m-row dual forms. Each builds a tableau with one row per constraint
# (about 2^m), so it is only fit for small cross-checks.


def row_sum(system: ConstraintSystem, x: Sequence[Fraction], i: int) -> Fraction:
    """x(B) for the mask B of the system's row i."""
    return sum((x[j] for j in iter_bits(system.row_masks[i])), ZERO)


def _incidence_row(mask: int, m: int) -> List[Fraction]:
    return [Fraction(mask >> j & 1) for j in range(m)]


def reference_solve(system: ConstraintSystem) -> LpSolution:
    """min sum x s.t. A x >= b with x = x+ - x- and l surplus columns."""
    m, l = system.m, system.l
    b = fraction_b(system)
    matrix = []
    for i, mask in enumerate(system.row_masks):
        a = _incidence_row(mask, m)
        row = a + [-v for v in a]
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(l))
        matrix.append(row)
    costs = [Fraction(1)] * m + [Fraction(-1)] * m + [Fraction(0)] * l
    z, y, objective = reference_simplex_min(matrix, b, costs)
    x = tuple(z[j] - z[m + j] for j in range(m))
    assert objective == sum(x)
    tight = tuple(i for i in range(l) if row_sum(system, x, i) == b[i])
    return lp_solution(x, y, tight)


def reference_dual_solve(system: ConstraintSystem) -> LpSolution:
    """``solve``'s m-row dual form, max b.y s.t. y.A = 1, y >= 0, on the
    two-phase Fraction tableau: its vertex is y and its multipliers -x."""
    m = system.m
    b = fraction_b(system)
    matrix = [[Fraction(mask >> j & 1) for mask in system.row_masks] for j in range(m)]
    y, pi, _ = reference_simplex_min(matrix, [Fraction(1)] * m, [-v for v in b])
    x = tuple(-v for v in pi)
    tight = tuple(i for i in range(system.l) if row_sum(system, x, i) == b[i])
    return lp_solution(x, y, tight)


def reference_uniqueness_test(
    system: ConstraintSystem, solution: LpSolution
) -> UniquenessCertificate:
    """Maximize the coordinates of (x, slacks) that vanish at the solution
    over {[A | -I](x; s) = b, sum x = objective, x, s >= 0}. The verdict
    is Unique when that maximum is 0, which is right for a vertex only."""
    m, l = system.m, system.l
    b = fraction_b(system)
    slacks = [row_sum(system, solution.x, i) - b[i] for i in range(l)]
    point = list(solution.x) + slacks
    matrix = []
    for i, mask in enumerate(system.row_masks):
        row = _incidence_row(mask, m)
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(l))
        matrix.append(row)
    matrix.append([Fraction(1)] * m + [Fraction(0)] * l)
    rhs = list(b) + [solution.objective]
    costs = [Fraction(-1) if v == 0 else Fraction(0) for v in point]
    z, _, objective = reference_simplex_min(matrix, rhs, costs)
    aux = -objective
    if aux == 0:
        return UniquenessCertificate(True, aux)
    return UniquenessCertificate(False, aux, tuple(z[:m]))


def reference_check_validity(oracle: EntropyOracle) -> ValidityReport:
    """Every single-step monotonicity violation h(B) > h(B+{j}) and every
    violated pair h(B1)+h(B2) <= h(B1|B2)+h(B1&B2), B1 < B2, judged at the
    oracle's tolerance, with h(S) = H(M) - H(M - S) read off its int table."""
    m, scale, joint, tol = oracle.m, oracle.scale, oracle.joint, oracle.tol
    n = 1 << m
    h = [joint[-1] - joint[(n - 1) ^ s] for s in range(n)]
    mono = tuple(
        (b, b | 1 << j)
        for b in range(n)
        for j in range(m)
        if not b >> j & 1 and h[b] - h[b | 1 << j] > tol
    )
    supra = []
    for b1 in range(n):
        for b2 in range(b1 + 1, n):
            lhs, rhs = h[b1] + h[b2], h[b1 | b2] + h[b1 & b2]
            if lhs - rhs > tol:
                supra.append((b1, b2, Fraction(lhs, scale), Fraction(rhs, scale)))
    return ValidityReport(abs(joint[0]) <= tol, mono, tuple(supra))


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


def fraction_b(system: ConstraintSystem) -> Tuple[Fraction, ...]:
    """The right-hand side b of a system as Fractions."""
    return tuple(Fraction(v, system.b_den) for v in system.b_num)


def lp_solution(
    x: Sequence[Rational], y: Sequence[Rational], tight_rows: Sequence[int] = ()
) -> LpSolution:
    """The ``LpSolution`` of the rationals x and y: each over the lcm of its
    denominators."""
    return LpSolution(
        *_over_common_denominator(x), *_over_common_denominator(y), tuple(tight_rows)
    )


def solution_values(solution: LpSolution):
    """(x, y, tight rows) of a solution, x and y as Fractions: equal for
    two solutions of the same values over any denominators."""
    return solution.x, solution.y, solution.tight_rows


def with_rates(report: CapacityReport, rates: Sequence[Rational]) -> CapacityReport:
    """The report with its solution's rates replaced by ``rates``."""
    x_num, x_den = _over_common_denominator(rates)
    solution = replace(report.solution, x_num=x_num, x_den=x_den)
    return replace(report, solution=solution)


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
