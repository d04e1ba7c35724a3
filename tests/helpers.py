"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they verify: entropies come from
enumerating base-bit assignments, LP optima from enumerating basic points,
partitions from unfiltered recursive generation. The reference enumerator
is the pruned recursive generator the library ran before its one-frame
walk. The reference LP path keeps the library's earlier constraint-per-row
LP forms on its earlier Fraction-tableau simplex, so the m-row dual forms
and the integer tableau can be cross-checked against them; the reference
scans keep the earlier Fraction-arithmetic validity scan and I(A) loop,
so the integer table paths can be cross-checked against them; the
reference witness search at the end keeps the earlier scan of every
admissible partition with a Fraction arithmetic filter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

from omniscio.errors import InternalContractError, InvalidInputError
from omniscio.simplex import (
    ConstraintSystem,
    LpInfeasibleError,
    LpSolution,
    LpUnboundedError,
    UniquenessCertificate,
    feasible_point,
)
from omniscio.dependence import (
    Partition,
    enumerate_admissible,
    mutual_dependence_bound,
    partition_dependence,
)
from omniscio.omniscience import CapacityReport, RateVector, r_co
from omniscio.sources import EntropyOracle, LinearGF2Source, ValidityReport
from omniscio.subsets import check_mask, complement, iter_bits
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
    incidence = []
    for mask in system.row_masks:
        incidence.append([Fraction(mask >> j & 1) for j in range(m)])
    best: Optional[Fraction] = None
    for chosen in combinations(range(l), m):
        x = _solve_square(
            [incidence[i] for i in chosen], [system.b[i] for i in chosen]
        )
        if x is None:
            continue
        if all(
            sum(incidence[i][j] * x[j] for j in range(m)) >= system.b[i]
            for i in range(l)
        ):
            obj = sum(system.c[j] * x[j] for j in range(m))
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


# Reference simplex: the two-phase Bland simplex over a dense Fraction
# tableau that the library ran before it moved to a fraction-free integer
# tableau. Every reference LP below runs on it, so the cross-checks never
# compare the library's simplex with itself.

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _incidence_row(mask: int, m: int) -> List[Fraction]:
    return [Fraction(mask >> j & 1) for j in range(m)]


def reference_solve(system: ConstraintSystem) -> LpSolution:
    """min c.x s.t. A x >= b with x = x+ - x- and l surplus columns."""
    m, l = system.m, system.l
    matrix = []
    for i, mask in enumerate(system.row_masks):
        a = _incidence_row(mask, m)
        row = a + [-v for v in a]
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(l))
        matrix.append(row)
    costs = list(system.c) + [-v for v in system.c] + [Fraction(0)] * l
    z, y, objective = reference_simplex_min(matrix, system.b, costs)
    x = tuple(z[j] - z[m + j] for j in range(m))
    tight = tuple(i for i in range(l) if system.row_sum(x, i) == system.b[i])
    return LpSolution(objective, x, tuple(y), tight)


def reference_uniqueness_test(
    system: ConstraintSystem, solution: LpSolution
) -> UniquenessCertificate:
    """Maximize the coordinates of (x, slacks) that vanish at the solution
    over {[A | -I](x; s) = b, c.x = objective, x, s >= 0}."""
    m, l = system.m, system.l
    slacks = [system.row_sum(solution.x, i) - system.b[i] for i in range(l)]
    point = list(solution.x) + slacks
    matrix = []
    for i, mask in enumerate(system.row_masks):
        row = _incidence_row(mask, m)
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(l))
        matrix.append(row)
    matrix.append(list(system.c) + [Fraction(0)] * l)
    rhs = list(system.b) + [solution.objective]
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
    """Phase 1 on {x >= 0 : sum_B x - s_B = b for B, sum_C x = b for C}."""
    n_ineq = len(ineq_masks)
    matrix = []
    for i, mask in enumerate(ineq_masks):
        row = _incidence_row(mask, m)
        row.extend(Fraction(-1) if k == i else Fraction(0) for k in range(n_ineq))
        matrix.append(row)
    for mask in eq_masks:
        matrix.append(_incidence_row(mask, m) + [Fraction(0)] * n_ineq)
    try:
        z, _, _ = reference_simplex_min(
            matrix, list(ineq_b) + list(eq_b), [Fraction(0)] * (m + n_ineq)
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
    slack = Fraction(0) if oracle.exact else Fraction(oracle.tolerance)
    normalized = abs(oracle.joint[0]) <= slack

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

    return ValidityReport(m, normalized, tuple(mono), tuple(supra))


def reference_mutual_dependence_bound(
    oracle: EntropyOracle, active: int
) -> Tuple[Fraction, List[Partition]]:
    """I(A) as the minimum of partition_dependence over every partition."""
    best: Optional[Fraction] = None
    argmin: List[Partition] = []
    for partition in enumerate_admissible(oracle.m, active):
        value = partition_dependence(oracle, partition).value
        if best is None or value < best:
            best = value
            argmin = [partition]
        elif value == best:
            argmin.append(partition)
    assert best is not None, "no admissible partition found"
    return best, argmin


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
    for partition in enumerate_admissible(m, active):
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
