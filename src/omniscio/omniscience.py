"""Slepian-Wolf constraint families, smallest omniscience rate, key capacity.

The constraint family B(A) for an active set A collects every nonempty
proper subset of terminals that does not contain all of A. The smallest
total communication rate over the induced rate region gives the secret-key
capacity as C_SK(A) = h(M) - R_CO(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import InvalidInputError
from .simplex import (
    ConstraintSystem,
    LpSolution,
    UniquenessCertificate,
    solve,
    uniqueness_test,
)
from .sources import EntropyOracle
from .subsets import check_mask, full_mask, iter_bits

RateVector = Tuple[Fraction, ...]


@dataclass(frozen=True)
class ConstraintFamily:
    """The ordered family B(A), independent of any entropy pricing."""

    m: int
    active: int
    masks: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.masks)

    def system(self, oracle: EntropyOracle) -> ConstraintSystem:
        """Price the family under an oracle: b_i = h(B_i).

        Reads h(B) = H(X_M) - H(X_{B^c}) from the oracle's integer table,
        and keeps b as ints over the table's scale.
        """
        if oracle.m != self.m:
            raise InvalidInputError("oracle terminal count mismatch")
        scale, joint, _ = oracle.scaled_table
        total, full = joint[-1], full_mask(self.m)
        b = tuple(total - joint[full ^ mask] for mask in self.masks)
        return ConstraintSystem(self.m, self.masks, b, scale, (1,) * self.m, 1)


def build_family(m: int, active: int) -> ConstraintFamily:
    """All B with 0 != B != M and B not containing A, by increasing mask."""
    check_mask(active, m)
    if active.bit_count() < 2:
        raise InvalidInputError("active set must have at least two terminals")
    full = full_mask(m)
    masks = tuple(
        b for b in range(1, full) if (b & active) != active
    )
    expected = (1 << m) - (1 << (m - active.bit_count())) - 1
    assert len(masks) == expected
    return ConstraintFamily(m, active, masks)


def sw_gap(rates: Sequence[Fraction], mask: int, oracle: EntropyOracle) -> Fraction:
    """Constraint slack sum_{j in B} R_j - h(B); >=0 satisfied, =0 tight."""
    check_mask(mask, oracle.m)
    total = sum((rates[j] for j in iter_bits(mask)), Fraction(0))
    return total - oracle.cond_entropy(mask)


def region_contains(
    rates: Sequence[Fraction], family: ConstraintFamily, oracle: EntropyOracle
) -> Tuple[bool, Optional[int]]:
    """Membership in the rate region; on failure, the smallest violated mask."""
    for mask in family.masks:
        if sw_gap(rates, mask, oracle) < 0:
            return False, mask
    return True, None


@dataclass(frozen=True)
class CapacityReport:
    """Everything the rate LP yields for one (source, active set) instance."""

    r_co: Fraction
    c_sk: Fraction
    rates: RateVector
    dual: Tuple[Fraction, ...]
    tight_masks: Tuple[int, ...]
    uniqueness: UniquenessCertificate
    solution: LpSolution
    family: ConstraintFamily


def r_co(oracle: EntropyOracle, active: int) -> CapacityReport:
    """Solve the rate LP for (oracle, A) and assemble the full report."""
    family = build_family(oracle.m, active)
    system = family.system(oracle)
    solution = solve(system)
    cert = uniqueness_test(system, solution)
    tight = tuple(family.masks[i] for i in solution.tight_rows)
    return CapacityReport(
        r_co=solution.objective,
        c_sk=oracle.total_entropy() - solution.objective,
        rates=solution.x,
        dual=solution.y,
        tight_masks=tight,
        uniqueness=cert,
        solution=solution,
        family=family,
    )
