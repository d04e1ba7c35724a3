"""Slepian-Wolf constraint families, smallest omniscience rate, key capacity.

The constraint family B(A) for an active set A collects every nonempty
proper subset of terminals that does not contain all of A. The smallest
total communication rate over the induced rate region gives the secret-key
capacity as C_SK(A) = h(M) - R_CO(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import InvalidInputError
from .simplex import (
    ConstraintSystem,
    LpSolution,
    UniquenessCertificate,
    solve,
    uniqueness_test,
)
from .sources import EntropyOracle
from .subsets import check_active, full_mask

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
        scale, joint = oracle.scale, oracle.joint
        total, full = joint[-1], full_mask(self.m)
        b = tuple(total - joint[full ^ mask] for mask in self.masks)
        return ConstraintSystem(self.m, self.masks, b, scale)


def build_family(m: int, active: int) -> ConstraintFamily:
    """All B with 0 != B != M and B not containing A, by increasing mask."""
    check_active(active, m)
    full = full_mask(m)
    masks = tuple(
        b for b in range(1, full) if (b & active) != active
    )
    expected = (1 << m) - (1 << (m - active.bit_count())) - 1
    assert len(masks) == expected
    return ConstraintFamily(m, active, masks)


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
