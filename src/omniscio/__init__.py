"""Exact computation of omniscience rates, secret-key capacity, and the
mutual-dependence bound for discrete memoryless multiple sources."""

__version__ = "0.1.0"

from .dependence import (
    enumerate_admissible,
    mutual_dependence_bound,
    partition_dependence,
)
from .errors import (
    ComputationError,
    InternalContractError,
    InvalidInputError,
    OmniscioError,
    ValidationError,
)
from .fileio import parse_source_file, source_from_document
from .omniscience import (
    CapacityReport,
    ConstraintFamily,
    build_family,
    r_co,
)
from .simplex import (
    ConstraintSystem,
    LpSolution,
    UniquenessCertificate,
    make_system,
    solve,
    uniqueness_test,
)
from .sources import (
    EntropyOracle,
    EntropyVector,
    LinearGF2Source,
    TabularSource,
    check_validity,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    make_sunflower,
    merge_terminals,
    random_linear_source,
)
from .tightness import (
    TightnessVerdict,
    check_bound,
    construct_partition_from_dual,
    witness_by_partition_search,
)

__all__ = [
    "CapacityReport",
    "ComputationError",
    "ConstraintFamily",
    "ConstraintSystem",
    "EntropyOracle",
    "EntropyVector",
    "InternalContractError",
    "InvalidInputError",
    "LinearGF2Source",
    "LpSolution",
    "OmniscioError",
    "TabularSource",
    "TightnessVerdict",
    "UniquenessCertificate",
    "ValidationError",
    "build_family",
    "check_bound",
    "check_validity",
    "construct_partition_from_dual",
    "counterexample_entropy_vector",
    "enumerate_admissible",
    "make_counterexample",
    "make_oracle",
    "make_sunflower",
    "make_system",
    "merge_terminals",
    "mutual_dependence_bound",
    "parse_source_file",
    "partition_dependence",
    "r_co",
    "random_linear_source",
    "solve",
    "source_from_document",
    "uniqueness_test",
    "witness_by_partition_search",
]
