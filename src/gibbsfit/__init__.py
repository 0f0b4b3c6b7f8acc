"""Fit Gibbs states exp(sum_i theta_i T_i)/Z to expectation targets and
qubit marginals by convex minimization of the log-partition function."""

__version__ = "0.1.0"  # result files' tool_version; pyproject.toml reads it here

from .linalg import (
    as_density,
    as_hermitian,
    eigh,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from .partition import GibbsState, ObservableSet
from .pauli import (
    PauliExpansion,
    PauliString,
    expand,
    materialize,
    parse_label,
)
from .problem import (
    EntropyViolation,
    ExpectationProblem,
    IncompatibleMarginalsError,
    MarginalProblem,
    RankReport,
    TargetConflictError,
    check_independence,
    check_local_compatibility,
    entropy_diagnostic,
    reduce_to_expectations,
)
from .solver import (
    BOUNDARY,
    CONVERGED,
    ITERATION_LIMIT,
    DependentObservablesError,
    SolveOptions,
    SolveResult,
    VerificationReport,
    decompose_local_terms,
    solve_expectations,
    solve_marginals,
    verify,
)

__all__ = [
    "BOUNDARY",
    "CONVERGED",
    "ITERATION_LIMIT",
    "DependentObservablesError",
    "EntropyViolation",
    "ExpectationProblem",
    "GibbsState",
    "IncompatibleMarginalsError",
    "MarginalProblem",
    "ObservableSet",
    "PauliExpansion",
    "PauliString",
    "RankReport",
    "SolveOptions",
    "SolveResult",
    "TargetConflictError",
    "VerificationReport",
    "as_density",
    "as_hermitian",
    "check_independence",
    "check_local_compatibility",
    "decompose_local_terms",
    "eigh",
    "entropy_diagnostic",
    "expand",
    "materialize",
    "parse_label",
    "partial_trace",
    "reduce_to_expectations",
    "solve_expectations",
    "solve_marginals",
    "trace_distance",
    "verify",
    "von_neumann_entropy",
]
