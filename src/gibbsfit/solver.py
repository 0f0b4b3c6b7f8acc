"""Maximum-entropy fitting of Gibbs states to expectation targets.

The translated objective f(theta) = log Tr exp(sum theta_i (T_i - t_i I))
is smooth and convex with gradient <T_i> - t_i, so the minimizer (when
one exists) is exactly the theta whose Gibbs state reproduces the
targets.  Targets on the boundary of the achievable set push the
minimum off to infinity; those runs must terminate with a status that
says so rather than a bogus certificate.

Boundary detection is structural, not numeric: a target pinned to an
endpoint of its observable's spectral interval has no full-rank witness,
so such problems are flagged up front and never reported as Converged —
the iteration runs until the theta cap or until the line search can no
longer move theta (a gradient that underflows to exact zero gives a
zero direction, which the line search refuses).
Interior-infeasible problems drift to the cap on their own because the
residual stays bounded away from zero.

A marginal problem starts from its own marginals when they allow it
(see MarginalStart): theta0 from the Kikuchi combination of the region
log-marginals, and an initial inverse Hessian from their curvature.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, pauli, problem as problem_mod
from .partition import GibbsState
from .problem import (
    ExpectationProblem,
    IncompatibleMarginalsError,
    MarginalProblem,
    ReducedProblem,
    check_independence,
    check_local_compatibility,
    reduce_to_expectations,
)

CONVERGED = "Converged"
BOUNDARY = "BoundaryOrInfeasible"
ITERATION_LIMIT = "IterationLimit"

_ARMIJO_C = 1e-4
_STEP_FLOOR = 1e-18
_CURVATURE_FLOOR = 1e-12
_MEMORY = 10  # curvature pairs kept by L-BFGS
# Where f no longer resolves a decrease (|f_new - f| within this share of
# |f|), the line search decides by the gradient instead: Hager-Zhang's
# approximate Wolfe condition with these delta and sigma.
_FLAT_RTOL = 1e-13
_WOLFE_DELTA = 0.1
_WOLFE_SIGMA = 0.9


class DependentObservablesError(ValueError):
    """{I, T_1..T_r} fails the Gram rank check; the fit is ill-posed."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "observables are linearly dependent (with identity): Gram eigenvalue "
            f"range [{report.min_eigenvalue:.3e}, {report.max_eigenvalue:.3e}]"
        )


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8
    max_iter: int = 5000
    # Bound on max_i |theta_i| * (hi_i - lo_i)/2 over spec(T_i) = [lo_i, hi_i]:
    # the spread theta_i T_i puts into H(theta), so the cap does not depend
    # on how an observable is scaled.  A Pauli string's half-width is 1.
    theta_cap: float = 50.0
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if not self.theta_cap > 1:
            raise ValueError("theta_cap must exceed 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.theta0 is not None and not np.isfinite(np.asarray(self.theta0, float)).all():
            raise ValueError("theta0 must be finite")


@dataclass
class SolveResult:
    status: str
    theta: np.ndarray
    residuals: np.ndarray
    iterations: int
    psi: float
    entropy_bits: float
    gibbs: GibbsState | None = None
    trace: list = field(default_factory=list)  # max |residual| per iteration
    local_terms: dict | None = None
    marginal_distances: tuple | None = None
    message: str = ""

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


@dataclass(frozen=True)
class VerificationReport:
    residuals: np.ndarray
    max_residual: float
    psi: float
    entropy_bits: float
    min_eigenvalue: float
    tol: float
    ok: bool
    marginal_distances: tuple | None = None


def _armijo(theta, f, grad, direction, evaluate):
    """Backtracking line search on f; returns the accepted
    (theta, f, grad, state), or None when the step floor is hit without
    decrease or a trial point rounds back to theta itself.  A null step
    would leave f unchanged and pass Armijo's bound, which rounds to f
    there, so it is refused before it costs an evaluation.

    Near the optimum |f_new - f| ~ |g|^2 drops below f's float
    resolution and Armijo rejects every step, while the gradient keeps
    full precision.  A step that Armijo rejects but that leaves f flat
    to 1e-13 relative is accepted when it meets the approximate Wolfe
    condition sigma g.d <= g_new.d <= (2 delta - 1) g.d (Hager & Zhang,
    SIAM J. Optim. 16, 2005).
    """
    slope = float(grad @ direction)
    if slope >= 0:
        return None
    step = 1.0
    while step >= _STEP_FLOOR:
        cand = theta + step * direction
        if np.array_equal(cand, theta):
            return None
        f_new, g_new, state = evaluate(cand)
        if f_new <= f + _ARMIJO_C * step * slope:
            return cand, f_new, g_new, state
        if f_new <= f + _FLAT_RTOL * abs(f):
            new_slope = float(g_new @ direction)
            if _WOLFE_SIGMA * slope <= new_slope <= (2 * _WOLFE_DELTA - 1) * slope:
                return cand, f_new, g_new, state
        del state  # free the rejected rho before the next evaluation builds one
        step *= 0.5
    return None


def solve_expectations(ep: ExpectationProblem, options: SolveOptions | None = None) -> SolveResult:
    """Check that {I, T_i} is independent, then fit (see _minimize)."""
    rank = check_independence(ep)
    if not rank.independent:
        raise DependentObservablesError(rank)
    return _minimize(ep, options)


def _minimize(ep: ExpectationProblem, options: SolveOptions | None, h0=None) -> SolveResult:
    """Minimize the translated log-partition f(theta) = psi(theta) - theta.t
    with L-BFGS; grad f_i = <T_i>_theta - t_i is the residual vector.

    `h0`, when given, maps a vector q to H_0 q, the initial inverse
    Hessian of the two-loop recursion; otherwise H_0 = gamma I with the
    usual scaling gamma = s.y / y.y (the identity on the first step).
    Every reported quantity is read from the Gibbs state of the last
    accepted iterate, so no eigensolve happens after the loop.

    A failed line search ends a flagged problem BoundaryOrInfeasible;
    otherwise it clears the curvature memory and goes on from H_0, and
    with the memory already empty it ends IterationLimit.
    """
    options = options or SolveOptions()
    obset = ep.observable_set
    targets = ep.targets
    flagged = bool(ep.extreme.any())

    def evaluate(theta):
        state = obset.gibbs(theta)
        return state.psi - float(theta @ targets), state.expectations - targets, state

    theta = (
        np.zeros(ep.size)
        if options.theta0 is None
        else np.asarray(options.theta0, dtype=np.float64).copy()
    )
    f, grad, state = evaluate(theta)
    trace: list[float] = []
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    status = ITERATION_LIMIT
    message = ""
    iterations = 0

    for it in range(1, options.max_iter + 1):
        iterations = it
        gmax = float(np.max(np.abs(grad)))
        trace.append(gmax)
        if gmax <= options.grad_tol and not flagged:
            status = CONVERGED
            iterations = it - 1
            break
        if float(np.max(np.abs(theta) * ep.half_widths)) > options.theta_cap:
            status = BOUNDARY
            message = (
                f"max |theta_i| * half-width(T_i) exceeded cap {options.theta_cap} "
                f"with residual {gmax:.3e}"
            )
            break

        # two-loop recursion over stored curvature pairs
        q = grad.copy()
        alphas = []
        for s, y in zip(reversed(s_hist), reversed(y_hist)):
            a = float(s @ q) / float(y @ s)
            alphas.append(a)
            q -= a * y
        if h0 is not None:
            q = h0(q)
        elif y_hist:
            gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, y), a in zip(zip(s_hist, y_hist), reversed(alphas)):
            b = float(y @ q) / float(y @ s)
            q += s * (a - b)
        direction = -q
        if float(grad @ direction) >= 0:
            direction = -grad  # stale memory produced an ascent direction

        moved = _armijo(theta, f, grad, direction, evaluate)
        if moved is None:
            if flagged:
                # An extreme target drives the optimum to infinity; the
                # objective has saturated at float resolution, which is as
                # much of a certificate as finite arithmetic produces.
                status = BOUNDARY
                message = (
                    "objective saturated at float resolution while chasing an "
                    f"extreme target (residual {gmax:.3e})"
                )
                break
            if not s_hist:
                message = "line search stalled"
                break
            s_hist.clear()  # stale curvature: go on from H_0
            y_hist.clear()
            continue

        theta_new, f_new, grad_new, state_new = moved
        s = theta_new - theta
        y = grad_new - grad
        sy = float(s @ y)
        if sy > _CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        theta, f, grad, state = theta_new, f_new, grad_new, state_new

    return SolveResult(
        status=status,
        theta=theta,
        residuals=grad,
        iterations=iterations,
        psi=state.psi,
        entropy_bits=state.entropy_bits,
        gibbs=state if status == CONVERGED else None,
        trace=trace,
        message=message,
    )


class _Region(NamedTuple):
    index: np.ndarray  # theta positions of the region's strings, region_tables order
    weight: float  # c_R / 4^k
    vectors: np.ndarray  # eigenvectors of rho_R
    kernel: np.ndarray  # divided differences of log over rho_R's spectrum


@dataclass(frozen=True, eq=False)
class MarginalStart:
    """A marginal solve's start, read from the region marginals rho_R
    of `problem.kikuchi_regions` with counting numbers c_R.

    `theta0` holds the Pauli coefficients of sum_R c_R log rho_R, the
    Bethe/Kikuchi approximation of the fitted Hamiltonian; it is exact
    for commuting Markov chains (Poulin & Hastings, PRL 106, 080403,
    2011).  `apply` is the matching initial inverse Hessian: -S(rho_R)
    is the exact max-entropy dual on one region, and its Hessian is the
    inverse of the region's Kubo-Mori covariance, the Frechet derivative
    of log at rho_R.  On disjoint (or product) marginals theta0 is the
    optimum and H_0 the exact inverse Hessian there.
    """

    theta0: np.ndarray
    regions: tuple

    def apply(self, g: np.ndarray) -> np.ndarray:
        """H_0 g = sum_R c_R coeffs_R(D log_{rho_R}[sum_{P in R} g_P P]) / 4^k,
        with coeffs_R(Y)_P = Tr(P Y); matrix-free, 2^k x 2^k work per region."""
        out = np.zeros_like(g)
        for reg in self.regions:
            d = reg.vectors.shape[0]
            _, perms, phases = pauli.region_tables(d.bit_length() - 1)
            x = pauli.pauli_sum(g[reg.index], phases, pauli.gather_index(perms))
            v, vh = reg.vectors, reg.vectors.conj().T
            y = v @ (reg.kernel * (vh @ x @ v)) @ vh
            out[reg.index] += reg.weight * pauli.region_traces(y).real
        return out


def marginal_start(
    mp: MarginalProblem, ep: ReducedProblem, theta_cap: float
) -> MarginalStart | None:
    """One 2^k x 2^k eigh per region of `problem.kikuchi_regions`; None
    when a region marginal is singular (log undefined) or theta0 is
    non-finite or beyond `theta_cap`, so that the solve starts at 0 with
    H_0 = gamma I as an expectation problem does.  `ep` is the problem's
    reduction, whose `string_index` places each region's strings."""
    theta0 = np.zeros(ep.size)
    regions = []
    for qubits, count in problem_mod.kikuchi_regions(mp.subsets):
        ci = next(i for i, s in enumerate(mp.subsets) if set(qubits) <= set(s))
        host, rho = mp.constraints[ci]
        keep = tuple(host.index(q) for q in qubits)
        k = len(qubits)
        # a region string's row among the host's strings is its key less 1
        index = ep.string_index[ci][pauli.string_keys(pauli.subset_codes(keep, len(host))) - 1]
        if k < len(host):
            rho = linalg.partial_trace(rho, len(host), keep)
        w, v = np.linalg.eigh(rho)
        if not w[0] > 0:
            return None
        d = 1 << k
        log_rho = (v * np.log(w)) @ v.conj().T
        theta0[index] += count * pauli.region_traces(log_rho).real / d
        regions.append(_Region(index, count / d**2, v, linalg.log_divided_difference(w)))
    if not np.isfinite(theta0).all() or float(np.max(np.abs(theta0))) > theta_cap:
        return None
    return MarginalStart(theta0, tuple(regions))


def solve_marginals(mp: MarginalProblem, options: SolveOptions | None = None) -> SolveResult:
    """Reduce marginals to Pauli expectations and fit; attaches the
    per-subset Hamiltonian decomposition and achieved marginal distances
    on success.

    The fit starts from `marginal_start` (theta0 unless options.theta0
    is given, and H_0) when the region marginals allow it.
    """
    report = check_local_compatibility(mp)
    if report.verdict != problem_mod.COMPATIBLE:
        raise IncompatibleMarginalsError(report)
    # distinct non-identity strings: {I, T_i} is orthogonal, so independent
    ep = reduce_to_expectations(mp)
    options = options or SolveOptions()
    start = marginal_start(mp, ep, options.theta_cap)
    h0 = None
    if start is not None:
        h0 = start.apply
        if options.theta0 is None:
            options = dataclasses.replace(options, theta0=start.theta0)
    result = _minimize(ep, options, h0)
    if result.status != CONVERGED:
        return result
    local = decompose_local_terms(result.theta, ep, mp.subsets)
    dists = []
    for qubits, rho_target in mp.constraints:
        achieved = linalg.partial_trace(result.gibbs.rho, mp.n, qubits)
        dists.append((qubits, float(linalg.trace_distance(achieved, rho_target))))
    return dataclasses.replace(result, local_terms=local, marginal_distances=tuple(dists))


def decompose_local_terms(theta, ep: ReducedProblem, subsets) -> dict:
    """Split H = sum theta_P P into per-subset local Hamiltonians, keyed
    by subset in the given order.

    `ep` is the reduction of the marginal problem on `subsets`.  A
    subset's block sums the strings its constraint emitted first (read
    through `ep.string_index` and `pauli.region_tables`): those whose
    lowest-indexed subset containing their support is this one.  So the
    blocks, each widened by identities to the whole register, sum to H
    exactly, a subset nested in an earlier one gets
    a zero block and a repeated subset keeps its first copy's block.
    """
    subsets = [tuple(s) for s in subsets]
    if [len(i) for i in ep.string_index] != [4 ** len(s) - 1 for s in subsets]:
        raise ValueError("subsets do not match the reduction's constraints")
    theta = np.asarray(theta, dtype=np.float64)
    locals_: dict[tuple, np.ndarray] = {}
    emitted = 0  # strings emitted by the constraints before this one
    for qubits, index in zip(subsets, ep.string_index):
        first = index >= emitted
        emitted += int(np.count_nonzero(first))
        if qubits not in locals_:
            _, perms, phases = pauli.region_tables(len(qubits))
            locals_[qubits] = pauli.pauli_sum(
                theta[index[first]], phases[first], pauli.gather_index(perms[first])
            )
    return locals_


def verify(
    result_or_theta,
    prob,
    tol: float = 1e-8,
) -> VerificationReport:
    """Recompute everything from theta alone and compare against the
    problem's targets; trusts nothing else in the result."""
    theta = (
        result_or_theta.theta if isinstance(result_or_theta, SolveResult) else result_or_theta
    )
    theta = np.asarray(theta, dtype=np.float64)
    marginal = isinstance(prob, MarginalProblem)
    ep = reduce_to_expectations(prob) if marginal else prob
    state = ep.observable_set.gibbs(theta)
    residuals = state.expectations - ep.targets
    min_eig = float(state.spectrum[0])
    dists = None
    if marginal:
        pairs = []
        for qubits, rho_target in prob.constraints:
            achieved = linalg.partial_trace(state.rho, prob.n, qubits)
            pairs.append((qubits, float(linalg.trace_distance(achieved, rho_target))))
        dists = tuple(pairs)
    max_res = float(np.max(np.abs(residuals)))
    return VerificationReport(
        residuals=residuals,
        max_residual=max_res,
        psi=state.psi,
        entropy_bits=state.entropy_bits,
        min_eigenvalue=min_eig,
        tol=tol,
        ok=bool(max_res <= tol and min_eig >= -linalg.PSD_FLOOR),
        marginal_distances=dists,
    )
