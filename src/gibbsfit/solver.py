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
the iteration runs until the theta cap or until no step lowers the
objective any more: the line search finds no step, or the step it
accepts leaves f where it was (f has saturated at float resolution).
Interior-infeasible problems drift to the cap on their own because the
residual stays bounded away from zero.

A marginal problem starts from its own marginals when they allow it:
see marginal_start for its ladder of cluster levels, the cost rule that
picks the level and the fallbacks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, pauli, problem as problem_mod
from .partition import GibbsState
from .problem import (
    ExpectationProblem,
    IncompatibleMarginalsError,
    MarginalProblem,
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
# Bound on max_i |theta_i| * (hi_i - lo_i)/2 over spec(T_i) = [lo_i, hi_i]:
# the spread theta_i T_i puts into H(theta), so the cap does not depend
# on how an observable is scaled.  A Pauli string's half-width is 1.
THETA_CAP = 50.0
# The levels of `marginal_start`.  A region fit stops at _FIT_SHARE times
# the caller's grad_tol, but never below _FIT_FLOOR (a 3- to 8-qubit fit
# ends at 2e-16 to 7e-15, and one asked for 1e-16 ran its whole
# budget), within _FIT_ITER iterations (converging fits take 3 to 14).
# A level is read while the estimated cost of its fits, the sum over
# its fitted regions R of _FIT_SETUP + _FIT_EVALS 8^|R|, stays under the
# _SAVED d x d evaluations of 8^n each that a level saves (units of one
# eigh flop, about 0.6 ns on the calibration host; see the README).
_FIT_SHARE = 1e-3
_FIT_FLOOR = 1e-14
_FIT_ITER = 100
_FIT_SETUP = 3e6
_FIT_EVALS = 10
_SAVED = 2


class DependentObservablesError(ValueError):
    """{I, T_1..T_r} fails the independence check; the fit is ill-posed."""

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

    def __post_init__(self):
        _check_tol("grad_tol", self.grad_tol)
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))


def _check_tol(name: str, tol) -> None:
    """A tolerance is a real number (not a bool) in (0, inf)."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {tol!r}")


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


def _minimize(ep: ExpectationProblem, options: SolveOptions | None, theta0=None, h0=None) -> SolveResult:
    """Minimize the translated log-partition f(theta) = psi(theta) - theta.t
    with L-BFGS from theta0 (default 0); the residual is grad f = <T> - t.

    `h0`, when given, maps a vector q to H_0 q, the initial inverse
    Hessian of the two-loop recursion; otherwise H_0 = gamma I with the
    usual scaling gamma = s.y / y.y (the identity on the first step).
    Every reported quantity is read from the Gibbs state of the last
    accepted iterate, so no eigensolve happens after the loop.  Only psi
    and the spectrum of an iterate outlive its convergence test: its
    state is dropped before the line search builds the next, so one
    d x d state is held at a time.

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

    theta = np.zeros(ep.size) if theta0 is None else np.array(theta0, dtype=np.float64)
    f, grad, state = evaluate(theta)
    psi, spectrum = state.psi, state.spectrum
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
        if float(np.max(np.abs(theta) * ep.half_widths)) > THETA_CAP:
            status = BOUNDARY
            message = (
                f"max |theta_i| * half-width(T_i) exceeded cap {THETA_CAP} "
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

        state = None  # free this iterate's rho: the line search builds the next
        moved = _armijo(theta, f, grad, direction, evaluate)
        if moved is None or (flagged and moved[1] >= f):
            if flagged:
                # An extreme target drives the optimum to infinity; the
                # objective has saturated at float resolution (no step
                # lowers f), which is as much of a certificate as finite
                # arithmetic produces.
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

        theta_new, f_new, grad_new, state = moved
        moved = None
        psi, spectrum = state.psi, state.spectrum
        s = theta_new - theta
        y = grad_new - grad
        sy = float(s @ y)
        if sy > _CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        theta, f, grad = theta_new, f_new, grad_new

    return SolveResult(
        status=status,
        theta=theta,
        residuals=grad,
        iterations=iterations,
        psi=psi,
        entropy_bits=linalg.spectrum_entropy(spectrum),
        gibbs=state if status == CONVERGED else None,
        trace=trace,
        message=message,
    )


class MarginalStart(NamedTuple):
    """A marginal solve's start (see `marginal_start`): theta0, and
    `apply`, the map g -> H_0 g over its closed-form regions (`_h0`), or
    None where it has none and H_0 = gamma I."""

    theta0: np.ndarray
    apply: Callable[[np.ndarray], np.ndarray] | None


def _h0(pieces: list):
    """g -> H_0 g = sum_R c_R coeffs_R(D log_{rho_R}[sum_{P in R} g_P P]) / 4^k
    over the closed-form regions `pieces` of `_kikuchi`, with
    coeffs_R(Y)_P = Tr(P Y), or None where there are none.  -S(rho_R) is
    the exact max-entropy dual on such a region, and its Hessian is the
    inverse of the region's Kubo-Mori covariance, the Frechet derivative
    of log at rho_R.  Matrix-free, through the Pauli transforms on each
    region's 2^k x 2^k space, one pass per region size over its pieces
    stacked in region order."""
    if not pieces:
        return None
    runs = itertools.groupby(pieces, key=lambda piece: len(piece[0]))
    groups = [tuple(map(np.stack, zip(*run))) for _, run in runs]

    def apply(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(g)
        for index, weights, v, kernel in groups:
            coeffs = np.zeros((len(index), index.shape[1] + 1))
            coeffs[:, 1:] = g[index]
            x = pauli.sum_transform(coeffs)
            vh = v.conj().swapaxes(1, 2)
            y = v @ (kernel * (vh @ x @ v)) @ vh
            for rows, weight, traces in zip(index, weights, pauli.trace_transform(y)):
                out[rows] += weight * traces[1:].real
        return out

    return apply


def _region_rows(ep: ExpectationProblem, qubits) -> np.ndarray:
    """The rows of ep's strings supported in the region `qubits`, ordered
    by their `pauli.string_keys` on it: where the family holds all
    4^k - 1 strings on the region, row j holds the string of key j + 1."""
    codes = ep.observable_set.codes
    outside = np.ones(ep.n, dtype=bool)
    outside[list(qubits)] = False
    rows = np.flatnonzero(~codes[:, outside].any(1))
    return rows[np.argsort(pauli.string_keys(codes[np.ix_(rows, qubits)]))]


def _closed_form(targets: np.ndarray, k: int):
    """(theta_R, v, kernel) of rho_R = (I + sum_P t_P P) / 2^k from its
    4^k - 1 targets: theta_R the Pauli coefficients Tr(P log rho_R) / 2^k,
    v the eigenvectors of rho_R and kernel the divided differences of
    log over its spectrum w; or None when rho_R is singular: a least
    eigenvalue within 2^k (k + 2^k) eps of the largest, the round-off of
    rho_R's 2^k-term sums (a singlet pair's 0 comes back as 5.6e-17)."""
    d = 1 << k
    w, v = np.linalg.eigh(pauli.sum_transform(np.concatenate(([1.0], targets))) / d)
    if not w[0] > d * (k + d) * np.finfo(np.float64).eps * w[-1]:
        return None
    theta = pauli.trace_transform((v * np.log(w)) @ v.conj().T)[1:].real / d
    return theta, v, linalg.log_divided_difference(w)


def _kikuchi(ep: ExpectationProblem, regions, closed: dict, options: SolveOptions):
    """(theta0, pieces) over a region graph `regions`
    (`problem.kikuchi_regions`) by the rule of `marginal_start`, where
    `pieces` holds each closed-form region's (rows, c_R / 4^k,
    eigenvectors, log kernel) for `_h0`; or None when a region marginal
    is singular, a region fit fails, or theta0 is non-finite or beyond
    THETA_CAP.  `closed` holds one solve's closed forms (`_closed_form`)
    by region size and targets, so every level and every region fit's
    start reads each rho_R once; `options` are the solve's own."""
    theta0 = np.zeros(ep.size)
    pieces = []
    for qubits, count in regions:
        k = len(qubits)
        rows = _region_rows(ep, qubits)
        targets = ep.targets[rows]
        if len(rows) == 4 ** k - 1:
            key = (k, targets.tobytes())
            if key not in closed:
                closed[key] = _closed_form(targets, k)
            if closed[key] is None:
                return None
            theta, v, kernel = closed[key]
            pieces.append((rows, count / 4 ** k, v, kernel))
        else:
            obset = ep.observable_set
            subsets = [tuple(qubits.index(q) for q in s if q in qubits) for s in obset.subsets]
            codes = obset.codes[np.ix_(rows, qubits)]
            sub = ExpectationProblem(codes, targets, 1 << k, k, subsets=[s for s in subsets if s])
            # where R is one of sub's subsets, sub's start would fit R again
            recurs = k in map(len, sub.observable_set.subsets)
            start = (None, None) if recurs else marginal_start(sub, options, closed)
            if start is None:
                return None
            fits = max(_FIT_SHARE * options.grad_tol, _FIT_FLOOR), min(options.max_iter, _FIT_ITER)
            fit = _minimize(sub, SolveOptions(*fits), *start)
            if fit.status != CONVERGED:
                return None
            theta = fit.theta
        theta0[rows] += count * theta
    if not np.isfinite(theta0).all() or float(np.max(np.abs(theta0))) > THETA_CAP:
        return None
    return theta0, pieces


def _ladder(ep: ExpectationProblem) -> list:
    """The region graphs of the levels above the constraints that the
    cost rule of `marginal_start` admits, lowest first."""
    constraints = [set(s) for s in ep.observable_set.subsets]
    sets, below, ladder = constraints, problem_mod.kikuchi_regions(constraints), []
    while True:
        sets = [set().union(*(c for c in constraints if s & c)) for s in sets]
        regions = problem_mod.kikuchi_regions(sets)
        if regions == below:
            return ladder
        fitted = [len(q) for q, _ in regions if not any(c >= set(q) for c in constraints)]
        if sum(_FIT_SETUP + _FIT_EVALS * 8 ** k for k in fitted) < _SAVED * 8 ** ep.n:
            ladder.append(regions)
        below = regions


def marginal_start(
    ep: ExpectationProblem, options: SolveOptions | None = None, closed: dict | None = None
) -> MarginalStart | None:
    """The start of a marginal solve from its reduction `ep`: theta0 and
    H_0 from the region marginals rho_R = (I + sum_{P in R} t_P P) / 2^k
    at the targets, or None, and the solve then starts at 0 with
    H_0 = gamma I, as an expectation problem does.

    theta0 is the Bethe/Kikuchi approximation sum_R c_R theta_R of the
    fitted Hamiltonian over a region graph with the counting numbers of
    `problem.kikuchi_regions`.  A region on which the family holds all
    4^k - 1 strings takes theta_R = the Pauli coefficients of log rho_R
    (one 2^k x 2^k eigh per solve: `closed`, left out by a solve, is the
    cache of every level and region fit) and adds its piece to H_0
    (`_h0`); any other region R takes a region fit, the max-entropy fit
    of the family strings supported in R: a problem on |R| qubits with
    subsets C & R, solved as a marginal solve is, from its own
    marginal_start, to _FIT_SHARE times the caller's grad_tol (at least
    _FIT_FLOOR, within _FIT_ITER iterations), so that theta0 is limited
    by the regions' size and not by where their fits stopped.  A fit
    whose sub-problem has no start fails its level; where R is one of
    the sub-problem's subsets, whose start would fit R again, it starts
    at 0 with H_0 = gamma I.  The levels (`_ladder`):

    - Level 0, the constraints closed under intersection.  Every region
      there lies inside a constraint, so it never fits.  It gives H_0
      = sum_R c_R D log at rho_R, the exact inverse Hessian on disjoint
      (or product) marginals, and the fallback theta0, which is exact
      for commuting Markov chains (Poulin & Hastings, PRL 106, 080403,
      2011).  A singular region marginal, or a theta0 that is
      non-finite or beyond THETA_CAP, gives None; it is checked before
      any region fit.
    - Level l + 1 grows each set of level l by every constraint that
      overlaps it, closed under intersection: 4-qubit windows at level
      1 of a pair chain, 6-qubit ones at level 2.  The ladder ends where
      a level's region graph repeats the one below.  A level is read
      only when its fits' estimated cost, the sum over its fitted
      regions R of _FIT_SETUP + _FIT_EVALS 8^|R|, is under _SAVED d x d
      evaluations of 8^n each: levels 1 and 2 of n = 8 and 9 pair
      chains, up to level 3 at n = 10, and no level of an n = 7 chain.
    - theta0 comes from the highest level read, tried first.  A level
      whose region marginal is singular, whose region fit fails, or
      whose theta0 is non-finite or beyond THETA_CAP gives way to the
      next level read below it, and at last to level 0's theta0.  The
      README gives the rule's calibration.
    """
    options = options or SolveOptions()
    closed = {} if closed is None else closed
    level0 = _kikuchi(ep, problem_mod.kikuchi_regions(ep.observable_set.subsets), closed, options)
    if level0 is None:
        return None
    theta0, pieces = level0
    for regions in reversed(_ladder(ep)):
        level = _kikuchi(ep, regions, closed, options)
        if level is not None:
            theta0 = level[0]
            break
    return MarginalStart(theta0, _h0(pieces))


def solve_marginals(mp: MarginalProblem, options: SolveOptions | None = None) -> SolveResult:
    """Reduce marginals to Pauli expectations and fit; attaches the
    per-subset Hamiltonian decomposition and achieved marginal distances
    on success.

    The fit starts from `marginal_start` (theta0 and H_0) when the region
    marginals allow it.
    """
    report = check_local_compatibility(mp)
    if report.verdict != problem_mod.COMPATIBLE:
        raise IncompatibleMarginalsError(report)
    # distinct non-identity strings: {I, T_i} is orthogonal, so independent
    ep = reduce_to_expectations(mp)
    theta0, h0 = marginal_start(ep, options) or (None, None)
    result = _minimize(ep, options, theta0, h0)
    if result.status != CONVERGED:
        return result
    local = decompose_local_terms(result.theta, ep)
    dists = _marginal_distances(result.gibbs.rho, mp, ep)
    return dataclasses.replace(result, local_terms=local, marginal_distances=dists)


def _marginal_distances(rho: np.ndarray, mp: MarginalProblem, ep: ExpectationProblem) -> tuple:
    """(qubits, trace distance of rho's marginal on them to the target)
    per constraint, in constraint order; `ep` is mp's reduction, whose
    blocks (one per constraint) read the marginals."""
    return tuple(
        (qubits, float(linalg.trace_distance(marginal, target)))
        for (qubits, target), marginal in zip(mp.constraints, ep.observable_set.marginals(rho))
    )


def decompose_local_terms(theta, ep: ExpectationProblem) -> dict:
    """Split H = sum theta_P P into per-subset local Hamiltonians, keyed
    by subset in constraint order.

    `ep` is the reduction of a marginal problem, whose subsets are its
    constraints', and a subset's local Hamiltonian is its block's local
    sum (`ObservableSet.local_sums`): the strings whose first listed
    subset holding their support is this one.  So the blocks, each
    widened by identities to the whole register, sum to H exactly, a
    subset nested in an earlier one gets a zero block and a repeated
    subset keeps its first copy's block.
    """
    obset = ep.observable_set
    locals_: dict[tuple, np.ndarray] = {}
    for qubits, local in zip(obset.subsets, obset.local_sums(theta)):
        locals_.setdefault(qubits, local)
    return locals_


def verify(
    result_or_theta,
    prob,
    tol: float = 1e-8,
) -> VerificationReport:
    """Recompute everything from theta alone and compare against the
    problem's targets; trusts nothing else in the result.  A theta whose
    H(theta) is not finite, or a tol that is not finite and positive, is
    a ValueError."""
    _check_tol("tol", tol)
    theta = (
        result_or_theta.theta if isinstance(result_or_theta, SolveResult) else result_or_theta
    )
    theta = np.asarray(theta, dtype=np.float64)
    marginal = isinstance(prob, MarginalProblem)
    ep = reduce_to_expectations(prob) if marginal else prob
    state = ep.observable_set.gibbs(theta)
    if not np.isfinite(state.psi):
        raise ValueError("theta: H(theta) is not finite, so it has no Gibbs state")
    residuals = state.expectations - ep.targets
    min_eig = float(state.spectrum[0])
    dists = _marginal_distances(state.rho, prob, ep) if marginal else None
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
