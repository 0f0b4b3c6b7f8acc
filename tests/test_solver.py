"""Solver behaviour: closed-form fits, boundary handling, certificates."""

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gibbsfit import linalg, pauli, problem, solver
from gibbsfit.cli import generate_thermal_marginals
from gibbsfit.partition import ObservableSet
from gibbsfit.problem import (
    ExpectationProblem,
    IncompatibleMarginalsError,
    MarginalProblem,
    reduce_to_expectations,
)
from gibbsfit.solver import (
    BOUNDARY,
    CONVERGED,
    ITERATION_LIMIT,
    DependentObservablesError,
    SolveOptions,
    SolveResult,
    decompose_local_terms,
    marginal_start,
    solve_expectations,
    solve_marginals,
    verify,
)

import reference

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def pauli_problem(n, pairs):
    return ExpectationProblem.from_paulis(
        n, [(pauli.parse_label(lbl, n), t) for lbl, t in pairs]
    )


def random_marginal_instance(rng, n, subsets, beta=1.0):
    """Exact marginals of a random local thermal state: always feasible."""
    strings, coeffs = [], []
    for s in subsets:
        local = list(reference.strings_on(tuple(range(len(s))), len(s)))
        for p in local:
            strings.append(reference.relabel(p, s, n))
            coeffs.append(rng.uniform(-1, 1) / len(local))
    eta = ObservableSet(strings, dim=1 << n, n=n).gibbs(-beta * np.array(coeffs)).rho
    cons = tuple((s, linalg.partial_trace(eta, n, s)) for s in subsets)
    return MarginalProblem(n, cons), eta


def test_single_qubit_closed_form():
    res = solve_expectations(pauli_problem(1, [("Z0", -0.6)]))
    assert res.status == CONVERGED
    assert res.theta[0] == pytest.approx(np.arctanh(-0.6), abs=1e-6)
    assert res.max_residual <= 1e-8
    assert res.gibbs is not None
    assert res.psi == pytest.approx(np.log(2 * np.cosh(res.theta[0])), abs=1e-12)


def test_two_observable_closed_form():
    res = solve_expectations(pauli_problem(1, [("Z0", -0.6), ("X0", -0.3)]))
    t = np.array([-0.6, -0.3])
    oracle = np.arctanh(np.linalg.norm(t)) * t / np.linalg.norm(t)
    assert res.status == CONVERGED
    assert np.abs(res.theta - oracle).max() < 1e-6
    # the fitted state really has those expectations
    assert np.abs(res.gibbs.expectations - t).max() <= 1e-8


def test_extreme_target_reports_boundary():
    res = solve_expectations(pauli_problem(1, [("Z0", -1.0)]))
    assert res.status == BOUNDARY
    assert res.gibbs is None
    # the iterates chased the target: final expectation is ~-1 but theta finite
    assert res.residuals[0] == pytest.approx(0.0, abs=1e-6)
    assert np.isfinite(res.theta).all()
    assert res.message != ""


def test_extreme_target_trajectory_is_monotone():
    res = solve_expectations(
        pauli_problem(1, [("Z0", -1.0)]), SolveOptions()
    )
    trace = np.array(res.trace)
    assert len(trace) > 3
    assert np.all(np.diff(trace) <= 1e-12)  # residual decreases monotonically


def test_infeasible_chain_reports_boundary():
    mp = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    res = solve_marginals(mp)
    assert res.status == BOUNDARY
    assert res.local_terms is None
    assert res.max_residual > 1e-3  # genuinely unreachable, not merely slow


def test_trivial_problem_converges_at_origin():
    mp = MarginalProblem(1, (((0,), np.eye(2) / 2),))
    res = solve_marginals(mp)
    assert res.status == CONVERGED
    assert res.iterations == 0
    assert np.array_equal(res.theta, np.zeros(3))
    assert res.entropy_bits == pytest.approx(1.0, abs=1e-12)


def test_marginal_round_trip_three_qubits():
    rng = np.random.default_rng(40)
    mp, eta = random_marginal_instance(rng, 3, ((0, 1), (1, 2)))
    res = solve_marginals(mp)
    assert res.status == CONVERGED
    assert np.linalg.eigvalsh(res.gibbs.rho).min() > 0
    for qubits, dist in res.marginal_distances:
        assert dist < 1e-6
        assert dist <= 4.0 ** len(qubits) * 1e-8  # documented gradTol-scaled bound
    # the decomposition reassembles the fitted Hamiltonian exactly
    total = np.zeros((8, 8), dtype=complex)
    for qubits, block in res.local_terms.items():
        lifted = np.eye(1, dtype=complex)
        # chain subsets are contiguous, so lifting is a double kron
        left = qubits[0]
        right = 3 - 1 - qubits[-1]
        lifted = np.kron(np.kron(np.eye(1 << left), block), np.eye(1 << right))
        total += lifted
    fitted = reduce_to_expectations(mp).observable_set.hamiltonian(res.theta)
    assert np.abs(total - fitted).max() < 1e-12
    # max-entropy dominance over the generator state
    assert res.entropy_bits >= linalg.von_neumann_entropy(eta) - 1e-6


def test_incompatible_marginals_raise():
    up = (np.eye(2, dtype=complex) + 0.5 * np.diag([1.0, -1.0])) / 2
    mp = MarginalProblem(
        3,
        (
            ((0, 1), np.kron(np.eye(2) / 2, up)),
            ((1, 2), np.kron(np.eye(2) / 2, np.eye(2) / 2)),
        ),
    )
    with pytest.raises(IncompatibleMarginalsError):
        solve_marginals(mp)


def test_dependent_observables_rejected():
    ep = pauli_problem(1, [("Z0", 0.1), ("Z0", 0.1)])
    with pytest.raises(DependentObservablesError):
        solve_expectations(ep)


def per_string_decompose(theta, strings, subsets):
    """The per-string loop decompose_local_terms replaced, kept as its
    reference: each string restricted to the lowest-indexed subset
    containing its support and added through its own table."""
    subsets = [tuple(s) for s in subsets]
    locals_ = {s: np.zeros((1 << len(s), 1 << len(s)), dtype=np.complex128) for s in subsets}
    for coeff, p in zip(theta, strings):
        home = next(s for s in subsets if set(p.support) <= set(s))
        perm, phase = reference.perm_phase(reference.restrict(p, home))
        locals_[home][perm, np.arange(len(perm))] += coeff * phase
    return locals_


def test_decompose_tie_breaks_to_lowest_indexed_subset():
    subsets = ((0, 1), (1, 2))
    mp, _ = random_marginal_instance(np.random.default_rng(41), 3, subsets)
    ep = reduce_to_expectations(mp)
    theta = np.zeros(ep.size)
    theta[ep.observables.index(pauli.parse_label("Z1", 3))] = 0.7  # on both subsets
    out = decompose_local_terms(theta, ep)
    z1_local = 0.7 * np.kron(np.eye(2), np.diag([1.0, -1.0]))
    assert np.abs(out[(0, 1)] - z1_local).max() == 0.0
    assert np.abs(out[(1, 2)]).max() == 0.0


def test_decompose_nested_and_duplicate_subsets_match_per_string_loop():
    subsets = ((0, 1, 2), (1, 2), (0, 1, 2), (2, 3))
    rng = np.random.default_rng(42)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    mp = MarginalProblem(4, tuple((s, linalg.partial_trace(rho, 4, s)) for s in subsets))
    ep = reduce_to_expectations(mp)
    theta = rng.normal(size=ep.size)
    out = decompose_local_terms(theta, ep)
    want = per_string_decompose(theta, ep.observables, subsets)
    assert list(out) == list(want) == [(0, 1, 2), (1, 2), (2, 3)]
    # an entry sums 2^k of a block's terms, along the sum transform's
    # k-level tree or string by string: (k + 2^k) eps sum|theta| bounds
    # the difference, k = 3 the largest subset
    tol = (3 + 8) * np.finfo(np.float64).eps * np.abs(theta).sum()
    for s, block in want.items():
        assert np.abs(out[s] - block).max() <= tol, s
    assert out[(0, 1, 2)].any() and out[(2, 3)].any()
    assert not out[(1, 2)].any()  # nested in (0, 1, 2): every string is home there


def test_verify_round_trip_and_tamper():
    ep = pauli_problem(1, [("Z0", -0.6)])
    res = solve_expectations(ep)
    rep = verify(res, ep)
    assert rep.ok and rep.max_residual <= 1e-8
    assert rep.min_eigenvalue > 0
    bad = verify(np.array([0.0]), ep)
    assert not bad.ok
    assert bad.max_residual == pytest.approx(0.6, abs=1e-12)


def test_verify_marginal_problem_reports_distances():
    rng = np.random.default_rng(41)
    mp, _ = random_marginal_instance(rng, 2, ((0, 1),))
    res = solve_marginals(mp)
    rep = verify(res, mp)
    assert rep.ok
    assert rep.marginal_distances is not None
    assert rep.marginal_distances[0][1] < 1e-6


def test_objective_descends_monotonically():
    rng = np.random.default_rng(42)
    mp, _ = random_marginal_instance(rng, 3, ((0, 1, 2),))
    # one marginal on the whole register: its warm start log(rho) is the
    # optimum, so start at 0 (keeping its H_0) to have a trajectory
    ep = reduce_to_expectations(mp)
    ep_res = solver._minimize(ep, None, np.zeros(63), marginal_start(ep).apply)
    assert ep_res.status == CONVERGED
    # residual trace is not strictly monotone for quasi-Newton, but the
    # objective is; re-play the trajectory cheaply via gradient norms
    trace = np.array(ep_res.trace)
    assert trace[-1] <= 1e-8
    assert trace[0] > trace[-1]


def test_determinism_bitwise():
    rng = np.random.default_rng(43)
    mp, _ = random_marginal_instance(rng, 3, ((0, 1), (1, 2)))
    a = solve_marginals(mp, SolveOptions())
    b = solve_marginals(mp, SolveOptions())
    assert np.array_equal(a.theta, b.theta)
    assert a.trace == b.trace
    assert a.iterations == b.iterations
    assert a.psi == b.psi


def test_unique_optimum_from_scattered_starts():
    ep = pauli_problem(2, [("Z0", -0.3), ("X0 X1", 0.45), ("Z1", 0.2), ("Y0 Y1", -0.1)])
    rng = np.random.default_rng(44)
    base = solve_expectations(ep)
    assert base.status == CONVERGED
    for _ in range(10):
        theta0 = rng.uniform(-5, 5, size=4)
        res = solver._minimize(ep, None, theta0)
        assert res.status == CONVERGED
        assert np.abs(res.theta - base.theta).max() < 1e-5


def test_max_entropy_dominance_explicit():
    # any competitor state matching the targets has no more entropy
    ep = pauli_problem(1, [("Z0", -0.6)])
    res = solve_expectations(ep)
    for c in (0.05, 0.2, 0.39):
        competitor = np.array([[0.2, c], [c, 0.8]], dtype=complex)  # <Z> = -0.6
        assert np.linalg.eigvalsh(competitor).min() >= 0
        assert res.entropy_bits >= linalg.von_neumann_entropy(competitor) - 1e-9


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    # numpy numbers: grad_tol took np.float64 while max_iter refused np.int64
    options = SolveOptions(grad_tol=np.float64(1e-9), max_iter=np.int64(50))
    assert options.max_iter == 50 and type(options.max_iter) is int


@pytest.mark.parametrize("kwargs", [
    {"grad_tol": math.inf},  # every residual passed: Converged at iteration 0
    {"grad_tol": math.nan},
    {"grad_tol": -1e-8},
    {"grad_tol": True},
    {"max_iter": 2.5},  # a TypeError inside the loop
    {"max_iter": True},  # one iteration
])
def test_solve_options_reject_values_that_give_wrong_results(kwargs):
    with pytest.raises(ValueError):
        SolveOptions(**kwargs)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan, True])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # tol = inf passed every theta, the cold theta = 0 here included
    ep = pauli_problem(1, [("Z0", -0.6)])
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        verify(np.array([0.0]), ep, tol)


def test_line_search_backtracks_from_overflowing_trial_points():
    # H(theta) overflows at the first trial points: psi is NaN there, with
    # no eigh and no warning, and the search halves the step to its floor
    ep = pauli_problem(2, [("Z0", 0.1), ("Z0 Z1", 0.2)])
    obset = ep.observable_set
    assert np.isnan(obset.log_partition(np.array([1e308, 1e308])))

    def evaluate(theta):
        state = obset.gibbs(theta)
        return state.psi - float(theta @ ep.targets), state.expectations - ep.targets, state

    f, grad, _ = evaluate(np.zeros(2))
    assert solver._armijo(np.zeros(2), f, grad, -1e308 * np.sign(grad), evaluate) is None


@pytest.mark.parametrize("n,pairs", [
    (1, [("Z0", -0.6)]),
    (2, [("Z0", 0.3), ("X1", -0.2), ("Z0 Z1", 0.1)]),
])
def test_ascent_direction_falls_back_to_steepest_descent(n, pairs, monkeypatch):
    # H_0 = -I turns the L-BFGS direction uphill: the solver steps along
    # -grad instead and still reaches the default run's optimum
    ep = pauli_problem(n, pairs)
    want = solver._minimize(ep, None)
    fallbacks = []
    armijo = solver._armijo

    def recorded(theta, f, grad, direction, evaluate):
        fallbacks.append(np.array_equal(direction, -grad))
        return armijo(theta, f, grad, direction, evaluate)

    monkeypatch.setattr(solver, "_armijo", recorded)
    got = solver._minimize(ep, None, h0=lambda q: -q)
    assert want.status == got.status == CONVERGED
    assert fallbacks[0]
    assert np.abs(got.theta - want.theta).max() <= 1e-8


def test_theta_cap_is_scale_free():
    # theta* = 1/s; the cap bounds |theta| times T's half-width, which is s
    z = np.diag([1.0, -1.0])
    for s in (1.0, 0.1, 0.01):
        res = solve_expectations(ExpectationProblem.from_matrices([s * z], [s * np.tanh(1.0)]))
        assert res.status == CONVERGED, s
        assert res.theta[0] * s == pytest.approx(1.0, rel=1e-4)


def test_independence_verdict_is_scale_free():
    # a dense observable is read at a Pauli string's Frobenius norm: a tiny
    # or huge copy of X beside Z0 is as independent as X itself
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for s in (1e-5, 1e5):
        ep = ExpectationProblem(
            (pauli.parse_label("Z0", 1), s * x), np.array([0.1, 0.0]), dim=2, n=1
        )
        rep = solver.check_independence(ep)
        assert rep.independent and rep.min_eigenvalue == rep.max_eigenvalue == 2.0, s
        assert solve_expectations(ep).status == CONVERGED, s
    # no square of an entry overflows or underflows
    for s in (1e-300, 1e300):
        ep = ExpectationProblem.from_matrices([np.diag([s, -s]).astype(complex)], [0.0], n=1)
        rep = solver.check_independence(ep)
        assert rep.independent and rep.min_eigenvalue == rep.max_eigenvalue == 2.0, s
    # a scaled duplicate and a zero matrix stay dependent
    z = np.diag([1.0, -1.0]).astype(complex)
    dup = ExpectationProblem(
        (pauli.parse_label("Z0", 1), 1e-5 * z), np.array([0.1, 1e-6]), dim=2, n=1
    )
    assert not solver.check_independence(dup).independent
    zero = ExpectationProblem.from_matrices([np.zeros((2, 2), dtype=complex)], [0.0], n=1)
    assert not solver.check_independence(zero).independent


def test_one_eigensolve_per_evaluation(monkeypatch):
    # n = 4, d = 16: no Gram (r + 1 = 40 for the chain, 5 for the mixed
    # problem) or marginal (4 x 4, 2 x 2) matrix is d x d, so every d x d
    # eigensolve is one of theta's spectra
    n = 4
    d = 1 << n
    rng = np.random.default_rng(46)
    mp, eta = random_marginal_instance(rng, n, ((0, 1), (1, 2), (2, 3)))
    # a matrix observable's spectrum is taken once, when the problem is built
    mats = []
    for _ in range(2):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append((a + a.conj().T) / 2)
    obs = (pauli.parse_label("Z0 Z1", n), mats[0], pauli.parse_label("X3", n), mats[1])
    targets = ObservableSet(obs, dim=d, n=n).expectations(eta)
    mixed = ExpectationProblem(obs, targets, dim=d, n=n)
    counts = {"eigensolves": 0, "eigvalsh": 0, "evaluations": 0, "gram": 0}

    def counting(fn, *keys):
        def wrapped(a, *args, **kwargs):
            if np.shape(a) == (d, d):
                for key in keys:
                    counts[key] += 1
            return fn(a, *args, **kwargs)

        return wrapped

    gibbs = ObservableSet.gibbs

    def counted_gibbs(self, theta):
        counts["evaluations"] += 1
        return gibbs(self, theta)

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eigensolves"))
    monkeypatch.setattr(
        np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, "eigensolves", "eigvalsh")
    )
    monkeypatch.setattr(ObservableSet, "gibbs", counted_gibbs)
    check = solver.check_independence

    def counted_check(ep):
        counts["gram"] += 1
        return check(ep)

    monkeypatch.setattr(solver, "check_independence", counted_check)

    # a marginal reduction is independent by construction: no Gram check
    for prob, solve, grams in ((mp, solve_marginals, 0), (mixed, solve_expectations, 1)):
        counts.update(eigensolves=0, eigvalsh=0, evaluations=0, gram=0)
        res = solve(prob)
        assert res.status == CONVERGED and res.iterations > 0
        assert counts["gram"] == grams
        assert counts["eigvalsh"] == 0
        assert counts["eigensolves"] == counts["evaluations"] > res.iterations
        counts["eigensolves"] = 0
        rep = verify(res, prob)
        assert rep.ok
        assert counts["eigensolves"] == 1


def test_result_invariants_on_boundary():
    # cap crossing: residual stays large while theta grows
    mp = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    res = solve_marginals(mp)
    assert res.status == BOUNDARY
    assert np.abs(res.theta).max() > solver.THETA_CAP or "saturated" in res.message


def count_evaluations(monkeypatch):
    """Counts `gibbs` calls: all of them under "evaluations", and those of
    each dimension under that dimension (a missing key reads 0)."""
    counts = collections.Counter()
    gibbs = ObservableSet.gibbs

    def counted(self, theta):
        counts["evaluations"] += 1
        counts[self.dim] += 1
        return gibbs(self, theta)

    monkeypatch.setattr(ObservableSet, "gibbs", counted)
    return counts


def ising_problem(n, k, beta=1.0):
    """Targets of exp(-beta H)/Z, H = sum of [Z_iZ_i+1, X_i, Z_i] with
    uniform[-1, 1] couplings from the stream [k, 2, 9]."""
    labels = [f"Z{i} Z{i + 1}" for i in range(n - 1)]
    labels += [f"X{i}" for i in range(n)] + [f"Z{i}" for i in range(n)]
    strings = [pauli.parse_label(lbl, n) for lbl in labels]
    coeffs = np.random.default_rng([k, 2, 9]).uniform(-1, 1, size=len(strings))
    obset = ObservableSet(strings, dim=1 << n, n=n)
    targets = obset.expectations(obset.gibbs(-beta * coeffs).rho)
    return ExpectationProblem(tuple(strings), targets, dim=1 << n, n=n)


@pytest.mark.parametrize("n,k", [(4, 0), (6, 13), (8, 0)])
def test_kikuchi_start_terminates_on_incomplete_supports(n, k):
    # no Ising pair holds all 15 strings, so every region is a region fit;
    # the fit of a pair is a sub-problem whose own subsets include that
    # pair, so it starts at 0 (it recursed into RecursionError), and the
    # start has no closed-form region
    ep = ising_problem(n, k)
    regions = problem.kikuchi_regions(ep.observable_set.subsets)
    theta0, pieces = solver._kikuchi(ep, regions, {}, SolveOptions())
    assert pieces == [] and solver._h0(pieces) is None
    assert np.isfinite(theta0).all()
    assert max_residual(ep, theta0) * 100 < max_residual(ep, np.zeros(ep.size))


@pytest.mark.parametrize("n,k", [(4, 13), (4, 97), (4, 165), (6, 13), (6, 44)])
def test_line_search_decides_at_float_resolution(n, k):
    # near the optimum f stops resolving |g|^2 and Armijo rejected every
    # step: these stalled just above tol until the iteration budget ran out
    assert ising_problem(5, k).observable_set.subsets == ((0, 1), (1, 2), (2, 3), (3, 4))
    res = solve_expectations(ising_problem(n, k), SolveOptions(max_iter=100))
    assert res.status == CONVERGED, (res.status, res.max_residual)
    assert res.max_residual <= 1e-8


def test_zz_mixture_chain_reaches_boundary():
    # (|00000><00000| + |11111><11111|)/2: every pair marginal is singular,
    # so no Gibbs state matches; the solve used to end IterationLimit
    zz = np.zeros((4, 4), dtype=complex)
    zz[0, 0] = zz[3, 3] = 0.5
    mp = MarginalProblem(5, tuple(((i, i + 1), zz) for i in range(4)))
    res = solve_marginals(mp, SolveOptions(max_iter=200))
    assert res.status == BOUNDARY and res.iterations < 200


def test_zz_mixture_gradient_underflow_ends_at_saturation():
    # n = 3: f is flat at float resolution from iteration 48 on, and the
    # step accepted there leaves it where it was, so the saturation exit
    # ends the solve (without that exit it goes on until the gradient
    # underflows to exact zero at iteration 55 and the line search refuses
    # the zero direction; `test_armijo_refuses_a_zero_direction` keeps
    # that path).  Both iterations are round-off artifacts: with the
    # per-string trace and sum tables they were 37 (residual 2.209e-09)
    # and 63
    zz = np.zeros((4, 4), dtype=complex)
    zz[0, 0] = zz[3, 3] = 0.5
    mp = MarginalProblem(3, tuple(((i, i + 1), zz) for i in range(2)))
    res = solve_marginals(mp, SolveOptions(max_iter=200))
    assert res.status == BOUNDARY
    assert res.iterations == 48
    assert res.message == (
        "objective saturated at float resolution while chasing an extreme target "
        "(residual 3.553e-15)"
    )


def test_armijo_refuses_a_zero_direction():
    # a gradient that underflows to exact zero gives a zero direction:
    # no descent, so the line search returns None without an evaluation
    calls = []

    def evaluate(theta):
        calls.append(theta)
        return 0.0, np.zeros_like(theta), None

    theta = np.array([3.0, -1.0])
    assert solver._armijo(theta, 0.0, np.zeros(2), np.zeros(2), evaluate) is None
    assert calls == []


@pytest.mark.parametrize(
    "n, diagonal", [(3, (0, 0.5, 0.5, 0)), (5, (0, 0.5, 0.5, 0)), (6, (0.3, 0, 0, 0.7))]
)
def test_saturated_extreme_chain_ends_at_boundary(n, diagonal, monkeypatch):
    # (|01><01| + |10><10|)/2 and diag(0.3, 0, 0, 0.7) on every pair: some
    # targets are extreme.  Once f was flat at float resolution the
    # approximate Wolfe test kept accepting steps that left f unchanged,
    # and these solves ended IterationLimit after 200 iterations (up to
    # 539 evaluations)
    rho = np.diag(diagonal).astype(complex)
    mp = MarginalProblem(n, tuple(((i, i + 1), rho) for i in range(n - 1)))
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp, SolveOptions(max_iter=200))
    assert res.status == BOUNDARY, (res.status, res.message)
    assert res.message.startswith("objective saturated at float resolution")
    assert res.iterations <= 60
    assert counts["evaluations"] <= 120


def test_armijo_refuses_a_null_step():
    # step * direction is below half an ulp of theta: every trial point
    # rounds back to theta, f is unchanged and Armijo's bound rounds to f.
    # The step used to pass, freezing theta for the rest of the budget.
    calls = []

    def evaluate(theta):
        calls.append(theta)
        return float(theta @ theta), 2 * theta, None

    theta = np.array([1.0, -2.0])
    f, grad, _ = evaluate(theta)
    calls.clear()
    assert solver._armijo(theta, f, grad, -1e-20 * grad, evaluate) is None
    assert calls == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_product_chain_reaches_boundary(n, monkeypatch):
    # |00><00| on every pair: every target is extreme and the optimum is
    # at infinity.  Once theta stopped moving in floating point the solve
    # accepted null steps until the budget ran out (n = 4, 5, 6 ended
    # IterationLimit after 300 iterations and 11,771-12,936 evaluations).
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    mp = MarginalProblem(n, tuple(((i, i + 1), p00) for i in range(n - 1)))
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp, SolveOptions(max_iter=300))
    assert res.status == BOUNDARY, (res.status, res.message)
    assert res.iterations <= 60
    assert counts["evaluations"] <= 300


def test_memory_reset_recovers_a_stalled_ising_fit():
    # beta = 3: the L-BFGS direction stopped moving theta; clearing the
    # memory and going on from H_0 converges (this ran the full budget,
    # 8,357 evaluations, ending IterationLimit)
    res = solve_expectations(ising_problem(3, 13, beta=3.0), SolveOptions(max_iter=300))
    assert res.status == CONVERGED, (res.status, res.max_residual)
    assert res.max_residual <= 1e-8


def test_line_search_stall_ends_the_solve():
    # below what f and theta resolve at this beta, neither the memory nor
    # H_0 moves theta: the solve says so instead of using up the budget
    res = solve_expectations(
        ising_problem(3, 13, beta=3.0), SolveOptions(grad_tol=1e-11, max_iter=300)
    )
    assert res.status == ITERATION_LIMIT
    assert res.message == "line search stalled"
    assert res.iterations <= 150
    assert len(res.trace) == res.iterations


def commuting_chain(n, rng):
    """Marginals of exp(H)/Z for H = sum a_i Z_i + sum b_i Z_i Z_i+1, a
    commuting Markov chain."""
    labels = [f"Z{i}" for i in range(n)] + [f"Z{i} Z{i + 1}" for i in range(n - 1)]
    strings = [pauli.parse_label(lbl, n) for lbl in labels]
    eta = ObservableSet(strings, dim=1 << n, n=n).gibbs(rng.uniform(-1, 1, len(strings))).rho
    pairs = [(i, i + 1) for i in range(n - 1)]
    return MarginalProblem(n, tuple((s, linalg.partial_trace(eta, n, s)) for s in pairs))


def test_warm_start_is_exact_on_commuting_markov_chain(monkeypatch):
    n = 5
    mp = commuting_chain(n, np.random.default_rng(50))
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED
    assert res.iterations == 0 and counts["evaluations"] == 1
    # the region eigensolves are 2^k x 2^k; the one d x d is the evaluation
    assert shapes.count(1 << n) == 1
    assert max(s for s in shapes if s != 1 << n) == 4


def disjoint_pairs(rng):
    return random_marginal_instance(rng, 4, ((0, 1), (2, 3)))[0]


def product_marginals(rng):
    states = []
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        states.append(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    return MarginalProblem(3, tuple(((q,), rho) for q, rho in enumerate(states)))


@pytest.mark.parametrize("build", [disjoint_pairs, product_marginals])
def test_preconditioner_is_exact_inverse_hessian(build):
    # no overlaps: theta0 is the optimum, the Hessian there is block
    # diagonal by region, and each block's inverse is D log at rho_R
    mp = build(np.random.default_rng(51))
    ep = reduce_to_expectations(mp)
    start = marginal_start(ep)
    hess = reference.hessian(ep.observable_set, start.theta0)
    product = np.column_stack([start.apply(col) for col in hess.T])
    assert np.abs(product - np.eye(ep.size)).max() < 1e-10


@pytest.mark.parametrize("n,subsets", [
    (4, ((0, 1, 2), (1, 2), (1, 2), (0, 1, 2), (3,))),  # nested and repeated
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),  # the ring below
    (7, ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6))),  # 5-qubit windows sharing 3
])
def test_marginal_start_matches_host_partial_trace_reference(n, subsets):
    # the start reads rho_R from the reduced targets; the reference reads
    # it from the first constraint holding R, by partial trace
    mp, _ = random_marginal_instance(np.random.default_rng(61), n, subsets, beta=2.0)
    ep = reduce_to_expectations(mp)
    start = marginal_start(ep)
    theta0, apply = reference.marginal_start(mp, ep)
    assert np.abs(start.theta0 - theta0).max() <= 1e-12
    for g in np.random.default_rng(62).normal(size=(2, ep.size)):
        want = apply(g)
        assert np.abs(start.apply(g) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_singular_marginals_keep_the_cold_start():
    # Bell pairs have no positive-definite marginal, so log rho_R is
    # undefined: the solve starts at 0 with gamma I, as it always did
    mp = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    ep = reduce_to_expectations(mp)
    assert marginal_start(ep) is None
    res = solve_marginals(mp)
    cold = solver._minimize(ep, None)
    assert res.status == cold.status == BOUNDARY
    assert res.iterations == 5
    assert res.message == "max |theta_i| * half-width(T_i) exceeded cap 50.0 with residual 3.333e-01"
    assert np.array_equal(res.theta, cold.theta)
    assert np.abs(res.theta).max() == pytest.approx(2480.1904201629577, rel=1e-9)


def test_singlet_marginals_take_the_cold_start(monkeypatch):
    # a singlet pair marginal has eigenvalues of 5.6e-17 where the exact
    # ones are 0; taken as positive they gave log1p(-1) in the start's
    # kernel, a NaN H_0 and 60 NaN trial points after one iteration, with
    # RuntimeWarnings (which pytest turns into errors)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    singlet = np.outer(psi, psi).astype(complex)
    triangle = MarginalProblem(3, (((0, 1), singlet), ((1, 2), singlet), ((0, 2), singlet)))
    pair = MarginalProblem(2, (((0, 1), singlet),))
    evaluations = []
    for mp, kind in ((triangle, "exceeded cap"), (pair, "objective saturated at float resolution")):
        ep = reduce_to_expectations(mp)
        assert marginal_start(ep) is None
        counts = count_evaluations(monkeypatch)
        res = solve_marginals(mp)
        evaluations.append((counts["evaluations"], res.iterations))
        assert res.status == BOUNDARY and kind in res.message, res.message
        assert np.array_equal(res.theta, solver._minimize(ep, None).theta)
    # the triangle has no state and reaches the theta cap; the pure pair
    # state is met only at infinity, so its steps run until f saturates,
    # each taken at its first trial point, as from any cold start
    assert evaluations == [(4, 4), (48, 47)]


def test_warm_start_halves_ring_evaluations(monkeypatch):
    # a loopy region graph: c_R = +1 per pair, -1 per qubit.  Without the
    # warm start and preconditioner this solve took 27 evaluations
    # (23 iterations).
    ring = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))
    mp, _ = random_marginal_instance(np.random.default_rng(60), 6, ring, beta=4.0)
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED
    assert counts["evaluations"] <= 27 // 2


def test_solve_and_verify_hold_one_state_at_a_time():
    # n = 8 pair chain at beta = 4 (d = 256): the solver drops each
    # iterate's state before the line search builds the next, and gibbs
    # assembles rho in place, so neither command's traced peak reaches
    # 3.5 d x d complex arrays (5.2 and 4.2 when two states overlapped)
    n = 8
    subsets = [(i, i + 1) for i in range(n - 1)]
    _, eta = generate_thermal_marginals(n, subsets, 4.0, 0)
    mp = MarginalProblem(n, tuple((s, linalg.partial_trace(eta, n, s)) for s in subsets))
    unit = (1 << n) ** 2 * 16

    def traced_peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    # one untraced run first: a numpy module imported lazily on its first
    # use allocates once, and that is not a state the call holds
    verify(solve_marginals(mp), mp)
    result, solve_peak = traced_peak(lambda: solve_marginals(mp))
    report, verify_peak = traced_peak(lambda: verify(result, mp))
    assert result.status == CONVERGED and report.ok
    assert solve_peak <= 3.5 and verify_peak <= 3.5, (solve_peak, verify_peak)


def level0(ep):
    """The constraint-level start: the Kikuchi sum over the constraints."""
    regions = problem.kikuchi_regions(ep.observable_set.subsets)
    theta0, pieces = solver._kikuchi(ep, regions, {}, SolveOptions())
    return solver.MarginalStart(theta0, solver._h0(pieces))


def grow(sets, subsets):
    """One level up `marginal_start`'s ladder: each set with every
    constraint overlapping it."""
    constraints = [set(c) for c in subsets]
    return [set().union(*(c for c in constraints if set(s) & c)) for s in sets]


def neighbourhoods(subsets):
    """Level 1: each constraint with every constraint overlapping it."""
    return grow(subsets, subsets)


def pair_chain(n, seed, beta):
    pairs = tuple((i, i + 1) for i in range(n - 1))
    return random_marginal_instance(np.random.default_rng([seed, 77]), n, pairs, beta)[0]


def max_residual(ep, theta):
    return float(np.abs(ep.observable_set.gibbs(theta).expectations - ep.targets).max())


def test_neighbourhood_start_fits_pair_chains(monkeypatch):
    # n = 8: the cost rule admits levels 1 and 2, so theta0 sums region
    # fits on the 6- and 5-qubit windows; from the constraint-level
    # theta0 this solve took 4 d x d evaluations
    mp = pair_chain(8, 0, 1.0)
    ep = reduce_to_expectations(mp)
    closed = level0(ep)
    start = marginal_start(ep)
    assert max_residual(ep, start.theta0) * 100 <= max_residual(ep, closed.theta0)
    for g in np.random.default_rng(63).normal(size=(2, ep.size)):
        assert np.array_equal(start.apply(g), closed.apply(g))  # H_0 is unchanged
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED
    assert counts[1 << 8] <= 2
    assert counts["evaluations"] > counts[1 << 8]  # the region fits


def test_neighbourhood_start_is_exact_on_commuting_markov_chain(monkeypatch):
    mp = commuting_chain(8, np.random.default_rng(52))
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED
    assert res.iterations == 0 and counts[1 << 8] == 1


@pytest.mark.parametrize("n,subsets", [
    (7, tuple((i, i + 1) for i in range(6))),  # 7 fits cost more than two d = 128 evaluations
    (7, ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6))),  # 5-qubit windows sharing 3: level 1 is the register
    (6, tuple((0, i) for i in range(1, 6))),  # a star: every neighbourhood is the register
])
def test_constraint_start_where_neighbourhoods_leave_too_few_qubits(n, subsets, monkeypatch):
    mp, _ = random_marginal_instance(np.random.default_rng(64), n, subsets)
    ep = reduce_to_expectations(mp)
    assert solver._ladder(ep) == []  # the cost rule admits no level
    counts = count_evaluations(monkeypatch)
    start = marginal_start(ep)
    assert counts["evaluations"] == 0  # no region fit
    assert np.array_equal(start.theta0, level0(ep).theta0)


def test_unconverged_region_fit_keeps_the_constraint_start(monkeypatch):
    ep = reduce_to_expectations(pair_chain(8, 1, 1.0))
    minimize = solver._minimize
    fits = []

    def limited(*args):
        fits.append(args[0].n)
        return dataclasses.replace(minimize(*args), status=ITERATION_LIMIT)

    monkeypatch.setattr(solver, "_minimize", limited)
    start = marginal_start(ep)
    # the first region fit ends each level, top down: level 2's 6-qubit
    # window, then level 1's 4-qubit window
    assert fits == [6, 4]
    assert np.array_equal(start.theta0, level0(ep).theta0)


CHAIN_AND_PAIR = tuple((i, i + 1) for i in range(5)) + ((7, 8),)  # qubit 6 is free


@pytest.mark.parametrize("n,subsets", [
    (4, ((0, 1, 2), (1, 2), (1, 2), (0, 1, 2), (3,))),  # nested and repeated
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),  # a ring
    (7, ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6))),  # 5-qubit windows sharing 3
    (6, tuple((0, i) for i in range(1, 6))),  # a star
    (7, tuple((i, i + 1) for i in range(6))),
    (8, tuple((i, i + 1) for i in range(7))),
    (9, tuple((i, i + 1) for i in range(8))),
    (9, CHAIN_AND_PAIR),
])
def test_a_region_is_closed_form_exactly_when_a_constraint_holds_it(n, subsets):
    # the start tests string completeness, never which constraint holds
    # R; on a reduction the two agree at both levels
    mp, _ = random_marginal_instance(np.random.default_rng(65), n, subsets)
    ep = reduce_to_expectations(mp)
    sets = subsets
    for _ in range(3):  # levels 0, 1 and 2
        for qubits, _ in problem.kikuchi_regions(sets):
            complete = len(solver._region_rows(ep, qubits)) == 4 ** len(qubits) - 1
            assert complete == any(set(s) >= set(qubits) for s in subsets), (sets, qubits)
        sets = grow(sets, subsets)


def test_neighbourhood_level_takes_the_closed_form_on_a_lone_constraint(monkeypatch):
    # the pair (7, 8) overlaps no other constraint, so it is its own
    # neighbourhood (c = 1) and takes log rho_R at every level
    n = 9
    _, eta = generate_thermal_marginals(n, CHAIN_AND_PAIR, 1.0, 3)
    mp = MarginalProblem(n, tuple((s, linalg.partial_trace(eta, n, s)) for s in CHAIN_AND_PAIR))
    ep = reduce_to_expectations(mp)
    assert len(solver._ladder(ep)) == 2
    assert all(((7, 8), 1) in regions for regions in solver._ladder(ep))
    rows = solver._region_rows(ep, (7, 8))
    assert len(rows) == 15
    assert np.array_equal(marginal_start(ep).theta0[rows], level0(ep).theta0[rows])
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED and res.iterations == 0
    assert counts[1 << n] == 1


def test_singular_marginal_is_cold_before_any_region_fit(monkeypatch):
    # the ZZ mixture's pair marginals are singular: no start, no gibbs call
    zz = np.zeros((4, 4), dtype=complex)
    zz[0, 0] = zz[3, 3] = 0.5
    ep = reduce_to_expectations(MarginalProblem(8, tuple(((i, i + 1), zz) for i in range(7))))
    counts = count_evaluations(monkeypatch)
    assert marginal_start(ep) is None
    assert counts["evaluations"] == 0


def test_region_fits_without_closed_form_regions_use_gamma_i(monkeypatch):
    # an Ising chain's neighbourhoods are windows whose sub-problems hold
    # incomplete pairs only, so their starts have no closed-form region
    # and an `apply` that maps every gradient to 0: each fit runs with
    # H_0 = gamma I instead
    ep = ising_problem(8, 0)
    minimize = solver._minimize
    h0s = []

    def spy(sub, options, theta0=None, h0=None):
        h0s.append(h0)
        return minimize(sub, options, theta0, h0)

    monkeypatch.setattr(solver, "_minimize", spy)
    regions = problem.kikuchi_regions(neighbourhoods(ep.observable_set.subsets))
    theta0, _ = solver._kikuchi(ep, regions, {}, SolveOptions())
    assert h0s and all(h0 is None for h0 in h0s)
    assert max_residual(ep, theta0) < 1e-6


@pytest.mark.parametrize("value", [np.nan, 2 * solver.THETA_CAP])
def test_neighbourhood_theta0_off_the_cap_keeps_the_constraint_start(value, monkeypatch):
    # every string sits in regions whose counting numbers sum to 1, so
    # region fits that all return `value` give theta0 = value
    ep = reduce_to_expectations(pair_chain(8, 0, 1.0))
    closed = level0(ep)
    assert not np.array_equal(marginal_start(ep).theta0, closed.theta0)
    minimize = solver._minimize

    def fit_to_value(sub, *rest):
        return dataclasses.replace(minimize(sub, *rest), theta=np.full(sub.size, value))

    monkeypatch.setattr(solver, "_minimize", fit_to_value)
    assert np.array_equal(marginal_start(ep).theta0, closed.theta0)


def test_region_fit_without_a_start_keeps_the_constraint_start(monkeypatch):
    ep = reduce_to_expectations(pair_chain(8, 0, 1.0))
    closed = level0(ep)
    kikuchi = solver._kikuchi
    subs = []

    def no_sub_start(sub, regions, *rest):
        if sub.n < ep.n:
            subs.append(sub.n)
            return None
        return kikuchi(sub, regions, *rest)

    monkeypatch.setattr(solver, "_kikuchi", no_sub_start)
    counts = count_evaluations(monkeypatch)
    assert np.array_equal(marginal_start(ep).theta0, closed.theta0)
    assert subs == [6, 4] and counts["evaluations"] == 0  # the first region fit ends each level


@pytest.mark.parametrize("seed", [6, 9])
def test_six_qubit_windows_clear_the_knife_edge(seed, monkeypatch):
    # n = 9, beta = 1: the 4-qubit windows fitted to the caller's tol left
    # theta0 residuals of 1.27e-8 and 1.20e-8 on these seeds, over the
    # 1e-8 exit, so the solve took a second d = 512 evaluation
    mp = pair_chain(9, seed, 1.0)
    ep = reduce_to_expectations(mp)
    assert max_residual(ep, marginal_start(ep).theta0) <= 1e-10
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED and res.iterations == 0
    assert counts[1 << 9] == 1


def test_ladder_ends_when_every_component_is_covered(monkeypatch):
    # two 4-qubit pair chains with qubit 4 between them: level 1 is the
    # two chains, and growth stops there; level 2's sets differ from
    # level 1's ({0, 1, 2} grows to {0, 1, 2, 3}) but not its regions
    subsets = ((0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8))
    mp, _ = random_marginal_instance(np.random.default_rng(66), 9, subsets)
    ep = reduce_to_expectations(mp)
    assert solver._ladder(ep) == [[((0, 1, 2, 3), 1), ((5, 6, 7, 8), 1)]]
    kikuchi = solver._kikuchi
    levels = []

    def spy(sub, regions, *rest):
        start = kikuchi(sub, regions, *rest)
        if sub is ep:
            levels.append((regions, start))
        return start

    monkeypatch.setattr(solver, "_kikuchi", spy)
    start = marginal_start(ep)
    assert [regions for regions, _ in levels][1:] == solver._ladder(ep)
    assert np.array_equal(start.theta0, levels[-1][1][0])
    # each chain's fit is its part of the max-entropy state
    counts = count_evaluations(monkeypatch)
    res = solve_marginals(mp)
    assert res.status == CONVERGED and res.iterations == 0 and counts[1 << 9] == 1


@pytest.mark.parametrize("n,subsets,sizes", [
    (7, tuple((i, i + 1) for i in range(6)), []),
    (7, ((0, 1), (1, 2), (3, 4), (5, 6)), [[3, 2]]),  # one fit, {0, 1, 2}
    (7, ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6)), []),
    (8, tuple((i, i + 1) for i in range(7)), [[4, 3], [6, 5]]),
    (9, tuple((i, i + 1) for i in range(8)), [[4, 3], [6, 5]]),
    (10, tuple((i, i + 1) for i in range(9)), [[4, 3], [6, 5], [8, 7]]),
])
def test_cost_rule_admits_the_levels_whose_fits_save_evaluations(n, subsets, sizes):
    # the rule's calibration points (README): the region sizes of each
    # admitted level, lowest level first
    mp = MarginalProblem(n, tuple((s, np.eye(1 << len(s)) / (1 << len(s))) for s in subsets))
    ladder = solver._ladder(reduce_to_expectations(mp))
    assert [sorted({len(q) for q, _ in regions}, reverse=True) for regions in ladder] == sizes


@pytest.mark.parametrize("grad_tol,fit_tol", [(1e-8, 1e-11), (1e-13, 1e-14), (5e-324, 1e-14)])
def test_region_fits_stop_past_the_outer_tolerance(grad_tol, fit_tol, monkeypatch):
    # theta0 is limited by the windows' size, not by where their fits
    # stopped; a fit is never asked for less than 1e-14, which it may not
    # reach, nor run more than 100 iterations
    ep = reduce_to_expectations(pair_chain(8, 0, 1.0))
    minimize = solver._minimize
    options = []

    def spy(sub, opts, *rest):
        options.append(opts)
        return minimize(sub, opts, *rest)

    monkeypatch.setattr(solver, "_minimize", spy)
    start = marginal_start(ep, SolveOptions(grad_tol=grad_tol))
    assert options and all(o.max_iter == 100 for o in options)
    assert all(o.grad_tol == pytest.approx(fit_tol, rel=1e-12) for o in options)
    assert max_residual(ep, start.theta0) <= 1e-10


def test_a_region_fit_is_a_solve(monkeypatch):
    # an n = 10 pair chain's 8-qubit window is fitted as a marginal solve
    # of its own: its start reads its sub-problem's ladder (4- and then
    # 6-qubit windows), top down, and every fit at every depth uses the
    # fit options (its sub-problem's start was the constraint level alone).
    # The chain is an 8-qubit thermal chain and two maximally mixed qubits
    pairs = tuple((i, i + 1) for i in range(7))
    chain8, eta = random_marginal_instance(np.random.default_rng([0, 77]), 8, pairs)
    rho7 = linalg.partial_trace(eta, 8, (7,))
    tail = (((7, 8), np.kron(rho7, np.eye(2) / 2)), ((8, 9), np.eye(4) / 4))
    ep = reduce_to_expectations(MarginalProblem(10, chain8.constraints + tail))
    kikuchi, ladder, minimize = solver._kikuchi, solver._ladder, solver._minimize
    levels, ladders, fits = [], {}, []

    def sizes(regions):
        return sorted({len(q) for q, _ in regions}, reverse=True)

    def kikuchi_spy(sub, regions, *rest):
        levels.append((sub.n, sizes(regions)))
        return kikuchi(sub, regions, *rest)

    def ladder_spy(sub):
        ladders[sub.n] = [sizes(regions) for regions in ladder(sub)]
        return ladder(sub)

    def minimize_spy(sub, options, *rest):
        fits.append((sub.n, options.grad_tol, options.max_iter))
        return minimize(sub, options, *rest)

    monkeypatch.setattr(solver, "_kikuchi", kikuchi_spy)
    monkeypatch.setattr(solver, "_ladder", ladder_spy)
    monkeypatch.setattr(solver, "_minimize", minimize_spy)
    theta0, pieces = solver._kikuchi(ep, [(tuple(range(8)), 1)], {}, SolveOptions())
    assert ladders[8] == [[4, 3], [6, 5]]
    assert [s for n, s in levels if n == 8] == [[2, 1], [6, 5]]  # level 0, then 2
    assert {n for n, _, _ in fits} == {5, 6, 8}
    assert all(tol == pytest.approx(1e-11) and cap == 100 for _, tol, cap in fits)
    assert pieces == [] and np.isfinite(theta0).all()
