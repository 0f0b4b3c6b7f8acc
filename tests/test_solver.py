"""Solver behaviour: closed-form fits, boundary handling, certificates."""

import dataclasses

import numpy as np
import pytest

from gibbsfit import linalg, pauli, solver
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
        local = list(pauli.strings_on(tuple(range(len(s))), len(s)))
        for p in local:
            strings.append(pauli.relabel(p, s, n))
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
        perm, phase = pauli.perm_phase(pauli.restrict(p, home))
        locals_[home][perm, np.arange(len(perm))] += coeff * phase
    return locals_


def test_decompose_tie_breaks_to_lowest_indexed_subset():
    subsets = ((0, 1), (1, 2))
    mp, _ = random_marginal_instance(np.random.default_rng(41), 3, subsets)
    ep = reduce_to_expectations(mp)
    theta = np.zeros(ep.size)
    theta[ep.observables.index(pauli.parse_label("Z1", 3))] = 0.7  # on both subsets
    out = decompose_local_terms(theta, ep, subsets)
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
    out = decompose_local_terms(theta, ep, subsets)
    want = per_string_decompose(theta, ep.observables, subsets)
    assert list(out) == list(want) == [(0, 1, 2), (1, 2), (2, 3)]
    for s, block in want.items():
        assert out[s].tobytes() == block.tobytes(), s
    assert out[(0, 1, 2)].any() and out[(2, 3)].any()
    assert not out[(1, 2)].any()  # nested in (0, 1, 2): every string is home there
    with pytest.raises(ValueError):
        decompose_local_terms(theta, ep, subsets[:2])


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
    # optimum, so start at 0 to have a trajectory
    ep_res = solve_marginals(mp, SolveOptions(theta0=np.zeros(63)))
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
        res = solve_expectations(ep, SolveOptions(theta0=theta0))
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
        SolveOptions(theta_cap=0.5)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    for bad in ([np.nan], [0.0, np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="theta0"):
            SolveOptions(theta0=np.array(bad))


def test_theta_cap_is_scale_free():
    # theta* = 1/s; the cap bounds |theta| times T's half-width, which is s
    z = np.diag([1.0, -1.0])
    for s in (1.0, 0.1, 0.01):
        res = solve_expectations(ExpectationProblem.from_matrices([s * z], [s * np.tanh(1.0)]))
        assert res.status == CONVERGED, s
        assert res.theta[0] * s == pytest.approx(1.0, rel=1e-4)


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
    res = solve_marginals(mp, SolveOptions(theta_cap=20.0))
    assert res.status == BOUNDARY
    assert np.abs(res.theta).max() > 20.0 or "saturated" in res.message


def count_evaluations(monkeypatch):
    counts = {"evaluations": 0}
    gibbs = ObservableSet.gibbs

    def counted(self, theta):
        counts["evaluations"] += 1
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


@pytest.mark.parametrize("n,k", [(4, 13), (4, 97), (4, 165), (6, 13), (6, 44)])
def test_line_search_decides_at_float_resolution(n, k):
    # near the optimum f stops resolving |g|^2 and Armijo rejected every
    # step: these stalled just above tol until the iteration budget ran out
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
    # n = 3: the gradient underflows to exact zero at iteration 63.  The
    # direction is then zero, the line search refuses it without an
    # evaluation, and the saturation exit ends the solve there (a separate
    # underflow exit used to, with its own message)
    zz = np.zeros((4, 4), dtype=complex)
    zz[0, 0] = zz[3, 3] = 0.5
    mp = MarginalProblem(3, tuple(((i, i + 1), zz) for i in range(2)))
    res = solve_marginals(mp, SolveOptions(max_iter=200))
    assert res.status == BOUNDARY
    assert res.iterations == 63 and res.trace[-1] == 0.0
    assert res.message == (
        "objective saturated at float resolution while chasing an extreme target "
        "(residual 0.000e+00)"
    )


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
    start = marginal_start(mp, ep, SolveOptions().theta_cap)
    hess = ep.observable_set.hessian(start.theta0)
    product = np.column_stack([start.apply(col) for col in hess.T])
    assert np.abs(product - np.eye(ep.size)).max() < 1e-10


def test_singular_marginals_keep_the_cold_start():
    # Bell pairs have no positive-definite marginal, so log rho_R is
    # undefined: the solve starts at 0 with gamma I, as it always did
    mp = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    ep = reduce_to_expectations(mp)
    assert marginal_start(mp, ep, SolveOptions().theta_cap) is None
    res = solve_marginals(mp)
    cold = solver._minimize(ep, None)
    assert res.status == cold.status == BOUNDARY
    assert res.iterations == 5
    assert res.message == "max |theta_i| * half-width(T_i) exceeded cap 50.0 with residual 3.333e-01"
    assert np.array_equal(res.theta, cold.theta)
    assert np.abs(res.theta).max() == pytest.approx(2480.1904201629577, rel=1e-9)


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
