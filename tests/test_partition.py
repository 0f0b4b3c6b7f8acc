"""Log-partition function: closed forms, calculus, convex geometry."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from gibbsfit import linalg, pauli
from gibbsfit.partition import ObservableSet
from gibbsfit.problem import MarginalProblem, reduce_to_expectations

Z = np.diag([1.0, -1.0]).astype(complex)


def rand_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def rand_string(rng, n):
    letters = []
    while not letters:
        letters = [(q, "XYZ"[rng.integers(0, 3)]) for q in range(n) if rng.random() < 0.6]
    return pauli.PauliString(n, tuple(letters))


def mixed_observable_set(rng, n, r):
    """r observables, a few of them dense matrices."""
    r = min(r, (1 << (2 * n)) - 1)  # only 4^n - 1 distinct strings exist
    obs = []
    seen = set()
    while len(obs) < r:
        p = rand_string(rng, n)
        if p in seen:
            continue
        seen.add(p)
        obs.append(p)
    if r >= 3:
        # replace the tail with dense copies plus a generic Hermitian
        obs[-1] = rand_hermitian(rng, 1 << n)
        obs[-2] = pauli.materialize(obs[-2])
    return ObservableSet(obs, dim=1 << n, n=n)


def test_psi_closed_forms():
    zset = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
    assert zset.log_partition(np.array([1.0])) == pytest.approx(1.1269280110429725, abs=1e-14)
    for th in (-2.5, 0.0, 0.4):
        assert zset.log_partition(np.array([th])) == pytest.approx(
            np.log(2 * np.cosh(th)), abs=1e-13
        )
    # disjoint single-qubit terms factorize
    pair = ObservableSet(
        [pauli.parse_label("Z0", 2), pauli.parse_label("Z1", 2)], dim=4, n=2
    )
    a, b = 0.7, -1.2
    assert pair.log_partition(np.array([a, b])) == pytest.approx(
        np.log(2 * np.cosh(a)) + np.log(2 * np.cosh(b)), abs=1e-13
    )


def test_gibbs_at_zero_is_maximally_mixed():
    for n in (1, 2, 3):
        obs = ObservableSet(list(pauli.strings_on(tuple(range(n)), n))[: 2 * n], dim=1 << n, n=n)
        state = obs.gibbs(np.zeros(obs.size))
        assert np.array_equal(state.rho, np.eye(1 << n) / (1 << n))
        assert state.psi == pytest.approx(n * np.log(2), abs=1e-14)
        assert np.abs(state.expectations).max() == 0.0


def test_gibbs_single_qubit_tanh():
    obs = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
    th = np.arctanh(-0.6)
    state = obs.gibbs(np.array([th]))
    assert state.expectations[0] == pytest.approx(-0.6, abs=1e-14)
    assert linalg.trace_distance(state.rho, np.diag([0.2, 0.8])) < 1e-14


def test_state_spectrum_matches_rho():
    # entropy and min-eigenvalue come from the Gibbs weights, not from rho
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        oset = mixed_observable_set(rng, n, int(rng.integers(2, 6)))
        state = oset.gibbs(rng.normal(size=oset.size, scale=2.0))
        w = np.linalg.eigvalsh(state.rho)
        assert np.all(np.diff(state.spectrum) >= 0)
        assert np.abs(state.spectrum - w).max() < 1e-14
        assert state.spectrum[0] > 0
        assert state.entropy_bits == pytest.approx(linalg.von_neumann_entropy(state.rho), abs=1e-12)


def test_gradient_closed_form_and_fd():
    obs = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
    for th in (-1.5, 0.0, 0.9):
        g = obs.gibbs(np.array([th])).expectations
        assert g[0] == pytest.approx(np.tanh(th), abs=1e-14)

    rng = np.random.default_rng(30)
    eps = 1e-6
    for _ in range(15):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 7))
        oset = mixed_observable_set(rng, n, r)
        theta = rng.normal(size=oset.size)
        g = oset.gibbs(theta).expectations
        fd = np.empty_like(g)
        for j in range(oset.size):
            e = np.zeros(oset.size)
            e[j] = eps
            fd[j] = (oset.log_partition(theta + e) - oset.log_partition(theta - e)) / (2 * eps)
        assert np.abs(g - fd).max() < 1e-6 * max(1.0, np.abs(g).max())


def test_hessian_single_qubit_sech_squared():
    obs = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
    for th in (-3.0, -0.4, 0.0, 1.1, 2.6):
        h = obs.hessian(np.array([th]))[0, 0]
        assert h == pytest.approx(1.0 / np.cosh(th) ** 2, abs=1e-8)


def test_hessian_at_zero_is_identity_for_distinct_strings():
    strings = list(pauli.strings_on((0, 1), 2))[:6]
    obs = ObservableSet(strings, dim=4, n=2)
    h = obs.hessian(np.zeros(6))
    assert np.abs(h - np.eye(6)).max() < 1e-14


def test_hessian_matches_classical_covariance():
    # diagonal observables reduce to a classical spin model
    obs = ObservableSet(
        [
            pauli.parse_label("Z0", 2),
            pauli.parse_label("Z1", 2),
            pauli.parse_label("Z0 Z1", 2),
        ],
        dim=4,
        n=2,
    )
    theta = np.array([0.3, -0.8, 0.5])
    vals = []
    energies = []
    for s0, s1 in itertools.product((1, -1), repeat=2):
        vals.append((s0, s1, s0 * s1))
        energies.append(theta @ np.array(vals[-1], dtype=float))
    p = np.exp(energies - np.max(energies))
    p /= p.sum()
    vals = np.array(vals, dtype=float)
    mean = p @ vals
    cov = (vals - mean).T @ np.diag(p) @ (vals - mean)
    assert np.abs(obs.hessian(theta) - cov).max() < 1e-12


def test_hessian_symmetric_psd_and_fd():
    rng = np.random.default_rng(31)
    eps = 1e-5
    for _ in range(10):
        n = int(rng.integers(1, 4))
        oset = mixed_observable_set(rng, n, int(rng.integers(2, 6)))
        theta = rng.normal(size=oset.size)
        h = oset.hessian(theta)
        assert np.abs(h - h.T).max() < 1e-12
        assert np.linalg.eigvalsh(h).min() > -1e-9
        fd = np.empty_like(h)
        for j in range(oset.size):
            e = np.zeros(oset.size)
            e[j] = eps
            gp = oset.gibbs(theta + e).expectations
            gm = oset.gibbs(theta - e).expectations
            fd[:, j] = (gp - gm) / (2 * eps)
        assert np.abs(h - fd).max() < 1e-5


def test_hessian_memory_does_not_grow_with_r():
    # nearest-neighbour chain, n = 6: r = 63 observables, d = 64; the
    # Hessian is built column by column, never as r x d x d tensors
    n = 6
    strings = {}
    for i in range(n - 1):
        for p in pauli.strings_on((i, i + 1), n):
            strings.setdefault(p, None)
    oset = ObservableSet(list(strings), dim=1 << n, n=n)
    assert oset.size == 63
    theta = np.random.default_rng(37).normal(size=oset.size, scale=0.3)
    tracemalloc.start()
    try:
        oset.hessian(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * oset.dim**2 * 16


def test_observable_set_leaves_no_tables_behind():
    # the Pauli tables belong to the set: nothing outlives it
    n = 8
    rng = np.random.default_rng(38)
    strings = {}
    while len(strings) < 300:
        strings.setdefault(rand_string(rng, n), None)
    strings = list(strings)
    tracemalloc.start()
    try:
        oset = ObservableSet(strings, dim=1 << n, n=n)
        assert oset.size == 300
        del oset
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_observable_set_holds_one_index():
    # r strings keep their phases (16 B an entry) and one r x d gather
    # index (8 B) that both H and <T> read, no second layout of it
    n, r = 8, 300
    codes = np.random.default_rng(42).integers(0, 4, size=(r, n))
    tracemalloc.start()
    try:
        oset = ObservableSet(codes, dim=1 << n, n=n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert oset.size == r
    assert held <= r * (1 << n) * 24 + 64 * 1024


def test_hamiltonian_is_its_definition_bitwise():
    # H(theta) = sum_j theta_j T_j summed from zeros, the strings in order
    # and then the dense observables: each entry of the built H adds the
    # same terms in the same order, so it is bitwise the reference
    rng = np.random.default_rng(43)
    codes = rng.integers(0, 4, size=(60, 5))
    codes = codes[codes.any(axis=1)]
    n = 7
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    sigma = a @ a.conj().T / np.trace(a @ a.conj().T)
    subsets = ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6))
    mp = MarginalProblem(n, tuple((s, linalg.partial_trace(sigma, n, s)) for s in subsets))
    sets = (
        mixed_observable_set(rng, 4, 30),
        ObservableSet(codes, dim=1 << 5, n=5),
        reduce_to_expectations(mp).observable_set,
    )
    for oset in sets:
        theta = rng.normal(size=oset.size)
        obs = oset.observables
        want = np.zeros((oset.dim, oset.dim), dtype=np.complex128)
        for i in oset.pauli_index:
            want += theta[i] * pauli.materialize(obs[i])
        for i in oset.matrix_index:
            want += theta[i] * obs[i]
        assert oset.hamiltonian(theta).tobytes() == want.tobytes(), oset.size


def test_expectations_flat_gather_matches_2d_gather_bitwise():
    # <T> reads rho.ravel() at a * d + perm_a; the 2-D gather
    # rho[a, perm_a] it replaced must give bitwise the same values, also
    # on the non-Hermitian matrices the Hessian path hands it
    rng = np.random.default_rng(39)
    for n, r in ((3, 12), (5, 40), (6, 60)):
        d = 1 << n
        oset = mixed_observable_set(rng, n, r)
        perms, phases = pauli.string_tables(oset.codes)
        for a in (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rand_hermitian(rng, d)):
            want = np.empty(oset.size)
            gathered = a[np.arange(d)[None, :], perms]
            want[oset.pauli_index] = np.einsum("kd,kd->k", phases, gathered).real
            for j, i in enumerate(oset.matrix_index):
                want[i] = np.vdot(oset.matrices[j], a).real
            assert oset.expectations(a).tobytes() == want.tobytes()


def test_midpoint_convexity():
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        oset = mixed_observable_set(rng, n, int(rng.integers(1, 6)))
        a = rng.normal(size=oset.size, scale=2.0)
        b = rng.normal(size=oset.size, scale=2.0)
        mid = oset.log_partition((a + b) / 2)
        avg = 0.5 * (oset.log_partition(a) + oset.log_partition(b))
        assert mid <= avg + 1e-12 * max(1.0, abs(avg))


def test_identity_offsets_leave_state_alone():
    # T_i -> T_i + c_i I keeps rho (and the Hessian); psi moves by theta.c
    rng = np.random.default_rng(33)
    for _ in range(10):
        d = 4
        mats = [rand_hermitian(rng, d) for _ in range(3)]
        offsets = rng.normal(size=3)
        theta = rng.normal(size=3)
        plain = ObservableSet(mats, dim=d)
        shifted = ObservableSet(
            [m + c * np.eye(d) for m, c in zip(mats, offsets)], dim=d
        )
        sa = plain.gibbs(theta)
        sb = shifted.gibbs(theta)
        assert linalg.trace_distance(sa.rho, sb.rho) <= 1e-10
        assert sb.psi - sa.psi == pytest.approx(float(theta @ offsets), abs=1e-9)
        assert np.abs(plain.hessian(theta) - shifted.hessian(theta)).max() < 1e-9


def test_restriction_identity_exact():
    # zero-padding theta over a larger family changes nothing, bit for bit
    strings = list(pauli.strings_on((0, 1), 2))
    full = ObservableSet(strings, dim=4, n=2)
    sub_idx = [0, 4, 9]
    sub = ObservableSet([strings[i] for i in sub_idx], dim=4, n=2)
    rng = np.random.default_rng(34)
    for _ in range(10):
        theta_sub = rng.normal(size=3)
        theta_full = np.zeros(15)
        theta_full[sub_idx] = theta_sub
        assert full.log_partition(theta_full) == sub.log_partition(theta_sub)


def test_coercivity_along_rays():
    # complete feasible instance: translated objective grows along every ray
    rng = np.random.default_rng(35)
    strings = list(pauli.strings_on((0, 1), 2))
    gen = ObservableSet(strings, dim=4, n=2)
    theta_star = rng.uniform(-0.2, 0.2, size=15)
    targets = gen.gibbs(theta_star).expectations

    def translated(theta):
        return gen.log_partition(theta) - theta @ targets

    f0 = translated(np.zeros(15))
    f_min = translated(theta_star)  # gradient vanishes there
    radii = (1.0, 2.0, 4.0, 8.0)
    profiles = []
    for _ in range(50):
        u = rng.normal(size=15)
        u /= np.linalg.norm(u)
        values = [translated(r * u) for r in radii]
        assert values[0] < values[1] < values[2] < values[3]
        assert values[-1] > f0  # far out beats the origin: the min is interior
        profiles.append(values)
    # growth rate: every increment beats the weakest ray's unit-radius gap
    b = min(vals[0] - f_min for vals in profiles)
    assert b > 0
    for vals in profiles:
        for lo, hi, dr in zip(vals, vals[1:], np.diff(radii)):
            assert hi - lo >= b * dr - 1e-9


def test_single_qubit_closed_forms():
    # psi, <Z> and d<Z>/dtheta of exp(theta Z)/Z from one set, along every path
    oset = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
    th = np.array([0.5])
    assert oset.log_partition(th) == pytest.approx(np.log(2 * np.cosh(0.5)), abs=1e-13)
    state = oset.gibbs(th)
    assert state.psi == pytest.approx(np.log(2 * np.cosh(0.5)), abs=1e-13)
    assert state.expectations[0] == pytest.approx(np.tanh(0.5), abs=1e-13)
    assert oset.hessian(th)[0, 0] == pytest.approx(1 / np.cosh(0.5) ** 2, abs=1e-12)


def test_hessian_builds_one_hamiltonian(monkeypatch):
    # each column applies T_j to the eigenvectors directly: H(theta) is the
    # only d x d operator built, for Pauli and dense observables alike
    rng = np.random.default_rng(38)
    oset = mixed_observable_set(rng, 3, 8)
    theta = rng.normal(size=oset.size)
    calls = []
    build = ObservableSet.hamiltonian

    def counted(self, theta):
        calls.append(1)
        return build(self, theta)

    monkeypatch.setattr(ObservableSet, "hamiltonian", counted)
    oset.hessian(theta)
    assert len(calls) == 1
