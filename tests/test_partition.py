"""Log-partition function: closed forms, calculus, convex geometry."""

import gc
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbsfit import linalg, pauli
from gibbsfit.partition import InvalidEntryError, ObservableSet
from gibbsfit.problem import ExpectationProblem, MarginalProblem, reduce_to_expectations
from gibbsfit.solver import decompose_local_terms, verify

import reference

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
        obs = ObservableSet(list(reference.strings_on(tuple(range(n)), n))[: 2 * n], dim=1 << n, n=n)
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
        h = reference.hessian(obs, np.array([th]))[0, 0]
        assert h == pytest.approx(1.0 / np.cosh(th) ** 2, abs=1e-8)


def test_hessian_at_zero_is_identity_for_distinct_strings():
    strings = list(reference.strings_on((0, 1), 2))[:6]
    obs = ObservableSet(strings, dim=4, n=2)
    h = reference.hessian(obs, np.zeros(6))
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
    assert np.abs(reference.hessian(obs, theta) - cov).max() < 1e-12


def test_hessian_symmetric_psd_and_fd():
    rng = np.random.default_rng(31)
    eps = 1e-5
    for _ in range(10):
        n = int(rng.integers(1, 4))
        oset = mixed_observable_set(rng, n, int(rng.integers(2, 6)))
        theta = rng.normal(size=oset.size)
        h = reference.hessian(oset, theta)
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
        for p in reference.strings_on((i, i + 1), n):
            strings.setdefault(p, None)
    oset = ObservableSet(list(strings), dim=1 << n, n=n)
    assert oset.size == 63
    theta = np.random.default_rng(37).normal(size=oset.size, scale=0.3)
    tracemalloc.start()
    try:
        reference.hessian(oset, theta)
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


def widen(local, qubits, n):
    """local (x) I on the other qubits of an n-qubit register, by index
    arithmetic: entries off local's block pattern stay exact +0."""
    d, k = 1 << n, len(qubits)
    idx = np.arange(d)
    # basis index of each register index on the qubits, and whether two
    # register indices agree on all the other qubits
    sub = ((idx[:, None] >> (n - 1 - np.array(qubits))) & 1) @ (1 << np.arange(k - 1, -1, -1))
    rest = idx & ~np.bitwise_or.reduce(1 << (n - 1 - np.array(qubits)))
    out = np.zeros((d, d), dtype=np.complex128)
    rows, cols = np.nonzero(rest[:, None] == rest[None, :])
    out[rows, cols] = local[sub[rows], sub[cols]]
    return out


def test_hamiltonian_is_its_definition_bitwise():
    # H(theta) adds the blocks' local sums, each widened by the identity,
    # into zeros in block order, then the dense observables: each entry
    # of the built H adds the same terms in the same order, so it is
    # bitwise that sum.  A code-built set's blocks are its maximal
    # supports; an entry of a local sum sums 2^k of the strings' terms
    # through a k-level transform, so H is within (n + d) eps sum|theta|
    # of the per-string definition, repeated strings included.  A
    # reduction's blocks are its constraints
    rng = np.random.default_rng(43)
    eps = np.finfo(np.float64).eps
    codes = rng.integers(0, 4, size=(60, 5))
    codes = codes[codes.any(axis=1)]
    repeated = np.vstack([codes, codes[:7], codes[3:4]])
    pairs = np.concatenate([pauli.subset_codes((i, i + 1), 5) for i in range(4)])  # as gen makes them
    full = pauli.letter_codes([pauli.parse_label("X0 X1 X2 X3 X4", 5)], 5)
    for oset in (
        mixed_observable_set(rng, 4, 30),
        ObservableSet(codes, dim=1 << 5, n=5),
        ObservableSet(repeated, dim=1 << 5, n=5),
        ObservableSet(pairs, dim=1 << 5, n=5),
        ObservableSet(np.vstack([pairs, full]), dim=1 << 5, n=5),
    ):
        n = oset.n
        theta = rng.normal(size=oset.size)
        obs = oset.observables
        want = np.zeros((oset.dim, oset.dim), dtype=np.complex128)
        for qubits, local in zip(oset.subsets, oset.local_sums(theta)):
            want += widen(local, qubits, n)
        for i in oset.matrix_index:
            want += theta[i] * obs[i]
        got = oset.hamiltonian(theta)
        assert got.tobytes() == want.tobytes(), oset.subsets
        dense = reference.table_sum(oset.codes, theta[oset.pauli_index])
        for i in oset.matrix_index:
            dense += theta[i] * obs[i]
        assert np.abs(got - dense).max() <= (n + oset.dim) * eps * np.abs(theta).sum(), oset.subsets
    n = 7
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    sigma = a @ a.conj().T / np.trace(a @ a.conj().T)
    for subsets in (((0, 1, 2, 3, 4), (2, 3, 4, 5, 6)), ((1, 3), (0, 1, 2, 3, 4, 5, 6), (2,))):
        mp = MarginalProblem(n, tuple((s, linalg.partial_trace(sigma, n, s)) for s in subsets))
        ep = reduce_to_expectations(mp)
        oset = ep.observable_set
        theta = rng.normal(size=oset.size)
        got = oset.hamiltonian(theta)
        want = np.zeros((oset.dim, oset.dim), dtype=np.complex128)
        for qubits, local in decompose_local_terms(theta, ep).items():
            want += widen(local, qubits, n)
        assert got.tobytes() == want.tobytes(), subsets
        dense = reference.table_sum(oset.codes, theta)
        assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max(), subsets


def test_code_built_hamiltonian_holds_one_d2_buffer():
    # a code-built pair chain (n = 9, r = 99) is split into its pairs,
    # and each adds its 4 x 4 local sum into the zeroed H at its
    # positions: one d x d buffer and a (d/4, 16) gather, where filling a
    # fresh local sum and copying it into a second zeroed buffer peaked at
    # 2.23 d x d buffers
    n = 9
    codes = np.concatenate([pauli.subset_codes((i, i + 1), n) for i in range(n - 1)])
    _, first = np.unique(pauli.string_keys(codes), return_index=True)
    oset = ObservableSet(codes[np.sort(first)], dim=1 << n, n=n)
    theta = np.random.default_rng(44).normal(size=oset.size)
    gc.collect()
    tracemalloc.start()
    try:
        oset.hamiltonian(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oset.size == 99 and oset.subsets == tuple((i, i + 1) for i in range(n - 1))
    assert peak <= 1.5 * 16 * (1 << n) ** 2, peak / (16 * (1 << n) ** 2)


def test_whole_register_block_keeps_the_state_budget():
    # one full-weight string merges a family into a single block on the
    # whole register, whose local sum is d x d.  Its transform passes
    # work in place on one 4^n buffer and add into H through a view, so
    # gibbs peaks at rho's assembly, 3 d x d buffers, as the pair blocks
    # do; a transform with a fresh buffer a pass and a copied local sum
    # peaked at 4.75 (n = 9)
    n = 9
    labels = [f"Z{i} Z{i + 1}" for i in range(n - 1)] + [f"X{i}" for i in range(n)]
    labels.append(" ".join(f"X{i}" for i in range(n)))
    oset = ObservableSet([pauli.parse_label(lbl, n) for lbl in labels], dim=1 << n, n=n)
    assert oset.subsets == (tuple(range(n)),)
    theta = np.random.default_rng(45).normal(size=oset.size)
    gc.collect()
    tracemalloc.start()
    try:
        state = oset.gibbs(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(state.psi)
    assert peak <= 3.05 * 16 * (1 << n) ** 2, peak / (16 * (1 << n) ** 2)


def test_code_built_blocks_are_the_maximal_supports():
    # the supports in first-appearance order, those held by another
    # dropped, each string in the first block that holds its support;
    # theta and <T> keep the caller's order
    def oset(*labels, n=4):
        return ObservableSet([pauli.parse_label(lbl, n) for lbl in labels], dim=1 << n, n=n)

    cases = [
        (("Z1", "X0 X1", "Z2 Z3", "Y1 Y2", "Z1", "Z2"), ((0, 1), (2, 3), (1, 2)), [0, 0, 1, 2, 0, 1]),
        (("X3", "X0 Z2", "Y0", "X0 Y1 Z2"), ((3,), (0, 1, 2)), [0, 1, 1, 1]),
        (("X0", "Y0", "Z0"), ((0,),), [0, 0, 0]),
        (("Z0 Z1", "X2", "X0 X1 X2 X3", "Z3"), ((0, 1, 2, 3),), [0, 0, 0, 0]),
    ]
    rng = np.random.default_rng(46)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    for labels, subsets, owners in cases:
        s = oset(*labels)
        assert s.subsets == subsets, labels
        # the one block whose local sum a string's coefficient reaches
        unit = np.eye(len(labels))
        assert [[j for j, m in enumerate(s.local_sums(u)) if m.any()] for u in unit] == [[o] for o in owners]
        want = reference.table_traces(s.codes, a).real
        assert np.abs(s.pauli_expectations(a) - want).max() <= 1e-13, labels


def test_subsets_are_checked_against_the_rows():
    # each row goes to the first listed subset that holds its support,
    # and one that none holds is an error: a wrong split would give a
    # wrong H
    codes = np.array([[1, 0, 0], [0, 2, 3], [3, 3, 0]])
    theta = np.array([0.3, -0.7, 1.1])
    whole = ObservableSet(codes, dim=8, n=3)
    for subsets, owners in (
        ([(0,), (1, 2), (0, 1)], [0, 1, 2]),
        ([(0, 1, 2), (0,), (0, 1, 2)], [0, 0, 0]),  # nested and repeated: empty blocks
        ([(0, 1), (1, 2), (0, 1)], [0, 1, 0]),
    ):
        oset = ObservableSet(codes, dim=8, n=3, subsets=subsets)
        assert oset.subsets == tuple(subsets)
        unit = np.eye(len(codes))
        assert [[j for j, m in enumerate(oset.local_sums(u)) if m.any()] for u in unit] == [
            [o] for o in owners
        ]
        assert np.abs(oset.hamiltonian(theta) - whole.hamiltonian(theta)).max() < 1e-15
    for subsets, message in (
        ([(0,), (1, 2)], "Pauli row 2 acts on no listed subset"),  # row 2 is on qubits 0 and 1
        ([], "Pauli row 0 acts on no listed subset"),
        ([(0,), (2, 1), (0, 1)], r"qubits \(2, 1\) must be strictly ascending"),
        ([(0,), (1, 2), (0, 1, 5)], r"qubits \(0, 1, 5\) must be strictly ascending"),
    ):
        with pytest.raises(ValueError, match=message):
            ObservableSet(codes, dim=8, n=3, subsets=subsets)


def test_the_identity_is_no_observable():
    # the set's one gate turns the identity away in either form, naming
    # its position among all the observables
    z0, identity = pauli.parse_label("Z0", 2), pauli.parse_label("", 2)
    for observables, index in (
        ([z0, np.eye(4), identity], 2),
        (np.array([[3, 0], [0, 0], [1, 1]]), 1),
    ):
        with pytest.raises(InvalidEntryError, match="identity") as exc:
            ObservableSet(observables, dim=4, n=2)
        assert (exc.value.index, exc.value.field) == (index, "pauli")
        with pytest.raises(InvalidEntryError, match="identity"):
            ExpectationProblem(observables, np.zeros(3), dim=4, n=2)


@pytest.mark.parametrize("codes,index,message", [
    ([[4]], 0, r"in 0\.\.3, got \[4\]"),  # failed in a reshape inside gibbs
    ([[3, 5]], 0, r"in 0\.\.3, got \[3, 5\]"),
    ([[1, 1], [3, 5]], 1, r"in 0\.\.3, got \[3, 5\]"),
    ([[-1]], 0, r"in 0\.\.3, got \[-1\]"),  # failed inside bincount
    ([[1.5]], 0, "must be integers, got float64"),  # truncated to X and solved
], ids=["4", "5", "5-in-row-1", "negative", "float"])
def test_letter_codes_are_integers_in_0_to_3(codes, index, message):
    # the set took these arrays, and every later use misread them
    codes = np.array(codes)
    n = codes.shape[1]
    with pytest.raises(InvalidEntryError, match=message) as exc:
        ExpectationProblem(codes, np.zeros(len(codes)), dim=1 << n, n=n)
    assert (exc.value.index, exc.value.field) == (index, "pauli")


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
        assert np.abs(reference.hessian(plain, theta) - reference.hessian(shifted, theta)).max() < 1e-9


def test_restriction_identity_exact():
    # zero-padding theta over a larger family changes nothing, bit for bit
    strings = list(reference.strings_on((0, 1), 2))
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
    strings = list(reference.strings_on((0, 1), 2))
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
    assert reference.hessian(oset, th)[0, 0] == pytest.approx(1 / np.cosh(0.5) ** 2, abs=1e-12)


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
    reference.hessian(oset, theta)
    assert len(calls) == 1


def test_psi_rho_and_hessian_read_one_decomposition(monkeypatch):
    # gibbs, log_partition and hessian each take exactly one eigh of H(theta),
    # and psi is the same number whichever of them asks for it
    rng = np.random.default_rng(39)
    oset = mixed_observable_set(rng, 4, 9)
    theta = rng.normal(size=oset.size)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for method in (oset.gibbs, oset.log_partition, lambda th: reference.hessian(oset, th)):
        calls.clear()
        method(theta)
        assert calls == [(16, 16)], method.__name__
    psi = oset.log_partition(theta)
    assert type(psi) is float and psi == oset.gibbs(theta).psi


def test_log_partition_shifts_and_sums_exactly():
    # far beyond exp's range the shift by w_max makes psi exact
    zset = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
    assert zset.log_partition(np.array([1000.0])) == 1000.0
    # theta = 0 on all 63 strings of 3 qubits: psi = log d
    every = ObservableSet(list(reference.strings_on((0, 1, 2), 3)), dim=8, n=3)
    assert every.size == 63
    assert every.log_partition(np.zeros(63)) == pytest.approx(3 * np.log(2), abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_non_finite_theta_gives_a_quiet_nan_state(n, monkeypatch):
    # a NaN or infinite theta makes H(theta) non-finite: psi is NaN with no
    # eigh (numpy's eigh fails to converge on a NaN matrix at some sizes),
    # no exception and no warning, and verify rejects theta by name
    labels = [f"X{q}" for q in range(n)] + [f"Z{q} Z{q + 1}" for q in range(n - 1)]
    labels += [f"Y{q}" for q in range(n)]
    ep = ExpectationProblem.from_paulis(n, [(pauli.parse_label(s, n), 0.0) for s in labels])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(1) or eigh(a, *args))
    for bad in (np.nan, np.inf, -np.inf):
        theta = np.full(ep.size, 0.3)
        theta[ep.size // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(ep.observable_set.gibbs(theta).psi), bad
            with pytest.raises(ValueError, match="^theta: "):
                verify(theta, ep)
    assert calls == []
