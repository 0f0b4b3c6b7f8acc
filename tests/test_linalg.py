"""Dense Hermitian kernel tests: closed forms first, then seeded sweeps."""

import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from gibbsfit import fileio, linalg, pauli
from gibbsfit.cli import main
from gibbsfit.partition import InvalidEntryError, ObservableSet
from gibbsfit.pauli import PauliString
from gibbsfit.problem import MarginalProblem

import reference

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def rand_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_as_hermitian_symmetrizes_roundoff():
    rng = np.random.default_rng(0)
    h = rand_hermitian(rng, 6)
    dirty = h + 1e-12 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    clean = linalg.as_hermitian(dirty)
    assert np.abs(clean - clean.conj().T).max() == 0.0


def test_as_hermitian_rejects():
    with pytest.raises(ValueError):
        linalg.as_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        linalg.as_hermitian(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        m = np.eye(2, dtype=complex)
        m[1, 0] = m[0, 1] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\] is not finite"):
            linalg.as_hermitian(m)


def test_as_density_gates():
    assert np.allclose(linalg.as_density(np.eye(2) / 2), np.eye(2) / 2)
    with pytest.raises(ValueError):
        linalg.as_density(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        linalg.as_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(1)
    for d in (2, 4, 8, 16, 64):
        for _ in range(20):
            h = rand_hermitian(rng, d, scale=3.0)
            w, v = linalg.eigh(h)
            assert np.all(np.diff(w) >= 0)
            assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-12 * max(1, np.abs(w).max())
            assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-13


def test_matrix_exp_closed_forms():
    # exp(a X) = cosh(a) I + sinh(a) X
    for a in (-2.0, 0.3, 1.7):
        e = reference.matrix_exp(a * X)
        want = np.cosh(a) * np.eye(2) + np.sinh(a) * X
        assert np.abs(e - want).max() < 1e-13 * np.cosh(a)
    d = reference.matrix_exp(np.diag([0.0, 1.0, -1.0]).astype(complex))
    assert np.abs(np.diag(d) - [1.0, np.e, 1 / np.e]).max() < 1e-15


def test_matrix_exp_overflow_rejected():
    with pytest.raises(OverflowError):
        reference.matrix_exp(np.diag([800.0, 0.0]).astype(complex))


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a, b, c = rand_density(rng, 2), rand_density(rng, 2), rand_density(rng, 2)
    rho = np.kron(np.kron(a, b), c)
    assert np.abs(linalg.partial_trace(rho, 3, (0,)) - a).max() < 1e-14
    assert np.abs(linalg.partial_trace(rho, 3, (1,)) - b).max() < 1e-14
    assert np.abs(linalg.partial_trace(rho, 3, (2,)) - c).max() < 1e-14
    assert np.abs(linalg.partial_trace(rho, 3, (0, 2)) - np.kron(a, c)).max() < 1e-14
    assert np.abs(linalg.partial_trace(rho, 3, (0, 1, 2)) - rho).max() == 0.0


def test_partial_trace_bell():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    for q in ((0,), (1,)):
        assert np.abs(linalg.partial_trace(bell, 2, q) - np.eye(2) / 2).max() < 1e-15


def brute_partial_trace(rho, n, keep):
    """Index-gymnastics oracle, O(4^n) loops."""
    keep = tuple(keep)
    drop = tuple(q for q in range(n) if q not in keep)
    k = len(keep)
    out = np.zeros((1 << k, 1 << k), dtype=complex)

    def bits(x, qubits):
        # qubit 0 is the most significant bit
        return tuple((x >> (n - 1 - q)) & 1 for q in qubits)

    def assemble(kept_bits, dropped_bits):
        x = 0
        for q, b in zip(keep, kept_bits):
            x |= b << (n - 1 - q)
        for q, b in zip(drop, dropped_bits):
            x |= b << (n - 1 - q)
        return x

    for r in range(1 << k):
        for c in range(1 << k):
            rb = tuple((r >> (k - 1 - i)) & 1 for i in range(k))
            cb = tuple((c >> (k - 1 - i)) & 1 for i in range(k))
            acc = 0.0
            for e in range(1 << len(drop)):
                eb = tuple((e >> (len(drop) - 1 - i)) & 1 for i in range(len(drop)))
                acc += rho[assemble(rb, eb), assemble(cb, eb)]
            out[r, c] = acc
    return out


def test_partial_trace_is_the_block_marginal_bitwise():
    """One gather: partial_trace reads the same subset_positions, in the
    same order, as an ObservableSet block's marginal."""
    rng = np.random.default_rng(70)
    for n in range(1, 8):
        d = 1 << n
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        codes = np.zeros((1, n), dtype=np.intp)
        codes[0, 0] = 3  # Z0, in the block of (0,); the other subsets' blocks hold no rows
        oset = ObservableSet(codes, dim=d, n=n, subsets=subsets)
        for s, want in zip(subsets, oset.marginals(m)):
            assert linalg.partial_trace(m, n, s).tobytes() == want.tobytes(), (n, s)


def test_partial_trace_of_the_whole_register_builds_no_index():
    n = 10
    d = 1 << n
    rho = np.eye(d, dtype=np.complex128) / d
    tracemalloc.start()
    try:
        out = linalg.partial_trace(rho, n, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * d * d * 16
    assert np.array_equal(out, rho)


def test_every_entry_point_rejects_a_bad_subset(tmp_path, capsys):
    """The one subset rule, reached through each caller's own error."""
    n = 3
    for bad in ((1, 0), (0, 0), (-1,), (n,)):
        with pytest.raises(ValueError) as rule:
            linalg.check_subset(bad, n)
        msg = re.escape(str(rule.value))
        d = 1 << len(bad)
        with pytest.raises(InvalidEntryError, match=msg) as exc:
            MarginalProblem(n, ((bad, np.eye(d) / d),))
        assert (exc.value.index, exc.value.field) == (0, "qubits")
        rho = json.loads(fileio.dump_json(np.eye(d, dtype=np.complex128) / d))
        doc = {"n": n, "marginals": [{"qubits": list(bad), "rho": rho}]}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        assert main(["check", str(tmp_path / "p.json")]) == 65, bad
        assert capsys.readouterr().err.startswith("error: marginals[0].qubits: "), bad
        with pytest.raises(ValueError, match=msg):
            PauliString(n, tuple((q, "Z") for q in bad))
        with pytest.raises(ValueError, match=msg):
            pauli.subset_codes(bad, n)
        codes = np.zeros((1, n), dtype=np.intp)
        codes[0, 0] = 3
        with pytest.raises(ValueError, match=msg):
            ObservableSet(codes, dim=1 << n, n=n, subsets=[bad, range(n)])
        with pytest.raises(ValueError, match=msg):
            linalg.partial_trace(np.eye(1 << n) / (1 << n), n, bad)
        chunk = ",".join(map(str, bad))
        assert main(["gen", "--n", str(n), "--subsets", chunk, "--out", str(tmp_path / "g.json")]) == 64
        assert "usage error: --subsets" in capsys.readouterr().err, bad


def test_partial_trace_against_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        rho = rand_density(rng, 1 << n)
        size = int(rng.integers(1, n + 1))
        keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        got = linalg.partial_trace(rho, n, keep)
        want = brute_partial_trace(rho, n, keep)
        assert np.abs(got - want).max() < 1e-12
        assert abs(np.trace(got).real - 1.0) < 1e-12


def test_entropy_bits():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert linalg.von_neumann_entropy(pure) == 0.0
    assert linalg.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)
    assert linalg.von_neumann_entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-13)
    # additivity on product states
    rng = np.random.default_rng(4)
    a, b = rand_density(rng, 2), rand_density(rng, 4)
    s = linalg.von_neumann_entropy(np.kron(a, b))
    assert s == pytest.approx(
        linalg.von_neumann_entropy(a) + linalg.von_neumann_entropy(b), abs=1e-12
    )


def test_entropy_takes_one_eigensolve(monkeypatch):
    # the PSD gate's spectrum is the entropy's spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for d in (2, 8):
        calls.clear()
        linalg.von_neumann_entropy(rand_density(np.random.default_rng(5), d))
        assert calls == [(d, d)]


def test_psd_modulus_and_power():
    m = reference.psd_modulus(np.diag([3.0, -2.0]))
    assert np.abs(m - np.diag([3.0, 2.0])).max() < 1e-14
    rng = np.random.default_rng(5)
    a = rand_hermitian(rng, 5)
    p = a @ a.conj().T
    root = reference.psd_power(p, 0.5)
    assert np.abs(root @ root - p).max() < 1e-12 * np.abs(p).max()
    with pytest.raises(ValueError):
        reference.psd_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        reference.psd_power(np.eye(2), -1.0)


def test_norms_inner_distance():
    # orthogonal pure states are at trace distance 1
    assert linalg.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)
    assert linalg.trace_distance(np.eye(2) / 2, np.eye(2) / 2) == 0.0


def test_expm_directional_derivative_vs_finite_differences():
    rng = np.random.default_rng(6)
    eps = 1e-5
    for _ in range(30):
        d = int(rng.integers(2, 9))
        h = rand_hermitian(rng, d, scale=2.0)
        e = rand_hermitian(rng, d)
        got = reference.expm_directional_derivative(h, e)
        fd = (reference.matrix_exp(h + eps * e) - reference.matrix_exp(h - eps * e)) / (2 * eps)
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(got), 1e-30)
        assert rel < 1e-6


def test_expm_directional_derivative_degenerate_and_trivial():
    # repeated eigenvalues take the confluent e^lambda branch
    h = np.diag([1.0, 1.0, 2.0]).astype(complex)
    e = linalg.as_hermitian(np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=complex))
    got = reference.expm_directional_derivative(h, e)
    fd = (reference.matrix_exp(h + 1e-6 * e) - reference.matrix_exp(h - 1e-6 * e)) / 2e-6
    assert np.abs(got - fd).max() < 1e-8
    # at H = 0 the derivative is the direction itself
    e4 = np.eye(4, dtype=complex)
    assert np.abs(reference.expm_directional_derivative(np.zeros((4, 4)), e4) - e4).max() < 1e-14
    # commuting diagonal case: D = diag(e^h) * e entrywise on the diagonal
    hd = np.diag([0.5, -0.5]).astype(complex)
    ed = np.diag([2.0, 3.0]).astype(complex)
    want = np.diag([2.0 * np.exp(0.5), 3.0 * np.exp(-0.5)])
    assert np.abs(reference.expm_directional_derivative(hd, ed) - want).max() < 1e-13


def schatten_norm(a, p):
    return float(np.trace(reference.psd_power(reference.psd_modulus(a), p)).real) ** (1.0 / p)


def test_log_divided_difference_is_the_frechet_derivative_of_log():
    rng = np.random.default_rng(31)
    rho = rand_density(rng, 4)
    # a near-degenerate pair exercises the close-eigenvalue form
    w, v = np.linalg.eigh(rho)
    w[1] = w[2] * (1 + 1e-12)
    rho = (v * w) @ v.conj().T
    x = rand_hermitian(rng, 4)
    kernel = linalg.log_divided_difference(w)
    dlog = v @ (kernel * (v.conj().T @ x @ v)) @ v.conj().T

    def logm(a):
        lam, u = np.linalg.eigh(a)
        return (u * np.log(lam)) @ u.conj().T

    eps = 1e-6
    fd = (logm(rho + eps * x) - logm(rho - eps * x)) / (2 * eps)
    assert np.abs(dlog - fd).max() < 1e-6 * np.abs(fd).max()
    assert np.allclose(np.diag(kernel), 1 / w, rtol=1e-15)
    assert kernel[1, 2] == pytest.approx(1 / w[2], rel=1e-11)


def test_trace_exponential_product_bound():
    # Tr e^{A+B} <= Tr e^A e^B, spot value 2cosh(sqrt 2) <= 2cosh(1)^2
    lhs = np.trace(reference.matrix_exp(X + Z)).real
    rhs = np.trace(reference.matrix_exp(X) @ reference.matrix_exp(Z)).real
    assert lhs == pytest.approx(2 * np.cosh(np.sqrt(2)), abs=1e-12)
    assert rhs == pytest.approx(2 * np.cosh(1.0) ** 2, abs=1e-12)
    assert lhs <= rhs + 1e-9
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
        l = np.trace(reference.matrix_exp(a + b)).real
        r = np.trace(reference.matrix_exp(a) @ reference.matrix_exp(b)).real
        assert l <= r + 1e-9 * max(1.0, abs(r))


def test_trace_pairing_norm_bound():
    # |Tr(A B)| <= ||A||_p ||B||_q with 1/p + 1/q = 1
    rng = np.random.default_rng(8)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            lhs = abs(np.trace(a @ b).real)
            rhs = schatten_norm(a, p) * schatten_norm(b, q)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)
