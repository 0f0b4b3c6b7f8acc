"""Reference implementations that only tests call.

Each is a dense or per-string form of something the package computes in
bulk, kept here as the oracle the tests hold the package to: matrix
functions through one eigendecomposition, the strings' signed-
permutation tables and the per-string Pauli sums and traces read from
them, relabelling, the Pauli expansion's inverse, the Hessian of the
log-partition function, a marginal solve's warm start read from the
raw marginals and the (r+1) x (r+1) Gram matrix of an independence
check.  None of them runs in a command.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

import numpy as np

from gibbsfit import linalg, pauli, problem
from gibbsfit.pauli import PauliExpansion, PauliString

# exp() of an eigenvalue above this overflows double precision; callers
# that need larger arguments must shift first, as
# `partition.ObservableSet` does with exp(w - w_max).
EXP_CAP = 700.0

# Spacing below which the divided-difference kernel switches to its
# confluent limit exp(lambda_i).
_DD_SWITCH = 1e-8


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def matrix_exp(h) -> np.ndarray:
    """exp(H) for Hermitian H via eigendecomposition.

    Rejects max eigenvalue > 700: shifting exp(H) = e^c exp(H - cI) is
    the caller's job.
    """
    w, v = linalg.eigh(h)
    if w[-1] > EXP_CAP:
        raise OverflowError(
            f"matrix_exp would overflow: max eigenvalue {w[-1]:.6g} > {EXP_CAP:g}"
        )
    return _sym((v * np.exp(w)) @ v.conj().T)


def psd_modulus(a) -> np.ndarray:
    """|A|: the PSD square root of A'A, defined for any square matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    w, v = linalg.eigh(a.conj().T @ a)
    w = np.sqrt(np.clip(w, 0.0, None))
    return _sym((v * w) @ v.conj().T)


def psd_power(a, p: float) -> np.ndarray:
    """A^p for PSD A and real p > 0."""
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    w, v = linalg.eigh(a)
    if w[0] < -linalg.PSD_FLOOR:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None) ** p
    return _sym((v * w) @ v.conj().T)


def divided_difference_kernel(w: np.ndarray) -> np.ndarray:
    """First divided differences of exp over an eigenvalue vector.

    K[i,j] = (exp w_i - exp w_j)/(w_i - w_j), with the confluent limit
    exp(w_i) taken when |w_i - w_j| < 1e-8.
    """
    w = np.asarray(w, dtype=np.float64)
    ew = np.exp(w)
    dif = w[:, None] - w[None, :]
    close = np.abs(dif) < _DD_SWITCH
    num = ew[:, None] - ew[None, :]
    den = np.where(close, 1.0, dif)
    return np.where(close, np.broadcast_to(ew[:, None], dif.shape), num / den)


def expm_directional_derivative(h, e) -> np.ndarray:
    """d/ds exp(H + sE) at s=0 for Hermitian H, E.

    Computed in H's eigenbasis through the divided-difference kernel;
    equals the Duhamel integral of exp((1-u)H) E exp(uH) over u in [0,1].
    """
    e = linalg.as_hermitian(e)
    w, v = linalg.eigh(h)
    if e.shape != v.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {v.shape}")
    if w[-1] > EXP_CAP:
        raise OverflowError(
            f"directional derivative would overflow: max eigenvalue "
            f"{w[-1]:.6g} > {EXP_CAP:g}"
        )
    ep = v.conj().T @ e @ v
    return _sym(v @ (divided_difference_kernel(w) * ep) @ v.conj().T)


def hessian(obset, theta: np.ndarray) -> np.ndarray:
    """Hessian of psi for an `ObservableSet` at theta:
    H_ij = d<T_i>/dtheta_j = Tr(T_i D_j)/Z - <T_i><T_j>, where
    D_j = V (K o V' T_j V) V' is the Daleckii-Krein derivative of exp
    at H(theta) along T_j, K the divided differences of exp over
    H's spectrum.  Built one column at a time from one eigh, so memory
    is O(d^2 + r d), never r x d x d.  T_j V is V's rows permuted and
    phased for a Pauli string, one matmul for a matrix; the strings'
    full-register `string_tables` are built here, O(r d) beside the
    O(r d^3) columns."""
    w, v = np.linalg.eigh(obset.hamiltonian(theta))
    weights = np.exp(w - w[-1])
    z = weights.sum()
    probs = weights / z
    vh = v.conj().T
    kernel = divided_difference_kernel(w - w[-1]) / z
    r = obset.size
    hess = np.empty((r, r))
    means = np.empty(r)
    # T_j V: a string's P[perm[a], a] = phase[a], perm an involution
    perms, phases = string_tables(obset.codes)
    strings = (ph[pm, None] * v[pm] for pm, ph in zip(perms, phases))
    columns = itertools.chain(
        zip(obset.pauli_index, strings), zip(obset.matrix_index, (m @ v for m in obset.matrices))
    )
    for j, opv in columns:
        e = vh @ opv
        means[j] = e.diagonal().real @ probs
        hess[:, j] = obset.expectations(v @ (kernel * e) @ vh)
    hess -= np.outer(means, means)
    return 0.5 * (hess + hess.T)


def string_tables(codes) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form of the strings with letter codes (m, k),
    built in one batched pass: (perms, phases), each (m, 2^k), where
    column a of string j has its one nonzero, phases[j, a], at row
    perms[j, a].  X and Y flip their qubit's bit; Y multiplies by
    i(-1)^bit and Z by (-1)^bit, qubit by qubit from qubit 0."""
    codes = np.asarray(codes, dtype=np.intp)
    m, k = codes.shape
    idx = np.arange(1 << k, dtype=np.int64)
    flips = ((codes == 1) | (codes == 2)) @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    perms = idx ^ flips[:, None]
    phases = np.ones((m, 1 << k), dtype=np.complex128)
    for q in range(k):
        sign = 1 - 2 * ((idx >> (k - 1 - q)) & 1)
        np.multiply(phases, 1j * sign, out=phases, where=codes[:, q, None] == 2)
        np.multiply(phases, 1.0 * sign, out=phases, where=codes[:, q, None] == 3)
    return perms, phases


def table_sum(codes, coeffs) -> np.ndarray:
    """Dense sum_j coeffs[j] P_j of the strings with letter codes (m, n),
    entry by entry from their `string_tables`: each entry adds its terms
    in row order into zeros, so a repeated string adds up."""
    perms, phases = string_tables(codes)
    d = perms.shape[1]
    out = np.zeros((d, d), dtype=np.complex128)
    cols = np.broadcast_to(np.arange(d), perms.shape)
    np.add.at(out, (perms.ravel(), cols.ravel()), (np.asarray(coeffs)[:, None] * phases).ravel())
    return out


def table_traces(codes, a) -> np.ndarray:
    """Tr(P_j A) of the strings with letter codes (m, n), A a d x d
    matrix: sum_a phase_a A[a, perm_a], one dot product a string."""
    perms, phases = string_tables(codes)
    gathered = np.asarray(a)[np.arange(perms.shape[1]), perms]
    return np.einsum("kd,kd->k", phases, gathered)


def perm_phase(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of one string: its row of `string_tables`."""
    perms, phases = string_tables(pauli.letter_codes([p], p.n))
    return perms[0], phases[0]


def pauli_trace(p: PauliString, a: np.ndarray) -> complex:
    """Tr(P A) without materializing P."""
    perm, phase = perm_phase(p)
    d = perm.shape[0]
    a = np.asarray(a)
    if a.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}, got {a.shape}")
    return complex(phase @ a[np.arange(d), perm])


def relabel(p: PauliString, qubits, n: int) -> PauliString:
    """Map a local string on len(qubits) qubits onto the global indices
    `qubits` (strictly ascending) of an n-qubit register."""
    qubits = tuple(qubits)
    if len(qubits) != p.n:
        raise ValueError(f"expected {p.n} target qubits, got {len(qubits)}")
    return PauliString(n, tuple((qubits[q], c) for q, c in p.letters))


def restrict(p: PauliString, qubits) -> PauliString:
    """Inverse of relabel: re-index a string supported inside `qubits`
    onto the local register 0..len(qubits)-1."""
    qubits = tuple(qubits)
    pos = {q: i for i, q in enumerate(qubits)}
    if not set(p.support) <= set(qubits):
        raise ValueError(f"support {p.support} not contained in {qubits}")
    return PauliString(len(qubits), tuple((pos[q], c) for q, c in p.letters))


def strings_on(qubits, n: int, include_identity: bool = False) -> Iterator[PauliString]:
    """All Pauli strings supported on `qubits` of an n-qubit register,
    in `pauli.subset_codes` order (last qubit varies fastest), the
    identity first when it is included."""
    codes = pauli.subset_codes(qubits, n)
    if include_identity:
        codes = np.vstack([np.zeros((1, n), dtype=np.intp), codes])
    return iter(pauli.strings_from_codes(codes))


def reconstruct(e: PauliExpansion) -> np.ndarray:
    """Dense sum_P alpha_P P; the inverse of `pauli.expand`."""
    alphas = np.array(list(e.coefficients.values()))
    return table_sum(pauli.letter_codes(e.coefficients, e.n), alphas)


def marginal_from_expectations(targets: Mapping[PauliString, float], qubits) -> tuple[np.ndarray, bool]:
    """Build rho = sum_P (t_P/2^k) P on the subset `qubits` from Pauli
    expectation targets (identity coefficient fixed to 1).

    Keys may be global strings supported inside `qubits` or already
    local.  Returns (matrix, psd_flag): the matrix is Hermitian with
    unit trace by construction, but fails PSD when the targets are not
    realizable — the flag reports that.
    """
    qubits = tuple(qubits)
    if list(qubits) != sorted(set(qubits)):
        raise ValueError(f"qubits must be sorted and duplicate-free, got {qubits}")
    k = len(qubits)
    d = 1 << k
    rho = np.eye(d, dtype=np.complex128) / d
    cols = np.arange(d)
    for p, t in targets.items():
        if p.is_identity:
            if abs(float(t) - 1.0) > 1e-9:
                raise ValueError(f"identity target must be 1, got {t!r}")
            continue
        loc = restrict(p, qubits)
        perm, phase = perm_phase(loc)
        rho[perm, cols] += (float(t) / d) * phase
    wmin = float(np.linalg.eigvalsh(rho)[0])
    return rho, bool(wmin >= -linalg.PSD_FLOOR)


def marginal_start(mp, ep):
    """A marginal solve's warm start (`solver.MarginalStart`) read from
    the raw marginals, not from the reduced targets: each region of
    `problem.kikuchi_regions` takes its marginal from the first
    constraint holding it, by partial trace, finds its strings in `ep`
    (mp's reduction) by their letters, and takes traces string by string.
    -> (theta0, apply), or None when a region marginal is singular."""
    position = {p: i for i, p in enumerate(ep.observables)}
    theta0 = np.zeros(ep.size)
    regions = []
    for qubits, count in problem.kikuchi_regions(mp.subsets):
        host, rho = next(c for c in mp.constraints if set(qubits) <= set(c[0]))
        keep = [i for i, q in enumerate(host) if q in qubits]
        rho = linalg.partial_trace(rho, len(host), keep)
        k, d = len(qubits), 1 << len(qubits)
        local = list(strings_on(range(k), k))
        index = np.array([position[relabel(p, qubits, mp.n)] for p in local])
        w, v = np.linalg.eigh(rho)
        if not w[0] > 0:
            return None
        log_rho = (v * np.log(w)) @ v.conj().T
        theta0[index] += count * np.array([pauli_trace(p, log_rho).real for p in local]) / d
        regions.append((index, count / d**2, local, v, linalg.log_divided_difference(w)))

    def apply(g):
        # sum_R c_R Tr(P D log_{rho_R}[sum_{P in R} g_P P]) / 4^k, densely
        out = np.zeros_like(g)
        for index, weight, local, v, kernel in regions:
            x = sum(gp * pauli.materialize(p) for gp, p in zip(g[index], local))
            y = v @ (kernel * (v.conj().T @ x @ v)) @ v.conj().T
            out[index] += weight * np.array([pauli_trace(p, y).real for p in local])
        return out

    return theta0, apply


def gram_rank(ep) -> problem.RankReport:
    """`problem.check_independence` through the dense (r+1) x (r+1) Gram
    matrix of {I, T_1..T_r} and one eigvalsh of it.

    Independent iff the smallest Gram eigenvalue exceeds 1e-8 times the
    largest.  Row and column 0 (the identity) hold d and Tr T_a.  Pauli
    strings are traceless and distinct ones are orthogonal, so the
    string block is d where `pauli.string_keys` agree and 0 elsewhere,
    and no string is materialized.  A dense observable enters rescaled
    to a string's Frobenius norm sqrt(d), divided by its largest |entry|
    first so that no square overflows or underflows, so the verdict does
    not depend on its scale; its products with the strings go through
    the problem's ObservableSet kernel.
    """
    d = ep.dim
    m = ep.size + 1
    obset = ep.observable_set
    gram = np.zeros((m, m))
    gram[0, 0] = d
    scaled = []
    for op in obset.matrices:
        peak = np.abs(op).max()
        if peak > 0:
            op = op / peak
            op *= np.sqrt(d) / np.linalg.norm(op)
        scaled.append(op)
    rows = obset.pauli_index + 1
    dense = obset.matrix_index + 1
    for a, op in zip(dense, scaled):
        gram[a, 0] = gram[0, a] = np.trace(op).real
        gram[a, rows] = gram[rows, a] = obset.pauli_expectations(op)
        gram[a, dense] = gram[dense, a] = [np.vdot(b, op).real for b in scaled]
    keys = pauli.string_keys(obset.codes)
    gram[np.ix_(rows, rows)] = d * (keys[:, None] == keys[None, :])
    w = np.linalg.eigvalsh(gram)
    return problem.RankReport(
        independent=bool(w[0] > 1e-8 * w[-1]),
        min_eigenvalue=float(w[0]),
        max_eigenvalue=float(w[-1]),
        size=m,
    )
