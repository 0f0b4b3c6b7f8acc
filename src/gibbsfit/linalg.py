"""Dense Hermitian linear-algebra kernels and qubit-subset geometry.

Every matrix function here is computed through one eigendecomposition
path (`numpy.linalg.eigh`); there is no Pade or scaling-and-squaring
branch.  Dimensions are capped at 4096 (12 qubits), which keeps dense
eigensolves on a desk-scale budget.

Qubit subsets have one rule (`check_subset`), one layout inside the
register (`subset_positions`) and one partial trace, a gather there.

Conventions: entropies are reported in bits (base 2); log-partition
quantities use the natural log.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

MAX_QUBITS = 12
MAX_DIM = 2**MAX_QUBITS

# Frobenius-norm gate on the anti-Hermitian part when accepting a
# matrix as Hermitian.
HERMITIAN_ATOL = 1e-8

# Gate on |Tr rho - 1| when accepting a matrix as a density matrix.
TRACE_ATOL = 1e-10

# Eigenvalue floor for accepting a matrix as positive semidefinite.
PSD_FLOOR = 1e-10


class EigDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def as_hermitian(a) -> np.ndarray:
    """Return the Hermitian part (A+A')/2 of a square matrix.

    Rejects the input outright when an entry is not finite or the
    anti-Hermitian part exceeds HERMITIAN_ATOL in Frobenius norm: round-off is
    tolerated, user error is not.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"matrix entry [{i}, {j}] is not finite: {a[i, j]}")
    skew = 0.5 * (a - a.conj().T)
    drift = float(np.linalg.norm(skew))
    if drift > HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: anti-Hermitian part has Frobenius "
            f"norm {drift:.3e} (gate {HERMITIAN_ATOL:g})"
        )
    return a - skew


def _density_spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    """The gate behind as_density; also returns the ascending spectrum
    the PSD check computed, so callers that need it pay one eigvalsh."""
    rho = as_hermitian(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1 within {TRACE_ATOL:g}")
    w = np.linalg.eigvalsh(rho)
    wmin = float(w[0])
    if wmin < -PSD_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho, w


def as_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD.

    Returns the symmetrized matrix.  Trace must be 1 within TRACE_ATOL;
    the smallest eigenvalue must be >= -PSD_FLOOR.
    """
    return _density_spectrum(rho)[0]


def eigh(h) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = as_hermitian(h)
    if h.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {h.shape[0]} exceeds the dense cap {MAX_DIM}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        off = h - np.diag(np.diag(h))
        raise ValueError(
            f"eigendecomposition failed at dim {h.shape[0]} "
            f"(max off-diagonal {np.abs(off).max():.3e}): {exc}"
        ) from exc
    return EigDecomposition(w, v)


def check_subset(qubits, n: int) -> tuple[int, ...]:
    """`qubits` as a tuple of ints, checked to be strictly ascending ints
    (not bools) in 0..n-1, empty allowed: the one subset rule; ValueError
    otherwise."""
    qubits = tuple(qubits)
    if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in qubits):
        raise ValueError(f"qubit indices must be integers, got {qubits}")
    out = tuple(map(int, qubits))
    if any(a >= b for a, b in zip(out, out[1:])) or (out and not (0 <= out[0] and out[-1] < n)):
        raise ValueError(f"qubits {out} must be strictly ascending in 0..{n - 1}")
    return out


def subset_positions(qubits, n: int) -> np.ndarray:
    """(2^(n-k), 4^k) flat positions in a 2^n x 2^n matrix A of the
    entries A[(a, e), (b, e)]: column a * 2^k + b for the basis indices
    a, b of the k `qubits` (a `check_subset`, read as a k-qubit
    register), row e for each basis index of the other qubits.
    A.ravel()[pos].sum(0) is A's marginal on the qubits, the others
    traced out, and adding L.ravel() at pos adds L (x) I on the others.
    Qubit 0 is the most significant bit of a basis index."""
    qubits = check_subset(qubits, n)
    others = [q for q in range(n) if q not in qubits]
    d = 1 << n

    def spread(qs):  # register index of each basis index of the qubits qs
        bits = np.arange(1 << len(qs), dtype=np.int64)[:, None] >> np.arange(len(qs) - 1, -1, -1)
        return (bits & 1) @ (1 << (n - 1 - np.asarray(qs, dtype=np.int64)))

    local = spread(qubits)
    return (spread(others) * (d + 1))[:, None] + (local[:, None] * d + local).ravel()


def partial_trace(rho, n: int, keep) -> np.ndarray:
    """Trace out all qubits not in `keep` (a `check_subset`) from a
    2^n-dimensional matrix: the gather rho.ravel()[pos].sum(0) at keep's
    `subset_positions`.  When keep is the whole register no index is
    built and rho itself is returned."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"expected shape {(1 << n, 1 << n)} for n={n}, got {rho.shape}")
    keep = check_subset(keep, n)
    if len(keep) == n:
        return rho
    return rho.ravel()[subset_positions(keep, n)].sum(0).reshape(1 << len(keep), -1)


def spectrum_entropy(w) -> float:
    """Entropy -sum l log2 l in bits of a density matrix's eigenvalues,
    with 0 log 0 := 0."""
    w = w[w > 0.0]
    return float(-(w @ np.log2(w))) + 0.0  # +0.0 normalizes -0.0 for pure states


def von_neumann_entropy(rho) -> float:
    """Entropy of a density matrix in bits (see spectrum_entropy)."""
    return spectrum_entropy(_density_spectrum(rho)[1])


def trace_distance(rho, sigma) -> float:
    """(1/2) Tr|rho - sigma|."""
    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    w = eigh(rho - sigma).eigenvalues
    return float(0.5 * np.abs(w).sum())


def log_divided_difference(w: np.ndarray) -> np.ndarray:
    """First divided differences of log over a positive spectrum.

    K[i,j] = (log w_i - log w_j)/(w_i - w_j), written as
    log1p((w_i - w_j)/w_j)/(w_i - w_j) so that close eigenvalues keep
    full relative precision; the confluent limit 1/w_j where w_i = w_j.
    With rho = V diag(w) V', V (K o V' X V) V' is the Frechet derivative
    of log at rho along X.
    """
    w = np.asarray(w, dtype=np.float64)
    dif = w[:, None] - w[None, :]
    same = dif == 0.0
    ratio = np.log1p(dif / w[None, :]) / np.where(same, 1.0, dif)
    return np.where(same, 1.0 / w[None, :], ratio)
