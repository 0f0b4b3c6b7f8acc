"""Log-partition function and Gibbs-state machinery.

Everything routes through one Hermitian eigendecomposition per theta,
`ObservableSet._decompose`: GibbsState holds what it gives (rho, rho's
spectrum, psi and <T>), so entropy and the minimum eigenvalue need no
further eigensolve.
ObservableSet is the one check of an observable family: it gates every
dense observable once and builds its Pauli strings' signed-permutation
tables from their letter codes in one `pauli.string_tables` pass (or
takes them from a marginal reduction, which gathers them) and keeps
them as their phases and one `pauli.gather_index`, so that H(theta),
expectations and Hessian columns are O(r d) array operations, never r
dense matmuls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .pauli import PauliString


class InvalidEntryError(ValueError):
    """One constraint or observable fails validation.

    `index` is its position in the constructor's sequence; `field` names
    the part at fault, as the problem file does: "qubits" or "rho" for a
    marginal constraint; "pauli" or "matrix" (the observable) or
    "target" for an expectation target.
    """

    def __init__(self, index: int, field: str, detail: str):
        self.index = int(index)
        self.field = field
        self.detail = detail
        super().__init__(f"entry {self.index} ({field}): {detail}")


@dataclass(frozen=True, eq=False)
class GibbsState:
    """exp(H)/Tr exp(H) with H = sum_i theta_i T_i, read from one
    eigendecomposition of H: rho, its spectrum, psi = log Tr exp(H) and
    <T_i>; it carries no d x d matrix besides rho.
    """

    rho: np.ndarray
    spectrum: np.ndarray  # eigenvalues of rho, ascending: exp(w - w_max) / z
    psi: float
    expectations: np.ndarray

    @property
    def entropy_bits(self) -> float:
        return linalg.spectrum_entropy(self.spectrum)


class ObservableSet:
    """A fixed family {T_i} of Pauli strings and dense Hermitian matrices
    on a dim-dimensional space, with fast H/psi/grad/hess.

    `observables` is a sequence of PauliStrings and matrices, or an
    (r, n) integer array of letter codes (`pauli.CODES`) for a family of
    r strings.  Inside the set every string is its row of `codes`: a
    sequence's PauliStrings go through `pauli.letter_codes` once, here.

    The constructor is the only check an observable gets: a Pauli
    string's register must be n qubits, a matrix must pass the
    Hermiticity gate and have dimension dim.  A failure raises
    InvalidEntryError naming the observable's index.  `observables`
    holds the gated family: strings as PauliStrings, matrices as gated;
    a set made from codes builds its PauliStrings on first access.

    `tables` is the Pauli rows' `pauli.string_tables(codes)`, for a
    caller that has it already (a marginal reduction gathers it from
    `pauli.region_tables`); by default the set builds it.  The set keeps
    the phases and, in place of the perms, their `pauli.gather_index`.
    """

    def __init__(self, observables, dim: int, n: int | None = None, tables=None):
        from_codes = isinstance(observables, np.ndarray)
        if not from_codes:
            observables = tuple(observables)
        if not len(observables):
            raise ValueError("need at least one observable")
        if not 2 <= dim <= linalg.MAX_DIM:
            raise ValueError(f"dim must be in 2..{linalg.MAX_DIM}, got {dim}")
        if n is not None and (1 << n) != dim:
            raise ValueError(f"dim {dim} does not match n={n}")
        self.n = n
        self.dim = int(dim)
        self.size = len(observables)

        if from_codes:
            codes = np.asarray(observables, dtype=np.intp)
            if codes.shape != (self.size, n):
                raise ValueError(f"letter codes must have shape (r, n={n}), got {codes.shape}")
            self._observables = None
            pauli_idx, mat_idx, mats = np.arange(self.size), [], []
        else:
            gated, pauli_idx, strings, mat_idx, mats = [], [], [], [], []
            for i, op in enumerate(observables):
                if isinstance(op, PauliString):
                    if op.n != n:
                        raise InvalidEntryError(i, "pauli", f"register size {op.n} != n={n}")
                    pauli_idx.append(i)
                    strings.append(op)
                else:
                    try:
                        op = linalg.as_hermitian(op)
                    except ValueError as exc:
                        raise InvalidEntryError(i, "matrix", str(exc)) from exc
                    if op.shape[0] != self.dim:
                        detail = f"dim {op.shape[0]} != problem dim {self.dim}"
                        raise InvalidEntryError(i, "matrix", detail)
                    mat_idx.append(i)
                    mats.append(op)
                gated.append(op)
            self._observables = tuple(gated)
            codes = pauli.letter_codes(strings, n or 0)
        self.codes = codes  # (k, n) letter codes of the Pauli rows
        self.pauli_index = np.asarray(pauli_idx, dtype=np.intp)
        self.matrix_index = np.asarray(mat_idx, dtype=np.intp)
        self.matrices = mats
        if tables is None and len(codes):
            tables = pauli.string_tables(codes)
        elif tables is None:
            tables = np.empty((0, self.dim), dtype=np.intp), np.empty((0, self.dim), dtype=np.complex128)
        # (k, d) rows: entries, exact +-1/+-i, and their one layout, the
        # `pauli.gather_index` that both H (into H^T) and <T> read
        perms, self._phases = tables
        self._gather = pauli.gather_index(perms)

    @property
    def observables(self) -> tuple:
        if self._observables is None:
            self._observables = pauli.strings_from_codes(self.codes)
        return self._observables

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """H(theta) = sum_i theta_i T_i."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.size,):
            raise ValueError(f"theta: expected r = {self.size} entries, got {theta.size}")
        h = pauli.pauli_sum(theta[self.pauli_index], self._phases, self._gather)
        for j, i in enumerate(self.matrix_index):
            h += theta[i] * self.matrices[j]
        return h

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        """<T_i> under rho; rho must have unit trace."""
        out = np.empty(self.size)
        if len(self.pauli_index):
            out[self.pauli_index] = self.pauli_expectations(rho)
        for j, i in enumerate(self.matrix_index):
            out[i] = np.vdot(self.matrices[j], rho).real
        return out

    def pauli_expectations(self, m: np.ndarray) -> np.ndarray:
        """Re Tr(P_k m) for the Pauli rows, in their order:
        Tr(P m) = sum_a phase_a * m[a, perm_a]."""
        return np.einsum("kd,kd->k", self._phases, m.ravel()[self._gather]).real

    def _decompose(self, theta: np.ndarray) -> tuple:
        """The one eigh of H(theta) that psi, rho, <T> and the Hessian read:
        (w, V, the Gibbs weights exp(w - w_max)/z, z, psi = w_max + log z).
        H is Hermitian by construction, so it goes to numpy's eigh with no
        gate."""
        w, v = np.linalg.eigh(self.hamiltonian(theta))
        weights = np.exp(w - w[-1])
        z = weights.sum()
        return w, v, weights / z, z, float(w[-1] + np.log(z))

    def log_partition(self, theta: np.ndarray) -> float:
        return self._decompose(theta)[4]

    def gibbs(self, theta: np.ndarray) -> GibbsState:
        """rho, its spectrum, psi and the gradient <T> from one eigh."""
        _, v, spectrum, _, psi = self._decompose(theta)
        rho = (v * spectrum) @ v.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return GibbsState(rho=rho, spectrum=spectrum, psi=psi, expectations=self.expectations(rho))

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """H_ij = d<T_i>/dtheta_j = Tr(T_i D_j)/Z - <T_i><T_j>, where
        D_j = V (K o V' T_j V) V' is the Daleckii-Krein derivative of exp
        at H(theta) along T_j, K the divided differences of exp over
        H's spectrum.  Built one column at a time from one eigh, so memory
        is O(d^2) for any r.  T_j V is V's rows permuted and phased for a
        Pauli string, one matmul for a matrix."""
        w, v, probs, z, _ = self._decompose(theta)
        vh = v.conj().T
        kernel = linalg.divided_difference_kernel(w - w[-1]) / z
        r = self.size
        hess = np.empty((r, r))
        means = np.empty(r)
        # T_j V: a string's P[perm[a], a] = phase[a], perm an involution
        perms = pauli.table_perms(self._gather)
        strings = (ph[pm, None] * v[pm] for pm, ph in zip(perms, self._phases))
        columns = itertools.chain(
            zip(self.pauli_index, strings), zip(self.matrix_index, (m @ v for m in self.matrices))
        )
        for j, opv in columns:
            e = vh @ opv
            means[j] = e.diagonal().real @ probs
            hess[:, j] = self.expectations(v @ (kernel * e) @ vh)
        hess -= np.outer(means, means)
        return 0.5 * (hess + hess.T)
