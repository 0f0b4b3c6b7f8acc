"""Log-partition function and Gibbs-state machinery.

Everything routes through one Hermitian eigendecomposition per theta:
GibbsState holds what it gives (rho, rho's spectrum, psi and <T>), so
entropy and the minimum eigenvalue need no further eigensolve.
ObservableSet precomputes signed-permutation data for Pauli observables
so that building H(theta) and reading off expectations are O(r d) array
operations, never r dense matmuls.

Identity offsets: an observable is op + shift*I.  Offsets commute with
everything, so rho and the Hessian ignore them exactly; psi gains
theta.shifts and expectations gain shifts.  That identity is what makes
target translation cheap and loss-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .pauli import PauliString


@dataclass(frozen=True, eq=False)
class GibbsState:
    """exp(H)/Tr exp(H) with H = sum_i theta_i T_i, read from one
    eigendecomposition of H: rho, its spectrum, psi = log Tr exp(H) and
    <T_i>.

    `hamiltonian` (H with offsets) is filled in only on a solver's
    converged result; iterates carry no d x d matrix besides rho.
    """

    theta: np.ndarray
    rho: np.ndarray
    spectrum: np.ndarray  # eigenvalues of rho, ascending: exp(w - w_max) / z
    psi: float
    expectations: np.ndarray
    hamiltonian: np.ndarray | None = None

    @property
    def entropy_bits(self) -> float:
        return linalg.spectrum_entropy(self.spectrum)


class ObservableSet:
    """A fixed family {T_i = op_i + s_i I} with fast H/psi/grad/hess."""

    def __init__(self, observables, shifts=None, dim=None, n=None):
        observables = tuple(observables)
        if not observables:
            raise ValueError("need at least one observable")
        self.n = n
        if dim is None:
            for op in observables:
                if isinstance(op, PauliString):
                    dim = 1 << op.n
                else:
                    dim = op.shape[0]
                break
        if dim > linalg.MAX_DIM:
            raise ValueError(f"dim {dim} exceeds cap {linalg.MAX_DIM}")
        self.dim = int(dim)
        self.size = len(observables)
        self.observables = observables
        self.shifts = (
            np.zeros(self.size) if shifts is None else np.asarray(shifts, dtype=np.float64).copy()
        )
        if self.shifts.shape != (self.size,):
            raise ValueError("shifts length mismatch")

        pauli_idx, mat_idx, mats = [], [], []
        perms, phases = [], []
        for i, op in enumerate(observables):
            if isinstance(op, PauliString):
                if 1 << op.n != self.dim:
                    raise ValueError(f"observable {i}: register size mismatch")
                perm, phase = pauli.perm_phase(op)
                pauli_idx.append(i)
                perms.append(perm)
                phases.append(phase)
            else:
                op = linalg.as_hermitian(op)
                if op.shape[0] != self.dim:
                    raise ValueError(f"observable {i}: dim mismatch")
                mat_idx.append(i)
                mats.append(op)
        self._pauli_idx = np.array(pauli_idx, dtype=np.intp)
        self._mat_idx = np.array(mat_idx, dtype=np.intp)
        self._mats = mats
        if perms:
            self._perms = np.stack(perms)  # (k, d) column indices
            self._phases = np.stack(phases)  # (k, d) entries, exact +-1/+-i
            d = self.dim
            rows = np.broadcast_to(np.arange(d), self._perms.shape)
            self._flat = (self._perms * d + rows).ravel()  # scatter targets
        else:
            self._perms = np.empty((0, self.dim), dtype=np.intp)
            self._phases = np.empty((0, self.dim), dtype=np.complex128)
            self._flat = np.empty(0, dtype=np.intp)

    def base_hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """sum_i theta_i op_i, offsets excluded."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.size,):
            raise ValueError(f"theta has {theta.size} entries, expected r = {self.size}")
        d = self.dim
        h = np.zeros((d, d), dtype=np.complex128)
        if len(self._pauli_idx):
            contrib = theta[self._pauli_idx, None] * self._phases  # (k, d)
            np.add.at(h.ravel(), self._flat, contrib.ravel())
        for j, i in enumerate(self._mat_idx):
            h += theta[i] * self._mats[j]
        return h

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """sum_i theta_i (op_i + s_i I)."""
        theta = np.asarray(theta, dtype=np.float64)
        h = self.base_hamiltonian(theta)
        c = float(theta @ self.shifts)
        if c != 0.0:
            h[np.diag_indices(self.dim)] += c
        return h

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        """<op_i + s_i I> under rho; rho must have unit trace."""
        out = np.empty(self.size)
        if len(self._pauli_idx):
            # Tr(P rho) = sum_a phase_a * rho[a, perm_a]
            vals = np.einsum(
                "kd,kd->k", self._phases, rho[np.arange(self.dim)[None, :], self._perms]
            )
            out[self._pauli_idx] = vals.real
        for j, i in enumerate(self._mat_idx):
            out[i] = np.vdot(self._mats[j], rho).real
        return out + self.shifts

    def log_partition(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=np.float64)
        return linalg.log_trace_exp(self.base_hamiltonian(theta)) + float(theta @ self.shifts)

    def gibbs(self, theta: np.ndarray) -> GibbsState:
        """One eigh gives rho, its spectrum, psi and the gradient <T>.

        H is Hermitian by construction, so it goes to numpy's eigh with
        no gate.  Offsets shift the spectrum rigidly, so they are applied
        to psi and the expectations after the fact and never enter the
        eigensolve.
        """
        theta = np.asarray(theta, dtype=np.float64).copy()
        w, v = np.linalg.eigh(self.base_hamiltonian(theta))
        weights = np.exp(w - w[-1])
        z = weights.sum()
        spectrum = weights / z
        rho = (v * spectrum) @ v.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return GibbsState(
            theta=theta,
            rho=rho,
            spectrum=spectrum,
            psi=float(w[-1] + np.log(z)) + float(theta @ self.shifts),
            expectations=self.expectations(rho),
        )

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """H_ij = d<T_i>/dtheta_j = Tr(op_i D_j)/Z - <op_i><op_j>, where
        D_j = V (K o V' op_j V) V' is the Daleckii-Krein derivative of exp
        at H(theta) along op_j, K the divided differences of exp over
        H's spectrum.  Built one column at a time from one eigh, so memory
        is O(d^2) for any r.  Offset-free: identity components cancel."""
        theta = np.asarray(theta, dtype=np.float64)
        w, v = np.linalg.eigh(self.base_hamiltonian(theta))
        vh = v.conj().T
        shifted = w - w[-1]
        weights = np.exp(shifted)
        z = weights.sum()
        probs = weights / z
        kernel = linalg.divided_difference_kernel(shifted) / z
        r = self.size
        hess = np.empty((r, r))
        means = np.empty(r)
        unit = np.zeros(r)
        for j in range(r):
            unit[j] = 1.0
            e = vh @ self.base_hamiltonian(unit) @ v
            unit[j] = 0.0
            means[j] = e.diagonal().real @ probs
            hess[:, j] = self.expectations(v @ (kernel * e) @ vh) - self.shifts
        hess -= np.outer(means, means)
        return 0.5 * (hess + hess.T)


def _as_set(observables, shifts=None) -> ObservableSet:
    if isinstance(observables, ObservableSet):
        return observables
    return ObservableSet(observables, shifts=shifts)


def log_partition(theta, observables, shifts=None) -> float:
    return _as_set(observables, shifts).log_partition(theta)


def gibbs_state(theta, observables, shifts=None) -> GibbsState:
    return _as_set(observables, shifts).gibbs(theta)


def gradient(theta, observables, shifts=None) -> np.ndarray:
    return _as_set(observables, shifts).gibbs(theta).expectations


def hessian(theta, observables, shifts=None) -> np.ndarray:
    return _as_set(observables, shifts).hessian(theta)
