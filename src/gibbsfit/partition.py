"""Log-partition function and Gibbs-state machinery.

Everything routes through one Hermitian eigendecomposition per theta,
`ObservableSet._decompose`: GibbsState holds what it gives (rho, rho's
spectrum, psi and <T>), so entropy and the minimum eigenvalue need no
further eigensolve.
ObservableSet is the one check of an observable family: it gates every
dense observable once and keeps its Pauli strings in blocks, one per
qubit subset S (a `linalg.check_subset`) that holds their support, and
S's `linalg.subset_positions` in the register, so that H(theta) adds
each block's local sum M_S (x) I and <T> reads each block's strings
from the marginal on S, the gather that `linalg.partial_trace` makes.
A block given to the constructor (a marginal reduction's, whose strings
are enumerated from S) keeps only its strings' keys on S and reads M_S
and the traces through the Pauli transforms, O(k 4^k) a block; the
default block on the whole register keeps its strings' signed-
permutation tables, O(r d).  Never r dense matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Block(NamedTuple):
    """Consecutive Pauli rows supported on one qubit subset S."""

    qubits: tuple  # the subset S, ascending
    rows: slice  # its rows among the set's Pauli rows
    positions: np.ndarray | None  # `linalg.subset_positions(S, n)`; None when S is the register
    # a transform block's rows' `pauli.string_keys` on S; None in the
    # default whole-register block
    keys: np.ndarray | None
    # the default block's (r, d) `pauli.string_tables` phases, exact
    # +-1/+-i, and the perms' `pauli.gather_index`; None in a transform block
    phases: np.ndarray | None
    gather: np.ndarray | None

    def local_sum(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_j coeffs[j] P_j over the rows, as a 2^k x 2^k matrix on S."""
        if self.keys is None:
            return pauli.pauli_sum(coeffs, self.phases, self.gather)
        full = np.zeros(4 ** len(self.qubits))
        full[self.keys] = coeffs
        return pauli.sum_transform(full)

    def traces(self, marginal: np.ndarray) -> np.ndarray:
        """Tr(P_j m_S) for the rows, m_S a 2^k x 2^k matrix on S."""
        if self.keys is None:
            return pauli.traces(self.phases, self.gather, marginal)
        return pauli.trace_transform(marginal)[self.keys]


class ObservableSet:
    """A fixed family {T_i} of Pauli strings and dense Hermitian matrices
    on a dim-dimensional space, with fast H/psi/grad.

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

    `blocks` splits the Pauli rows, in order, into runs of (qubits,
    count): `count` consecutive rows whose strings act on `qubits`, a
    `linalg.check_subset`, only (a marginal reduction passes one per
    constraint); such a block is read through the Pauli transforms on
    its qubits.  By default the rows form one block on the whole
    register, read through their `pauli.string_tables`.
    """

    def __init__(self, observables, dim: int, n: int | None = None, blocks=None):
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
        if blocks is None:
            self._blocks = (self._whole_register_block(),) if len(codes) else ()
        else:
            self._blocks = self._make_blocks(blocks)

    def _whole_register_block(self) -> _Block:
        """The default block: every Pauli row on the whole register, read
        through its rows' `pauli.string_tables`, r x d entries."""
        perms, phases = pauli.string_tables(self.codes)
        rows = slice(0, len(self.codes))
        return _Block(tuple(range(self.n)), rows, None, None, phases, pauli.gather_index(perms))

    def _make_blocks(self, blocks) -> tuple:
        """Blocks of (qubits, count) runs, each read through the Pauli
        transforms on its qubits."""
        out, start = [], 0
        for qubits, count in blocks:
            qubits, rows = linalg.check_subset(qubits, self.n), slice(start, start + int(count))
            local = self.codes[rows]
            if rows.stop > len(self.codes) or np.delete(local, qubits, axis=1).any():
                raise ValueError(f"Pauli rows {rows.start}..{rows.stop} do not act on {qubits} only")
            positions = None if len(qubits) == self.n else linalg.subset_positions(qubits, self.n)
            keys = pauli.string_keys(local[:, qubits])
            out.append(_Block(qubits, rows, positions, keys, None, None))
            start = rows.stop
        if start != len(self.codes):
            raise ValueError(f"blocks hold {start} of the {len(self.codes)} Pauli rows")
        return tuple(out)

    @property
    def observables(self) -> tuple:
        if self._observables is None:
            self._observables = pauli.strings_from_codes(self.codes)
        return self._observables

    @property
    def subsets(self) -> tuple:
        """The qubit subset of each block, in block order."""
        return tuple(b.qubits for b in self._blocks)

    def local_sums(self, theta: np.ndarray) -> list:
        """Each block's sum of theta_j P_j over its rows, as the 2^k x 2^k
        matrix on its qubits."""
        coeffs = self._pauli_coeffs(theta)
        return [b.local_sum(coeffs[b.rows]) for b in self._blocks]

    def _pauli_coeffs(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.size,):
            raise ValueError(f"theta: expected r = {self.size} entries, got {theta.size}")
        return theta[self.pauli_index]

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """H(theta) = sum_i theta_i T_i: the blocks' local sums, each
        widened by the identity on the other qubits, added into zeros in
        block order, then the dense observables.  It is assembled as H^T,
        the layout `pauli.pauli_sum` writes, and returned as its transpose
        (a view): the default block, always its set's only one, adds its
        terms straight into the zeros, and a transform block adds M^T at
        its positions, which are symmetric under transposition, making
        (M (x) I)^T."""
        theta = np.asarray(theta, dtype=np.float64)
        coeffs = self._pauli_coeffs(theta)
        flat = np.zeros(self.dim * self.dim, dtype=np.complex128)
        for b in self._blocks:
            if b.keys is None:
                pauli.pauli_sum(coeffs[b.rows], b.phases, b.gather, out=flat)
            else:
                at = slice(None) if b.positions is None else b.positions
                flat[at] += b.local_sum(coeffs[b.rows]).T.ravel()
        h = flat.reshape(self.dim, self.dim).T
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

    def marginals(self, m: np.ndarray) -> list:
        """m's marginal on each block's qubits (the other qubits traced
        out), as a 2^k x 2^k matrix."""
        flat = m.ravel()
        sums = (flat if b.positions is None else flat[b.positions].sum(0) for b in self._blocks)
        return [s.reshape(1 << len(b.qubits), -1) for b, s in zip(self._blocks, sums)]

    def pauli_expectations(self, m: np.ndarray) -> np.ndarray:
        """Re Tr(P_k m) for the Pauli rows, in their order, each read from
        m's marginal m_S on its block's qubits, for any d x d matrix m:
        Tr((P (x) I) m) = Tr(P m_S), which the block reads."""
        out = np.empty(len(self.codes))
        for b, marginal in zip(self._blocks, self.marginals(m)):
            out[b.rows] = b.traces(marginal).real
        return out

    def _decompose(self, theta: np.ndarray) -> tuple:
        """The one eigh of H(theta) that psi, rho and <T> read: (V, the
        Gibbs weights exp(w - w_max)/z, psi = w_max + log z) for H's
        spectrum w.  H is Hermitian by construction, so it goes to
        numpy's eigh with no gate.  Where H is not finite (theta holds a
        NaN or an infinity, or H overflows) all is NaN, quietly, with no
        eigh: a line search backtracks from there and `solver.verify`
        rejects it."""
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's eigh sets its own
            h = self.hamiltonian(theta)
            if np.isfinite(h).all():
                w, v = np.linalg.eigh(h)
            else:
                w, v = np.full(self.dim, np.nan), np.eye(self.dim, dtype=np.complex128)
            weights = np.exp(w - w[-1])
        z = weights.sum()
        return v, weights / z, float(w[-1] + np.log(z))

    def log_partition(self, theta: np.ndarray) -> float:
        return self._decompose(theta)[2]

    def gibbs(self, theta: np.ndarray) -> GibbsState:
        """rho, its spectrum, psi and the gradient <T> from one eigh.
        V is scaled in place and freed before rho is symmetrized in
        place, so assembling rho holds at most three d x d arrays."""
        v, spectrum, psi = self._decompose(theta)
        vc = v.conj()
        v *= spectrum
        rho = v @ vc.T
        del v, vc
        rho += rho.conj().T
        rho *= 0.5
        return GibbsState(rho=rho, spectrum=spectrum, psi=psi, expectations=self.expectations(rho))
