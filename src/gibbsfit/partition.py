"""Log-partition function and Gibbs-state machinery.

Everything routes through one Hermitian eigendecomposition per theta,
`ObservableSet._decompose`: GibbsState holds what it gives (rho, rho's
spectrum, psi and <T>), so entropy and the minimum eigenvalue need no
further eigensolve.
ObservableSet is the one check of an observable family: it gates every
observable once and places each Pauli string in the first of its qubit
subsets S (`linalg.check_subset`) that holds the string's support, by
one rule for every family: the subsets are listed (a reduction lists
its constraints) or else the maximal supports, those in no other, in
first-appearance order.  H(theta) adds each subset's local
sum M_S (x) I at S's `linalg.subset_positions`, and <T> reads each
subset's strings from the marginal on S, the `linalg.partial_trace`
gather; both go through the Pauli transforms on S, O(k 4^k), and a
repeated string's terms add up.  Never r dense matmuls.
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
    """Pauli rows on a run of g qubit subsets of one size k, read through
    one stacked Pauli transform."""

    subsets: tuple  # the subsets, each ascending
    rows: np.ndarray  # their rows among the set's Pauli rows, subset by subset
    positions: np.ndarray | None  # (g, 2^(n-k), 4^k) `linalg.subset_positions`; None on the register
    bins: np.ndarray  # each row's j * 4^k + its `pauli.string_keys` on its subset j

    def local_sums(self, coeffs: np.ndarray, out=None) -> np.ndarray:
        """(g, 2^k, 2^k): each subset's sum_j coeffs[j] P_j over its rows, a
        repeated string's terms added in row order; added into `out` if given."""
        size = 4 ** len(self.subsets[0])
        full = np.bincount(self.bins, weights=coeffs, minlength=len(self.subsets) * size)
        return pauli.sum_transform(full.reshape(-1, size), out)


def _supports(codes: np.ndarray, n: int) -> np.ndarray:
    """Each (r, n) letter-code row's support as a bit mask, qubit 0 highest."""
    return (codes != 0) @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))


def _maximal_supports(codes: np.ndarray, n: int) -> list:
    """The maximal supports of the rows, those no other support holds, in
    first-appearance order."""
    distinct, first = np.unique(_supports(codes, n), return_index=True)
    distinct = distinct[np.argsort(first)]
    inside = (distinct[:, None] & ~distinct[None, :]) == 0  # [i, j]: support i within j
    bits = (distinct[inside.sum(1) == 1, None] >> np.arange(n - 1, -1, -1)) & 1
    return [tuple(np.flatnonzero(b).tolist()) for b in bits]


def _place(codes: np.ndarray, subsets: list, n: int) -> list:
    """Each subset's rows: a row goes to the first subset that holds its
    support, and a row that none holds raises."""
    distinct, inverse = np.unique(_supports(codes, n), return_inverse=True)
    held = np.array([sum(1 << (n - 1 - q) for q in s) for s in subsets], dtype=np.int64)
    inside = (distinct[:, None] & ~held[None, :]) == 0  # [i, j]: support i within subset j
    # a last column that holds every support: the owner of a row no subset holds
    owner = np.c_[inside, np.ones(len(distinct), dtype=bool)].argmax(1)[inverse]
    orphan = np.flatnonzero(owner == len(subsets))
    if orphan.size:
        raise ValueError(f"Pauli row {orphan[0]} acts on no listed subset")
    return [np.flatnonzero(owner == j) for j in range(len(subsets))]


class ObservableSet:
    """A fixed family {T_i} of Pauli strings and dense Hermitian matrices
    on a dim-dimensional space, with fast H/psi/grad.

    `observables` is a sequence of PauliStrings and matrices, or an
    (r, n) integer array of letter codes (`pauli.CODES`) for a family of
    r strings.  Inside the set every string is its row of `codes`: a
    sequence's PauliStrings go through `pauli.letter_codes` once, here.

    The constructor is the only check an observable gets: a Pauli
    string's register must be n qubits and the string not the identity,
    a letter-code array must hold integers in 0..3, and a matrix must
    pass the Hermiticity gate and have dimension dim.  A failure raises
    InvalidEntryError naming the observable's index (row 0 for an array
    that is not of integers).
    `observables` holds the gated family: strings as PauliStrings,
    matrices as gated; a set made from codes builds its PauliStrings on
    first access.

    Each Pauli row goes to the first of `subsets` (each a
    `linalg.check_subset`) that holds its support, and a row that none
    holds is a ValueError.  A marginal reduction lists its constraints,
    so a repeated or nested one keeps an empty block; by default the
    subsets are the maximal supports, those no other support holds, in
    first-appearance order.
    """

    def __init__(self, observables, dim: int, n: int | None = None, subsets=None):
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
            if not np.issubdtype(observables.dtype, np.integer):
                detail = f"letter codes must be integers, got {observables.dtype}"
                raise InvalidEntryError(0, "pauli", detail)
            if observables.shape != (self.size, n):
                raise ValueError(f"letter codes must have shape (r, n={n}), got {observables.shape}")
            bad = np.flatnonzero(((observables < 0) | (observables > 3)).any(1))
            if bad.size:
                row = observables[bad[0]].tolist()
                raise InvalidEntryError(bad[0], "pauli", f"letter codes must be in 0..3, got {row}")
            codes = np.asarray(observables, dtype=np.intp)
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
        identity = np.flatnonzero(~codes.any(1))
        if identity.size:
            i = pauli_idx[identity[0]]
            raise InvalidEntryError(i, "pauli", "identity string is not a valid observable")
        self.codes = codes  # (k, n) letter codes of the Pauli rows
        self.pauli_index = np.asarray(pauli_idx, dtype=np.intp)
        self.matrix_index = np.asarray(mat_idx, dtype=np.intp)
        self.matrices = mats
        if subsets is None:
            subsets = _maximal_supports(codes, n or 0)
        else:
            subsets = [linalg.check_subset(q, n) for q in subsets]
        self._blocks = self._runs(subsets, _place(codes, subsets, n or 0))

    def _runs(self, subsets, rows) -> tuple:
        """The blocks of the subsets and their rows, in order: consecutive
        proper subsets of one size share a block, as a transform on few
        qubits costs its call overhead; the register is alone."""
        runs = []
        for qubits, part in zip(subsets, rows):
            part = (qubits, part, pauli.string_keys(self.codes[part][:, qubits]))
            if runs and len(qubits) == len(runs[-1][-1][0]) < self.n:
                runs[-1].append(part)
            else:
                runs.append([part])
        blocks = []
        for run in runs:
            (subsets, rows, keys), k = zip(*run), len(run[0][0])
            at = None if k == self.n else np.stack([linalg.subset_positions(q, self.n) for q in subsets])
            bins = np.concatenate([j * 4**k + key for j, key in enumerate(keys)])
            blocks.append(_Block(subsets, np.concatenate(rows), at, bins))
        return tuple(blocks)

    @property
    def observables(self) -> tuple:
        if self._observables is None:
            self._observables = pauli.strings_from_codes(self.codes)
        return self._observables

    @property
    def subsets(self) -> tuple:
        """The subsets in order, one block each: those listed, else the maximal supports."""
        return tuple(q for b in self._blocks for q in b.subsets)

    def local_sums(self, theta: np.ndarray) -> list:
        """Each subset's sum of theta_j P_j over its rows, as the 2^k x 2^k
        matrix on its qubits."""
        coeffs = self._pauli_coeffs(theta)
        return [local for b in self._blocks for local in b.local_sums(coeffs[b.rows])]

    def _pauli_coeffs(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.size,):
            raise ValueError(f"theta: expected r = {self.size} entries, got {theta.size}")
        return theta[self.pauli_index]

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """H(theta) = sum_i theta_i T_i: the blocks' local sums, each
        widened by the identity on the other qubits, added into zeros in
        block order, then the dense observables.  A block on the whole
        register adds its local sum into H through a view, so that a
        build holds H, one 4^k buffer and the coefficients."""
        theta = np.asarray(theta, dtype=np.float64)
        coeffs = self._pauli_coeffs(theta)
        flat = np.zeros(self.dim * self.dim, dtype=np.complex128)
        h = flat.reshape(self.dim, self.dim)
        for b in self._blocks:
            if b.positions is None:
                b.local_sums(coeffs[b.rows], out=h[None])
            else:
                for at, local in zip(b.positions, b.local_sums(coeffs[b.rows])):
                    flat[at] += local.ravel()
        for j, i in enumerate(self.matrix_index):
            h += theta[i] * self.matrices[j]
        return h

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        """<T_i> under rho; rho must have unit trace."""
        out = np.empty(self.size)
        out[self.pauli_index] = self.pauli_expectations(rho)
        for j, i in enumerate(self.matrix_index):
            out[i] = np.vdot(self.matrices[j], rho).real
        return out

    def marginals(self, m: np.ndarray) -> list:
        """m's marginal on each subset (the other qubits traced out), as a
        2^k x 2^k matrix."""
        return [marginal for stack in self._marginal_stacks(m) for marginal in stack]

    def _marginal_stacks(self, m: np.ndarray):
        """Each block's (g, 2^k, 2^k) marginals of m: the register's is a
        view of m, and a proper subset's the `partial_trace` gather."""
        flat = m.ravel()
        for b in self._blocks:
            if b.positions is None:
                yield m[None]
            else:
                d = 1 << len(b.subsets[0])
                yield np.stack([flat[at].sum(0).reshape(d, d) for at in b.positions])

    def pauli_expectations(self, m: np.ndarray) -> np.ndarray:
        """Re Tr(P_k m) for the Pauli rows, in their order, each read from
        m's marginal m_S on its subset, for any d x d matrix m:
        Tr((P (x) I) m) = Tr(P m_S), which the block reads."""
        out = np.empty(len(self.codes))
        for b, stack in zip(self._blocks, self._marginal_stacks(m)):
            out[b.rows] = pauli.trace_transform(stack).ravel()[b.bins].real
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
