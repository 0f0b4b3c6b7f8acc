"""Problem data model, marginal-to-expectation reduction, and the
necessary-condition diagnostics for overlapping marginals.

Two problem shapes exist.  A MarginalProblem carries local density
matrices on qubit subsets; it reduces to an ExpectationProblem whose
observables are all non-identity Pauli strings supported on those
subsets.  An ExpectationProblem can also be built directly from raw
Hermitian observables with targets — the more general use case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, pauli
from .partition import ObservableSet
from .pauli import PauliString

COMPATIBLE = "Compatible"
LOCALLY_INCOMPATIBLE = "LocallyIncompatible"

# Two constraints implying different targets for the same Pauli string
# beyond this are reported as a conflict.
TARGET_CONFLICT_ATOL = 1e-9

# Trace-distance gate for pairwise overlap agreement.
COMPAT_ATOL = 1e-9

# Entropy diagnostic slack, in bits.
ENTROPY_ATOL = 1e-9


class TargetConflictError(ValueError):
    """Two constraints imply different targets for the same string."""

    def __init__(self, label, subset_a, subset_b, value_a, value_b):
        self.label = label
        self.subsets = (tuple(subset_a), tuple(subset_b))
        self.values = (float(value_a), float(value_b))
        super().__init__(
            f"conflicting targets for '{label}': {value_a!r} from subset "
            f"{tuple(subset_a)} vs {value_b!r} from subset {tuple(subset_b)}"
        )


class InvalidEntryError(ValueError):
    """One constraint or observable fails validation.

    `index` is its position in the constructor's sequence; `field` names
    the part at fault, as the problem file does: "qubits" or "rho" for a
    marginal constraint; "pauli" or "matrix" (the observable), "target"
    or "shift" for an expectation target.
    """

    def __init__(self, index: int, field: str, detail: str):
        self.index = int(index)
        self.field = field
        self.detail = detail
        super().__init__(f"entry {self.index} ({field}): {detail}")


class IncompatibleMarginalsError(ValueError):
    """Raised by the solve pipeline when pairwise overlap checks fail."""

    def __init__(self, report):
        self.report = report
        worst = max((d for _, _, d in report.pair_distances), default=0.0)
        super().__init__(f"marginals are locally incompatible (worst overlap distance {worst:.3e})")


@dataclass(frozen=True, eq=False)
class MarginalProblem:
    """Subsets C_i with local density matrices rho_i on an n-qubit register."""

    n: int
    constraints: tuple  # ((qubits, rho), ...)

    def __post_init__(self):
        if not 1 <= self.n <= linalg.MAX_QUBITS:
            raise ValueError(f"n must be in 1..{linalg.MAX_QUBITS}, got {self.n}")
        if not self.constraints:
            raise ValueError("a marginal problem needs at least one constraint")
        fixed = []
        for i, (qubits, rho) in enumerate(self.constraints):
            qubits = tuple(int(q) for q in qubits)
            if not qubits:
                raise InvalidEntryError(i, "qubits", "empty qubit subset")
            if list(qubits) != sorted(set(qubits)):
                raise InvalidEntryError(i, "qubits", f"subset must be strictly ascending, got {qubits}")
            if qubits[0] < 0 or qubits[-1] >= self.n:
                raise InvalidEntryError(i, "qubits", f"subset {qubits} out of range for n={self.n}")
            try:
                rho = linalg.as_density(rho)
            except ValueError as exc:
                raise InvalidEntryError(i, "rho", str(exc)) from exc
            if rho.shape[0] != 1 << len(qubits):
                raise InvalidEntryError(
                    i, "rho", f"matrix dim {rho.shape[0]} does not match subset size {len(qubits)}"
                )
            fixed.append((qubits, rho))
        object.__setattr__(self, "constraints", tuple(fixed))

    @property
    def subsets(self) -> tuple:
        return tuple(q for q, _ in self.constraints)


@dataclass(frozen=True, eq=False)
class ExpectationProblem:
    """Observables T_i with targets t_i on a dim-dimensional space.

    An observable is a PauliString or a dense Hermitian matrix; each
    carries an identity offset in `shifts`, so the effective operator is
    op + shift*I.  Offsets commute with everything, so the Gibbs state
    never depends on them, only psi does.

    `intervals` is derived, not passed: row i is (min, max) of
    spec(op_i + s_i I), computed once for the target bound check.
    """

    observables: tuple
    targets: np.ndarray
    shifts: np.ndarray
    dim: int
    n: int | None = None
    intervals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        obs = tuple(self.observables)
        targets = np.atleast_1d(np.asarray(self.targets, dtype=np.float64))
        shifts = np.atleast_1d(np.asarray(self.shifts, dtype=np.float64))
        if not obs:
            raise ValueError("an expectation problem needs at least one observable")
        if targets.shape != (len(obs),) or shifts.shape != (len(obs),):
            raise ValueError(
                f"lengths disagree: {len(obs)} observables, {targets.shape} targets, "
                f"{shifts.shape} shifts"
            )
        for name, values in (("target", targets), ("shift", shifts)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise InvalidEntryError(bad[0], name, f"{name} {float(values[bad[0]])} is not finite")
        if self.dim < 2 or self.dim > linalg.MAX_DIM:
            raise ValueError(f"dim must be in 2..{linalg.MAX_DIM}, got {self.dim}")
        fixed = []
        intervals = np.empty((len(obs), 2))
        for i, op in enumerate(obs):
            if isinstance(op, PauliString):
                if self.n is None or op.n != self.n:
                    raise InvalidEntryError(i, "pauli", f"register size {op.n} != n={self.n}")
                if op.is_identity:
                    raise InvalidEntryError(i, "pauli", "identity string is not a valid observable")
            else:
                try:
                    op = linalg.as_hermitian(op)
                except ValueError as exc:
                    raise InvalidEntryError(i, "matrix", str(exc)) from exc
                if op.shape[0] != self.dim:
                    raise InvalidEntryError(i, "matrix", f"dim {op.shape[0]} != problem dim {self.dim}")
            fixed.append(op)
            lo, hi = intervals[i] = spectral_interval(op, shifts[i])
            bound = max(abs(lo), abs(hi))
            if abs(targets[i]) > bound + 1e-12:
                raise InvalidEntryError(i, "target", f"|{targets[i]}| exceeds spectral radius {bound}")
        if self.n is not None and (1 << self.n) != self.dim:
            raise ValueError(f"dim {self.dim} does not match n={self.n}")
        object.__setattr__(self, "observables", tuple(fixed))
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "intervals", intervals)

    @classmethod
    def from_paulis(cls, n: int, pairs) -> "ExpectationProblem":
        """pairs: iterable of (PauliString, target)."""
        obs = tuple(p for p, _ in pairs)
        targets = np.array([t for _, t in pairs], dtype=np.float64)
        return cls(obs, targets, np.zeros_like(targets), dim=1 << n, n=n)

    @classmethod
    def from_matrices(cls, mats, targets, n: int | None = None) -> "ExpectationProblem":
        mats = tuple(np.asarray(m) for m in mats)
        targets = np.asarray(targets, dtype=np.float64)
        dim = mats[0].shape[0]
        return cls(mats, targets, np.zeros_like(targets), dim=dim, n=n)

    @property
    def size(self) -> int:
        return len(self.observables)


def spectral_interval(op, shift: float = 0.0) -> tuple[float, float]:
    """(min, max) eigenvalue of op + shift*I."""
    if isinstance(op, PauliString):
        return (-1.0 + shift, 1.0 + shift)
    w = np.linalg.eigvalsh(np.asarray(op, dtype=np.complex128))
    return (float(w[0] + shift), float(w[-1] + shift))


@dataclass(frozen=True)
class RankReport:
    independent: bool
    min_eigenvalue: float
    max_eigenvalue: float
    size: int  # Gram size, r + 1 (identity included)


@dataclass(frozen=True)
class EntropyViolation:
    i: int
    j: int
    entropy_i: float
    entropy_j: float
    overlap_entropy: float

    @property
    def deficit(self) -> float:
        return self.overlap_entropy - self.entropy_i - self.entropy_j


@dataclass(frozen=True)
class CompatibilityReport:
    pair_distances: tuple  # ((i, j, trace distance), ...)
    verdict: str
    entropy_violations: tuple = ()


def reduce_to_expectations(mp: MarginalProblem) -> ExpectationProblem:
    """Replace each marginal by Pauli expectation targets.

    Emits one constraint per distinct non-identity string supported on
    some subset (symbolic dedup, first-appearance order).  Targets are
    read from the first constraint containing the string and
    cross-checked against every other; disagreement beyond 1e-9 is a
    pairwise-compatibility violation reported as a conflict.
    """
    table: dict[PauliString, int] = {}
    observables: list[PauliString] = []
    targets: list[float] = []
    owner: list[int] = []
    for ci, (qubits, rho) in enumerate(mp.constraints):
        k = len(qubits)
        for local in pauli.strings_on(tuple(range(k)), k):
            val = pauli.pauli_trace(local, rho)
            if abs(val.imag) > 1e-10:
                raise ValueError(f"non-real expectation {val!r} for constraint {ci}")
            t = float(val.real)
            glob = pauli.relabel(local, qubits, mp.n)
            pos = table.get(glob)
            if pos is None:
                table[glob] = len(observables)
                observables.append(glob)
                targets.append(t)
                owner.append(ci)
            elif abs(targets[pos] - t) > TARGET_CONFLICT_ATOL:
                raise TargetConflictError(
                    str(glob), mp.constraints[owner[pos]][0], qubits, targets[pos], t
                )
    arr = np.array(targets, dtype=np.float64)
    # |Tr(P rho)| <= 1 holds for any state, but round-off can poke past
    # the constructor's bound at targets that sit exactly on it.
    np.clip(arr, -1.0, 1.0, out=arr)
    return ExpectationProblem(
        tuple(observables), arr, np.zeros_like(arr), dim=1 << mp.n, n=mp.n
    )


def check_independence(ep: ExpectationProblem) -> RankReport:
    """Gram-matrix rank check on {I, T_1..T_r}.

    Independent iff the smallest Gram eigenvalue exceeds 1e-8 times the
    largest.  With T_a = op_a + s_a I and I = 0 + 1*I, the Gram entry is
    Tr(op_a op_b) + s_a Tr op_b + s_b Tr op_a + s_a s_b d.  Pauli
    strings are traceless and distinct ones are orthogonal, so no string
    is ever materialized; a dense observable's inner products are its
    row of the ObservableSet expectation kernel.
    """
    d = ep.dim
    m = ep.size + 1
    shifts = np.concatenate(([1.0], ep.shifts))
    traces = np.zeros(m)
    gram = np.zeros((m, m))
    strings: dict[PauliString, list[int]] = {}
    dense = []
    for a, op in enumerate(ep.observables, start=1):
        if isinstance(op, PauliString):
            strings.setdefault(op, []).append(a)
        else:
            dense.append(a)
            traces[a] = np.trace(op).real
    for rows in strings.values():
        gram[np.ix_(rows, rows)] = d
    # Built only when a dense row needs it: building it fills the Pauli
    # table cache, which would otherwise sit next to the Gram matrix in
    # the eigensolve (8 MB at r = 1983, d = 128).
    if dense:
        kernel = ObservableSet(ep.observables, dim=d, n=ep.n)
        for a in dense:
            gram[a, 1:] = gram[1:, a] = kernel.expectations(ep.observables[a - 1])
    # in place: one expression would hold three m x m temporaries at once
    gram += np.outer(shifts, traces)
    gram += np.outer(traces, shifts)
    gram += d * np.outer(shifts, shifts)
    w = np.linalg.eigvalsh(gram)
    return RankReport(
        independent=bool(w[0] > 1e-8 * w[-1]),
        min_eigenvalue=float(w[0]),
        max_eigenvalue=float(w[-1]),
        size=m,
    )


def _overlap_marginal(constraint, overlap) -> np.ndarray:
    qubits, rho = constraint
    keep = tuple(i for i, q in enumerate(qubits) if q in overlap)
    return linalg.partial_trace(rho, len(qubits), keep)


def check_local_compatibility(mp: MarginalProblem, atol: float = COMPAT_ATOL) -> CompatibilityReport:
    """Pairwise necessary condition: overlapping marginals must agree on
    the intersection (trace distance <= 1e-9 per pair)."""
    pairs = []
    verdict = COMPATIBLE
    for i in range(len(mp.constraints)):
        for j in range(i + 1, len(mp.constraints)):
            overlap = set(mp.constraints[i][0]) & set(mp.constraints[j][0])
            if not overlap:
                continue
            ri = _overlap_marginal(mp.constraints[i], overlap)
            rj = _overlap_marginal(mp.constraints[j], overlap)
            dist = linalg.trace_distance(ri, rj)
            pairs.append((i, j, float(dist)))
            if dist > atol:
                verdict = LOCALLY_INCOMPATIBLE
    return CompatibilityReport(tuple(pairs), verdict)


def entropy_diagnostic(mp: MarginalProblem, atol_bits: float = ENTROPY_ATOL) -> list[EntropyViolation]:
    """Flag overlapping pairs with S(rho_i) + S(rho_j) < S(overlap).

    The inequality follows from strong subadditivity plus S(global) >= 0
    (derivation in the README); any flag proves that no global state can
    produce these marginals.  Advisory and one-directional: absence of
    flags proves nothing.  The overlap marginal is taken from the
    lower-indexed constraint, so pairs should pass the local
    compatibility check first.
    """
    out = []
    for i in range(len(mp.constraints)):
        for j in range(i + 1, len(mp.constraints)):
            overlap = set(mp.constraints[i][0]) & set(mp.constraints[j][0])
            if not overlap:
                continue
            s_i = linalg.von_neumann_entropy(mp.constraints[i][1])
            s_j = linalg.von_neumann_entropy(mp.constraints[j][1])
            s_ov = linalg.von_neumann_entropy(_overlap_marginal(mp.constraints[i], overlap))
            if s_i + s_j < s_ov - atol_bits:
                out.append(EntropyViolation(i, j, s_i, s_j, s_ov))
    return out
