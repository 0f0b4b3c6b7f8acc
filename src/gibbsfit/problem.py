"""Problem data model, marginal-to-expectation reduction, and the
necessary-condition diagnostics for overlapping marginals.

Two problem shapes exist.  A MarginalProblem carries local density
matrices on qubit subsets; it reduces to an ExpectationProblem whose
observables are all non-identity Pauli strings supported on those
subsets, listed as the problem's subsets.  An ExpectationProblem can
also be built directly from Pauli strings and Hermitian matrices with
targets, the more general use case; it has one constructor either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .partition import InvalidEntryError, ObservableSet
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

# Slack on spectral endpoints, relative to the spectral radius R of T_i
# (as SPECTRAL_SLACK * max(R, 1)): a target beyond an endpoint by more is
# rejected, and one within it of an endpoint is extreme (the solver's
# boundary flag, `ExpectationProblem.extreme`).
SPECTRAL_SLACK = 1e-12


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


class IncompatibleMarginalsError(ValueError):
    """Two overlapping marginals disagree on their shared qubits beyond
    COMPAT_ATOL in trace distance.  `pairs` is every overlapping pair's
    (i, j, trace distance), as check_local_compatibility measures them."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        worst = max(d for _, _, d in self.pairs)
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
            try:
                qubits = linalg.check_subset(qubits, self.n)
            except ValueError as exc:
                raise InvalidEntryError(i, "qubits", str(exc)) from exc
            if not qubits:
                raise InvalidEntryError(i, "qubits", "empty qubit subset")
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


class ExpectationProblem:
    """Observables T_i with targets t_i on a dim-dimensional space.

    `observables` is a sequence of PauliStrings and dense Hermitian
    matrices, or an (r, n) array of letter codes, as ObservableSet takes
    them.  The constructor builds the family's one ObservableSet,
    `observable_set` (every observable is gated there, and `subsets`
    places its Pauli rows), and reads spec(T_i) = [lo_i, hi_i] once:
    (-1, 1) for a string, one eigvalsh for a matrix.  No state reaches a
    t_i outside [lo_i, hi_i]: one beyond it by more than SPECTRAL_SLACK
    max(R_i, 1), R_i the spectral radius of T_i, is rejected.  The
    interval also gives `extreme` (t_i at an endpoint, up to that slack;
    only singular states reach one, so no Gibbs state ever will) and
    `half_widths` ((hi_i - lo_i)/2), which the solver reads.  `observables`
    is the set's gated tuple.
    """

    def __init__(self, observables, targets, dim: int, n: int | None = None, subsets=None):
        obset = ObservableSet(observables, dim=dim, n=n, subsets=subsets)
        targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
        if targets.shape != (obset.size,):
            raise ValueError(f"lengths disagree: {obset.size} observables, {targets.shape} targets")
        bad = np.flatnonzero(~np.isfinite(targets))
        if bad.size:
            raise InvalidEntryError(bad[0], "target", f"target {float(targets[bad[0]])} is not finite")
        intervals = np.tile((-1.0, 1.0), (obset.size, 1))
        for i, m in zip(obset.matrix_index, obset.matrices):
            intervals[i] = spectral_interval(m)
        lo, hi = intervals.T
        tol = SPECTRAL_SLACK * np.maximum(np.abs(intervals).max(axis=1), 1.0)
        bad = np.flatnonzero((targets < lo - tol) | (targets > hi + tol))
        if bad.size:
            i = bad[0]
            raise InvalidEntryError(i, "target", f"{targets[i]} is outside spectrum [{lo[i]}, {hi[i]}]")
        self.observable_set = obset
        self.targets = targets
        self.dim = obset.dim
        self.n = obset.n
        self.extreme = (targets >= hi - tol) | (targets <= lo + tol)
        self.half_widths = 0.5 * (hi - lo)

    @classmethod
    def from_paulis(cls, n: int, pairs) -> "ExpectationProblem":
        """pairs: iterable of (PauliString, target)."""
        obs = tuple(p for p, _ in pairs)
        targets = np.array([t for _, t in pairs], dtype=np.float64)
        return cls(obs, targets, dim=1 << n, n=n)

    @classmethod
    def from_matrices(cls, mats, targets, n: int | None = None) -> "ExpectationProblem":
        mats = tuple(np.asarray(m) for m in mats)
        return cls(mats, targets, dim=mats[0].shape[0], n=n)

    @property
    def observables(self) -> tuple:
        return self.observable_set.observables

    @property
    def size(self) -> int:
        return self.observable_set.size


def spectral_interval(op) -> tuple[float, float]:
    """(min, max) eigenvalue of op."""
    if isinstance(op, PauliString):
        return (-1.0, 1.0)
    w = np.linalg.eigvalsh(np.asarray(op, dtype=np.complex128))
    return (float(w[0]), float(w[-1]))


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


def reduce_to_expectations(mp: MarginalProblem) -> ExpectationProblem:
    """Replace each marginal by Pauli expectation targets.

    Emits one constraint per distinct non-identity string supported on
    some subset (dedup on the strings' letter codes, first-appearance
    order).  Every command that reads marginals runs it, so it alone
    decides whether they agree.  Targets are read from the first
    constraint containing the string and cross-checked against every
    other: the first disagreement beyond TARGET_CONFLICT_ATOL, in
    constraint then string order, raises TargetConflictError.  Then each
    overlapping pair must lie within COMPAT_ATOL in trace distance
    (check_local_compatibility), or IncompatibleMarginalsError raises:
    strings that each agree can add up to a larger distance.  All 4^k - 1
    targets of a constraint come from one `pauli.trace_transform` of its
    marginal (real: the marginal passed the density gate), and the dedup
    and the check are array operations over every emitted string at
    once.  The problem's subsets are the constraints', so each string
    sits in the block of the first constraint holding it, the one that
    emitted it first.
    """
    n = mp.n
    codes = [pauli.subset_codes(qubits, n) for qubits, _ in mp.constraints]
    t = np.concatenate([pauli.trace_transform(rho)[1:].real for _, rho in mp.constraints])
    starts = np.cumsum([0] + [len(c) for c in codes])
    codes = np.concatenate(codes)
    _, first, inverse = np.unique(pauli.string_keys(codes), return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct strings in first-appearance order
    where = np.argsort(order)[inverse]  # each emitted string's position in observables
    first = first[order]  # where each distinct string appears first
    bad = np.flatnonzero(np.abs(t[first][where] - t) > TARGET_CONFLICT_ATOL)
    if bad.size:
        e = bad[0]
        a = first[where[e]]
        owner, ci = np.searchsorted(starts, [a, e], side="right") - 1
        raise TargetConflictError(
            str(pauli.strings_from_codes(codes[a : a + 1])[0]),
            mp.constraints[owner][0],
            mp.constraints[ci][0],
            float(t[a]),
            float(t[e]),
        )
    pairs = check_local_compatibility(mp)
    if any(dist > COMPAT_ATOL for _, _, dist in pairs):
        raise IncompatibleMarginalsError(pairs)
    # |Tr(P rho)| <= 1 holds for any state, but round-off can poke past
    # the constructor's bound at targets that sit exactly on it.
    targets = np.clip(t[first], -1.0, 1.0)
    return ExpectationProblem(codes[first], targets, 1 << n, n, subsets=mp.subsets)


def check_independence(ep: ExpectationProblem) -> RankReport:
    """Rank check on {I, T_1..T_r}: independent iff the smallest
    eigenvalue of their Gram matrix G (G_ab = Tr(A B)) exceeds 1e-8
    times the largest.  A dense observable enters rescaled to a string's
    Frobenius norm sqrt(d), divided by its largest |entry| first so that
    no square overflows or underflows, so the verdict does not depend on
    its scale.  G is never built: I (key 0) and the distinct strings are
    orthogonal with squared norm d, so a string listed c times gives G
    the eigenvalue d c and c - 1 zeros, and the m dense observables
    couple in only through B, their traces against I and each distinct
    string (the ObservableSet kernel) times sqrt(c).  G is d c off the
    span of B's rows of multiplicity c (one QR each); the rest of its
    spectrum is one eigvalsh of at most (distinct multiplicities + 1) m
    rows.  A marginal reduction emits distinct strings: it is independent.
    """
    d = ep.dim
    obset = ep.observable_set
    keys = np.append(pauli.string_keys(obset.codes), 0)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    scaled = []
    for op in obset.matrices:
        peak = np.abs(op).max()
        if peak > 0:
            op = op / peak
            op *= np.sqrt(d) / np.linalg.norm(op)
        scaled.append(op)
    m = len(scaled)
    b = [np.append(obset.pauli_expectations(op), np.trace(op).real)[first] for op in scaled]
    b = np.reshape(b, (m, len(first))).T * np.sqrt(counts)[:, None]
    w, diagonal, coupling = [np.zeros(len(keys) - len(first))], [], []
    for c in np.unique(counts):
        q, r = np.linalg.qr(b[counts == c])
        w.append(np.full(len(q) - len(r), float(d * c)))
        diagonal.append(np.full(len(r), float(d * c)))
        coupling.append(r)
    coupling = np.concatenate(coupling)
    gmm = np.reshape([np.vdot(x, y).real for x in scaled for y in scaled], (m, m))
    small = np.block([[np.diag(np.concatenate(diagonal)), coupling], [coupling.T, gmm]])
    w = np.concatenate(w + [np.linalg.eigvalsh(small)])
    lo, hi = float(w.min()), float(w.max())
    return RankReport(bool(lo > 1e-8 * hi), lo, hi, ep.size + 1)


def kikuchi_regions(subsets) -> list[tuple[tuple[int, ...], int]]:
    """The region graph of a family's subsets: the subsets closed under
    (non-empty) intersection, each region R with its Kikuchi counting
    number c_R = 1 - sum of c_A over the regions A strictly containing
    R.  Regions with c_R = 0 are dropped.  On a chain of pairs that
    leaves +1 per pair and -1 per interior qubit.  Order: larger regions
    first, then ascending qubit tuples.
    """
    regions = {frozenset(s) for s in subsets}
    frontier = set(regions)
    while frontier:
        frontier = {a & b for a in frontier for b in regions} - regions - {frozenset()}
        regions |= frontier
    counts: dict[frozenset, int] = {}
    for r in sorted(regions, key=lambda r: (-len(r), sorted(r))):
        counts[r] = 1 - sum(c for a, c in counts.items() if r < a)
    return [(tuple(sorted(r)), c) for r, c in counts.items() if c]


def restrict_constraint(constraint, qubits) -> np.ndarray:
    """A (subset, rho) constraint's marginal on its qubits in `qubits`:
    rho's `linalg.partial_trace` on their positions in subset."""
    subset, rho = constraint
    keep = tuple(i for i, q in enumerate(subset) if q in qubits)
    return linalg.partial_trace(rho, len(subset), keep)


def _overlapping_pairs(mp: MarginalProblem):
    """(i, j, shared qubits) for each pair i < j of overlapping constraints."""
    subsets = mp.subsets
    for i in range(len(subsets)):
        for j in range(i + 1, len(subsets)):
            overlap = set(subsets[i]) & set(subsets[j])
            if overlap:
                yield i, j, overlap


def check_local_compatibility(mp: MarginalProblem) -> tuple:
    """((i, j, trace distance), ...) between the marginals of each pair
    i < j of overlapping constraints on their shared qubits.  The
    reduction holds each to COMPAT_ATOL; `check` reports them."""
    pairs = []
    for i, j, overlap in _overlapping_pairs(mp):
        ri = restrict_constraint(mp.constraints[i], overlap)
        rj = restrict_constraint(mp.constraints[j], overlap)
        pairs.append((i, j, float(linalg.trace_distance(ri, rj))))
    return tuple(pairs)


def entropy_diagnostic(mp: MarginalProblem) -> list[EntropyViolation]:
    """Flag overlapping pairs with S(rho_i) + S(rho_j) < S(overlap).

    The inequality follows from strong subadditivity plus S(global) >= 0
    (derivation in the README); any flag proves that no global state can
    produce these marginals.  Advisory and one-directional: absence of
    flags proves nothing.  The overlap marginal is taken from the
    lower-indexed constraint, so pairs should pass the local
    compatibility check first.  Slack: ENTROPY_ATOL bits.  The marginals
    and their partial traces are gated density matrices: no gate here.
    """
    entropies = [linalg.spectrum_entropy(np.linalg.eigvalsh(rho)) for _, rho in mp.constraints]
    out = []
    for i, j, overlap in _overlapping_pairs(mp):
        s_i, s_j = entropies[i], entropies[j]
        overlap_rho = restrict_constraint(mp.constraints[i], overlap)
        s_ov = linalg.spectrum_entropy(np.linalg.eigvalsh(overlap_rho))
        if s_i + s_j < s_ov - ENTROPY_ATOL:
            out.append(EntropyViolation(i, j, s_i, s_j, s_ov))
    return out
