"""Symbolic n-qubit Pauli strings and their dense realizations.

Inside the package a string is its row of letter codes (0..3 for
I, X, Y, Z; entry q is qubit q's letter): marginal reductions involve
thousands of strings, and deduplication across overlapping subsets
has to be exact, not numeric.  PauliString, the (qubit index, letter)
pairs, is the form at the API edge; `letter_codes` and
`strings_from_codes` convert between the two.  `subset_codes` (the
strings on a subset, placed on a register) and `string_keys` (one
integer per string) are the only code that lays strings out or compares
them.  A string is materialized only on demand.

Qubit 0 is the leftmost tensor factor (most significant bit of the
basis index).  Indices are 0-based everywhere.  Text form: "X0 Z2",
letter+index tokens in ascending order; the empty string is the
identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from . import linalg

_LETTERS = frozenset("XYZ")
_TOKEN = re.compile(r"^([XYZ])(\d+)$")


@dataclass(frozen=True, eq=False)
class PauliString:
    """A k-local Pauli operator on an n-qubit register.

    `letters` holds (qubit, letter) pairs in ascending qubit order;
    qubits not listed carry the identity.  Equality and hashing look at
    the letters only, so the same physical operator embedded in wider
    registers compares equal — that is what makes symbolic dedup across
    overlapping subsets work.
    """

    n: int
    letters: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        object.__setattr__(self, "letters", tuple((int(q), str(c)) for q, c in self.letters))
        prev = -1
        for q, c in self.letters:
            if c not in _LETTERS:
                raise ValueError(f"bad Pauli letter {c!r}")
            if q <= prev:
                raise ValueError(f"qubit indices must be strictly ascending, got {self.letters}")
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
            prev = q

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, PauliString) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return " ".join(f"{c}{q}" for q, c in self.letters)


def identity(n: int) -> PauliString:
    return PauliString(n)


def parse_label(text: str, n: int) -> PauliString:
    """Parse the canonical text form, e.g. "X0 Z2".  "" is the identity."""
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad Pauli token {token!r} (expected letter+index like 'X0')")
        letters.append((int(m.group(2)), m.group(1)))
    indices = [q for q, _ in letters]
    if indices != sorted(set(indices)):
        raise ValueError(f"qubit indices must be ascending and unique in {text!r}")
    return PauliString(n, tuple(letters))


CODES = "IXYZ"  # the letter of each letter code 0..3


def letter_codes(strings, n: int) -> np.ndarray:
    """(len(strings), n) letter codes of strings on an n-qubit register:
    entry [j, q] is the code of string j's letter on qubit q."""
    codes = np.zeros((len(strings), n), dtype=np.intp)
    at = [(j, q, CODES.index(c)) for j, p in enumerate(strings) for q, c in p.letters]
    at = np.array(at, dtype=np.intp).reshape(-1, 3)
    codes[at[:, 0], at[:, 1]] = at[:, 2]
    return codes


def strings_from_codes(codes) -> tuple[PauliString, ...]:
    """The PauliStrings of (m, n) letter codes; inverse of letter_codes."""
    codes = np.asarray(codes)
    n = codes.shape[1]
    return tuple(
        PauliString(n, tuple((q, CODES[c]) for q, c in enumerate(row) if c)) for row in codes.tolist()
    )


def string_tables(codes) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form of the strings with letter codes (m, k),
    built in one batched pass: (perms, phases), each (m, 2^k), where
    column a of string j has its one nonzero, phases[j, a], at row
    perms[j, a].  X and Y flip their qubit's bit; Y multiplies by
    i(-1)^bit and Z by (-1)^bit, qubit by qubit from qubit 0."""
    codes = np.asarray(codes, dtype=np.intp)
    m, k = codes.shape
    if k > linalg.MAX_QUBITS:
        raise ValueError(f"n={k} exceeds the {linalg.MAX_QUBITS}-qubit cap")
    idx = np.arange(1 << k, dtype=np.int64)
    flips = ((codes == 1) | (codes == 2)) @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    perms = idx ^ flips[:, None]
    phases = np.ones((m, 1 << k), dtype=np.complex128)
    for q in range(k):
        sign = 1 - 2 * ((idx >> (k - 1 - q)) & 1)
        np.multiply(phases, 1j * sign, out=phases, where=codes[:, q, None] == 2)
        np.multiply(phases, 1.0 * sign, out=phases, where=codes[:, q, None] == 3)
    return perms, phases


def perm_phase(p: PauliString):
    """(perm, phase) of one string: its row of `string_tables`."""
    perms, phases = string_tables(letter_codes([p], p.n))
    return perms[0], phases[0]


@lru_cache(maxsize=None)
def region_tables(k: int):
    """The 4^k - 1 non-identity strings on k qubits, last qubit varying
    fastest: their letter codes (m, k) and `string_tables` (perms, phases)."""
    if not 1 <= k <= linalg.MAX_QUBITS:
        raise ValueError(f"k={k} outside 1..{linalg.MAX_QUBITS}")
    codes = subset_codes(range(k), k)
    perms, phases = string_tables(codes)
    for a in (codes, perms, phases):
        a.flags.writeable = False
    return codes, perms, phases


def subset_tables(blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`string_tables` of the strings `subset_codes(qubits, n)[rows]` of
    each (qubits, rows) block, stacked in block order, bitwise, gathered
    from the cached `region_tables(k)`: a string's phase at column a
    depends only on a's bits on `qubits`, since qubits off its support
    take no multiply, and its perm flips a by its region row's flip
    mask (that row's perm at column 0) moved onto those qubits."""
    blocks = [(qubits, np.asarray(rows, dtype=np.intp)) for qubits, rows in blocks]
    m = sum(len(rows) for _, rows in blocks)
    cols = np.arange(1 << n, dtype=np.int64)
    perms = np.empty((m, 1 << n), dtype=np.int64)
    phases = np.empty((m, 1 << n), dtype=np.complex128)
    start = 0
    for qubits, rows in blocks:
        k, stop = len(qubits), start + len(rows)
        _, region_perms, region_phases = region_tables(k)
        at = n - 1 - np.asarray(qubits, dtype=np.int64)  # each qubit's bit in a column index
        local_bits = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
        local = ((cols[:, None] >> at) & 1) @ local_bits  # column a's region column
        flips = ((region_perms[rows, 0, None] & local_bits) != 0) @ (1 << at)
        np.bitwise_xor(cols, flips[:, None], out=perms[start:stop])
        np.take(region_phases[rows], local, axis=1, out=phases[start:stop], mode="clip")
        start = stop
    return perms, phases


def subset_codes(qubits, n: int) -> np.ndarray:
    """(4^k - 1, n) letter codes of the non-identity strings on the k
    `qubits` (strictly ascending) of an n-qubit register, last qubit
    varying fastest: row j holds the base-4 digits of j + 1 on those
    qubits, so its `string_keys` on the k-qubit register is j + 1."""
    qubits = tuple(qubits)
    if list(qubits) != sorted(set(qubits)):
        raise ValueError(f"qubit indices must be strictly ascending, got {qubits}")
    if qubits and not (qubits[0] >= 0 and qubits[-1] < n):
        raise ValueError(f"qubits {qubits} out of range for n={n}")
    k = len(qubits)
    codes = np.zeros((4**k - 1, n), dtype=np.intp)
    digits = 2 * np.arange(k - 1, -1, -1, dtype=np.intp)
    codes[:, qubits] = (np.arange(1, 4**k, dtype=np.intp)[:, None] >> digits) & 3
    return codes


def string_keys(codes: np.ndarray) -> np.ndarray:
    """One integer per row of (m, n) letter codes: the letters read as a
    base-4 number, qubit 0 most significant, so equal strings have equal
    keys (the inverse of `subset_codes` on all n qubits)."""
    return codes @ 4 ** np.arange(codes.shape[1] - 1, -1, -1, dtype=np.int64)


def gather_index(perms: np.ndarray) -> np.ndarray:
    """Flat positions a * d + perms[j, a] of every table entry: A[a, perm_a]
    in a d x d matrix A, which Tr(P_j A) sums, and P_j's column a in H^T."""
    d = perms.shape[-1]
    return np.arange(d) * d + perms


def table_perms(index: np.ndarray) -> np.ndarray:
    """The perms of a `gather_index`, read back."""
    return index % index.shape[-1]


def pauli_sum(coeffs: np.ndarray, phases: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Dense sum_j coeffs[j] P_j of the strings with these `phases` and
    `gather_index`, added into H^T in row order and returned as its
    transpose (a view): each entry sums the same terms in string order."""
    d = phases.shape[1]
    out = np.zeros(d * d, dtype=np.complex128)
    np.add.at(out, index.ravel(), (coeffs[:, None] * phases).ravel())  # 1-D: add.at's fast path
    return out.reshape(d, d).T


def region_traces(a: np.ndarray) -> np.ndarray:
    """Tr(P_j A) for every string j of `region_tables(k)`, A a 2^k x 2^k
    matrix: one batched `gather_index` gather, each trace summed by the
    same dot product as `pauli_trace`, so the values are bitwise its values."""
    d = a.shape[0]
    _, perms, phases = region_tables(d.bit_length() - 1)
    # Tr(P A) = sum_a phase_a A[a, perm_a]
    gathered = np.asarray(a).ravel()[gather_index(perms)]
    return np.matmul(phases[:, None, :], gathered[:, :, None])[:, 0, 0]


def materialize(p: PauliString) -> np.ndarray:
    """Dense 2^n matrix of the string (Hermitian, unitary, involutory)."""
    perm, phase = perm_phase(p)
    d = perm.shape[0]
    m = np.zeros((d, d), dtype=np.complex128)
    m[perm, np.arange(d)] = phase
    return m


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
    in `subset_codes` order (last qubit varies fastest), the identity
    first when it is included."""
    codes = subset_codes(qubits, n)
    if include_identity:
        codes = np.vstack([np.zeros((1, n), dtype=np.intp), codes])
    return iter(strings_from_codes(codes))


@dataclass(frozen=True, eq=False)
class PauliExpansion:
    n: int
    coefficients: dict  # PauliString -> float


def expand(rho) -> PauliExpansion:
    """Hilbert-Schmidt expansion: alpha_P = Tr(P rho)/2^k.

    Coefficients with |alpha| < 1e-14 are dropped; a coefficient with
    imaginary part above 1e-10 means the input was not Hermitian.
    """
    rho = linalg.as_hermitian(rho)
    d = rho.shape[0]
    k = d.bit_length() - 1
    if 1 << k != d:
        raise ValueError(f"dimension {d} is not a power of 2")
    if k > linalg.MAX_QUBITS:
        raise ValueError(f"n={k} exceeds the {linalg.MAX_QUBITS}-qubit cap")
    codes = np.vstack([np.zeros((1, k), dtype=np.intp), region_tables(k)[0]])
    vals = np.concatenate([[np.trace(rho)], region_traces(rho)])
    bad = np.flatnonzero(np.abs(vals.imag / d) > 1e-10)
    if bad.size:
        val, p = complex(vals[bad[0]]) / d, strings_from_codes(codes[bad[:1]])[0]
        raise ValueError(f"non-real coefficient {val!r} for {str(p) or 'identity'}")
    alphas = vals.real / d
    kept = np.flatnonzero(np.abs(alphas) >= 1e-14)
    coeffs = dict(zip(strings_from_codes(codes[kept]), alphas[kept].tolist()))
    return PauliExpansion(k, coeffs)


def reconstruct(e: PauliExpansion) -> np.ndarray:
    """Dense sum_P alpha_P P; the inverse of expand."""
    perms, phases = string_tables(letter_codes(e.coefficients, e.n))
    alphas = np.array(list(e.coefficients.values()))
    return pauli_sum(alphas, phases, gather_index(perms))


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
