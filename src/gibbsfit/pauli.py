"""Symbolic n-qubit Pauli strings and their dense realizations.

Inside the package a string is its row of letter codes (0..3 for
I, X, Y, Z; entry q is qubit q's letter): marginal reductions involve
thousands of strings, and deduplication across overlapping subsets
has to be exact, not numeric.  PauliString, the (qubit index, letter)
pairs, is the form at the API edge; `letter_codes` and
`strings_from_codes` convert between the two.  `subset_codes` (the
strings on a subset, placed on a register), `string_keys` (one integer
per string) and its inverse `key_codes` are the only code that lays
strings out or compares them.  A string's support and a subset pass
`linalg.check_subset`, the one subset rule.  A string is materialized
only on demand.

Dense sums and traces of strings have one kernel, the Pauli transforms
on k qubits (`trace_transform`, `sum_transform`): all 4^k strings on
those qubits, in key order, O(k 4^k) in place on one 4^k buffer, and
no table.  A family on the register is read in blocks of one kind, the
strings on one qubit subset each (a reduction's constraints, or else
the family's maximal supports; see `partition.ObservableSet`), and a
string repeated in a block adds up there.  `materialize` is one
string's `sum_transform`, widened by the identity.

Qubit 0 is the leftmost tensor factor (most significant bit of the
basis index).  Indices are 0-based everywhere.  Text form: "X0 Z2",
letter+index tokens in ascending order; the empty string is the
identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    registers compares equal.  Inside the package strings are compared
    by the `string_keys` of their letter codes, not as PauliStrings.
    """

    n: int
    letters: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        qubits = linalg.check_subset((q for q, _ in self.letters), self.n)
        letters = tuple((q, str(c)) for q, (_, c) in zip(qubits, self.letters))
        for _, c in letters:
            if c not in _LETTERS:
                raise ValueError(f"bad Pauli letter {c!r}")
        object.__setattr__(self, "letters", letters)

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


def parse_label(text: str, n: int) -> PauliString:
    """Parse the canonical text form, e.g. "X0 Z2".  "" is the identity."""
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad Pauli token {token!r} (expected letter+index like 'X0')")
        letters.append((int(m.group(2)), m.group(1)))
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


def key_codes(keys, k: int) -> np.ndarray:
    """(m, k) letter codes of the strings on k qubits with these
    `string_keys`: each key's base-4 digits, qubit 0 most significant."""
    digits = 2 * np.arange(k - 1, -1, -1, dtype=np.intp)
    return (np.asarray(keys, dtype=np.intp)[:, None] >> digits) & 3


def subset_codes(qubits, n: int) -> np.ndarray:
    """(4^k - 1, n) letter codes of the non-identity strings on the k
    `qubits` (a `linalg.check_subset`) of an n-qubit register, last qubit
    varying fastest: row j holds the base-4 digits of j + 1 on those
    qubits, so its `string_keys` on the k-qubit register is j + 1."""
    qubits = linalg.check_subset(qubits, n)
    k = len(qubits)
    codes = np.zeros((4**k - 1, n), dtype=np.intp)
    codes[:, qubits] = key_codes(np.arange(1, 4**k), k)
    return codes


def string_keys(codes: np.ndarray) -> np.ndarray:
    """One integer per row of (m, n) letter codes: the letters read as a
    base-4 number, qubit 0 most significant, so equal strings have equal
    keys (the inverse of `key_codes`)."""
    return codes @ 4 ** np.arange(codes.shape[1] - 1, -1, -1, dtype=np.int64)


def _interleaved(m: np.ndarray, k: int) -> np.ndarray:
    """The view of a stack (..., 2^k, 2^k) of matrices with axes (...,
    a_0, b_0, ..., a_{k-1}, b_{k-1}): each qubit's row and column bit
    side by side, the layout the transforms' passes read and write."""
    lead = m.ndim - 2
    axes = lead + np.arange(2 * k).reshape(2, k).T.ravel()
    return m.reshape(m.shape[:lead] + (2,) * 2 * k).transpose((*range(lead), *axes))


def trace_transform(a) -> np.ndarray:
    """Tr(P A) for all 4^k strings P on k qubits, A a 2^k x 2^k matrix,
    entry j for the string with `string_keys` j (entry 0 is Tr A); for a
    stack (..., 2^k, 2^k) of matrices, the (..., 4^k) traces of each.

    Qubit by qubit, the 2 x 2 block (a00, a01; a10, a11) of A on that
    qubit's row and column bits becomes the traces against
    (I, X, Y, Z): (a00 + a11, a01 + a10, i(a01 - a10), a00 - a11).
    k passes, in place on one copy of A's 4^k entries: O(k 4^k), and
    no table.
    """
    a = np.asarray(a)
    k = (a.shape[-1] if a.ndim else 0).bit_length() - 1
    if a.ndim < 2 or a.shape[-2:] != (1 << k, 1 << k):
        raise ValueError(f"expected a 2^k x 2^k matrix or a stack of them, got shape {a.shape}")
    t = np.array(_interleaved(a, k), dtype=np.complex128).reshape(-1)
    tmp = np.empty(t.size // 4, dtype=np.complex128)
    for q in range(k):
        s, w = t.reshape(-1, 4, 4 ** (k - q - 1)), tmp.reshape(-1, 4 ** (k - q - 1))
        np.subtract(s[:, 1], s[:, 2], out=w)
        np.add(s[:, 1], s[:, 2], out=s[:, 1])
        np.multiply(w, 1j, out=s[:, 2])
        np.subtract(s[:, 0], s[:, 3], out=w)
        np.add(s[:, 0], s[:, 3], out=s[:, 0])
        s[:, 3] = w
    return t.reshape(a.shape[:-2] + (4**k,))


def sum_transform(coeffs, out=None) -> np.ndarray:
    """The 2^k x 2^k matrix sum_P c_P P over all 4^k strings P on k
    qubits, coeffs[j] the coefficient of the string with `string_keys` j:
    `trace_transform`'s inverse up to the factor 2^k.  Coefficients
    (..., 4^k) give the stack (..., 2^k, 2^k) of their sums.  With `out`,
    a C-contiguous complex array of that shape, the sums are added into
    it through a view and `out` is returned.

    Qubit by qubit, (c_I, c_X, c_Y, c_Z) becomes the 2 x 2 block
    (c_I + c_Z, c_X - i c_Y; c_X + i c_Y, c_I - c_Z) on that qubit's row
    and column bits.  k passes, in place on one complex copy of the
    coefficients: O(k 4^k), and no table.
    """
    t = np.array(coeffs, dtype=np.complex128)
    k = ((t.shape[-1] if t.ndim else 0).bit_length() - 1) // 2
    if t.ndim < 1 or t.shape[-1] != 4**k:
        raise ValueError(f"expected 4^k coefficients, got shape {t.shape}")
    lead = t.shape[:-1]
    tmp = np.empty(t.size // 4, dtype=np.complex128)
    for q in range(k):
        s, w = t.reshape(-1, 4, 4 ** (k - q - 1)), tmp.reshape(-1, 4 ** (k - q - 1))
        np.multiply(1j, s[:, 2], out=w)
        np.add(s[:, 1], w, out=s[:, 2])
        np.subtract(s[:, 1], w, out=s[:, 1])
        np.subtract(s[:, 0], s[:, 3], out=w)
        np.add(s[:, 0], s[:, 3], out=s[:, 0])
        s[:, 3] = w
    del tmp
    t = t.reshape(lead + (2,) * 2 * k)
    if out is None:
        out = np.empty(lead + (1 << k, 1 << k), dtype=np.complex128)
        _interleaved(out, k)[...] = t
    else:
        view = _interleaved(out, k)
        view += t
    return out


def materialize(p: PauliString) -> np.ndarray:
    """Dense 2^n matrix of the string (Hermitian, unitary, involutory):
    the `sum_transform` of the string alone on its support, widened by
    the identity on the other qubits; every entry is exact."""
    if p.n > linalg.MAX_QUBITS:
        raise ValueError(f"n={p.n} exceeds the {linalg.MAX_QUBITS}-qubit cap")
    qubits = p.support
    local = np.zeros(4 ** len(qubits))
    local[string_keys(letter_codes([p], p.n)[:, qubits])] = 1.0
    out = np.zeros(1 << 2 * p.n, dtype=np.complex128)
    out[linalg.subset_positions(qubits, p.n)] = sum_transform(local).ravel()
    return out.reshape(1 << p.n, 1 << p.n)


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
    if k > linalg.MAX_QUBITS:
        raise ValueError(f"n={k} exceeds the {linalg.MAX_QUBITS}-qubit cap")
    vals = trace_transform(rho)
    bad = np.flatnonzero(np.abs(vals.imag / d) > 1e-10)
    if bad.size:
        val, p = complex(vals[bad[0]]) / d, strings_from_codes(key_codes(bad[:1], k))[0]
        raise ValueError(f"non-real coefficient {val!r} for {str(p) or 'identity'}")
    alphas = vals.real / d
    kept = np.flatnonzero(np.abs(alphas) >= 1e-14)
    coeffs = dict(zip(strings_from_codes(key_codes(kept, k)), alphas[kept].tolist()))
    return PauliExpansion(k, coeffs)
