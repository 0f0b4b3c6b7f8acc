"""Seeded problem generators for the benchmark workloads.

Every input is built here with plain numpy (Kronecker-product Paulis,
dense eigendecompositions), never with `gibbsfit gen`, so two commits
under comparison receive byte-identical problem files for one seed.

Each feasible instance is the exact data of a thermal state
rho_gen = exp(-beta H) / Z whose Hamiltonian lies in the fitted family.
The unique max-entropy fit is therefore rho_gen itself, which is what
the oracle checks against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_MATS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# Solver budget per workload, passed as --max-iter.  Converging
# instances needed at most 49 iterations while sizing; the budgets sit
# above that and bound the cost of a stall (NOTES.md, "Known failures"),
# which at the default 5000 would take up to an hour.
MAX_ITER = {"chain": 200, "wide": 200}

# `verify` runs per instance and pass; batch_s counts the first only.
# One verify is 0.15-0.5 s and a run holds three to eight passes, so
# verify repeats until verify_s has tens of samples, spread over the run:
# the machine's speed changes over seconds, and a few samples from a few
# moments make a noisy median.
VERIFY_REPEATS = {"chain": 3, "wide": 12}


@dataclass
class Instance:
    name: str  # unique within a workload, e.g. "chain-0-b1"
    n: int
    doc: dict  # problem file content
    labels: list  # Pauli labels in theta order ("X0 Z2" form)
    rho_gen: np.ndarray  # generating state, the unique max-entropy fit


def label(letters: dict) -> str:
    """{qubit: letter} -> "X0 Z2" (ascending qubits, identity omitted)."""
    return " ".join(f"{c}{q}" for q, c in sorted(letters.items()) if c != "I")


def span_matrix(lab: str):
    """-> (lo, hi, M): the label's Kronecker product over qubits lo..hi,
    the smallest window holding its support (identity inside the gaps).
    Qubit 0 is the leftmost factor."""
    letters = {int(tok[1:]): tok[0] for tok in lab.split()}
    lo, hi = min(letters), max(letters)
    out = np.ones((1, 1), dtype=np.complex128)
    for q in range(lo, hi + 1):
        out = np.kron(out, _MATS[letters.get(q, "I")])
    return lo, hi, out


def hamiltonian(coeffs, labels, n: int) -> np.ndarray:
    """sum_P c_P P: terms are summed per window, then each window sum is
    padded with identities to the full register."""
    windows = {}
    for c, lab in zip(coeffs, labels):
        lo, hi, m = span_matrix(lab)
        windows[(lo, hi)] = windows.get((lo, hi), 0) + c * m
    h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for (lo, hi), m in windows.items():
        h += np.kron(np.kron(np.eye(1 << lo), m), np.eye(1 << (n - 1 - hi)))
    return h


def expectations(rho: np.ndarray, labels, n: int) -> list:
    """Tr(P rho) per label, read from rho's marginal on the label's window."""
    marginals = {}
    out = []
    for lab in labels:
        lo, hi, m = span_matrix(lab)
        if (lo, hi) not in marginals:
            marginals[(lo, hi)] = reduced(rho, n, tuple(range(lo, hi + 1)))
        out.append(float(np.vdot(m, marginals[(lo, hi)]).real))
    return out


def exp_state(h: np.ndarray) -> np.ndarray:
    """exp(h) / Tr exp(h) for Hermitian h."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    p = np.exp(w - w[-1])
    rho = (v * (p / p.sum())) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def reduced(rho: np.ndarray, n: int, keep) -> np.ndarray:
    """Partial trace onto the qubits in `keep` (ascending)."""
    k = len(keep)
    rest = [q for q in range(n) if q not in keep]
    t = rho.reshape([2] * (2 * n))
    perm = list(keep) + rest + [n + q for q in keep] + [n + q for q in rest]
    t = t.transpose(perm).reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k))
    return np.einsum("ajbj->ab", t)


def subset_labels(subsets, n: int) -> list:
    """The non-identity strings on each subset, first appearance kept, in
    the order the marginal reduction emits them (last qubit fastest)."""
    seen = {}
    for qubits in subsets:
        for combo in itertools.product("IXYZ", repeat=len(qubits)):
            lab = label(dict(zip(qubits, combo)))
            if lab and lab not in seen:
                seen[lab] = None
    return list(seen)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _marginal_doc(rho: np.ndarray, n: int, subsets) -> dict:
    return {
        "n": n,
        "marginals": [
            {"qubits": list(q), "rho": _matrix_json(reduced(rho, n, q))} for q in subsets
        ],
    }


def _thermal_marginals(name, rng, n, subsets, beta) -> Instance:
    """Random Hamiltonian on all strings of the subsets, each subset's
    coefficients scaled by 1/(number of its strings) as `gibbsfit gen`
    does; beta alone sets how close the state sits to the boundary."""
    labels = subset_labels(subsets, n)
    coeffs = np.zeros(len(labels))
    index = {lab: i for i, lab in enumerate(labels)}
    for qubits in subsets:
        local = subset_labels([qubits], n)
        coeffs[[index[lab] for lab in local]] += rng.uniform(-1.0, 1.0, len(local)) / len(local)
    rho = exp_state(-beta * hamiltonian(coeffs, labels, n))
    return Instance(name, n, _marginal_doc(rho, n, subsets), labels, rho)


def warmup() -> dict:
    """A 2-qubit problem run untimed before the first timed command."""
    return _thermal_marginals("warmup", np.random.default_rng(0), 2, [(0, 1)], 1.0).doc


def chain(seed: int) -> list:
    """n=9 nearest-neighbour 2-qubit marginals (d=512, r=99), one draw
    at each beta."""
    n = 9
    subsets = [(i, i + 1) for i in range(n - 1)]
    rng = np.random.default_rng([seed, 1])
    return [_thermal_marginals(f"chain-b{b:g}", rng, n, subsets, b) for b in (0.5, 1.0, 4.0)]


def wide(seed: int) -> list:
    """n=7, two 5-qubit marginals overlapping on 3 qubits (d=128, r=1983)."""
    n = 7
    subsets = [(0, 1, 2, 3, 4), (2, 3, 4, 5, 6)]
    rng = np.random.default_rng([seed, 3])
    return [_thermal_marginals("wide-b1", rng, n, subsets, 1.0)]


WORKLOADS = {"chain": chain, "wide": wide}
