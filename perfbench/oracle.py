"""Independent correctness checks on the files the CLI wrote.

A fitted state is rebuilt from the result file's theta with the
benchmark's own dense code (Kronecker Paulis, numpy eigh), never with
gibbsfit.  Each generating Hamiltonian lies in its fitted family, so the
unique max-entropy fit is the generating state itself.
"""

from __future__ import annotations

import numpy as np

import workloads as W

# The CLI's default --tol; residuals are recomputed here in another
# summation order, hence the small slack.
TOL = 1e-8
RESIDUAL_SLACK = 1e-10
# Trace distance of the fit to the generating state.  A residual of
# 1e-8 moves the state by about ||Hessian^-1|| * 1e-8; the largest
# distance measured on these workloads is 1e-8 (chain, beta=4).
STATE_TOL = 1e-6
# Trace distance of each fitted marginal to its input marginal (largest
# measured: 4e-9).
MARGINAL_TOL = 1e-7
# Relative Frobenius mismatch between sum_i embed(local_terms_i) and H(theta).
SPLIT_TOL = 1e-10


def _embed(m: np.ndarray, qubits, n: int) -> np.ndarray:
    """m on `qubits` tensored with the identity elsewhere."""
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    full = np.kron(m, np.eye(1 << (n - k))).reshape([2] * (2 * n))
    order = list(qubits) + rest
    inv = np.argsort(order)
    full = full.transpose(list(inv) + [n + i for i in inv])
    return full.reshape(1 << n, 1 << n)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def _targets(inst: W.Instance) -> dict:
    """label -> target, read from the problem file's marginals as the CLI
    reads them."""
    targets = {}
    for m in inst.doc["marginals"]:
        q = m["qubits"]
        local = W.subset_labels([tuple(range(len(q)))], len(q))
        for lab, value in zip(local, W.expectations(_matrix(m["rho"]), local, len(q))):
            targets.setdefault(" ".join(f"{t[0]}{q[int(t[1:])]}" for t in lab.split()), value)
    return targets


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(*z) for z in row] for row in rows])


def assess(inst: W.Instance, result: dict):
    """-> (measures, reasons).  `measures` holds the residual of the state
    theta defines and, for a Converged result, its distances to the
    generating state and the input marginals and the local-term split
    error; `reasons` says why the result is wrong, empty when it is not."""
    theta = result["theta"]
    if len(theta) != len(inst.labels):
        return {"residual": float("inf")}, [
            f"theta has {len(theta)} entries, the family has {len(inst.labels)}"]
    h = W.hamiltonian(theta, inst.labels, inst.n)
    rho = W.exp_state(h)
    targets = _targets(inst)
    got = W.expectations(rho, inst.labels, inst.n)
    res = max(abs(g - targets[lab]) for g, lab in zip(got, inst.labels))
    measures, reasons = {"residual": res}, []
    if result["status"] != "Converged":
        return measures, reasons
    if not res <= TOL + RESIDUAL_SLACK:
        reasons.append(f"recomputed residual {res:.3e} exceeds {TOL:g}")
    measures["state"] = _trace_distance(rho, inst.rho_gen)
    if not measures["state"] <= STATE_TOL:
        reasons.append(f"trace distance {measures['state']:.3e} to the generating state "
                       f"exceeds {STATE_TOL:g}")
    measures["marginal"] = max(
        _trace_distance(W.reduced(rho, inst.n, m["qubits"]), _matrix(m["rho"]))
        for m in inst.doc["marginals"])
    if not measures["marginal"] <= MARGINAL_TOL:
        reasons.append(f"a fitted marginal is off by trace distance {measures['marginal']:.3e}")
    terms = result.get("local_terms")
    if not terms:
        reasons.append("local_terms missing on a converged marginal fit")
    else:
        split = sum(_embed(_matrix(t["matrix"]), t["qubits"], inst.n) for t in terms)
        measures["split"] = float(np.linalg.norm(split - h) / max(np.linalg.norm(h), 1.0))
        if not measures["split"] <= SPLIT_TOL:
            reasons.append(f"local_terms do not sum to H(theta) "
                           f"(relative error {measures['split']:.3e})")
    return measures, reasons
