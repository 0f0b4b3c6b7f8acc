"""JSON problem/result files and the content digest that binds them.

Problem files carry either marginals or expectation targets:

    {"n": 2, "marginals": [{"qubits": [0, 1], "rho": [[[re, im], ...], ...]}]}
    {"n": 1, "expectations": [{"pauli": "Z0", "target": -0.6}],
             "observables":  [{"matrix": [[[re, im], ...], ...], "target": 0.1}]}

Complex entries are always [re, im] pairs, matrices row-major.  Schema
errors name the JSON path at fault ("marginals[0].rho", ...).  This
module checks JSON shape and finite numbers only; what a value means
(qubit order, density and Hermiticity gates, target bounds) is checked
by the problem constructors, whose InvalidEntryError is mapped back to
the JSON path.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import linalg, pauli
from .problem import ExpectationProblem, InvalidEntryError, MarginalProblem

TOOL_VERSION = "0.1.0"


class SchemaError(ValueError):
    """Malformed problem/result document; `path` locates the fault."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")


def _require(cond: bool, path: str, detail: str):
    if not cond:
        raise SchemaError(path, detail)


def _as_number(value, path) -> float:
    """A finite JSON number.  json.loads accepts NaN and Infinity, and an
    integer literal too long for a double overflows."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    _require(math.isfinite(number), path, f"expected a finite number, got {number}")
    return number


def _finite_array(obj, shape: tuple) -> np.ndarray | None:
    """obj as a float64 array when it is nested arrays of exactly `shape`
    holding finite JSON numbers (int or float, not bool); else None.
    One array pass: the per-entry checks run only to name a fault."""
    try:
        a = np.array(obj, dtype=object)
    except ValueError:  # ragged
        return None
    if a.shape != shape or not set(map(type, a.flat)) <= {int, float}:
        return None
    try:
        a = a.astype(np.float64)
    except OverflowError:  # an integer literal beyond the double range
        return None
    return a if np.isfinite(a).all() else None


def matrix_from_json(obj, path: str) -> np.ndarray:
    """Row-major [[ [re, im], ... ], ...] -> complex ndarray."""
    _require(isinstance(obj, list) and obj, path, "expected a non-empty array of rows")
    d = len(obj)
    pairs = _finite_array(obj, (d, d, 2))
    if pairs is not None:
        return pairs.view(np.complex128)[..., 0]
    # entry by entry, to name the first bad one
    out = np.empty((d, d), dtype=np.complex128)
    for r, row in enumerate(obj):
        _require(
            isinstance(row, list) and len(row) == d,
            f"{path}[{r}]",
            f"expected a row of {d} entries",
        )
        for c, cell in enumerate(row):
            here = f"{path}[{r}][{c}]"
            _require(isinstance(cell, list) and len(cell) == 2, here, "expected an [re, im] pair")
            out[r, c] = complex(_as_number(cell[0], here), _as_number(cell[1], here))
    return out


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _parse_n(doc, max_qubits: int) -> int:
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _require("n" in doc, "n", "missing")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool), "n", "expected an integer")
    _require(1 <= n <= max_qubits, "n", f"must be in 1..{max_qubits}, got {n}")
    return n


def parse_problem(doc, max_qubits: int = linalg.MAX_QUBITS):
    """Validate a problem document; returns MarginalProblem or
    ExpectationProblem."""
    n = _parse_n(doc, max_qubits)
    has_marginals = "marginals" in doc
    has_expect = "expectations" in doc or "observables" in doc
    _require(
        has_marginals != has_expect,
        "$",
        "exactly one of 'marginals' or 'expectations'/'observables' must be present",
    )
    if has_marginals:
        return _parse_marginals(doc, n)
    return _parse_expectations(doc, n)


def _parse_marginals(doc, n: int) -> MarginalProblem:
    entries = doc["marginals"]
    _require(isinstance(entries, list) and entries, "marginals", "expected a non-empty array")
    constraints = []
    for i, entry in enumerate(entries):
        base = f"marginals[{i}]"
        _require(isinstance(entry, dict), base, "expected an object")
        _require("qubits" in entry, f"{base}.qubits", "missing")
        _require("rho" in entry, f"{base}.rho", "missing")
        qubits = entry["qubits"]
        _require(
            isinstance(qubits, list)
            and qubits
            and all(isinstance(q, int) and not isinstance(q, bool) for q in qubits),
            f"{base}.qubits",
            "expected a non-empty array of integers",
        )
        constraints.append((qubits, matrix_from_json(entry["rho"], f"{base}.rho")))
    try:
        return MarginalProblem(n=n, constraints=tuple(constraints))
    except InvalidEntryError as exc:
        raise SchemaError(f"marginals[{exc.index}].{exc.field}", exc.detail) from exc


def _parse_expectations(doc, n: int) -> ExpectationProblem:
    observables: list = []
    targets: list[float] = []
    for i, entry in enumerate(doc.get("expectations") or []):
        base = f"expectations[{i}]"
        _require(isinstance(entry, dict), base, "expected an object")
        _require("pauli" in entry, f"{base}.pauli", "missing")
        _require("target" in entry, f"{base}.target", "missing")
        label = entry["pauli"]
        _require(isinstance(label, str), f"{base}.pauli", "expected a string like 'X0 Z2'")
        try:
            p = pauli.parse_label(label, n)
        except ValueError as exc:
            raise SchemaError(f"{base}.pauli", str(exc)) from exc
        observables.append(p)
        targets.append(_as_number(entry["target"], f"{base}.target"))
    paulis = len(observables)
    for i, entry in enumerate(doc.get("observables") or []):
        base = f"observables[{i}]"
        _require(isinstance(entry, dict), base, "expected an object")
        _require("matrix" in entry, f"{base}.matrix", "missing")
        _require("target" in entry, f"{base}.target", "missing")
        observables.append(matrix_from_json(entry["matrix"], f"{base}.matrix"))
        targets.append(_as_number(entry["target"], f"{base}.target"))
    _require(bool(observables), "$", "no observables given")
    targets_arr = np.array(targets, dtype=np.float64)
    try:
        return ExpectationProblem(tuple(observables), targets_arr, dim=1 << n, n=n)
    except InvalidEntryError as exc:
        # theta order: the Pauli entries, then the matrix entries
        i = exc.index
        base = f"expectations[{i}]" if i < paulis else f"observables[{i - paulis}]"
        raise SchemaError(f"{base}.{exc.field}", exc.detail) from exc


def load_problem(path: str, max_qubits: int = linalg.MAX_QUBITS):
    """-> (problem, raw bytes).  Raw bytes feed the digest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"not valid UTF-8 JSON: {exc}") from exc
    return parse_problem(doc, max_qubits), raw


def digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def result_to_doc(result, tol: float, input_digest: str, include_trace: bool = False) -> dict:
    """SolveResult -> ResultFile dict (plain Python scalars only)."""
    doc = {
        "status": result.status,
        "theta": [float(x) for x in result.theta],
        "residuals": [float(x) for x in result.residuals],
        "psi": float(result.psi),
        "entropy_bits": float(result.entropy_bits),
        "local_terms": None,
        "tol": float(tol),
        "iterations": int(result.iterations),
        "message": result.message,
        "tool_version": TOOL_VERSION,
        "input_digest": input_digest,
    }
    if result.local_terms is not None:
        doc["local_terms"] = [
            {"qubits": list(q), "matrix": matrix_to_json(m)} for q, m in result.local_terms.items()
        ]
    if include_trace:
        doc["trace"] = [float(x) for x in result.trace]
    return doc


def load_result(path: str) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"not valid UTF-8 JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    for key in ("status", "theta", "input_digest"):
        _require(key in doc, key, "missing")
    theta = doc["theta"]
    _require(isinstance(theta, list), "theta", "expected an array of numbers")
    if _finite_array(theta, (len(theta),)) is None:
        for i, x in enumerate(theta):
            _as_number(x, f"theta[{i}]")
    if "tol" in doc:
        # as strict as --tol: a bool or NaN would verify anything
        doc["tol"] = _as_number(doc["tol"], "tol")
        _require(doc["tol"] > 0, "tol", f"expected a positive number, got {doc['tol']}")
    return doc


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
