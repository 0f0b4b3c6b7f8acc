"""JSON problem/result files and the content digest that binds them.

Problem files carry either marginals or expectation targets:

    {"n": 2, "marginals": [{"qubits": [0, 1], "rho": [[[re, im], ...], ...]}]}
    {"n": 1, "expectations": [{"pauli": "Z0", "target": -0.6}],
             "observables":  [{"matrix": [[[re, im], ...], ...], "target": 0.1}]}

Complex entries are always [re, im] pairs, matrices row-major.  Schema
errors name the JSON path at fault ("marginals[0].rho", ...).  This
module checks JSON shape and finite numbers only; what a value means
(the qubit subset rule, density and Hermiticity gates, target bounds)
is checked by the problem constructors, whose InvalidEntryError is
mapped back to the JSON path.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import __version__ as TOOL_VERSION, linalg, pauli
from .problem import ExpectationProblem, InvalidEntryError, MarginalProblem


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
        _require(isinstance(qubits, list), f"{base}.qubits", "expected an array of integers")
        constraints.append((qubits, matrix_from_json(entry["rho"], f"{base}.rho")))
    try:
        return MarginalProblem(n=n, constraints=tuple(constraints))
    except InvalidEntryError as exc:
        raise SchemaError(f"marginals[{exc.index}].{exc.field}", exc.detail) from exc


def _entries(doc, key: str) -> list:
    """doc[key] as a list of entries: an absent key or null is none."""
    entries = doc.get(key)
    _require(entries is None or isinstance(entries, list), key, "expected an array")
    return entries or []


def _parse_expectations(doc, n: int) -> ExpectationProblem:
    observables: list = []
    targets: list[float] = []
    for i, entry in enumerate(_entries(doc, "expectations")):
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
    for i, entry in enumerate(_entries(doc, "observables")):
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


def _read_json(path: str) -> tuple:
    """-> (document, raw bytes) of a UTF-8 JSON file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"not valid UTF-8 JSON: {exc}") from exc


def load_problem(path: str, max_qubits: int = linalg.MAX_QUBITS):
    """-> (problem, raw bytes).  Raw bytes feed the digest."""
    doc, raw = _read_json(path)
    return parse_problem(doc, max_qubits), raw


def digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def result_to_doc(result, tol: float, input_digest: str, include_trace: bool = False) -> dict:
    """SolveResult -> ResultFile dict: Python scalars, with theta,
    residuals, trace and local-term matrices as float64 / complex128
    arrays that `dump_json` writes."""
    doc = {
        "status": result.status,
        "theta": np.asarray(result.theta, dtype=np.float64),
        "residuals": np.asarray(result.residuals, dtype=np.float64),
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
            {"qubits": list(q), "matrix": np.asarray(m, dtype=np.complex128)}
            for q, m in result.local_terms.items()
        ]
    if include_trace:
        doc["trace"] = np.asarray(result.trace, dtype=np.float64)
    return doc


def load_result(path: str) -> dict:
    doc, _ = _read_json(path)
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_json(doc) -> str:
    """json.dumps(doc, indent=2) + "\n", byte for byte, where doc may
    also hold float64 and complex128 arrays: an array is written as its
    nested lists would be, a complex entry as [re, im].  Arrays and
    containers are laid out here, every other value and every key by
    json.dumps; json's indented encoder is pure Python and would take a
    call per number."""
    return _encode(doc, "") + "\n"


def _encode(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it with its first line at
    indent `pad`."""
    if isinstance(obj, np.ndarray):
        return _encode_array(obj, pad)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        # json's own key coercion: 1 -> "1", True -> "true"
        keys = (json.dumps(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4] for k in obj)
        items = [f"{k}: {_encode(v, inner)}" for k, v in zip(keys, obj.values())]
    elif isinstance(obj, (list, tuple)) and obj:
        items = [_encode(v, inner) for v in obj]
    else:
        return json.dumps(obj)
    opener, closer = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return f"{opener}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closer}"


def _encode_array(a: np.ndarray, pad: str) -> str:
    """A float64 or complex128 array as _encode writes a.tolist(),
    complex entries as [re, im]: every number through float.__repr__,
    as json writes a float, and NaN/Infinity as json spells them."""
    if a.dtype == np.complex128:
        a = np.stack((a.real, a.imag), axis=-1)
    elif a.dtype != np.float64:
        raise TypeError(f"cannot write a {a.dtype} array as JSON")
    if a.ndim == 0 or a.size == 0:
        return _encode(a.tolist(), pad)
    numbers = list(map(float.__repr__, a.ravel().tolist()))
    if not np.isfinite(a).all():
        numbers = [_NON_FINITE.get(x, x) for x in numbers]
    return _nest(numbers, a.shape, pad)


def _nest(numbers: list, shape: tuple, pad: str) -> str:
    """Number texts, in row-major order, laid out as nested arrays of
    `shape` at indent `pad`.  What separates two neighbours depends only
    on how many trailing axes roll over between them, so the separators
    are built as one repeating pattern and joined with the numbers in a
    single pass."""
    k = len(shape)
    at = [pad + "  " * j for j in range(k + 1)]  # indent of depth j

    def separator(m: int) -> str:  # m trailing axes roll over
        close = "".join(f"\n{at[k - 1 - i]}]" for i in range(m))
        reopen = "".join(f"[\n{at[k - m + 1 + i]}" for i in range(m))
        return f"{close},\n{at[k - m]}{reopen}"

    seps = [separator(0)] * (shape[-1] - 1)
    for m, size in enumerate(reversed(shape[:-1]), 1):
        seps = (seps + [separator(m)]) * size
        seps.pop()
    parts = [None] * (2 * len(numbers) - 1)
    parts[::2] = numbers
    parts[1::2] = seps
    opening = "".join(f"[\n{at[j + 1]}" for j in range(k))
    closing = "".join(f"\n{at[k - 1 - j]}]" for j in range(k))
    return opening + "".join(parts) + closing
