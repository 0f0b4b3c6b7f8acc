"""gibbsfit command line: check | solve | verify | gen | surface.

Exit codes form a total map:
  0  success (Converged / Compatible / verification passed)
  1  verification failed (residuals exceed tolerance)
  2  locally incompatible marginals (or conflicting reduced targets)
  3  entropy-diagnostic violation
  4  solver stopped at BoundaryOrInfeasible
  5  solver stopped at IterationLimit
  6  problem/result digest mismatch
  64 usage error
  65 malformed or ill-posed input (message names the JSON path)
  70 internal error

All output is UTF-8 JSON (CSV for surface grids) on stdout or --out.
GIBBSFIT_MAX_QUBITS lowers the register cap below 12; it never raises it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import fileio, linalg, pauli, problem as problem_mod
from .partition import ObservableSet
from .problem import (
    IncompatibleMarginalsError,
    MarginalProblem,
    TargetConflictError,
    check_independence,
    entropy_diagnostic,
    reduce_to_expectations,
)
from .solver import (
    BOUNDARY,
    CONVERGED,
    ITERATION_LIMIT,
    SolveOptions,
    solve_expectations,
    solve_marginals,
    verify,
)

EXIT_VERIFY_FAILED = 1
EXIT_INCOMPATIBLE = 2
EXIT_ENTROPY = 3
EXIT_BOUNDARY = 4
EXIT_ITERATIONS = 5
EXIT_DIGEST = 6
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65
EXIT_INTERNAL = 70

_STATUS_EXIT = {CONVERGED: 0, BOUNDARY: EXIT_BOUNDARY, ITERATION_LIMIT: EXIT_ITERATIONS}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # treat "-3:3:61" (a grid range) as a value, not an option
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


def max_qubits() -> int:
    raw = os.environ.get("GIBBSFIT_MAX_QUBITS")
    if raw is None:
        return linalg.MAX_QUBITS
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"GIBBSFIT_MAX_QUBITS must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"GIBBSFIT_MAX_QUBITS must be at least 1, got {value}")
    return min(value, linalg.MAX_QUBITS)


def _check_tol(tol: float | None):
    if tol is not None and not 0 < tol < math.inf:
        raise UsageError(f"--tol must be a positive finite number, got {tol}")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gibbsfit", description="Gibbs-state fitting of qubit marginals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="schema + compatibility + entropy diagnostics")
    p.add_argument("problem")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="fit a Gibbs state to the problem's targets")
    p.add_argument("problem")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--trace", action="store_true", help="record per-iteration residuals")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="recompute residuals for a result file")
    p.add_argument("problem")
    p.add_argument("result")
    p.add_argument("--tol", type=float, default=None, help="defaults to the result file's tol")
    p.add_argument("--out")

    p = sub.add_parser("gen", help="random feasible instance from a thermal state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subsets", default=None, help="e.g. '0,1;1,2' (default: nearest-neighbour pairs)")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("surface", help="log-partition grid for 1 or 2 observables (CSV)")
    p.add_argument("problem")
    p.add_argument("--range", dest="grid_range", default="-3:3:61", help="lo:hi:steps")
    p.add_argument("--out")
    return parser


def cmd_check(args) -> int:
    problem, _ = fileio.load_problem(args.problem, max_qubits())
    if isinstance(problem, MarginalProblem):
        report = problem_mod.check_local_compatibility(problem)
        verdict = report.verdict
        try:  # the reduction `solve` runs: a target conflict is an incompatibility
            reduce_to_expectations(problem)
        except TargetConflictError as exc:
            print(f"error: {exc}", file=sys.stderr)
            verdict = problem_mod.LOCALLY_INCOMPATIBLE
        violations = entropy_diagnostic(problem)
        doc = {
            "verdict": verdict,
            "pairs": [
                {"i": i, "j": j, "trace_distance": d} for i, j, d in report.pair_distances
            ],
            "entropy_violations": [
                {
                    "i": v.i,
                    "j": v.j,
                    "entropy_i_bits": v.entropy_i,
                    "entropy_j_bits": v.entropy_j,
                    "overlap_entropy_bits": v.overlap_entropy,
                    "deficit_bits": v.deficit,
                }
                for v in violations
            ],
        }
        _emit(fileio.dump_json(doc), args.out)
        if verdict != problem_mod.COMPATIBLE:
            return EXIT_INCOMPATIBLE
        if violations:
            return EXIT_ENTROPY
        return 0
    rank = check_independence(problem)
    doc = {
        "verdict": problem_mod.COMPATIBLE,
        "pairs": [],
        "entropy_violations": [],
        "observables_independent": rank.independent,
        "gram_eigenvalue_range": [rank.min_eigenvalue, rank.max_eigenvalue],
    }
    _emit(fileio.dump_json(doc), args.out)
    if not rank.independent:
        print("error: observables are linearly dependent (with identity)", file=sys.stderr)
        return EXIT_BAD_INPUT
    return 0


def cmd_solve(args) -> int:
    _check_tol(args.tol)
    if args.max_iter < 1:
        raise UsageError(f"--max-iter must be at least 1, got {args.max_iter}")
    problem, raw = fileio.load_problem(args.problem, max_qubits())
    options = SolveOptions(grad_tol=args.tol, max_iter=args.max_iter)
    if isinstance(problem, MarginalProblem):
        result = solve_marginals(problem, options)
    else:
        result = solve_expectations(problem, options)
    doc = fileio.result_to_doc(result, args.tol, fileio.digest(raw), include_trace=args.trace)
    _emit(fileio.dump_json(doc), args.out)
    return _STATUS_EXIT[result.status]


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    problem, raw = fileio.load_problem(args.problem, max_qubits())
    resdoc = fileio.load_result(args.result)
    if resdoc["input_digest"] != fileio.digest(raw):
        print(
            f"error: result digest {resdoc['input_digest']} does not match the problem file",
            file=sys.stderr,
        )
        return EXIT_DIGEST
    tol = args.tol if args.tol is not None else resdoc.get("tol", 1e-8)
    report = verify(np.asarray(resdoc["theta"], dtype=np.float64), problem, tol)
    doc = {
        "ok": report.ok,
        "max_residual": report.max_residual,
        "residuals": report.residuals,
        "psi": report.psi,
        "entropy_bits": report.entropy_bits,
        "min_eigenvalue": report.min_eigenvalue,
        "tol": report.tol,
    }
    if report.marginal_distances is not None:
        doc["marginal_distances"] = [
            {"qubits": list(q), "trace_distance": d} for q, d in report.marginal_distances
        ]
    _emit(fileio.dump_json(doc), args.out)
    return 0 if report.ok else EXIT_VERIFY_FAILED


def _parse_subsets(text: str | None, n: int) -> list[tuple[int, ...]]:
    if text is None:
        if n < 2:
            return [(0,)]
        return [(i, i + 1) for i in range(n - 1)]
    subsets = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty subset in --subsets {text!r}")
        try:
            qubits = tuple(int(q) for q in chunk.split(","))
        except ValueError:
            raise UsageError(f"--subsets chunk {chunk!r} is not a comma-separated int list") from None
        try:
            subsets.append(linalg.check_subset(qubits, n))
        except ValueError as exc:
            raise UsageError(f"--subsets chunk {chunk!r}: {exc}") from None
    return subsets


def generate_thermal_marginals(n: int, subsets, beta: float, seed: int):
    """Random local Hamiltonian -> its thermal state -> exact marginals.

    Coefficients are scaled so each subset's term has operator norm <= 1;
    beta alone then controls how close to the boundary the instance sits.
    Returns (problem document, global thermal state); the document holds
    each marginal as its complex128 array, which `fileio.dump_json`
    writes as the problem file's [re, im] rows.
    """
    rng = np.random.default_rng(seed)
    codes = [pauli.subset_codes(qubits, n) for qubits in subsets]
    # one draw per string in emission order, times 1/m: a seed must keep
    # giving the same instance, and dividing by m changes some last bits
    coeffs = np.concatenate([rng.uniform(-1.0, 1.0, len(c)) * (1.0 / len(c)) for c in codes])
    obset = ObservableSet(np.concatenate(codes), dim=1 << n, n=n)
    eta = obset.gibbs(-beta * coeffs).rho
    marginals = [{"qubits": list(q), "rho": linalg.partial_trace(eta, n, q)} for q in subsets]
    return {"n": n, "marginals": marginals}, eta


def cmd_gen(args) -> int:
    cap = max_qubits()
    if not 1 <= args.n <= cap:
        raise UsageError(f"--n must be in 1..{cap}, got {args.n}")
    if not math.isfinite(args.beta):
        raise UsageError(f"--beta must be a finite number, got {args.beta}")
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    subsets = _parse_subsets(args.subsets, args.n)
    doc, _ = generate_thermal_marginals(args.n, subsets, args.beta, args.seed)
    _emit(fileio.dump_json(doc), args.out)
    return 0


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--range must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--range must be lo:hi:steps with numeric fields, got {text!r}") from None
    if not lo < hi:
        raise UsageError(f"--range needs lo < hi, got {text!r}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"--range needs a finite span hi - lo, got {text!r}")
    if steps < 2:
        raise UsageError(f"--range needs at least 2 steps, got {steps}")
    return lo, hi, steps


def cmd_surface(args) -> int:
    problem, _ = fileio.load_problem(args.problem, max_qubits())
    ep = reduce_to_expectations(problem) if isinstance(problem, MarginalProblem) else problem
    if ep.size > 2:
        raise UsageError(f"surface needs 1 or 2 observables, problem has {ep.size}")
    # before the range, so a dependent problem exits 65 whatever the range
    result = solve_expectations(ep, SolveOptions())
    lo, hi, steps = _parse_range(args.grid_range)
    grid = np.linspace(lo, hi, steps)

    def translated_psi(theta):
        # psi of T_i - t_i I: the objective the solver minimizes
        theta = np.array(theta)
        with np.errstate(over="ignore"):
            value = ep.observable_set.log_partition(theta) - float(theta @ ep.targets)
        if not math.isfinite(value):
            raise UsageError(f"--range {args.grid_range!r}: psi overflows at theta {theta.tolist()}")
        return value

    lines = []
    if ep.size == 1:
        lines.append("theta,psi")
        for a in grid:
            lines.append(f"{float(a)},{translated_psi([a])}")
    else:
        lines.append("theta,phi,psi")
        for a in grid:
            for b in grid:
                lines.append(f"{float(a)},{float(b)},{translated_psi([a, b])}")
    if result.status == CONVERGED:
        star = ",".join(str(float(x)) for x in result.theta)
        lines.append(f"# theta_star = {star}")
    else:
        lines.append(f"# theta_star = unavailable ({result.status})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_DISPATCH = {
    "check": cmd_check,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "gen": cmd_gen,
    "surface": cmd_surface,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TargetConflictError, IncompatibleMarginalsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # noqa: BLE001 — last-resort exit-code mapping
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
