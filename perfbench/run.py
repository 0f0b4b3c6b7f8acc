"""gibbsfit benchmark.

    python3 perfbench/run.py --workload chain --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout.  The benchmark generates the
workload's problem files from the seed (workloads.py), times the
closed loop check -> solve -> verify through `gibbsfit.cli.main` in a
separate workload process (worker.py), checks every output with its own
dense numpy code (oracle.py) and prints the metrics.  The last line of
stdout is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (tracing.py).

BLAS and OpenMP threads are pinned to 1 before numpy loads, here and in
every child process, so timings do not depend on how many cores the
machine lends the run.  Metric definitions are in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads; children inherit it

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9
# One run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def timed_import() -> float:
    """Wall time of `import gibbsfit.cli` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gibbsfit.cli"], env=child_env(), check=True)
    return time.perf_counter() - start


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} {threads}")


def evaluate(instances, report, work):
    """Mark every command ok or failed.  Returns (failures, wrong, results):
    failures lists (instance, command, pass, reason); wrong is True when
    some command claimed an answer the oracle refutes, as opposed to
    ending without one."""
    by_name = {inst.name: inst for inst in instances}
    results, assessed = {}, {}
    for inst in instances:
        path = os.path.join(work, inst.name + ".result.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                results[inst.name] = json.load(fh)
            assessed[inst.name] = oracle.assess(inst, results[inst.name])
    solve_exit = {}
    failures, wrong = [], False
    for c in report["commands"]:
        inst = by_name[c["instance"]]
        code, reason, claim = c["exit"], None, False
        if c["cmd"] == "check":
            if code != 0:
                reason = f"check exit {code} on a feasible instance"
                claim = code in (2, 3)
        elif c["cmd"] == "solve":
            solve_exit[inst.name] = code
            measures, reasons = assessed.get(inst.name, ({}, []))
            res = measures.get("residual")
            if code != 0:
                doc = results.get(inst.name) or {}
                reason = (f"solve exit {code} on a feasible instance "
                          f"({doc.get('status')} after {doc.get('iterations')} iterations, "
                          f"residual {res if res is None else f'{res:.2e}'})")
                claim = code == 4
            elif reasons:
                reason, claim = "; ".join(reasons), True
            elif not c.get("same_as_first", True):
                reason, claim = "result file differs from the first pass's", True
        else:
            res = assessed.get(inst.name, ({},))[0].get("residual")
            if solve_exit.get(inst.name) == 0 and code != 0:
                reason = f"verify exit {code} on a converged result"
                claim = code == 1
            elif code not in (0, 1):
                reason = f"verify exit {code}"
            elif res is not None and code == 0 and res > oracle.TOL + oracle.RESIDUAL_SLACK:
                reason, claim = f"verify passed a residual of {res:.3e}", True
            elif res is not None and code == 1 and res < oracle.TOL - oracle.RESIDUAL_SLACK:
                reason, claim = f"verify rejected a residual of {res:.3e}", True
        if reason:
            if c["stderr"].strip():
                reason += f" [stderr: {c['stderr'].strip().splitlines()[-1]}]"
            failures.append((inst.name, c["cmd"], c["pass"], reason))
            wrong = wrong or claim
    for name, (measures, _) in assessed.items():
        shown = " ".join(f"{k}={v:.2e}" for k, v in measures.items())
        print(f"oracle: {name} {results[name]['status']} {shown}")
    return failures, wrong, results


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(report, setup, failures, attempted):
    cmds = report["commands"]
    solve = [c["seconds"] for c in cmds if c["cmd"] == "solve"]
    verify = [c["seconds"] for c in cmds if c["cmd"] == "verify"]
    batch = [p["seconds"] for p in report["passes"]]
    lines = [
        f"  solve_s      {median(solve):.4f} s   median of {len(solve)} solves "
        f"(min {min(solve):.4f}, max {max(solve):.4f})",
        f"  verify_s     {median(verify):.4f} s   median of {len(verify)} verifies "
        f"(min {min(verify):.4f}, max {max(verify):.4f})",
        f"  batch_s      {median(batch):.4f} s   median of {len(batch)} passes over the instance set "
        f"(max {max(batch):.4f}); too few solves for a tail percentile, so batch_s carries the tail",
        f"  setup_s      {median(setup):.4f} s   median of {len(setup)} fresh-interpreter imports "
        f"({' '.join(f'{x:.3f}' for x in setup)})",
        f"  peak_rss_mb  {report['maxrss_kb'] / 1024:.1f} MB",
        f"  failed_frac  {len(failures) / attempted:.4f}   ({len(failures)} of {attempted} commands)",
    ]
    metrics = {
        "solve_s": (median(solve), "s"),
        "verify_s": (median(verify), "s"),
        "batch_s": (median(batch), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (report["maxrss_kb"] / 1024, "MB"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }
    return lines, metrics


def per_layer(report, instances, results, work):
    def total(name=None, cmd=None, tag=None, prefix=None):
        """Summed [calls, seconds, self seconds] of the matching spans."""
        out = [0, 0.0, 0.0]
        for c, n, t, *vals in report["trace"]:
            if (name is None or n == name) and (cmd is None or c == cmd) and (
                tag is None or t == tag) and (prefix is None or n.startswith(prefix)):
                out = [a + b for a, b in zip(out, vals)]
        return out

    def per_call_ms(name, tag=None):
        calls, secs, _ = total(name, tag=tag)
        return 1e3 * secs / calls if calls else 0.0

    traced = [c for c in report["commands"] if c["traced"]]
    n_solve = sum(c["cmd"] == "solve" for c in traced)
    n_verify = sum(c["cmd"] == "verify" for c in traced)
    n_passes = sum(p["traced"] for p in report["passes"])
    iterations = sum(results[c["instance"]]["iterations"] for c in traced
                     if c["cmd"] == "solve" and c["instance"] in results)
    psi = "partition.ObservableSet.psi_grad_state"

    def eigensolves(cmd):
        return total("numpy.eigh", cmd, "d")[0] + total("numpy.eigvalsh", cmd, "d")[0]

    solver_self = total(cmd="solve", prefix="solver.")[2]
    write = total("fileio.result_to_doc", "solve")[1] + total("fileio.dump_json", "solve")[1]

    # tracing overhead: each traced solve minus the untraced solve of the
    # same instance in the pass before it (passes alternate)
    solves = {(c["instance"], c["pass"]): c["seconds"]
              for c in report["commands"] if c["cmd"] == "solve"}
    overhead = [secs - solves[(name, npass - 1)]
                for (name, npass), secs in solves.items() if npass % 2 == 1]

    sizes = [os.path.getsize(os.path.join(work, i.name + ".result.json"))
             for i in instances if i.name in results]
    m = {
        "linalg.eigensolves_per_solve": (eigensolves("solve") / n_solve, "count"),
        "linalg.eigensolves_per_verify": (eigensolves("verify") / n_verify, "count"),
        "linalg.eigh_ms": (per_call_ms("linalg.eigh", "d"), "ms"),
        "linalg.hermitian_gate_ms": (per_call_ms("linalg.as_hermitian", "d"), "ms"),
        "linalg.entropy_ms": (per_call_ms("linalg.von_neumann_entropy", "d"), "ms"),
        "linalg.partial_trace_ms": (per_call_ms("linalg.partial_trace", "d"), "ms"),
        "partition.evals_per_solve": (total(psi, "solve")[0] / n_solve, "count"),
        "partition.eval_ms": (per_call_ms(psi), "ms"),
        "partition.assemble_ms": (1e3 * total(psi)[2] / max(total(psi)[0], 1), "ms"),
        "partition.build_ms": (per_call_ms("partition.ObservableSet.base_hamiltonian"), "ms"),
        "partition.expect_ms": (per_call_ms("partition.ObservableSet.expectations"), "ms"),
        "partition.setup_ms": (per_call_ms("partition.ObservableSet.__init__"), "ms"),
        "problem.independence_s": (per_call_ms("problem.check_independence") / 1e3, "s"),
        "problem.reduce_ms": (per_call_ms("problem.reduce_to_expectations"), "ms"),
        "problem.compat_ms": (per_call_ms("problem.check_local_compatibility"), "ms"),
        "problem.entropy_diag_ms": (per_call_ms("problem.entropy_diagnostic"), "ms"),
        "problem.observables": (statistics.mean(len(i.labels) for i in instances), "count"),
        "pauli.trace_calls": (total("pauli.pauli_trace", "check")[0] / n_solve
                              + total("pauli.pauli_trace", "solve")[0] / n_solve
                              + total("pauli.pauli_trace", "verify")[0] / n_verify, "count"),
        "pauli.trace_ms": (per_call_ms("pauli.pauli_trace"), "ms"),
        "solver.iterations": (iterations / n_solve, "count"),
        "solver.evals_per_iteration": (total(psi, "solve")[0] / max(iterations, 1), "ratio"),
        "solver.self_ms": (1e3 * solver_self / max(iterations, 1), "ms"),
        "solver.decompose_ms": (per_call_ms("solver.decompose_local_terms"), "ms"),
        "solver.budget_exhausted": (
            sum(c["cmd"] == "solve" and c["exit"] == 5 for c in traced) / n_passes, "count"),
        "fileio.load_ms": (per_call_ms("fileio.load_problem"), "ms"),
        "fileio.write_ms": (1e3 * write / n_solve, "ms"),
        "fileio.result_bytes": (statistics.mean(sizes) if sizes else 0.0, "bytes"),
        "cli.self_ms": (1e3 * total(prefix="cli.")[2] / len(traced), "ms"),
        "trace.solve_overhead_ms": (1e3 * median(overhead), "ms"),
    }
    lines = [f"  {name:31s} {value:.6g} {unit}" for name, (value, unit) in m.items()]
    return lines, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "gibbsfit", "cli.py")):
        print(f"error: no gibbsfit source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        instances = W.WORKLOADS[args.workload](args.seed)
        plan = {"src": SRC, "seconds": args.seconds, "trace": args.trace, "instances": []}
        print(environment())
        for inst in instances:
            path = os.path.join(work, inst.name + ".json")
            raw = json.dumps(inst.doc).encode("utf-8")
            with open(path, "wb") as fh:
                fh.write(raw)
            print(f"input: {inst.name} sha256:{hashlib.sha256(raw).hexdigest()}")
            plan["instances"].append({
                "name": inst.name, "n": inst.n, "problem": path,
                "result": os.path.join(work, inst.name + ".result.json"),
                "max_iter": W.MAX_ITER[args.workload],
                "verify_repeats": W.VERIFY_REPEATS[args.workload],
            })
        plan["warmup"] = os.path.join(work, "warmup.json")
        with open(plan["warmup"], "w", encoding="utf-8") as fh:
            json.dump(W.warmup(), fh)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        # setup_s: an untimed import fills the bytecode cache, as an installed
        # package has it; the samples are split around the workload so that
        # a slow spell of the machine weighs on fewer of them
        setup = []
        if not args.trace:
            timed_import()
            setup = [timed_import() for _ in range(SETUP_SAMPLES // 2)]
        report_path = os.path.join(work, "report.json")
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, report_path],
            env=child_env(), timeout=budget, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"error: workload process exited {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if not args.trace:
            setup += [timed_import() for _ in range(SETUP_SAMPLES - len(setup))]

        failures, wrong, results = evaluate(instances, report, work)
        attempted = len(report["commands"])
        print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
              f"{len(report['passes'])} passes, --max-iter {W.MAX_ITER[args.workload]}, "
              f"closed loop, 1 caller")
        if args.trace:
            lines, metrics = per_layer(report, instances, results, work)
        else:
            lines, metrics = end_to_end(report, setup, failures, attempted)
        print("\n".join(lines))
        for name, cmd, npass, reason in failures:
            print(f"FAILED {name} {cmd} (pass {npass}): {reason}")
        print(json.dumps({
            "correct": not wrong,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
