"""The workload process: drives `gibbsfit.cli.main` in-process.

Usage: python3 perfbench/worker.py PLAN.json REPORT.json

The plan names the problem files, the expected solver budget and the
run length.  Instances run as one closed loop with a single caller:
`check`, then `solve`, then `verify` per instance, each command waiting
for the previous one; `verify` repeats `verify_repeats` times, and the
pass's batch time counts the first.  Passes over the instance set repeat
while the next one is expected to end within the run length (at least
one pass).
Traced runs alternate untraced and traced passes, so each traced solve
has an untraced solve of the same instance to be compared with.  Every command
starts with the package's in-memory caches empty, as a fresh
`gibbsfit` process would.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def clear_caches(modules):
    for mod in modules:
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from gibbsfit import cli

    from tracing import LAYERS, Tracer

    modules = [sys.modules[f"gibbsfit.{layer}"] for layer in LAYERS]
    tracer = Tracer() if plan["trace"] else None
    commands, passes = [], []
    first_result: dict[str, bytes] = {}

    def command(argv, traced):
        clear_caches(modules)
        err = io.StringIO()
        if traced:
            tracer.command = argv[0]
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, elapsed, err.getvalue()[-400:]

    # warm-up on a 2-qubit problem: numpy's lazy set-up is not part of
    # any command a user times
    warm = plan["warmup"]
    for argv in (["check", warm], ["solve", warm, "--out", warm + ".res"],
                 ["verify", warm, warm + ".res"]):
        with contextlib.redirect_stdout(io.StringIO()):
            command(argv, False)

    deadline = time.perf_counter() + plan["seconds"]
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        batch, pass_start = 0.0, time.perf_counter()
        for inst in plan["instances"]:
            prob, res = inst["problem"], inst["result"]
            if traced:
                tracer.dim = 1 << inst["n"]
            if os.path.exists(res):
                os.remove(res)  # a failed solve must not leave the last pass's file behind
            argvs = [
                ["check", prob, "--out", res + ".check"],
                ["solve", prob, "--max-iter", str(inst["max_iter"]), "--out", res],
            ] + [["verify", prob, res, "--out", res + ".verify"]] * inst["verify_repeats"]
            for i, argv in enumerate(argvs):
                code, elapsed, err = command(argv, traced)
                if i < 3:  # check, solve and the first verify
                    batch += elapsed
                record = {"pass": len(passes), "traced": traced, "instance": inst["name"],
                          "cmd": argv[0], "exit": code, "seconds": elapsed, "stderr": err}
                if argv[0] == "solve" and os.path.exists(res):
                    # identical input must give a byte-identical result file
                    with open(res, "rb") as fh:
                        data = fh.read()
                    record["same_as_first"] = first_result.setdefault(inst["name"], data) == data
                commands.append(record)
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "seconds": batch})
        now = time.perf_counter()
        if deadline - now < now - pass_start and not (tracer and len(passes) < 2):
            break
    return {
        "commands": commands,
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.aggregate() if tracer else None,
    }


def main():
    plan_path, report_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    report = run(plan)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
