"""The package's exported names."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gibbsfit
from gibbsfit import cli, fileio, linalg, partition, pauli, problem, solver
from gibbsfit.partition import ObservableSet
from gibbsfit.problem import ExpectationProblem, MarginalProblem, reduce_to_expectations
from gibbsfit.solver import SolveOptions

# test-only helpers that left the package: the reference forms now live in
# tests/reference.py, the rest were deleted; pauli.subset_positions moved
# to linalg.  A reduction's string_index was an instance attribute, so a
# reduction is the owner that shows it gone.  The cached all-strings
# tables (region_tables) and their trace kernel (region_traces) gave way
# to the Pauli transforms, and so did the register-wide signed-permutation
# tables of code-built families and their kernels (string_tables,
# gather_index, pauli_sum, traces): every family is read block by block.
# A reduction is an ExpectationProblem built from letter codes with its
# constraints as the subsets: the ReducedProblem subclass, its _accept
# path and the (qubits, count) runs behind ObservableSet._parts are gone.
# The warm start's levels share one routine (solver._kikuchi), so the
# constraint-level copy and its theta-cap test are gone; its levels form a
# ladder read by a cost rule, so the fixed neighbourhood rule (_OUTSIDE)
# is gone, and each region's closed form is one helper (_closed_form).
# A region fit starts as a marginal solve does, through marginal_start, so
# its own start path (_region_fit) and the stacked H_0 pieces of a start
# (_Pieces; MarginalStart is (theta0, apply)) are gone.  The reduction
# decides whether marginals agree, so CompatibilityReport and its verdict
# are gone: check_local_compatibility measures the pair distances.
GONE = {
    linalg: ("matrix_exp", "psd_modulus", "psd_power", "expm_directional_derivative",
             "divided_difference_kernel", "_sym", "EXP_CAP", "_DD_SWITCH",
             "frobenius_norm", "hilbert_schmidt_inner"),
    pauli: ("pauli_trace", "relabel", "restrict", "strings_on", "reconstruct",
            "marginal_from_expectations", "identity", "subset_positions", "perm_phase",
            "region_tables", "region_traces", "string_tables", "gather_index", "pauli_sum",
            "traces"),
    fileio: ("matrix_to_json",),
    ObservableSet: ("hessian", "_parts"),
    ExpectationProblem: ("_accept",),
    problem: ("ReducedProblem", "CompatibilityReport"),
    SolveOptions: ("theta0",),
    solver: ("_constraint_start", "_capped", "_OUTSIDE", "_region_spectrum", "_log_coefficients",
             "_Region", "_region_fit", "_Pieces"),
    reduce_to_expectations(MarginalProblem(1, (((0,), np.eye(2) / 2),))): ("string_index",),
}


def test_every_exported_name_resolves():
    assert len(gibbsfit.__all__) == len(set(gibbsfit.__all__)) == 34
    for name in gibbsfit.__all__:
        assert hasattr(gibbsfit, name), name


def test_test_only_helpers_are_gone_from_the_package():
    for owner, names in GONE.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in gibbsfit.__all__ and not hasattr(gibbsfit, name), name


def test_the_cli_loads_every_layer_module():
    # perfbench/worker.py reads each of these modules out of sys.modules
    # on every benchmark run: folding one away would break every run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = "import sys, gibbsfit.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for layer in ("cli", "fileio", "problem", "pauli", "partition", "linalg", "solver"):
        assert f"gibbsfit.{layer}" in loaded, layer


def test_no_function_keeps_a_cache():
    # a cache outlives every problem that filled it; the package keeps
    # none (the Pauli tables it once cached are gone)
    for mod in (gibbsfit, fileio, linalg, pauli, partition, problem, solver, cli):
        for name, obj in vars(mod).items():
            assert not hasattr(obj, "cache_info"), (mod.__name__, name)


def test_solve_options_hold_only_the_stopping_rule():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["grad_tol", "max_iter"]


def test_one_version_string():
    # result files write the package's version; pyproject.toml reads it there
    assert fileio.TOOL_VERSION is gibbsfit.__version__ == "0.1.0"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "gibbsfit.__version__"}' in pyproject
