"""The package's exported names."""

import dataclasses
from pathlib import Path

import numpy as np

import gibbsfit
from gibbsfit import cli, fileio, linalg, partition, pauli, problem, solver
from gibbsfit.partition import ObservableSet
from gibbsfit.problem import MarginalProblem, reduce_to_expectations
from gibbsfit.solver import SolveOptions

# test-only helpers that left the package: the reference forms now live in
# tests/reference.py, the rest were deleted; pauli.subset_positions moved
# to linalg.  A reduction's string_index was an instance attribute, so a
# reduction is the owner that shows it gone.  The cached all-strings
# tables (region_tables) and their trace kernel (region_traces) gave way
# to the Pauli transforms, and so did the register-wide signed-permutation
# tables of code-built families and their kernels (string_tables,
# gather_index, pauli_sum, traces): every family is read block by block.
GONE = {
    linalg: ("matrix_exp", "psd_modulus", "psd_power", "expm_directional_derivative",
             "divided_difference_kernel", "_sym", "EXP_CAP", "_DD_SWITCH",
             "frobenius_norm", "hilbert_schmidt_inner"),
    pauli: ("pauli_trace", "relabel", "restrict", "strings_on", "reconstruct",
            "marginal_from_expectations", "identity", "subset_positions", "perm_phase",
            "region_tables", "region_traces", "string_tables", "gather_index", "pauli_sum",
            "traces"),
    fileio: ("matrix_to_json",),
    ObservableSet: ("hessian",),
    SolveOptions: ("theta0",),
    reduce_to_expectations(MarginalProblem(1, (((0,), np.eye(2) / 2),))): ("string_index",),
}


def test_every_exported_name_resolves():
    assert len(gibbsfit.__all__) == len(set(gibbsfit.__all__)) == 35
    for name in gibbsfit.__all__:
        assert hasattr(gibbsfit, name), name


def test_test_only_helpers_are_gone_from_the_package():
    for owner, names in GONE.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in gibbsfit.__all__ and not hasattr(gibbsfit, name), name


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
