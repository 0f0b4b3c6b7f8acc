"""End-to-end command tests, run in-process through main()."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gibbsfit import fileio, linalg, solver
from gibbsfit.cli import generate_thermal_marginals, main
from gibbsfit.partition import ObservableSet
from gibbsfit.pauli import PauliString
from gibbsfit.problem import reduce_to_expectations

import reference

BELL_JSON = [
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
]


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_json(m):
    """A matrix as a problem file holds it, [re, im] rows, read back from
    the writer's text."""
    return json.loads(fileio.dump_json(np.asarray(m, dtype=np.complex128)))


def read(path):
    return json.loads(path.read_text())


@pytest.fixture
def z_problem(tmp_path):
    return write(tmp_path / "z.json", {"n": 1, "expectations": [{"pauli": "Z0", "target": -0.6}]})


@pytest.fixture
def chain_problem(tmp_path):
    return write(
        tmp_path / "chain.json",
        {
            "n": 3,
            "marginals": [
                {"qubits": [0, 1], "rho": BELL_JSON},
                {"qubits": [1, 2], "rho": BELL_JSON},
            ],
        },
    )


def test_solve_single_qubit(tmp_path, z_problem):
    out = tmp_path / "res.json"
    assert main(["solve", z_problem, "--out", str(out)]) == 0
    doc = read(out)
    assert doc["status"] == "Converged"
    assert doc["theta"][0] == pytest.approx(-0.6931471805599453, abs=1e-6)
    assert doc["input_digest"].startswith("sha256:")
    assert doc["tool_version"]
    assert "trace" not in doc  # flag-gated


def test_solve_trace_flag(tmp_path, z_problem):
    out = tmp_path / "res.json"
    assert main(["solve", z_problem, "--trace", "--out", str(out)]) == 0
    doc = read(out)
    assert isinstance(doc["trace"], list) and doc["trace"][-1] <= 1e-8


def test_verify_accepts_then_rejects_tampering(tmp_path, z_problem):
    out = tmp_path / "res.json"
    main(["solve", z_problem, "--out", str(out)])
    assert main(["verify", z_problem, str(out), "--out", str(tmp_path / "v.json")]) == 0
    rep = read(tmp_path / "v.json")
    assert rep["ok"] and rep["max_residual"] <= 1e-8

    doc = read(out)
    doc["theta"] = [0.4]
    write(tmp_path / "bad.json", doc)
    assert main(["verify", z_problem, str(tmp_path / "bad.json")]) == 1


def test_verify_digest_mismatch(tmp_path, z_problem):
    out = tmp_path / "res.json"
    main(["solve", z_problem, "--out", str(out)])
    other = write(
        tmp_path / "other.json", {"n": 1, "expectations": [{"pauli": "Z0", "target": -0.5}]}
    )
    assert main(["verify", other, str(out)]) == 6


def test_check_exit_codes(tmp_path, chain_problem):
    # single marginal: compatible
    single = write(
        tmp_path / "single.json",
        {"n": 2, "marginals": [{"qubits": [0, 1], "rho": BELL_JSON}]},
    )
    assert main(["check", single, "--out", str(tmp_path / "c1.json")]) == 0

    # Bell chain passes pairwise overlap but trips the entropy bound
    assert main(["check", chain_problem, "--out", str(tmp_path / "c2.json")]) == 3
    rep = read(tmp_path / "c2.json")
    assert rep["verdict"] == "Compatible"
    v = rep["entropy_violations"][0]
    assert v["deficit_bits"] == pytest.approx(1.0, abs=1e-9)

    # mismatched overlap
    up = [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]
    mixed = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    def embed_pair(a, b):
        # kron of two single-qubit states, as JSON
        m = np.kron(np.array([[c[0] + 1j * c[1] for c in row] for row in a]),
                    np.array([[c[0] + 1j * c[1] for c in row] for row in b]))
        return [[[z.real, z.imag] for z in row] for row in m]
    bad = write(
        tmp_path / "bad.json",
        {
            "n": 3,
            "marginals": [
                {"qubits": [0, 1], "rho": embed_pair(mixed, up)},
                {"qubits": [1, 2], "rho": embed_pair(mixed, mixed)},
            ],
        },
    )
    assert main(["check", bad, "--out", str(tmp_path / "c3.json")]) == 2
    assert read(tmp_path / "c3.json")["verdict"] == "LocallyIncompatible"


def test_solve_chain_boundary_exit(tmp_path, chain_problem):
    assert main(["solve", chain_problem, "--out", str(tmp_path / "r.json")]) == 4
    assert read(tmp_path / "r.json")["status"] == "BoundaryOrInfeasible"


def test_malformed_inputs_name_the_path(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"n": 1, "expectations": [{"pauli": "Q0", "target": 0.3}]})
    assert main(["check", bad]) == 65
    assert "expectations[0].pauli" in capsys.readouterr().err

    bad2 = write(tmp_path / "bad2.json", {"n": 2, "marginals": [{"qubits": [0, 1], "rho": [[1]]}]})
    assert main(["check", bad2]) == 65
    assert "marginals[0].rho" in capsys.readouterr().err

    both = write(
        tmp_path / "both.json",
        {"n": 1, "marginals": [], "expectations": []},
    )
    assert main(["check", both]) == 65

    # checked by the problem constructors, reported at the entry's path
    z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    skew = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    negative = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    for doc, path in (
        ({"n": 2, "marginals": [{"qubits": [1, 0], "rho": BELL_JSON}]}, "marginals[0].qubits"),
        ({"n": 2, "marginals": [{"qubits": [True, 1], "rho": BELL_JSON}]}, "marginals[0].qubits"),
        ({"n": 2, "marginals": [{"qubits": [0, 1.0], "rho": BELL_JSON}]}, "marginals[0].qubits"),
        ({"n": 2, "marginals": [{"qubits": [[0], 1], "rho": BELL_JSON}]}, "marginals[0].qubits"),
        ({"n": 2, "marginals": [{"qubits": [], "rho": BELL_JSON}]}, "marginals[0].qubits"),
        ({"n": 2, "marginals": [{"qubits": 0, "rho": BELL_JSON}]}, "marginals[0].qubits"),
        ({"n": 1, "marginals": [{"qubits": [0], "rho": negative}]}, "marginals[0].rho"),
        ({"n": 1, "expectations": [{"pauli": "", "target": 0.0}]}, "expectations[0].pauli"),
        ({"n": 1, "expectations": [{"pauli": "Z0", "target": 1.5}]}, "expectations[0].target"),
        ({"n": 1, "observables": [{"matrix": skew, "target": 0.0}]}, "observables[0].matrix"),
        (
            {
                "n": 1,
                "expectations": [{"pauli": "X0", "target": 0.1}],
                "observables": [{"matrix": z, "target": 0.1}, {"matrix": z, "target": 1.5}],
            },
            "observables[1].target",
        ),
    ):
        assert main(["check", write(tmp_path / "sem.json", doc)]) == 65, path
        assert f"{path}:" in capsys.readouterr().err

    notjson = tmp_path / "nj.json"
    notjson.write_text("{broken")
    assert main(["check", str(notjson)]) == 65
    assert main(["check", str(tmp_path / "missing.json")]) == 65


def test_non_finite_inputs_name_the_path(tmp_path, capsys, z_problem):
    rho = json.loads(json.dumps(BELL_JSON))
    rho[1][0] = [float("nan"), 0.0]
    marg = write(tmp_path / "nan.json", {"n": 2, "marginals": [{"qubits": [0, 1], "rho": rho}]})
    for cmd in ("check", "solve"):
        assert main([cmd, marg]) == 65
        assert "marginals[0].rho[1][0]" in capsys.readouterr().err

    target = write(
        tmp_path / "t.json", {"n": 1, "expectations": [{"pauli": "Z0", "target": float("nan")}]}
    )
    assert main(["solve", target]) == 65
    err = capsys.readouterr().err
    assert "expectations[0].target" in err and "finite" in err

    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1, "expectations": [{"pauli": "Z0", "target": 1' + "0" * 400 + "}]}")
    assert main(["check", str(huge)]) == 65
    assert "expectations[0].target" in capsys.readouterr().err

    z = [[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    mat = write(tmp_path / "m.json", {"n": 1, "observables": [{"matrix": z, "target": 0.1}]})
    assert main(["check", mat]) == 65
    assert "observables[0].matrix[0][0]" in capsys.readouterr().err

    res = tmp_path / "res.json"
    assert main(["solve", z_problem, "--out", str(res)]) == 0
    doc = read(res)
    for bad in (float("nan"), True):
        doc["theta"] = [bad]
        tampered = write(tmp_path / "bad.json", doc)
        assert main(["verify", z_problem, tampered]) == 65
        assert "theta[0]" in capsys.readouterr().err

    # finite entries whose H(theta) overflows: no NaN report, no warning
    pair = write(tmp_path / "pair.json", {"n": 2, "expectations": [
        {"pauli": "Z0", "target": 0.1}, {"pauli": "Z0 Z1", "target": 0.2}]})
    assert main(["solve", pair, "--out", str(res)]) == 0
    tampered = write(tmp_path / "bad.json", dict(read(res), theta=[1e308, 1e308]))
    report = tmp_path / "v.json"
    assert main(["verify", pair, tampered, "--out", str(report)]) == 65
    assert capsys.readouterr().err.startswith("error: theta: ")
    assert not report.exists()


def test_bad_entries_deep_in_arrays_name_the_path(tmp_path, capsys, z_problem):
    # a fault away from index 0 exits 65 naming the first bad entry in
    # row-major order, with the detail text of the entry-by-entry walk
    weights = np.arange(1.0, 9.0)
    good = {"n": 3, "marginals": [
        {"qubits": [0], "rho": matrix_json(np.eye(2) / 2)},
        {"qubits": [0, 1, 2], "rho": matrix_json(np.diag(weights / weights.sum()))},
    ]}
    huge = int("1" + "0" * 400)
    cases = (
        ({(3, 2, 1): True}, "[3][2]: expected a number"),
        ({(2, 3, 0): "0.5"}, "[2][3]: expected a number"),
        ({(3, 2, 1): True, (2, 3, 0): "0.5"}, "[2][3]: expected a number"),
        ({(5, 6, 0): huge}, "[5][6]: expected a finite number, got inf"),
        ({(4, 7): [0.0]}, "[4][7]: expected an [re, im] pair"),
        ({(6,): [[0.0, 0.0]] * 7}, "[6]: expected a row of 8 entries"),
    )
    for faults, want in cases:
        doc = json.loads(json.dumps(good))
        for (*at, last), value in faults.items():
            entry = doc["marginals"][1]["rho"]
            for i in at:
                entry = entry[i]
            entry[last] = value
        assert main(["check", write(tmp_path / "bad.json", doc)]) == 65, want
        assert capsys.readouterr().err == f"error: marginals[1].rho{want}\n"

    res = tmp_path / "res.json"
    assert main(["solve", z_problem, "--out", str(res)]) == 0
    doc = read(res)
    for k, bad, detail in (
        (1, True, "expected a number"),
        (2, "1", "expected a number"),
        (3, float("nan"), "expected a finite number, got nan"),
        (4, huge, "expected a finite number, got inf"),
    ):
        theta = [0.25] * 5
        theta[k] = bad
        tampered = write(tmp_path / "bad.json", dict(doc, theta=theta))
        assert main(["verify", z_problem, tampered]) == 65, k
        assert capsys.readouterr().err == f"error: theta[{k}]: {detail}\n"


def test_verify_rejects_wrong_theta_length(tmp_path, capsys):
    prob = tmp_path / "gen.json"
    res = tmp_path / "res.json"
    assert main(["gen", "--n", "3", "--out", str(prob)]) == 0
    assert main(["solve", str(prob), "--out", str(res)]) == 0
    doc = read(res)
    assert len(doc["theta"]) == 27
    for theta in (doc["theta"][:-1], doc["theta"][:-3], [], doc["theta"] + [0.0, 0.0]):
        tampered = write(tmp_path / "t.json", dict(doc, theta=theta))
        assert main(["verify", str(prob), tampered]) == 65, len(theta)
        # a schema fault at the JSON path, as theta[i] faults are
        want = f"error: theta: expected r = 27 entries, got {len(theta)}\n"
        assert capsys.readouterr().err == want


def test_verify_rejects_bad_result_tol(tmp_path, capsys, z_problem):
    # theta = 0 leaves residual 0.6, which a tol read as 1.0 (true) passes
    res = tmp_path / "res.json"
    assert main(["solve", z_problem, "--out", str(res)]) == 0
    doc = dict(read(res), theta=[0.0])
    for tol in (True, float("nan"), -1):
        tampered = write(tmp_path / "t.json", dict(doc, tol=tol))
        report = tmp_path / "v.json"
        assert main(["verify", z_problem, tampered, "--out", str(report)]) == 65, tol
        assert capsys.readouterr().err.startswith("error: tol: ")
        assert not report.exists()


def test_each_command_gates_observables_once(tmp_path, monkeypatch):
    # n = 3 with two dense observables: check, solve and verify each build
    # the problem's one ObservableSet, and only it gates the matrices
    rng = np.random.default_rng(48)
    weights = rng.uniform(0.5, 1.5, size=8)
    rho = np.diag(weights / weights.sum())
    entries = []
    for _ in range(2):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (a + a.conj().T) / 2
        entries.append({"matrix": matrix_json(m), "target": float(np.trace(m @ rho).real)})
    prob = write(tmp_path / "p.json", {"n": 3, "observables": entries})
    res = str(tmp_path / "res.json")
    counts = {"sets": 0, "gates": 0}
    build = ObservableSet.__init__
    gate = linalg.as_hermitian

    def counted_build(self, *args, **kwargs):
        counts["sets"] += 1
        build(self, *args, **kwargs)

    def counted_gate(a, *args, **kwargs):
        counts["gates"] += np.shape(a) == (8, 8)
        return gate(a, *args, **kwargs)

    monkeypatch.setattr(ObservableSet, "__init__", counted_build)
    monkeypatch.setattr(linalg, "as_hermitian", counted_gate)
    out = str(tmp_path / "out.json")
    for argv in (["check", prob, "--out", out], ["solve", prob, "--out", res],
                 ["verify", prob, res, "--out", out]):
        counts.update(sets=0, gates=0)
        assert main(argv) == 0
        assert counts == {"sets": 1, "gates": 2}, argv[0]


def test_marginal_commands_build_no_string_and_read_numbers_in_bulk(tmp_path, monkeypatch):
    # n = 7 with two 5-qubit marginals (r = 1983): gen, check, solve and
    # verify work on letter codes and validate every JSON number in one
    # array pass (gen built 4092 strings)
    prob, res = str(tmp_path / "p.json"), str(tmp_path / "res.json")
    counts = {"strings": 0, "numbers": 0}
    post_init = PauliString.__post_init__
    as_number = fileio._as_number

    def counted_string(self):
        counts["strings"] += 1
        post_init(self)

    def counted_number(*args):
        counts["numbers"] += 1
        return as_number(*args)

    monkeypatch.setattr(PauliString, "__post_init__", counted_string)
    monkeypatch.setattr(fileio, "_as_number", counted_number)
    out = str(tmp_path / "out.json")
    for argv in (["gen", "--n", "7", "--subsets", "0,1,2,3,4;2,3,4,5,6", "--out", prob],
                 ["check", prob, "--out", out], ["solve", prob, "--out", res],
                 ["verify", prob, res, "--out", out]):
        counts.update(strings=0, numbers=0)
        assert main(argv) == 0
        # verify reads the result's tol
        assert counts["strings"] == 0 and counts["numbers"] <= 1, (argv[0], counts)


def test_written_files_keep_the_indented_json_layout(tmp_path):
    # n = 7 with two 5-qubit marginals (r = 1983): every file gen, check,
    # solve --trace and verify write is json.dumps(..., indent=2) + "\n"
    prob, res = str(tmp_path / "p.json"), str(tmp_path / "res.json")
    out = {"check": str(tmp_path / "check.json"), "verify": str(tmp_path / "verify.json")}
    for argv in (["gen", "--n", "7", "--subsets", "0,1,2,3,4;2,3,4,5,6", "--out", prob],
                 ["check", prob, "--out", out["check"]], ["solve", prob, "--trace", "--out", res],
                 ["verify", prob, res, "--out", out["verify"]]):
        assert main(argv) == 0, argv
    for path in (prob, out["check"], res, out["verify"]):
        text = Path(path).read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2) + "\n" == text, path
    doc = read(Path(res))
    assert len(doc["theta"]) == len(doc["residuals"]) == 1983 and doc["trace"]
    assert len(doc["local_terms"]) == 2


def test_gen_solve_verify_chain(tmp_path):
    prob = tmp_path / "gen.json"
    res = tmp_path / "res.json"
    assert main(["gen", "--n", "4", "--subsets", "0,1;1,2;2,3", "--beta", "2", "--seed", "11", "--out", str(prob)]) == 0
    assert main(["check", str(prob)]) == 0
    assert main(["solve", str(prob), "--out", str(res)]) == 0
    assert main(["verify", str(prob), str(res)]) == 0
    doc = read(res)
    assert doc["local_terms"] is not None
    assert {tuple(t["qubits"]) for t in doc["local_terms"]} == {(0, 1), (1, 2), (2, 3)}


def reference_thermal_state(n, subsets, beta, seed):
    """The per-string build `gen` replaced: every string on a subset
    enumerated letter by letter and relabelled onto the register, one
    draw each, in that order."""
    rng = np.random.default_rng(seed)
    strings, coeffs = [], []
    for qubits in subsets:
        k = len(qubits)
        local = [
            PauliString(k, tuple((q, c) for q, c in enumerate(combo) if c != "I"))
            for combo in itertools.product("IXYZ", repeat=k)
        ][1:]
        scale = 1.0 / len(local)
        for p in local:
            strings.append(reference.relabel(p, qubits, n))
            coeffs.append(rng.uniform(-1.0, 1.0) * scale)
    return ObservableSet(strings, dim=1 << n, n=n).gibbs(-beta * np.asarray(coeffs)).rho


@pytest.mark.parametrize("n,subsets", [
    (4, [(0, 1), (1, 2), (2, 3)]),
    (5, [(0, 1, 2), (2, 3, 4), (1, 3)]),
    (7, [(0, 1, 2, 3, 4), (2, 3, 4, 5, 6)]),
    (1, [(0,)]),
])
def test_gen_state_matches_per_string_reference_bitwise(n, subsets):
    for beta in (0.0, 1.0, 4.0):
        for seed in range(3):
            _, eta = generate_thermal_marginals(n, subsets, beta, seed)
            want = reference_thermal_state(n, subsets, beta, seed)
            assert eta.tobytes() == want.tobytes(), (beta, seed)


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "--n", "3", "--beta", "1.5", "--seed", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_warm_started_solve_is_deterministic(tmp_path):
    prob = tmp_path / "gen.json"
    assert main(["gen", "--n", "6", "--beta", "2", "--seed", "12", "--out", str(prob)]) == 0
    mp, _ = fileio.load_problem(str(prob))
    assert solver.marginal_start(reduce_to_expectations(mp)) is not None
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["solve", str(prob), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_gen_beta_zero_is_maximally_mixed(tmp_path):
    out = tmp_path / "b0.json"
    assert main(["gen", "--n", "2", "--beta", "0", "--seed", "3", "--out", str(out)]) == 0
    doc = read(out)
    for marg in doc["marginals"]:
        rho = np.array([[c[0] + 1j * c[1] for c in row] for row in marg["rho"]])
        d = rho.shape[0]
        assert np.array_equal(rho, np.eye(d) / d)  # exact


def test_gen_rejects_bad_requests(tmp_path):
    assert main(["gen", "--n", "20", "--out", str(tmp_path / "x.json")]) == 64
    assert main(["gen", "--n", "3", "--subsets", "0,5", "--out", str(tmp_path / "x.json")]) == 64
    assert main(["gen", "--n", "3", "--subsets", "1,0", "--out", str(tmp_path / "x.json")]) == 64


def test_max_qubits_env_lowers_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("GIBBSFIT_MAX_QUBITS", "2")
    assert main(["gen", "--n", "3", "--out", str(tmp_path / "x.json")]) == 64
    prob = write(
        tmp_path / "p3.json",
        {"n": 3, "expectations": [{"pauli": "Z0", "target": 0.1}]},
    )
    assert main(["check", prob]) == 65
    monkeypatch.setenv("GIBBSFIT_MAX_QUBITS", "50")  # may not raise the cap
    assert main(["gen", "--n", "13", "--out", str(tmp_path / "x.json")]) == 64
    monkeypatch.setenv("GIBBSFIT_MAX_QUBITS", "banana")
    assert main(["check", prob]) == 64


def test_surface_two_observables(tmp_path):
    prob = write(
        tmp_path / "fig.json",
        {
            "n": 1,
            "expectations": [
                {"pauli": "Z0", "target": -0.6},
                {"pauli": "X0", "target": -0.3},
            ],
        },
    )
    out = tmp_path / "grid.csv"
    assert main(["surface", prob, "--range", "-3:3:61", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,phi,psi"
    assert len(lines) == 1 + 61 * 61 + 1
    star_line = lines[-1]
    assert star_line.startswith("# theta_star = ")
    star = np.array([float(x) for x in star_line.split("=")[1].split(",")])
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:-1]])
    k = rows[:, 2].argmin()
    spacing = 6.0 / 60
    # the grid's minimum cell contains the solver's minimizer
    assert np.abs(rows[k, :2] - star).max() <= spacing / 2 + 1e-12


def test_surface_one_observable(tmp_path, z_problem):
    out = tmp_path / "grid.csv"
    assert main(["surface", z_problem, "--range", "-3:3:61", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,psi"
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:-1]])
    assert abs(rows[rows[:, 1].argmin(), 0] - (-0.6931471805599453)) <= 0.05 + 1e-12
    # convex 1-D profile: second differences nonnegative
    assert np.all(np.diff(rows[:, 1], 2) > -1e-12)


def test_surface_rejections(tmp_path, capsys, chain_problem):
    assert main(["surface", chain_problem]) == 64  # 27 observables after reduction
    dup = write(
        tmp_path / "dup.json",
        {"n": 1, "expectations": [{"pauli": "Z0", "target": 0.1}, {"pauli": "Z0", "target": 0.1}]},
    )
    assert main(["surface", dup]) == 65  # dependent observables
    single = write(
        tmp_path / "one.json", {"n": 1, "expectations": [{"pauli": "Z0", "target": 0.1}]}
    )
    assert main(["surface", single, "--range", "bad"]) == 64
    assert main(["surface", single, "--range", "3:-3:61"]) == 64
    assert main(["surface", single, "--range", "-1:1:1"]) == 64
    # an infinite bound, or a span that overflows to inf
    assert main(["surface", single, "--range", "0:inf:3"]) == 64
    assert main(["surface", single, "--range", "-1e308:1e308:3"]) == 64
    # a finite grid point whose H(theta) overflows
    pair = write(tmp_path / "pair.json", {"n": 2, "expectations": [
        {"pauli": "Z0", "target": 0.1}, {"pauli": "Z0 Z1", "target": 0.2}]})
    out = tmp_path / "grid.csv"
    capsys.readouterr()
    assert main(["surface", pair, "--range=0:1.7e308:2", "--out", str(out)]) == 64
    assert capsys.readouterr().err.startswith("usage error: --range ")
    assert not out.exists()


def test_incompatible_marginals_exit_2_from_solve_and_verify(tmp_path, capsys):
    # qubit 1 is diag(0.75, 0.25) in the first marginal and I/2 in the
    # second: solve stops at the compatibility check, and verify's
    # reduction finds two targets for Z1
    rho01 = np.kron(np.eye(2) / 2, np.diag([0.75, 0.25]))
    prob = write(tmp_path / "bad.json", {"n": 3, "marginals": [
        {"qubits": [0, 1], "rho": matrix_json(rho01)},
        {"qubits": [1, 2], "rho": matrix_json(np.eye(4) / 4)}]})
    out = tmp_path / "res.json"
    assert main(["solve", prob, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: marginals are locally incompatible")
    assert not out.exists()
    digest = fileio.digest(Path(prob).read_bytes())
    res = write(out, {"status": "Converged", "theta": [0.0], "input_digest": digest})
    assert main(["verify", prob, res]) == 2
    assert capsys.readouterr().err.startswith("error: conflicting targets for 'Z1'")


def test_check_rejects_the_target_conflict_that_solve_rejects(tmp_path, capsys):
    # Z1 is 0.2 in the first marginal and 0.2 + 1.5e-9 in the second:
    # the trace distance, 7.5e-10, is within the compatibility gate, the
    # target difference beyond the conflict gate; check runs the
    # reduction that solve runs, so both exit 2 naming Z1
    def bloch(x, y, z):
        return (np.eye(2) + x * np.array([[0, 1], [1, 0]]) + y * np.array([[0, -1j], [1j, 0]])
                + z * np.diag([1.0, -1.0])) / 2

    prob = write(tmp_path / "p.json", {"n": 3, "marginals": [
        {"qubits": [0, 1], "rho": matrix_json(np.kron(bloch(0.1, 0.2, 0.3), bloch(0, 0.1, 0.2)))},
        {"qubits": [1, 2], "rho": matrix_json(np.kron(bloch(0, 0.1, 0.2 + 1.5e-9), bloch(0.3, 0.1, 0)))},
    ]})
    out = tmp_path / "c.json"
    assert main(["check", prob, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: conflicting targets for 'Z1'")
    rep = read(out)
    assert rep["verdict"] == "LocallyIncompatible" and rep["entropy_violations"] == []
    assert [(p["i"], p["j"]) for p in rep["pairs"]] == [(0, 1)]
    assert rep["pairs"][0]["trace_distance"] == pytest.approx(7.5e-10, rel=1e-3)
    assert main(["solve", prob, "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: conflicting targets for 'Z1'")


def test_check_rejects_dependent_expectation_observables(tmp_path, capsys):
    # diag(2, -2) is 2 Z0: the report is written, then the exit is 65
    prob = write(tmp_path / "dep.json", {"n": 1,
        "expectations": [{"pauli": "Z0", "target": 0.1}],
        "observables": [{"matrix": matrix_json(np.diag([2.0, -2.0])), "target": 0.2}]})
    out = tmp_path / "c.json"
    assert main(["check", prob, "--out", str(out)]) == 65
    assert "linearly dependent" in capsys.readouterr().err
    assert read(out)["observables_independent"] is False


def test_surface_without_a_minimizer_says_so(tmp_path):
    # <Z0> = -1 is an endpoint target: the grid is written and theta*
    # is reported unavailable, with the solver's status
    prob = write(tmp_path / "edge.json", {"n": 1, "expectations": [{"pauli": "Z0", "target": -1.0}]})
    out = tmp_path / "grid.csv"
    assert main(["surface", prob, "--range", "-1:1:3", "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert len(lines) == 1 + 3 + 1 + 1
    assert lines[-2] == "# theta_star = unavailable (BoundaryOrInfeasible)"


def test_verify_rejects_a_result_that_is_not_json(tmp_path, capsys, z_problem):
    res = tmp_path / "res.json"
    res.write_text("{not json")
    assert main(["verify", z_problem, str(res)]) == 65
    assert capsys.readouterr().err.startswith("error: $: not valid UTF-8 JSON")


def test_non_array_entry_lists_are_schema_errors(tmp_path, capsys):
    z0 = [{"pauli": "Z0", "target": 0.1}]
    for key in ("expectations", "observables"):
        for value in (5, 3.5, True, "Z0", {"pauli": "Z0", "target": 0.1}):
            doc = {"n": 1, key: value}
            assert main(["check", write(tmp_path / "p.json", doc)]) == 65, (key, value)
            assert capsys.readouterr().err == f"error: {key}: expected an array\n"
    # null still means none
    doc = {"n": 1, "expectations": z0, "observables": None}
    assert main(["check", write(tmp_path / "p.json", doc)]) == 0


def test_gen_negative_seed_is_a_usage_error(tmp_path, capsys):
    assert main(["gen", "--n", "2", "--seed", "-1", "--out", str(tmp_path / "x.json")]) == 64
    assert capsys.readouterr().err.startswith("usage error: --seed ")


def test_usage_errors(capsys, z_problem):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["solve"]) == 64
    for argv in (
        ["solve", z_problem, "--tol", "-1"],
        ["solve", z_problem, "--tol", "0"],
        ["solve", z_problem, "--tol", "nan"],
        ["solve", z_problem, "--max-iter", "0"],
        ["verify", z_problem, z_problem, "--tol", "-1"],
        ["solve", z_problem, "--refine"],
        ["solve", z_problem, "--seed", "3"],
        ["gen", "--n", "2", "--beta", "nan"],
        ["gen", "--n", "2", "--beta", "inf"],
    ):
        assert main(argv) == 64, argv
        assert "usage error" in capsys.readouterr().err


def test_schema_round_trip(tmp_path):
    # parse(serialize(problem)) sees identical matrices
    prob = tmp_path / "gen.json"
    main(["gen", "--n", "3", "--seed", "4", "--out", str(prob)])
    doc = read(prob)
    mp = fileio.parse_problem(doc)
    again = {
        "n": mp.n,
        "marginals": [
            {"qubits": list(q), "rho": matrix_json(r)} for q, r in mp.constraints
        ],
    }
    assert again == doc


def test_matrix_reads_match_entry_by_entry_reference_bitwise():
    # the one-pass read gives what complex(float(re), float(im)) per
    # entry gives, integers, signed zeros and extreme values included
    rng = np.random.default_rng(54)
    special = [0, -0.0, 7, 2**53 + 1, -(10**300), 1e308, -5e-324, 2.2250738585072014e-308]
    for d in (1, 2, 4, 8):
        rows = rng.normal(size=(d, d, 2)).tolist()
        for r, c, k in rng.integers(0, d, size=(2 * d, 3)).tolist():
            rows[r][c][k % 2] = special[int(rng.integers(len(special)))]
        want = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
        got = fileio.matrix_from_json(rows, "m")
        assert got.shape == (d, d) and got.tobytes() == want.tobytes()


def test_solve_expectation_problem_with_matrix_observable(tmp_path):
    z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    prob = write(
        tmp_path / "m.json",
        {"n": 1, "expectations": [{"pauli": "X0", "target": 0.2}],
         "observables": [{"matrix": z, "target": -0.4}]},
    )
    out = tmp_path / "res.json"
    assert main(["solve", prob, "--out", str(out)]) == 0
    doc = read(out)
    assert doc["status"] == "Converged"
    assert max(abs(r) for r in doc["residuals"]) <= 1e-8


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsfit.cli", "gen", "--n", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    problem = fileio.parse_problem(json.loads(proc.stdout))
    assert problem.n == 2 and problem.subsets == ((0, 1),)
