"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s (or read captured output) for the per-criterion report.
"""

import json
import time

import numpy as np
import pytest

from gibbsfit import linalg, pauli
from gibbsfit.cli import generate_thermal_marginals, main
from gibbsfit.fileio import parse_problem
from gibbsfit.partition import ObservableSet
from gibbsfit.problem import (
    ExpectationProblem,
    MarginalProblem,
    entropy_diagnostic,
    reduce_to_expectations,
)
from gibbsfit.solver import BOUNDARY, CONVERGED, SolveOptions, solve_expectations, solve_marginals

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def stamp(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[acceptance {num}] FAIL - {desc}")
        raise
    print(f"[acceptance {num}] PASS - {desc}")


def rand_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def chain_subsets(n, size):
    if n < size:
        return [tuple(range(n))]
    return [tuple(range(i, i + size)) for i in range(n - size + 1)]


def embed_contiguous(block, qubits, n):
    left = qubits[0]
    right = n - 1 - qubits[-1]
    return np.kron(np.kron(np.eye(1 << left), block), np.eye(1 << right))


@pytest.fixture(scope="module")
def thermal_suite():
    """The 100 generator instances shared by criteria 2, 7 and 9."""
    specs = []
    for seed in range(100):
        n = (2, 3, 4, 5)[seed % 4]
        beta = (0.5, 1.0, 2.0)[seed % 3]
        size = 2 if (n == 2 or seed % 2 == 0) else 3
        specs.append((n, chain_subsets(n, size), beta, seed))
    started = time.perf_counter()
    rows = []
    for n, subsets, beta, seed in specs:
        doc, eta = generate_thermal_marginals(n, subsets, beta, seed)
        mp = parse_problem(doc)
        result = solve_marginals(mp)
        rows.append(
            {
                "spec": (n, subsets, beta, seed),
                "doc": doc,
                "problem": mp,
                "result": result,
                "generator_entropy": linalg.von_neumann_entropy(eta),
            }
        )
    elapsed = time.perf_counter() - started
    return {"rows": rows, "elapsed": elapsed}


def test_criterion_1_figure_reproduction(tmp_path):
    def body():
        started = time.perf_counter()
        one = solve_expectations(
            ExpectationProblem.from_paulis(1, [(pauli.parse_label("Z0", 1), -0.6)])
        )
        assert one.status == CONVERGED
        assert abs(one.theta[0] - np.arctanh(-0.6)) < 1e-6

        two = solve_expectations(
            ExpectationProblem.from_paulis(
                1,
                [(pauli.parse_label("Z0", 1), -0.6), (pauli.parse_label("X0", 1), -0.3)],
            )
        )
        t = np.array([-0.6, -0.3])
        oracle = np.arctanh(np.linalg.norm(t)) * t / np.linalg.norm(t)
        assert two.status == CONVERGED
        assert np.abs(two.theta - oracle).max() < 1e-5
        assert np.abs(two.theta - np.array([-0.72654, -0.36327])).max() < 1e-4

        prob = tmp_path / "fig1.json"
        prob.write_text(
            json.dumps(
                {
                    "n": 1,
                    "expectations": [
                        {"pauli": "Z0", "target": -0.6},
                        {"pauli": "X0", "target": -0.3},
                    ],
                }
            )
        )
        grid_path = tmp_path / "fig1.csv"
        assert main(["surface", str(prob), "--range", "-3:3:61", "--out", str(grid_path)]) == 0
        lines = grid_path.read_text().strip().split("\n")
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:-1]])
        k = rows[:, 2].argmin()
        spacing = 6.0 / 60
        assert np.abs(rows[k, :2] - two.theta).max() <= spacing / 2 + 1e-12
        assert time.perf_counter() - started < 1.0

    stamp(1, "single/two-observable closed forms + grid minimum (< 1 s)", body)


def test_criterion_2_generator_round_trip(thermal_suite):
    def body():
        assert len(thermal_suite["rows"]) == 100
        for row in thermal_suite["rows"]:
            n, subsets, beta, seed = row["spec"]
            result = row["result"]
            assert result.status == CONVERGED, (seed, result.status)
            for _, dist in result.marginal_distances:
                assert dist < 1e-6, (seed, dist)
            total = np.zeros((1 << n, 1 << n), dtype=complex)
            for qubits, block in result.local_terms.items():
                total += embed_contiguous(block, qubits, n)
            obset = reduce_to_expectations(row["problem"]).observable_set
            assert np.abs(total - obset.hamiltonian(result.theta)).max() < 1e-12, seed
        assert thermal_suite["elapsed"] < 60.0

    stamp(2, "100 thermal instances: converge, marginals < 1e-6, exact local split (< 60 s)", body)


def test_criterion_3_bell_chain_negative_control():
    def body():
        mp = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
        res = solve_marginals(mp)
        assert res.status == BOUNDARY
        violations = entropy_diagnostic(mp)
        assert len(violations) == 1
        v = violations[0]
        assert abs(v.entropy_i - 0.0) <= 1e-9
        assert abs(v.entropy_j - 0.0) <= 1e-9
        assert abs(v.overlap_entropy - 1.0) <= 1e-9
        assert abs(v.deficit - 1.0) <= 1e-9

    stamp(3, "Bell chain: BoundaryOrInfeasible + entropy violation 0 + 0 < 1 bit", body)


def test_criterion_4_calculus_suite():
    def body():
        rng = np.random.default_rng(400)
        eps = 1e-6
        for _ in range(50):
            n = int(rng.integers(1, 5))
            r_cap = min(10, (1 << (2 * n)) - 1)
            r = int(rng.integers(1, r_cap + 1))
            pool = list(pauli.strings_on(tuple(range(n)), n))
            idx = rng.choice(len(pool), size=r, replace=False)
            obs = [pool[int(i)] for i in idx]
            if r >= 2 and rng.random() < 0.5:
                obs[-1] = rand_hermitian(rng, 1 << n)  # keep a dense observable in play
            oset = ObservableSet(obs, dim=1 << n, n=n)
            theta = rng.normal(size=r)

            grad = oset.gibbs(theta).expectations
            fd = np.empty(r)
            for j in range(r):
                e = np.zeros(r)
                e[j] = eps
                fd[j] = (oset.log_partition(theta + e) - oset.log_partition(theta - e)) / (
                    2 * eps
                )
            assert np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0) < 1e-6

            hess = oset.hessian(theta)
            assert np.abs(hess - hess.T).max() == 0.0
            assert np.linalg.eigvalsh(hess).min() > -1e-9
            hfd = np.empty((r, r))
            big = 1e-5
            for j in range(r):
                e = np.zeros(r)
                e[j] = big
                gp = oset.gibbs(theta + e).expectations
                gm = oset.gibbs(theta - e).expectations
                hfd[:, j] = (gp - gm) / (2 * big)
            assert np.abs(hess - hfd).max() < 1e-5

        zset = ObservableSet([pauli.parse_label("Z0", 1)], dim=2, n=1)
        for th in np.linspace(-3, 3, 13):
            h = zset.hessian(np.array([th]))[0, 0]
            assert abs(h - 1.0 / np.cosh(th) ** 2) <= 1e-8

    stamp(4, "gradient/Hessian vs finite differences on 50 problems; sech^2 closed form", body)


def test_criterion_5_inequality_suite():
    def body():
        rng = np.random.default_rng(500)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.diag([1.0, -1.0]).astype(complex)
        lhs = np.trace(linalg.matrix_exp(X + Z)).real
        rhs = np.trace(linalg.matrix_exp(X) @ linalg.matrix_exp(Z)).real
        assert abs(lhs - 2 * np.cosh(np.sqrt(2))) < 1e-12
        assert abs(rhs - 2 * np.cosh(1.0) ** 2) < 1e-12
        assert lhs <= rhs + 1e-9

        for _ in range(1000):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            l = np.trace(linalg.matrix_exp(a + b)).real
            r = np.trace(linalg.matrix_exp(a) @ linalg.matrix_exp(b)).real
            assert r - l >= -1e-9 * max(1.0, abs(r))

        def schatten(m, p):
            return float(np.trace(linalg.psd_power(linalg.psd_modulus(m), p)).real) ** (1 / p)

        for _ in range(1000):
            d = int(rng.integers(2, 7))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            q = p / (p - 1.0)
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            bound = schatten(a, p) * schatten(b, q)
            assert bound - abs(np.trace(a @ b).real) >= -1e-9 * max(1.0, bound)

    stamp(5, "trace-exponential and trace-pairing bounds on 1000 random pairs each", body)


def test_criterion_6_convexity_and_coercivity():
    def body():
        rng = np.random.default_rng(600)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            pool = list(pauli.strings_on(tuple(range(n)), n))
            r = int(rng.integers(1, min(6, len(pool)) + 1))
            idx = rng.choice(len(pool), size=r, replace=False)
            oset = ObservableSet([pool[int(i)] for i in idx], dim=1 << n, n=n)
            a = rng.normal(size=r, scale=2.0)
            b = rng.normal(size=r, scale=2.0)
            mid = oset.log_partition((a + b) / 2)
            avg = 0.5 * (oset.log_partition(a) + oset.log_partition(b))
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))

        # complete instances: every string on the register, targets from an
        # interior Gibbs state, translated objective scanned along rays
        for n in (1, 2, 3):
            pool = list(pauli.strings_on(tuple(range(n)), n))
            gen = ObservableSet(pool, dim=1 << n, n=n)
            theta_star = rng.uniform(-0.2, 0.2, size=len(pool))
            targets = gen.gibbs(theta_star).expectations
            for _ in range(50):
                u = rng.normal(size=len(pool))
                u /= np.linalg.norm(u)
                vals = [gen.log_partition(r * u) - r * u @ targets for r in (1.0, 2.0, 4.0, 8.0)]
                assert vals[0] < vals[1] < vals[2] < vals[3]

    stamp(6, "1000 midpoint convexity checks; ray-scan coercivity on complete instances", body)


def test_criterion_7_max_entropy_dominance(thermal_suite):
    def body():
        for row in thermal_suite["rows"]:
            fitted = row["result"].entropy_bits
            assert fitted >= row["generator_entropy"] - 1e-6, row["spec"]

    stamp(7, "fitted state entropy dominates the generator state on all 100 instances", body)


def test_criterion_8_pauli_algebra():
    def body():
        for n in (1, 2, 3):
            group = list(pauli.strings_on(tuple(range(n)), n, include_identity=True))
            mats = [pauli.materialize(p) for p in group]
            d = 1 << n
            for i, a in enumerate(group):
                for j, b in enumerate(group):
                    val = np.trace(mats[i].conj().T @ mats[j])
                    assert val == (d if a == b else 0)

        rng = np.random.default_rng(800)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            rho = rand_density(rng, 1 << n)
            back = pauli.reconstruct(pauli.expand(rho))
            assert np.abs(back - rho).max() < 1e-12

        for _ in range(200):
            n = int(rng.integers(2, 5))
            sigma = rand_density(rng, 1 << n)
            size = int(rng.integers(1, min(n, 3) + 1))
            qubits = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            targets = {}
            for local in pauli.strings_on(tuple(range(size)), size):
                glob = pauli.relabel(local, qubits, n)
                targets[glob] = float(pauli.pauli_trace(glob, sigma).real)
            got, ok = pauli.marginal_from_expectations(targets, qubits)
            assert ok
            assert np.abs(got - linalg.partial_trace(sigma, n, qubits)).max() < 1e-10

    stamp(8, "orthogonality exact (n <= 3); expand round trip; marginal equivalence", body)


def test_criterion_9_determinism(tmp_path, thermal_suite):
    def body():
        picks = [0, 13, 37, 64, 99]
        for k in picks:
            n, subsets, beta, seed = thermal_suite["rows"][k]["spec"]
            subsets_arg = ";".join(",".join(str(q) for q in s) for s in subsets)
            files = []
            for tag in ("a", "b"):
                prob = tmp_path / f"p{k}{tag}.json"
                res = tmp_path / f"r{k}{tag}.json"
                assert (
                    main(
                        [
                            "gen",
                            "--n",
                            str(n),
                            "--subsets",
                            subsets_arg,
                            "--beta",
                            str(beta),
                            "--seed",
                            str(seed),
                            "--out",
                            str(prob),
                        ]
                    )
                    == 0
                )
                assert main(["solve", str(prob), "--trace", "--out", str(res)]) == 0
                files.append((prob.read_bytes(), res.read_bytes()))
            assert files[0][0] == files[1][0], k
            assert files[0][1] == files[1][1], k

        fig = tmp_path / "fig.json"
        fig.write_text(json.dumps({"n": 1, "expectations": [{"pauli": "Z0", "target": -0.6}]}))
        outs = []
        for tag in ("a", "b"):
            res = tmp_path / f"fig{tag}.json"
            assert main(["solve", str(fig), "--out", str(res)]) == 0
            outs.append(res.read_bytes())
        assert outs[0] == outs[1]

    stamp(9, "repeat runs with identical seeds give byte-identical result files", body)
