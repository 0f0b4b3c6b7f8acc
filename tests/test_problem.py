"""Problem reduction, the Gram rank check, and the compatibility diagnostics."""

import gc
import tracemalloc

import numpy as np
import pytest

from gibbsfit import linalg, pauli, problem, solver
from gibbsfit.problem import (
    ExpectationProblem,
    MarginalProblem,
    TargetConflictError,
    check_independence,
    check_local_compatibility,
    entropy_diagnostic,
    kikuchi_regions,
    reduce_to_expectations,
    spectral_interval,
)

import reference

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def qubit_state(z):
    return (np.eye(2, dtype=complex) + z * Z) / 2


def mean_targets(ops, d):
    """Each observable's mean eigenvalue Tr(T)/d, a target inside its spectrum."""
    return np.array([0.0 if isinstance(op, pauli.PauliString) else np.trace(op).real / d
                     for op in ops])


def test_marginal_problem_validation():
    with pytest.raises(ValueError):
        MarginalProblem(2, ())
    with pytest.raises(ValueError):
        MarginalProblem(2, (((1, 0), np.eye(4) / 4),))  # not ascending
    with pytest.raises(ValueError):
        MarginalProblem(2, (((0, 2), np.eye(4) / 4),))  # out of range
    with pytest.raises(ValueError):
        MarginalProblem(2, (((0,), np.eye(4) / 4),))  # dim mismatch
    with pytest.raises(ValueError):
        MarginalProblem(2, (((0, 1), np.eye(4)),))  # trace 4
    nan_rho = np.eye(4) / 4
    nan_rho[1, 2] = nan_rho[2, 1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        MarginalProblem(2, (((0, 1), nan_rho),))


def test_expectation_problem_validation():
    p = pauli.parse_label("Z0", 1)
    with pytest.raises(ValueError):
        ExpectationProblem.from_paulis(1, [(p, 1.5)])  # beyond spectral radius
    with pytest.raises(ValueError):
        ExpectationProblem.from_paulis(1, [(pauli.parse_label("", 1), 0.5)])
    ep = ExpectationProblem.from_matrices([Z + 0.5 * X], [0.9], n=1)
    lo, hi = spectral_interval(ep.observables[0])
    assert lo == pytest.approx(-np.sqrt(1.25)) and hi == pytest.approx(np.sqrt(1.25))
    with pytest.raises(ValueError):
        ExpectationProblem.from_matrices([Z], [0.5, 0.5], n=1)  # length mismatch
    with pytest.raises(ValueError, match="not finite"):
        ExpectationProblem((p,), [np.nan], dim=2, n=1)


def test_reduce_maximally_mixed_subset():
    mp = MarginalProblem(2, (((0,), np.eye(2) / 2),))
    ep = reduce_to_expectations(mp)
    assert [str(p) for p in ep.observables] == ["X0", "Y0", "Z0"]
    assert np.array_equal(ep.targets, np.zeros(3))
    assert ep.dim == 4 and ep.n == 2


def test_reduce_bell_targets():
    mp = MarginalProblem(2, (((0, 1), BELL),))
    ep = reduce_to_expectations(mp)
    assert ep.size == 15
    t = {str(p): v for p, v in zip(ep.observables, ep.targets)}
    assert t["X0 X1"] == pytest.approx(1.0)
    assert t["Y0 Y1"] == pytest.approx(-1.0)
    assert t["Z0 Z1"] == pytest.approx(1.0)
    assert t["Z0"] == pytest.approx(0.0) and t["X1"] == pytest.approx(0.0)


def test_reduce_chain_dedups_shared_strings():
    mp = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    ep = reduce_to_expectations(mp)
    # 15 + 15 strings with X1, Y1, Z1 appearing in both subsets
    assert ep.size == 27
    labels = [str(p) for p in ep.observables]
    assert len(set(labels)) == 27


def test_reduce_matches_string_by_string_reference():
    # the loop it replaced: strings_on, one pauli_trace and one relabel
    # per string.  The strings agree exactly; a target sums 2^k terms along
    # the trace transform's k-level tree, the reference along one dot
    # product, and sum|rho_ab| <= 2^k for a density matrix, so they agree
    # within (k + 2^k) 2^k eps, k = 3 the largest subset
    rng = np.random.default_rng(30)
    n = 5
    subsets = ((0, 1, 2), (1, 2), (2, 3, 4), (4,))
    full = rand_density(rng, 1 << n)
    mp = MarginalProblem(n, tuple((s, linalg.partial_trace(full, n, s)) for s in subsets))
    ep = reduce_to_expectations(mp)
    seen = {}
    for qubits, rho in mp.constraints:
        k = len(qubits)
        for local in reference.strings_on(tuple(range(k)), k):
            glob = reference.relabel(local, qubits, n)
            t = float(reference.pauli_trace(local, rho).real)
            seen.setdefault(glob, t)
    assert ep.observables == tuple(seen)
    want = np.clip(np.array(list(seen.values())), -1.0, 1.0)
    assert np.abs(want - ep.targets).max() <= (3 + 8) * 8 * np.finfo(np.float64).eps


def test_reduce_conflict_names_string_and_subsets():
    up, down = qubit_state(0.8), qubit_state(-0.2)
    mp = MarginalProblem(
        3,
        (
            ((0, 1), np.kron(np.eye(2) / 2, up)),
            ((1, 2), np.kron(down, np.eye(2) / 2)),
        ),
    )
    with pytest.raises(TargetConflictError) as err:
        reduce_to_expectations(mp)
    assert err.value.label == "Z1"
    assert set(err.value.subsets) == {(0, 1), (1, 2)}


def test_spectral_interval():
    assert spectral_interval(pauli.parse_label("X0 Z1", 2)) == (-1.0, 1.0)
    lo, hi = spectral_interval(np.diag([2.0, -3.0]).astype(complex))
    assert (lo, hi) == (-3.0, 2.0)


@pytest.mark.parametrize("n", [2, 5])
def test_independence_distinct_paulis(n):
    ep = ExpectationProblem.from_paulis(
        n, [(p, 0.0) for p in reference.strings_on(tuple(range(n)), n)]
    )
    rep = check_independence(ep)
    assert rep.independent
    assert rep.size == 4**n
    # orthogonal basis: Gram is d*I exactly
    assert rep.min_eigenvalue == rep.max_eigenvalue == 2**n


def test_marginal_reductions_are_independent():
    # solve_marginals skips the Gram check: a reduction emits distinct
    # non-identity strings, so {I, T_i} is orthogonal and the Gram is d*I
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        sigma = rand_density(rng, 1 << n)
        subsets = set()
        while len(subsets) < int(rng.integers(1, 4)):
            size = int(rng.integers(1, min(3, n) + 1))
            subsets.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        cons = tuple((q, linalg.partial_trace(sigma, n, q)) for q in sorted(subsets))
        rep = check_independence(reduce_to_expectations(MarginalProblem(n, cons)))
        assert rep.independent
        assert rep.min_eigenvalue == rep.max_eigenvalue == 2**n


def frobenius_sqrt_d(op):
    """op rescaled to a Pauli string's Frobenius norm sqrt(d), the
    scale at which check_independence reads a dense observable."""
    return op * np.sqrt(op.shape[0]) / np.linalg.norm(op)


def test_independence_gram_matches_dense_reference():
    # duplicated Pauli, dense copy of a Pauli, traceful random Hermitian,
    # identity components on the dense ones: every kind of Gram entry at once
    rng = np.random.default_rng(23)
    zz = pauli.parse_label("Z0 Z1", 2)
    x0 = pauli.parse_label("X0", 2)
    herm = random_hermitian(rng, 4) + 0.7 * np.eye(4)
    obs = (zz, x0, zz, pauli.materialize(x0) + 1.1 * np.eye(4), herm - 0.6 * np.eye(4),
           pauli.parse_label("Y1", 2))
    # without the duplicates (observables 2 and 3) the family is independent;
    # X0 + 1.1 I duplicates X0 together with I
    for keep, independent in ((range(6), False), ([0, 1, 4, 5], True), ([1, 3], False)):
        ops = [obs[i] for i in keep]
        ep = ExpectationProblem(tuple(ops), mean_targets(ops, 4), dim=4, n=2)
        mats = [np.eye(4)] + [
            pauli.materialize(op) if isinstance(op, pauli.PauliString) else frobenius_sqrt_d(op)
            for op in ops
        ]
        want = np.linalg.eigvalsh([[np.trace(a @ b).real for b in mats] for a in mats])
        rep = check_independence(ep)
        assert rep.size == len(mats)
        # a dependent family's smallest eigenvalue is round-off around 0
        assert rep.min_eigenvalue == pytest.approx(want[0], rel=1e-12, abs=1e-12 * want[-1])
        assert rep.max_eigenvalue == pytest.approx(want[-1], rel=1e-12)
        assert rep.independent == bool(want[0] > 1e-8 * want[-1]) == independent


def test_independence_rejects_duplicates_and_identity_shift():
    p = pauli.parse_label("Z0", 1)
    ep = ExpectationProblem.from_paulis(1, [(p, 0.1), (p, 0.1)])
    assert not check_independence(ep).independent
    # a matrix observable equal to c*I duplicates the implicit identity row
    ep2 = ExpectationProblem.from_matrices([0.5 * np.eye(2, dtype=complex)], [0.5], n=1)
    assert not check_independence(ep2).independent
    # shifted Pauli stays independent: Z + 0.6 I has Frobenius norm^2 2.72, so
    # rescaled to norm^2 2 with s = sqrt(2 / 2.72), {I, s (Z + 0.6 I)} has
    # Gram [[2, 1.2 s], [1.2 s, 2]]
    ep3 = ExpectationProblem.from_matrices([Z + 0.6 * np.eye(2)], [0.0], n=1)
    rep = check_independence(ep3)
    off = 1.2 * np.sqrt(2 / 2.72)
    want = np.linalg.eigvalsh(np.array([[2.0, off], [off, 2.0]]))
    assert rep.independent
    assert rep.min_eigenvalue == pytest.approx(want[0], abs=1e-12)
    assert rep.max_eigenvalue == pytest.approx(want[1], abs=1e-12)


def test_independence_mixed_pauli_matrix():
    # dense copy of Z0 collides with the symbolic one
    ep = ExpectationProblem(
        (pauli.parse_label("Z0", 1), Z.copy()),
        np.array([0.1, 0.1]),
        dim=2,
        n=1,
    )
    assert not check_independence(ep).independent


def near_dependent_family(rng):
    """Observables on n <= 3 qubits: 0-6 random strings, some listed
    again, and 1-2 dense matrices, each a combination of I and the
    strings plus a Hermitian perturbation of size 1e-12..1, at a scale
    of 1e-6..1e6, in random order."""
    n = int(rng.integers(1, 4))
    d = 1 << n
    codes = pauli.key_codes(rng.integers(1, 4**n, size=int(rng.integers(0, 7))), n)
    if len(codes) and rng.random() < 0.3:
        codes = np.concatenate([codes, codes[rng.integers(0, len(codes), size=1)]])
    obs = list(pauli.strings_from_codes(codes))
    for _ in range(int(rng.integers(1, 3))):
        mix = sum((c * pauli.materialize(p) for c, p in zip(rng.normal(size=len(codes)), obs)),
                  rng.normal() * np.eye(d))
        noise = 10 ** rng.uniform(-12, 0) * random_hermitian(rng, d)
        obs.append(10 ** rng.uniform(-6, 6) * (mix + noise))
    obs = [obs[i] for i in rng.permutation(len(obs))]
    return ExpectationProblem(tuple(obs), mean_targets(obs, d), dim=d, n=n)


def test_independence_matches_the_gram_reference_on_near_dependent_families():
    # the spectrum comes from the strings' multiplicities and one small
    # eigvalsh; reference.gram_rank builds the (r+1)^2 Gram and takes all
    # of its spectrum.  Perturbations from 1e-12 to 1 put families on both
    # sides of the 1e-8 threshold.
    rng = np.random.default_rng(66)
    independent = near = 0
    for _ in range(300):
        ep = near_dependent_family(rng)
        got, want = check_independence(ep), reference.gram_rank(ep)
        assert (got.independent, got.size) == (want.independent, want.size)
        tol = 1e-12 * want.max_eigenvalue
        assert abs(got.min_eigenvalue - want.min_eigenvalue) <= tol
        assert abs(got.max_eigenvalue - want.max_eigenvalue) <= tol
        independent += got.independent
        near += 1e-10 < want.min_eigenvalue / want.max_eigenvalue < 1e-6
    assert independent >= 20 and near >= 10, (independent, near)


def test_dependent_pauli_family_reports_an_exact_zero():
    # Z0 listed three times gives G the eigenvalue 3d and two zeros, exact
    # without a Gram (its eigvalsh gave -1.2e-15 and 6 - 8.9e-16)
    z0, x0 = pauli.parse_label("Z0", 1), pauli.parse_label("X0", 1)
    rep = check_independence(ExpectationProblem.from_paulis(1, [(z0, 0.0)] * 3 + [(x0, 0.0)]))
    assert rep == problem.RankReport(False, 0.0, 6.0, 5)


def test_independence_eigensolves_only_the_dense_coupling(monkeypatch):
    # all 63 strings on 3 qubits with two listed three times and three
    # twice: with I the multiplicities are 1, 2 and 3, so no eigensolve
    # may take more than (3 + 1) m rows, against r + 1 = 71 + m for the Gram
    rng = np.random.default_rng(67)
    n, d = 3, 8
    strings = list(reference.strings_on(tuple(range(n)), n))
    strings += strings[:5] + strings[:2]
    mats = [random_hermitian(rng, d), pauli.materialize(strings[7]) + 0.5 * np.eye(d),
            random_hermitian(rng, d)]
    eps = [ExpectationProblem(tuple(strings + mats[:m]), np.zeros(70 + m), dim=d, n=n)
           for m in range(4)]
    wants = [reference.gram_rank(ep) for ep in eps]
    rows = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
            rows.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    for m, (ep, want) in enumerate(zip(eps, wants)):
        rows.clear()
        rep = check_independence(ep)
        assert max(rows, default=0) <= 4 * m, (m, rows)
        assert not rep.independent and not want.independent
        tol = 1e-12 * want.max_eigenvalue
        assert abs(rep.min_eigenvalue - want.min_eigenvalue) <= tol
        assert abs(rep.max_eigenvalue - want.max_eigenvalue) <= tol


def traced_peak(call):
    """(call(), its traced peak in bytes), run once untraced first: a
    numpy module imported lazily on first use is not what the call holds."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("windows,r", [
    ((range(6),), 4095),  # its Gram traced 272 MB and took 7.7 s
    ((range(7), range(1, 8)), 28671),  # its Gram would be 6.6 GB
])
def test_independence_holds_no_gram(windows, r):
    n = 8
    codes = np.concatenate([pauli.subset_codes(w, n) for w in windows])
    _, first = np.unique(pauli.string_keys(codes), return_index=True)
    ep = ExpectationProblem(codes[np.sort(first)], np.zeros(r), 1 << n, n)
    rep, peak = traced_peak(lambda: check_independence(ep))
    assert rep == problem.RankReport(True, 256.0, 256.0, r + 1)
    assert peak < 10 * 2**20, peak


def test_kikuchi_counting_numbers():
    chain = [(i, i + 1) for i in range(4)]
    assert kikuchi_regions(chain) == [(s, 1) for s in chain] + [((q,), -1) for q in (1, 2, 3)]
    # a subset inside another adds nothing; disjoint subsets share no region
    assert kikuchi_regions([(0, 1), (0, 1, 2)]) == [((0, 1, 2), 1)]
    assert kikuchi_regions([(0, 1), (2, 3)]) == [((0, 1), 1), ((2, 3), 1)]
    # triples overlapping in pairs: the shared qubit 2 counts 1 - (3 - 2) = 0
    assert kikuchi_regions([(0, 1, 2), (1, 2, 3), (2, 3, 4)]) == [
        ((0, 1, 2), 1),
        ((1, 2, 3), 1),
        ((2, 3, 4), 1),
        ((1, 2), -1),
        ((2, 3), -1),
    ]
    # every qubit of a region graph is counted once in total
    ring = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    for q in range(4):
        assert sum(c for r, c in kikuchi_regions(ring) if q in r) == 1


def test_local_compatibility_verdicts():
    # the pairs are a measurement; the reduction gives the verdict
    single = MarginalProblem(2, (((0, 1), BELL),))
    assert check_local_compatibility(single) == ()
    reduce_to_expectations(single)

    chain = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    pairs = check_local_compatibility(chain)
    reduce_to_expectations(chain)
    assert [(i, j) for i, j, _ in pairs] == [(0, 1)]
    assert pairs[0][2] < 1e-15  # both overlaps are I/2

    up, down = qubit_state(0.5), qubit_state(0.0)
    bad = MarginalProblem(
        3,
        (
            ((0, 1), np.kron(np.eye(2) / 2, up)),
            ((1, 2), np.kron(down, np.eye(2) / 2)),
        ),
    )
    with pytest.raises(TargetConflictError, match="'Z1'"):
        reduce_to_expectations(bad)
    assert check_local_compatibility(bad)[0][2] == pytest.approx(0.25)  # half the z-gap

    # every shared string agrees within the conflict gate, the marginals
    # on (0, 1, 2) do not within the trace-distance gate
    drift = reference.overlap_drift_marginals()
    pairs = check_local_compatibility(drift)
    assert [(i, j) for i, j, _ in pairs] == [(0, 1)]
    assert pairs[0][2] == pytest.approx(2.34e-9, rel=1e-2)
    with pytest.raises(problem.IncompatibleMarginalsError) as info:
        reduce_to_expectations(drift)
    assert info.value.pairs == pairs


def test_entropy_diagnostic_bell_chain():
    chain = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    violations = entropy_diagnostic(chain)
    assert len(violations) == 1
    v = violations[0]
    assert (v.i, v.j) == (0, 1)
    assert abs(v.entropy_i) <= 1e-9 and abs(v.entropy_j) <= 1e-9
    assert v.overlap_entropy == pytest.approx(1.0, abs=1e-9)
    assert v.deficit == pytest.approx(1.0, abs=1e-9)


def per_pair_entropy_diagnostic(mp):
    """The pair loop entropy_diagnostic replaced, kept as its reference:
    both constraint entropies recomputed for every overlapping pair."""
    out = []
    for i, (qi, ri) in enumerate(mp.constraints):
        for j in range(i + 1, len(mp.constraints)):
            qj, rj = mp.constraints[j]
            overlap = set(qi) & set(qj)
            if not overlap:
                continue
            keep = tuple(k for k, q in enumerate(qi) if q in overlap)
            s_i = linalg.von_neumann_entropy(ri)
            s_j = linalg.von_neumann_entropy(rj)
            s_ov = linalg.von_neumann_entropy(linalg.partial_trace(ri, len(qi), keep))
            if s_i + s_j < s_ov - problem.ENTROPY_ATOL:
                out.append(problem.EntropyViolation(i, j, s_i, s_j, s_ov))
    return out


def test_entropy_diagnostic_takes_each_constraint_entropy_once(monkeypatch):
    # a star of Bell pairs (0, i): all six pairs overlap on qubit 0 and
    # all six are flagged; the pair loop took 3 entropies per pair (18).
    # The marginals passed the constructor's gate, so no entropy gates
    # them again.
    star = MarginalProblem(5, tuple(((0, i), BELL) for i in range(1, 5)))
    want = per_pair_entropy_diagnostic(star)
    calls, gates = [], []
    eigvalsh = np.linalg.eigvalsh

    def counted(rho):
        calls.append(np.shape(rho))
        return eigvalsh(rho)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(linalg, "as_hermitian", lambda a: gates.append(a))
    got = entropy_diagnostic(star)
    assert len(calls) == 10 and gates == []  # 4 constraints, 6 overlaps
    assert len(got) == 6
    assert got == want  # field by field, floats compared exactly


def test_entropy_diagnostic_sound_on_consistent_marginals():
    # marginals of an actual global state can never be flagged
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        sigma = rand_density(rng, 1 << n)
        subsets = [(0, 1), (n - 2, n - 1), (0, n - 1)]
        cons = tuple(
            (tuple(sorted(set(s))), linalg.partial_trace(sigma, n, tuple(sorted(set(s)))))
            for s in subsets
        )
        mp = MarginalProblem(n, cons)
        assert entropy_diagnostic(mp) == []


def test_reduce_then_rebuild_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        sigma = rand_density(rng, 1 << n)
        qubits = (0, n - 1)
        mp = MarginalProblem(n, ((qubits, linalg.partial_trace(sigma, n, qubits)),))
        ep = reduce_to_expectations(mp)
        targets = dict(zip(ep.observables, ep.targets))
        rebuilt, ok = reference.marginal_from_expectations(targets, qubits)
        assert ok
        assert np.abs(rebuilt - mp.constraints[0][1]).max() < 1e-10


def test_target_bound_does_not_depend_on_observable_scale():
    # t = <top|M|top> is a pure-state value of M, so it is achievable at
    # every scale; an absolute slack rejected a fifth of them at 1e3 and up
    rng = np.random.default_rng(51)
    for scale in (1.0, 1e3, 1e6, 1e9):
        for _ in range(60):
            m = scale * random_hermitian(rng, 8)
            w, v = np.linalg.eigh(m)
            for vec in (v[:, -1], v[:, 0]):
                t = float((vec.conj() @ m @ vec).real)
                ExpectationProblem.from_matrices([m], [t], n=3)
            bound = max(abs(w[0]), abs(w[-1]))
            with pytest.raises(problem.InvalidEntryError, match="is outside spectrum"):
                ExpectationProblem.from_matrices([m], [bound * (1 + 1e-9)], n=3)


def test_target_outside_the_spectrum_is_rejected_at_every_scale():
    # spec(diag(0.2, 0.5)) = [0.2, 0.5]: 0.1 and -0.3 lie within the
    # spectral radius but no state reaches them; a target within the
    # slack of an endpoint builds, and sits on it
    for scale in 10.0 ** np.arange(-13, 10):
        m = scale * np.diag([0.2, 0.5])
        lo, hi = spectral_interval(m)
        for t in (0.1, -0.3, 0.6):
            with pytest.raises(problem.InvalidEntryError, match="is outside spectrum") as info:
                ExpectationProblem.from_matrices([m], [scale * t], n=1)
            assert (info.value.index, info.value.field) == (0, "target")
        tol = problem.SPECTRAL_SLACK * max(abs(lo), abs(hi))  # relative to the spectral radius
        for t in (lo - 0.5 * tol, hi + 0.5 * tol):
            assert ExpectationProblem.from_matrices([m], [t], n=1).extreme.tolist() == [True]


def reference_reduce(mp):
    """The per-string loop the code-based reduction replaced: one letters
    tuple and one dict lookup per emitted string, first offender raises.
    Its traces come from the reduction's kernel, `pauli.trace_transform`,
    so the two agree bitwise.  Returns the strings, their targets and
    the constraint that emitted each first."""
    table, observables, targets, owner = {}, [], [], []
    for ci, (qubits, rho) in enumerate(mp.constraints):
        codes = pauli.subset_codes(range(len(qubits)), len(qubits))
        for row, t in zip(codes.tolist(), pauli.trace_transform(rho)[1:].real.tolist()):
            letters = tuple((qubits[q], "IXYZ"[c]) for q, c in enumerate(row) if c)
            pos = table.get(letters)
            if pos is None:
                pos = table[letters] = len(observables)
                observables.append(pauli.PauliString(mp.n, letters))
                targets.append(t)
                owner.append(ci)
            elif abs(targets[pos] - t) > problem.TARGET_CONFLICT_ATOL:
                raise TargetConflictError(
                    str(observables[pos]), mp.constraints[owner[pos]][0], qubits, targets[pos], t
                )
    return tuple(observables), np.clip(np.array(targets), -1.0, 1.0), np.array(owner)


def outcome(reduce, mp):
    """What a reduction gives: its arrays, or its error's every detail."""
    try:
        ep = reduce(mp)
    except TargetConflictError as exc:
        return ("conflict", str(exc), exc.label, exc.subsets, exc.values)
    observables, targets = ep[:2] if isinstance(ep, tuple) else (ep.observables, ep.targets)
    return ("ok", observables, targets.tobytes())


def bloch_state(v):
    x, y, z = v
    return (np.eye(2) + x * X + y * np.array([[0, -1j], [1j, 0]]) + z * Z) / 2


def product_marginal(vectors, qubits):
    rho = np.ones((1, 1))
    for q in qubits:
        rho = np.kron(rho, bloch_state(vectors[q]))
    return rho


def test_reduction_errors_match_per_string_reference():
    base = {q: (0.1 * q, -0.2, 0.3) for q in range(4)}
    moved = {**base, 2: (0.2, -0.2, 0.35)}
    chain = ((0, 1), (1, 2), (2, 3))

    def marginals(per_subset):
        cons = tuple((s, product_marginal(v, s)) for s, v in zip(chain, per_subset))
        return MarginalProblem(4, cons)

    # conflict on a later overlap: (0, 1) and (1, 2) agree, (2, 3) does not
    later = marginals((base, base, moved))
    got = outcome(reduce_to_expectations, later)
    assert got == outcome(reference_reduce, later)
    assert got[2:4] == ("Z2", ((1, 2), (2, 3)))

    # two conflicts: qubit 1 differs in X and Z, qubit 2 again later; the
    # first in constraint then string order raises
    both = {**base, 1: (0.4, -0.2, 0.0)}
    two = marginals((base, both, moved))
    got = outcome(reduce_to_expectations, two)
    assert got == outcome(reference_reduce, two)
    assert got[2:4] == ("X1", ((0, 1), (1, 2)))

    # a skewed rho before, among and after the conflicts (Y3 is the second
    # string of (2, 3) and Z2 Z3 the last, after the conflicting Z2): the
    # density gate rejects a 1e-6 skew and takes out a 1e-11 one, which
    # is round-off, so every trace the reduction reads is real
    y = np.array([[0, -1j], [1j, 0]])
    y3, z2z3 = np.kron(np.eye(2), y), np.kron(Z, Z)
    raised = []
    for per_subset, ci, op, eps in (
        ((base, base, moved), 2, y3, 1e-6),
        ((base, base, moved), 1, y3, 1e-6),
        ((base, base, moved), 2, z2z3, 1e-6),
        ((base, both, moved), 2, y3, 1e-6),
        ((base, base, moved), 2, y3, 1e-11),
    ):
        cons = [(s, product_marginal(v, s)) for s, v in zip(chain, per_subset)]
        cons[ci] = (cons[ci][0], cons[ci][1] + 1j * eps * op)
        try:
            mp = MarginalProblem(4, tuple(cons))
        except problem.InvalidEntryError as exc:
            raised.append((exc.field, exc.index))
            continue
        assert not any(pauli.trace_transform(rho).imag.any() for _, rho in mp.constraints)
        got = outcome(reduce_to_expectations, mp)
        assert got == outcome(reference_reduce, mp)
        raised.append(got[:1] + got[2:3])
    assert raised == [("rho", 2), ("rho", 1), ("rho", 2), ("rho", 2), ("conflict", "Z2")]


def test_reduction_matches_per_string_reference_on_random_families():
    rng = np.random.default_rng(52)
    kinds = set()
    for n in range(3, 8):
        for _ in range(12):
            subsets = []
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(1, min(n, 4) + 1))
                subsets.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            if rng.random() < 0.4:
                # consistent marginals of one global state
                sigma = rand_density(rng, 1 << n)
                cons = [(s, linalg.partial_trace(sigma, n, s)) for s in subsets]
            else:
                # product marginals, some qubits moved in some constraints
                vectors = {q: rng.uniform(-0.5, 0.5, size=3) for q in range(n)}
                cons = []
                for s in subsets:
                    local = dict(vectors)
                    for q in s:
                        if rng.random() < 0.15:
                            step = rng.choice([-0.1, 0.1]) * np.eye(3)[rng.integers(3)]
                            local[q] = vectors[q] + step
                    cons.append((s, product_marginal(local, s)))
            mp = MarginalProblem(n, tuple(cons))
            if rng.random() < 0.2:
                ci = int(rng.integers(len(cons)))
                k = len(cons[ci][0])
                local = pauli.materialize(next(reference.strings_on(tuple(range(k)), k)))
                cons[ci] = (cons[ci][0], mp.constraints[ci][1] + 1e-6j * local)
                # a skewed rho never reaches the reduction
                with pytest.raises(problem.InvalidEntryError) as exc:
                    MarginalProblem(n, tuple(cons))
                assert (exc.value.index, exc.value.field) == (ci, "rho")
            got = outcome(reduce_to_expectations, mp)
            assert got == outcome(reference_reduce, mp), (n, subsets)
            kinds.add(got[0])
    assert kinds == {"ok", "conflict"}


def test_reduction_blocks_match_full_register_string_tables():
    # the reduction keeps one block per constraint: the strings that
    # constraint emitted first, next in row order, as their keys on its
    # qubits, so its local sum is the transform of just their
    # coefficients.  H and <T>
    # read through the blocks' Pauli transforms agree with the reference's
    # full-register string tables to round-off: an entry sums at most
    # 2^n terms either way, so (n + 2^n) eps of the 1-norm of the inputs
    # bounds the difference
    rng = np.random.default_rng(53)
    eps = np.finfo(np.float64).eps
    families = []
    for n in range(2, 8):
        for _ in range(4):
            subsets = []
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(1, min(n, 4) + 1))
                subsets.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            families.append((n, subsets))
    families += [
        (4, [(0, 1, 2), (1, 2), (1, 2), (0, 1, 2), (3,)]),  # nested and repeated
        (5, [(1, 3), (0, 1, 2, 3, 4), (2,)]),  # one whole-register subset
    ]
    for n, subsets in families:
        d = 1 << n
        sigma = rand_density(rng, d)
        mp = MarginalProblem(n, tuple((s, linalg.partial_trace(sigma, n, s)) for s in subsets))
        ep = reduce_to_expectations(mp)
        obset = ep.observable_set
        assert obset.subsets == tuple(subsets)
        position = {key: i for i, key in enumerate(pauli.string_keys(obset.codes).tolist())}
        theta = rng.normal(size=ep.size)
        emitted = 0
        for local, qubits in zip(obset.local_sums(theta), subsets):
            keys = pauli.string_keys(pauli.subset_codes(qubits, n)).tolist()
            index = np.array([position[key] for key in keys])
            first = index >= emitted
            assert np.array_equal(index[first], emitted + np.arange(np.count_nonzero(first))), subsets
            emitted += int(np.count_nonzero(first))
            # the key on the subset of its row j is j + 1
            coeffs = np.zeros(4 ** len(qubits))
            coeffs[1:][first] = theta[index[first]]
            assert np.array_equal(local, pauli.sum_transform(coeffs)), subsets
        assert emitted == ep.size
        want = reference.table_sum(obset.codes, theta)
        got = obset.hamiltonian(theta)
        assert np.abs(got - want).max() <= (n + d) * eps * np.abs(theta).sum(), subsets
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for m in (sigma, a):
            want = reference.table_traces(obset.codes, m).real
            got = obset.pauli_expectations(m)
            assert np.abs(got - want).max() <= (n + d) * eps * np.abs(m).sum(), subsets


def test_reduction_places_each_string_with_the_constraint_that_emitted_it_first():
    # the reduction lists its constraints as the subsets and the one
    # placement rule puts each string in the first holding its support:
    # the constraint that emitted it first in the per-string loop, with
    # nested, repeated and overlapping constraints in either order
    rng = np.random.default_rng(56)
    n = 4
    for subsets in (
        [(0, 1, 2), (1, 2), (0,), (2, 3)],  # nested first
        [(1, 2), (0,), (0, 1, 2), (2, 3)],  # nested later
        [(0, 1), (1, 2), (0, 1), (1, 2)],  # repeated
        [(0, 1), (1, 2), (0, 2), (1, 3)],  # overlapping, cyclic
        [(0,), (0, 1, 2, 3), (2, 3)],  # the whole register
    ):
        sigma = rand_density(rng, 1 << n)
        mp = MarginalProblem(n, tuple((s, linalg.partial_trace(sigma, n, s)) for s in subsets))
        ep = reduce_to_expectations(mp)
        observables, targets, owner = reference_reduce(mp)
        assert ep.observables == observables and ep.targets.tobytes() == targets.tobytes()
        assert ep.observable_set.subsets == tuple(subsets)
        # the one subset whose local sum a string's coefficient reaches
        placed = [
            [j for j, m in enumerate(ep.observable_set.local_sums(u)) if m.any()]
            for u in np.eye(ep.size)
        ]
        assert placed == [[o] for o in owner.tolist()], subsets


def test_reduction_holds_no_register_wide_string_tables():
    # n = 10, four 5-qubit windows, r = 3711: kept per window on its own
    # 2^5 entries, the reduction holds a few MB; as (r, d) phase and index
    # tables (24 B an entry) it held 88 MB
    n = 10
    rng = np.random.default_rng(54)
    vectors = {q: rng.uniform(-0.5, 0.5, size=3) for q in range(n)}
    windows = ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6), (4, 5, 6, 7, 8), (5, 6, 7, 8, 9))
    mp = MarginalProblem(n, tuple((w, product_marginal(vectors, w)) for w in windows))
    gc.collect()
    tracemalloc.start()
    try:
        ep = reduce_to_expectations(mp)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ep.size == 3711
    assert held < ep.size * (1 << n) * 24 / 10


def test_wide_reduction_and_state_stay_small():
    # n = 7, windows 0-4 and 2-6 (r = 1983, d = 128): the blocks keep
    # their strings' keys and read through the Pauli transforms, so the
    # reduction and one Gibbs state peak under 1.5 MB; with 2^k-entry
    # phase and gather tables per string (24 B an entry) they peaked at
    # about 3.9 MB
    n = 7
    rng = np.random.default_rng(55)
    vectors = {q: rng.uniform(-0.5, 0.5, size=3) for q in range(n)}
    windows = ((0, 1, 2, 3, 4), (2, 3, 4, 5, 6))
    mp = MarginalProblem(n, tuple((w, product_marginal(vectors, w)) for w in windows))
    theta = 0.01 * rng.normal(size=1983)
    gc.collect()
    tracemalloc.start()
    try:
        ep = reduce_to_expectations(mp)
        state = ep.observable_set.gibbs(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ep.size == 1983 and np.isfinite(state.psi)
    assert peak < 1.5 * 2**20, peak


def test_n12_hamiltonian_and_marginals_run_no_eigh(monkeypatch):
    # the north star's top size, d = 4096: an 11-pair reduction builds
    # H(theta) and reads its marginals with no eigensolve, holding about
    # one d x d complex array
    n = 12
    d = 1 << n
    rng = np.random.default_rng(68)
    vectors = {q: rng.uniform(-0.5, 0.5, size=3) for q in range(n)}
    pairs = tuple((q, q + 1) for q in range(n - 1))
    mp = MarginalProblem(n, tuple((p, product_marginal(vectors, p)) for p in pairs))
    ep = reduce_to_expectations(mp)
    theta = rng.normal(size=ep.size)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve at n = 12")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    obset = ep.observable_set
    marginals, peak = traced_peak(lambda: obset.marginals(obset.hamiltonian(theta)))
    assert peak < 1.5 * d * d * 16, peak / (d * d * 16)
    # Tr((P (x) I) H) = d theta_P for each of a pair's 15 strings
    for p, marginal in zip(pairs, marginals):
        rows = solver._region_rows(ep, p)
        np.testing.assert_allclose(pauli.trace_transform(marginal)[1:].real, d * theta[rows], atol=1e-9)
