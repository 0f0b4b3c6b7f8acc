"""Problem reduction, the Gram rank check, and the compatibility diagnostics."""

import numpy as np
import pytest

from gibbsfit import linalg, pauli, problem
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
        ExpectationProblem.from_paulis(1, [(pauli.identity(1), 0.5)])
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
    # per string; targets must agree bit for bit
    rng = np.random.default_rng(30)
    n = 5
    subsets = ((0, 1, 2), (1, 2), (2, 3, 4), (4,))
    full = rand_density(rng, 1 << n)
    mp = MarginalProblem(n, tuple((s, linalg.partial_trace(full, n, s)) for s in subsets))
    ep = reduce_to_expectations(mp)
    seen = {}
    for ci, (qubits, rho) in enumerate(mp.constraints):
        k = len(qubits)
        for j, local in enumerate(pauli.strings_on(tuple(range(k)), k)):
            glob = pauli.relabel(local, qubits, n)
            t = float(pauli.pauli_trace(local, rho).real)
            seen.setdefault(glob, t)
            assert ep.observables[ep.string_index[ci][j]] == glob
    assert ep.observables == tuple(seen)
    want = np.clip(np.array(list(seen.values())), -1.0, 1.0)
    assert want.tobytes() == ep.targets.tobytes()


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
        n, [(p, 0.0) for p in pauli.strings_on(tuple(range(n)), n)]
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
        ep = ExpectationProblem(tuple(ops), np.zeros(len(ops)), dim=4, n=2)
        mats = [np.eye(4)] + [
            pauli.materialize(op) if isinstance(op, pauli.PauliString) else op for op in ops
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
    ep2 = ExpectationProblem.from_matrices([0.5 * np.eye(2, dtype=complex)], [0.3], n=1)
    assert not check_independence(ep2).independent
    # shifted Pauli stays independent: {I, Z + 0.6 I} has Gram [[2, 1.2], [1.2, 2.72]]
    ep3 = ExpectationProblem.from_matrices([Z + 0.6 * np.eye(2)], [0.0], n=1)
    rep = check_independence(ep3)
    want = np.linalg.eigvalsh(np.array([[2.0, 1.2], [1.2, 2.72]]))
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
    single = MarginalProblem(2, (((0, 1), BELL),))
    rep = check_local_compatibility(single)
    assert rep.verdict == problem.COMPATIBLE and rep.pair_distances == ()

    chain = MarginalProblem(3, (((0, 1), BELL), ((1, 2), BELL)))
    rep = check_local_compatibility(chain)
    assert rep.verdict == problem.COMPATIBLE
    assert rep.pair_distances[0][2] < 1e-15  # both overlaps are I/2

    up, down = qubit_state(0.5), qubit_state(0.0)
    bad = MarginalProblem(
        3,
        (
            ((0, 1), np.kron(np.eye(2) / 2, up)),
            ((1, 2), np.kron(down, np.eye(2) / 2)),
        ),
    )
    rep = check_local_compatibility(bad)
    assert rep.verdict == problem.LOCALLY_INCOMPATIBLE
    assert rep.pair_distances[0][2] == pytest.approx(0.25)  # half the z-gap


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
    # all six are flagged; the pair loop took 3 entropies per pair (18)
    star = MarginalProblem(5, tuple(((0, i), BELL) for i in range(1, 5)))
    want = per_pair_entropy_diagnostic(star)
    calls = []
    entropy = linalg.von_neumann_entropy

    def counted(rho):
        calls.append(np.shape(rho))
        return entropy(rho)

    monkeypatch.setattr(linalg, "von_neumann_entropy", counted)
    got = entropy_diagnostic(star)
    assert len(calls) == 10  # 4 constraints, 6 overlaps
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
        rebuilt, ok = pauli.marginal_from_expectations(targets, qubits)
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
            with pytest.raises(problem.InvalidEntryError, match="exceeds spectral radius"):
                ExpectationProblem.from_matrices([m], [bound * (1 + 1e-9)], n=3)


def reference_reduce(mp):
    """The per-string loop the code-based reduction replaced: one letters
    tuple and one dict lookup per emitted string, first offender raises."""
    table, observables, targets, owner, string_index = {}, [], [], [], []
    for ci, (qubits, rho) in enumerate(mp.constraints):
        codes = pauli.region_tables(len(qubits))[0]
        index = []
        for row, val in zip(codes.tolist(), pauli.region_traces(rho).tolist()):
            if abs(val.imag) > 1e-10:
                raise ValueError(f"non-real expectation {val!r} for constraint {ci}")
            t = float(val.real)
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
            index.append(pos)
        string_index.append(index)
    return tuple(observables), np.clip(np.array(targets), -1.0, 1.0), string_index


def outcome(reduce, mp):
    """What a reduction gives: its arrays, or its error's every detail."""
    try:
        ep = reduce(mp)
    except TargetConflictError as exc:
        return ("conflict", str(exc), exc.label, exc.subsets, exc.values)
    except ValueError as exc:
        return ("value", str(exc))
    if isinstance(ep, tuple):
        observables, targets, index = ep
    else:
        observables, targets, index = ep.observables, ep.targets, ep.string_index
    return ("ok", observables, targets.tobytes(), [list(map(int, i)) for i in index])


def bloch_state(v):
    x, y, z = v
    return (np.eye(2) + x * X + y * np.array([[0, -1j], [1j, 0]]) + z * Z) / 2


def product_marginal(vectors, qubits):
    rho = np.ones((1, 1))
    for q in qubits:
        rho = np.kron(rho, bloch_state(vectors[q]))
    return rho


def with_constraints(mp, constraints):
    # a non-Hermitian rho cannot pass the constructor's gate
    object.__setattr__(mp, "constraints", tuple(constraints))
    return mp


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

    # non-real traces before, among and after the conflicts: Y3 is the
    # second string of (2, 3) and Z2 Z3 the last, after the conflicting Z2
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
        mp = marginals(per_subset)
        cons = list(mp.constraints)
        cons[ci] = (cons[ci][0], cons[ci][1] + 1j * eps * op)
        mp = with_constraints(mp, cons)
        got = outcome(reduce_to_expectations, mp)
        assert got == outcome(reference_reduce, mp)
        raised.append(got[:1] + got[2:3])
    # 1e-11 is round-off, not a fault
    assert raised == [
        ("value",), ("value",), ("conflict", "Z2"), ("conflict", "X1"), ("conflict", "Z2")
    ]


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
                local = pauli.materialize(next(pauli.strings_on(tuple(range(k)), k)))
                cons[ci] = (cons[ci][0], mp.constraints[ci][1] + 1e-6j * local)
                mp = with_constraints(mp, cons)
            got = outcome(reduce_to_expectations, mp)
            assert got == outcome(reference_reduce, mp), (n, subsets)
            kinds.add(got[0])
    assert kinds == {"ok", "conflict", "value"}


def test_reduction_tables_equal_string_tables_bitwise():
    # the reduction gathers its string tables from the region tables;
    # they must be bitwise those string_tables builds from the codes
    rng = np.random.default_rng(53)
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
        sigma = rand_density(rng, 1 << n)
        mp = MarginalProblem(n, tuple((s, linalg.partial_trace(sigma, n, s)) for s in subsets))
        obset = reduce_to_expectations(mp).observable_set
        perms, phases = pauli.string_tables(obset.codes)
        assert np.array_equal(obset._gather, pauli.gather_index(perms)), subsets
        assert obset._phases.tobytes() == phases.tobytes(), subsets
