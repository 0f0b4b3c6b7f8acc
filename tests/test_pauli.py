"""Pauli-string algebra: symbolic ops against a dense kron oracle."""

import itertools

import numpy as np
import pytest

from gibbsfit import linalg, pauli
from gibbsfit.partition import ObservableSet
from gibbsfit.pauli import PauliString

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def kron_oracle(p: PauliString) -> np.ndarray:
    """Independent construction: explicit tensor product, qubit 0 leftmost."""
    m = dict(p.letters)
    out = np.eye(1, dtype=complex)
    for q in range(p.n):
        out = np.kron(out, SINGLE[m.get(q, "I")])
    return out


def rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_string(rng, n) -> PauliString:
    letters = []
    for q in range(n):
        c = "IXYZ"[rng.integers(0, 4)]
        if c != "I":
            letters.append((q, c))
    return PauliString(n, tuple(letters))


def test_label_round_trip():
    p = pauli.parse_label("X0 Z2", 3)
    assert str(p) == "X0 Z2"
    assert p.support == (0, 2)
    assert pauli.parse_label("", 2) == pauli.identity(2)
    assert str(pauli.identity(2)) == ""


def test_label_rejects():
    for bad in ("Q0", "X", "X0 X0", "Z1 X0", "X3"):
        with pytest.raises(ValueError):
            pauli.parse_label(bad, 3)


def test_equality_is_by_letters():
    a = pauli.parse_label("X0 Y1", 3)
    b = PauliString(3, ((0, "X"), (1, "Y")))
    assert a == b and hash(a) == hash(b)
    assert a != pauli.parse_label("X0 Z1", 3)


def test_materialize_matches_kron_oracle_exactly():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        p = rand_string(rng, n)
        assert np.array_equal(pauli.materialize(p), kron_oracle(p)), str(p)


def test_orthogonality_exact_up_to_three_qubits():
    for n in (1, 2, 3):
        group = list(pauli.strings_on(tuple(range(n)), n, include_identity=True))
        mats = [pauli.materialize(p) for p in group]
        d = 1 << n
        for i, a in enumerate(group):
            for j, b in enumerate(group):
                val = np.trace(mats[i].conj().T @ mats[j])
                assert val == (d if a == b else 0)  # exact, not approx


def test_pauli_trace_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        p = rand_string(rng, n)
        a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        want = np.trace(kron_oracle(p) @ a)
        assert abs(pauli.pauli_trace(p, a) - want) < 1e-12 * max(1.0, abs(want))


def test_embed_restrict_relabel():
    local = pauli.parse_label("X0 Z1", 2)
    wide = pauli.relabel(local, (1, 3), 4)
    assert str(wide) == "X1 Z3"
    back = pauli.restrict(wide, (1, 3))
    assert back == local and back.n == 2
    with pytest.raises(ValueError):
        pauli.restrict(wide, (0, 1))  # support not covered


def test_strings_on_enumeration():
    got = [str(p) for p in pauli.strings_on((0, 1), 2)]
    assert len(got) == 15
    assert got[0] == "X1"  # identity skipped, last qubit varies fastest
    assert "X0 X1" in got and "" not in got
    with_id = list(pauli.strings_on((0,), 1, include_identity=True))
    assert len(with_id) == 4 and with_id[0].is_identity


def reference_strings_on(qubits, n):
    """The letter-by-letter enumeration `subset_codes` replaced: the
    product of "IXYZ" over the qubits, identity skipped."""
    out = []
    for combo in itertools.product("IXYZ", repeat=len(qubits)):
        letters = tuple((q, c) for q, c in zip(qubits, combo) if c != "I")
        if letters:
            out.append(PauliString(n, letters))
    return out


def test_subset_codes_and_keys_own_the_string_layout():
    for qubits, n in [((0,), 1), ((1, 3), 4), ((0, 2, 3), 5), ((4,), 6), ((0, 1, 2, 3), 4)]:
        codes = pauli.subset_codes(qubits, n)
        want = reference_strings_on(qubits, n)
        assert pauli.strings_from_codes(codes) == tuple(want)
        assert [p.letters for p in pauli.strings_on(qubits, n)] == [p.letters for p in want]
    for k in (1, 2, 3, 4):
        local = pauli.region_tables(k)[0]
        # the itertools enumeration region_tables used to build its codes by
        assert np.array_equal(local, list(itertools.product(range(4), repeat=k))[1:])
        assert np.array_equal(pauli.subset_codes(range(k), k), local)
        # the key of row j of region_tables(k) is j + 1 (the identity is 0)
        assert np.array_equal(pauli.string_keys(local), np.arange(1, 4**k))
    # a region's strings inside a host constraint's strings: key - 1 is
    # the row, as the base-4 arithmetic it replaced and a lookup both say
    for h in (2, 3, 4, 5):
        pos = {p.letters: j for j, p in enumerate(reference_strings_on(range(h), h))}
        for size in range(1, h + 1):
            for keep in itertools.combinations(range(h), size):
                got = pauli.string_keys(pauli.subset_codes(keep, h)) - 1
                old = pauli.region_tables(size)[0] @ 4 ** (h - 1 - np.array(keep)) - 1
                looked_up = [pos[p.letters] for p in reference_strings_on(keep, h)]
                assert np.array_equal(got, old) and got.tolist() == looked_up, keep


@pytest.mark.parametrize("qubits", [(1, 0), (0, 0), (-1,), (0, 3)])
def test_strings_on_rejects_bad_qubits(qubits):
    with pytest.raises(ValueError):
        list(pauli.strings_on(qubits, 3))


def reference_perm_phase(n, letters):
    """One string's signed-permutation form, built letter by letter: the
    per-string kernel the batched table builder replaced, kept as the
    reference for its rows."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    phase = np.ones(dim, dtype=np.complex128)
    flip = 0
    for q, c in letters:
        shift = n - 1 - q
        bit = (idx >> shift) & 1
        if c == "X":
            flip |= 1 << shift
        elif c == "Y":
            flip |= 1 << shift
            phase = phase * (1j * (1 - 2 * bit))
        else:  # Z
            phase = phase * (1.0 - 2 * bit)
    return idx ^ flip, phase


def assert_rows_match_reference(strings, perms, phases):
    assert perms.shape == phases.shape == (len(strings), 1 << strings[0].n)
    for p, perm, phase in zip(strings, perms, phases):
        want_perm, want_phase = reference_perm_phase(p.n, p.letters)
        assert np.array_equal(perm, want_perm), str(p)
        # signed zeros included
        assert phase.tobytes() == want_phase.tobytes(), str(p)


def test_table_rows_match_per_letter_reference_bitwise():
    rng = np.random.default_rng(12)
    for n in range(1, 8):
        strings = [rand_string(rng, n) for _ in range(40)]
        codes = pauli.letter_codes(strings, n)
        assert_rows_match_reference(strings, *pauli.string_tables(codes))
        perm, phase = pauli.perm_phase(strings[0])
        assert_rows_match_reference(strings[:1], perm[None], phase[None])
        oset = ObservableSet(strings, dim=1 << n, n=n)
        # the set keeps its perms as their gather index
        assert_rows_match_reference(strings, pauli.table_perms(oset._gather), oset._phases)
    for k in (1, 2, 3):
        strings = list(pauli.strings_on(tuple(range(k)), k))
        assert_rows_match_reference(strings, *pauli.region_tables(k)[1:])


def test_region_tables_and_traces_match_per_string_kernels_bitwise():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3):
        codes = pauli.region_tables(k)[0]
        strings = list(pauli.strings_on(tuple(range(k)), k))
        assert len(codes) == len(strings) == 4**k - 1
        a = rand_density(rng, 1 << k)
        want = np.array([pauli.pauli_trace(p, a) for p in strings])
        assert pauli.region_traces(a).tobytes() == want.tobytes()
        for j, p in enumerate(strings):
            assert tuple((q, "IXYZ"[c]) for q, c in enumerate(codes[j]) if c) == p.letters


def test_expand_known_states():
    e = pauli.expand(np.eye(2) / 2)
    assert set(e.coefficients) == {pauli.identity(1)}
    assert e.coefficients[pauli.identity(1)] == pytest.approx(0.5)

    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    coef = {str(k): v for k, v in pauli.expand(bell).coefficients.items()}
    assert coef == pytest.approx(
        {"": 0.25, "X0 X1": 0.25, "Y0 Y1": -0.25, "Z0 Z1": 0.25}
    )


def test_expand_rejects_non_hermitian_input():
    with pytest.raises(ValueError):
        pauli.expand(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expand_builds_strings_for_kept_coefficients_only(monkeypatch):
    # |0..0><0..0| on 6 qubits has 64 nonzero coefficients, the Z
    # strings, of 4096
    built = []
    post_init = PauliString.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PauliString, "__post_init__", counted)
    rho = np.zeros((64, 64), dtype=complex)
    rho[0, 0] = 1.0
    coefficients = pauli.expand(rho).coefficients
    assert len(built) == len(coefficients) == 64
    assert all(c == 1 / 64 for c in coefficients.values())
    assert all(letter == "Z" for p in coefficients for _, letter in p.letters)


def test_expand_reconstruct_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        rho = rand_density(rng, 1 << n)
        back = pauli.reconstruct(pauli.expand(rho))
        assert np.abs(back - rho).max() < 1e-12


def test_marginal_from_expectations_zero_targets():
    rho, ok = pauli.marginal_from_expectations({}, (0, 1))
    assert ok and np.array_equal(rho, np.eye(4) / 4)


def test_marginal_from_expectations_bell():
    targets = {
        pauli.parse_label("X0 X1", 2): 1.0,
        pauli.parse_label("Y0 Y1", 2): -1.0,
        pauli.parse_label("Z0 Z1", 2): 1.0,
    }
    rho, ok = pauli.marginal_from_expectations(targets, (0, 1))
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert ok and np.abs(rho - bell).max() < 1e-15


def test_marginal_from_expectations_flags_nonphysical():
    rho, ok = pauli.marginal_from_expectations({pauli.parse_label("X0 X1", 2): 3.0}, (0, 1))
    assert not ok
    assert abs(np.trace(rho).real - 1.0) < 1e-12  # still unit trace
    with pytest.raises(ValueError):
        pauli.marginal_from_expectations({pauli.identity(2): 0.7}, (0, 1))


def test_marginal_equivalence_with_partial_trace():
    # reading expectations off a global state and reassembling the subset
    # state must agree with the partial trace
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        sigma = rand_density(rng, 1 << n)
        size = int(rng.integers(1, min(n, 3) + 1))
        qubits = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        targets = {}
        for local in pauli.strings_on(tuple(range(size)), size):
            glob = pauli.relabel(local, qubits, n)
            targets[glob] = float(pauli.pauli_trace(glob, sigma).real)
        got, ok = pauli.marginal_from_expectations(targets, qubits)
        want = linalg.partial_trace(sigma, n, qubits)
        assert ok
        assert np.abs(got - want).max() < 1e-10
