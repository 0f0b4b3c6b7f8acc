"""The package's exported names."""

import gibbsfit
from gibbsfit import linalg, pauli

# helpers only tests use: reachable from their modules, not exported
UNEXPORTED = {
    linalg: ("psd_modulus", "psd_power", "frobenius_norm", "hilbert_schmidt_inner",
             "matrix_exp", "expm_directional_derivative"),
    pauli: ("reconstruct", "marginal_from_expectations"),
}


def test_every_exported_name_resolves_and_test_helpers_stay_in_their_modules():
    assert len(gibbsfit.__all__) == len(set(gibbsfit.__all__)) == 35
    for name in gibbsfit.__all__:
        assert hasattr(gibbsfit, name), name
    for module, names in UNEXPORTED.items():
        for name in names:
            assert name not in gibbsfit.__all__ and not hasattr(gibbsfit, name), name
            assert callable(getattr(module, name)), name
