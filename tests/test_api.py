"""The public surface: what `qdcascade` exports, and what it no longer has."""

import importlib

import pytest

import qdcascade

# The Hamiltonian/propagator state path and the linear algebra only it used;
# the reference versions the tests need live in conftest.py.
REMOVED = (
    "build_hamiltonian", "exciton_eigensystem", "two_photon_state", "propagate_rho",
    "eig_hermitian", "unitary_exp", "sqrt_psd", "NotHermitianError", "NotPSDError",
    "IDENTITY_2", "_averaged_rho", "_expm1_ratio",
    # Names only the tests called; the tests keep their own versions.
    "emission_phase_average", "time_averaged_rho", "NuclearSpecies", "SpeciesParams",
    "sigma_from_composition", "concurrence_pure", "NotNormalizedError",
    "correlation_visibilities", "expected_probability", "SIGMA_X", "SIGMA_Z",
    "_check_t1_window", "_check_finite", "_check_positive",
    # Second entries beside metrics_from_rho, and a wrapper of np.kron.
    "fidelity_phi_plus", "purity", "concurrence", "_fidelity_phi_plus", "_purity", "tensor",
    # The derived moment map; _rho_from_moments writes the state out.
    "_PAIR_UPPER", "_PAIR_LOWER", "_MOMENT_OUTER", "_moment_map", "_RHO_FROM_MOMENTS",
    # The second unwindowed kernel and its 1/E^2 guard.
    "_full_delay_moments", "_TINY",
    # The windowed branch's separate phase average; every window sums the
    # rows A, M and K.
    "_phase_average",
    # The physicists' Gauss-Hermite nodes; _normal_rule holds the N(0, 1) rule.
    "_hermgauss",
    # The Bell ket, which only tests read; conftest keeps it.
    "PHI_PLUS",
)


def test_every_exported_name_resolves():
    assert len(set(qdcascade.__all__)) == len(qdcascade.__all__)
    missing = [name for name in qdcascade.__all__ if not hasattr(qdcascade, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["qdcascade", "qdcascade.model", "qdcascade.metrics",
                                    "qdcascade.tomography", "qdcascade.linalg"])
def test_removed_names_are_gone(module):
    namespace = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(namespace, name)] == []
