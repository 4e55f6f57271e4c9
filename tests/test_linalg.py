import numpy as np
import pytest

from conftest import IDENTITY_2, random_density_matrix, rk4_unitary, unitary_exp
from qdcascade.linalg import HBAR_UEV_PS, InvalidDensityMatrixError, assert_density_matrix
from qdcascade.metrics import metrics_from_rho, trace_distance
from qdcascade.model import apply_multipair_mixing
from qdcascade.tomography import BasisSetting, simulate_counts, standard_settings

# Public functions that take a two-photon density matrix.
_STATE_ENTRY_POINTS = {
    "assert_density_matrix": assert_density_matrix,
    "metrics_from_rho": metrics_from_rho,
    "apply_multipair_mixing": lambda rho: apply_multipair_mixing(rho, 0.9),
    "trace_distance": lambda rho: trace_distance(rho, rho),
    "simulate_counts": lambda rho: simulate_counts(rho, standard_settings("six_basis"), 100),
}


class TestTensor:
    # The two-photon space is ordered HH, HV, VH, VV: first photon first.
    def test_basis_order(self):
        assert np.array_equal(BasisSetting("HV").product_ket(),
                              np.array([0, 1, 0, 0], dtype=complex))


class TestUnitaryExp:
    # The closed-form 2x2 propagator is the reference the cascade tests
    # build on, so it is checked here against RK4 and its group properties.
    def test_zero_time(self):
        h = np.array([[0.3, 0.2j], [-0.2j, -0.3]])
        assert np.allclose(unitary_exp(h, 0.0), IDENTITY_2)

    def test_diagonal_phase(self):
        h = np.diag([0.65, -0.65]).astype(complex)
        t = np.pi * HBAR_UEV_PS / 1.3
        u = unitary_exp(h, t)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = 0.5 * (a + a.conj().T)
            t = rng.uniform(10.0, 150.0)
            oracle = rk4_unitary(h, t, n_steps=15000)  # step <= 0.01 ps
            assert np.abs(unitary_exp(h, t) - oracle).max() < 1e-8

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = 0.5 * (a + a.conj().T)
        u = unitary_exp(h, 321.0)
        assert np.abs(u.conj().T @ u - IDENTITY_2).max() < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = 0.5 * (a + a.conj().T)
        t1, t2 = 123.4, 567.8
        assert np.abs(unitary_exp(h, t1) @ unitary_exp(h, t2) - unitary_exp(h, t1 + t2)).max() < 1e-10


class TestDensityMatrixValidation:
    def test_accepts_valid(self):
        rng = np.random.default_rng(21)
        assert_density_matrix(random_density_matrix(rng))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrixError):
            assert_density_matrix(np.diag([0.5, 0.5, 0.5, 0.0]))

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(InvalidDensityMatrixError):
            assert_density_matrix(rho)

    def test_rejects_negative(self):
        with pytest.raises(InvalidDensityMatrixError):
            assert_density_matrix(np.diag([1.1, 0.0, 0.0, -0.1]))

    # A valid one-qubit state: unchecked, purity returned 0.5 and the other
    # entry points failed with numpy shape errors.
    @pytest.mark.parametrize("call", _STATE_ENTRY_POINTS)
    def test_rejects_a_state_that_is_not_4x4(self, call):
        with pytest.raises(InvalidDensityMatrixError, match="must be 4x4"):
            _STATE_ENTRY_POINTS[call](np.eye(2) / 2)
