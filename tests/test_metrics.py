import numpy as np
import pytest

from conftest import (
    concurrence,
    concurrence_pure,
    correlation_visibilities,
    fidelity_phi_plus,
    purity,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)
from qdcascade.linalg import InvalidDensityMatrixError
from qdcascade.metrics import PHI_PLUS, metrics_from_rho, trace_distance
from qdcascade.model import apply_multipair_mixing
from qdcascade.tomography import fidelity_from_visibilities

PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())
MIXED = np.eye(4, dtype=complex) / 4.0


class TestFidelity:
    def test_bell_state(self):
        assert abs(fidelity_phi_plus(PHI_PLUS_RHO) - 1.0) < 1e-14

    def test_maximally_mixed(self):
        assert abs(fidelity_phi_plus(MIXED) - 0.25) < 1e-15

    def test_werner(self):
        werner = apply_multipair_mixing(PHI_PLUS_RHO, 0.99)
        assert abs(fidelity_phi_plus(werner) - 0.9925) < 1e-12

    def test_pauli_identity(self):
        rng = np.random.default_rng(31)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        for _ in range(50):
            rho = random_density_matrix(rng)
            expectation = lambda op: np.real(np.trace(op @ rho))  # noqa: E731
            identity_value = 0.25 * (
                1.0
                + expectation(np.kron(sx, sx))
                - expectation(np.kron(sy, sy))
                + expectation(np.kron(sz, sz))
            )
            assert abs(fidelity_phi_plus(rho) - identity_value) < 1e-12


class TestPurity:
    def test_pure_states(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            psi = random_pure_state(rng)
            assert abs(purity(np.outer(psi, psi.conj())) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(MIXED) - 0.25) < 1e-15

    def test_werner(self):
        k = 0.99
        value = purity(apply_multipair_mixing(PHI_PLUS_RHO, k))
        assert abs(value - (k * k + (1 - k * k) / 4)) < 1e-12
        assert abs(value - 0.98508) < 1e-5

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            value = purity(random_density_matrix(rng))
            assert 0.25 - 1e-12 <= value <= 1.0 + 1e-12


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(PHI_PLUS_RHO) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_werner(self):
        assert abs(concurrence(apply_multipair_mixing(PHI_PLUS_RHO, 0.99)) - 0.985) < 1e-10

    def test_matches_pure_state_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            psi = random_pure_state(rng)
            rho = np.outer(psi, psi.conj())
            assert abs(concurrence(rho) - concurrence_pure(psi)) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            rho = random_density_matrix(rng)
            gate = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = gate @ rho @ gate.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            value = concurrence(random_density_matrix(rng))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_mixing_degrades_concurrence_faster_than_fidelity(self):
        for k in (0.99, 0.9, 0.7):
            werner = apply_multipair_mixing(PHI_PLUS_RHO, k)
            fidelity_drop = 1.0 - fidelity_phi_plus(werner)
            concurrence_drop = 1.0 - concurrence(werner)
            assert abs(fidelity_drop - 3 * (1 - k) / 4) < 1e-10
            assert abs(concurrence_drop - 3 * (1 - k) / 2) < 1e-10


class TestConcurrencePure:
    def test_bell_state(self):
        assert abs(concurrence_pure(PHI_PLUS) - 1.0) < 1e-15

    def test_product_state(self):
        assert concurrence_pure(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_phase_invariance(self):
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            psi = np.array([1.0, 0.0, 0.0, np.exp(1j * theta)]) / np.sqrt(2)
            assert abs(concurrence_pure(psi) - 1.0) < 1e-12


class TestVisibilityIdentity:
    def test_exact_correlations_reproduce_fidelity(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            rho = random_density_matrix(rng)
            c_hv, c_da, c_rl = correlation_visibilities(rho)
            assert abs(fidelity_from_visibilities(c_hv, c_da, c_rl) - fidelity_phi_plus(rho)) < 1e-10


class TestBundleAndDistance:
    def test_metrics_bundle(self):
        bundle = metrics_from_rho(PHI_PLUS_RHO)
        assert abs(bundle.fidelity - 1.0) < 1e-14
        assert abs(bundle.purity - 1.0) < 1e-14
        assert abs(bundle.concurrence - 1.0) < 1e-14

    def test_bundle_validates_once(self, monkeypatch):
        import qdcascade.metrics as metrics_module

        calls = []
        original = metrics_module.assert_density_matrix

        def counting(rho, *args, **kwargs):
            calls.append(1)
            return original(rho, *args, **kwargs)

        monkeypatch.setattr(metrics_module, "assert_density_matrix", counting)
        rho = random_density_matrix(np.random.default_rng(23))
        metrics_from_rho(rho)
        assert len(calls) == 1
        with pytest.raises(InvalidDensityMatrixError):
            metrics_from_rho(np.eye(4))

    def test_trace_distance(self):
        assert trace_distance(PHI_PLUS_RHO, PHI_PLUS_RHO) == 0.0
        assert abs(trace_distance(PHI_PLUS_RHO, MIXED) - 0.75) < 1e-12

    def test_rejects_invalid_input(self):
        for rho in (np.eye(4), np.eye(4) * 0.5, np.diag([2.0, 0.0, 0.0, -1.0])):
            with pytest.raises(InvalidDensityMatrixError):
                metrics_from_rho(rho)
