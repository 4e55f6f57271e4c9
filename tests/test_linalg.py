import re

import numpy as np
import pytest

from conftest import IDENTITY_2, random_density_matrix, rk4_unitary, unitary_exp
from qdcascade.linalg import (
    HBAR_UEV_PS,
    HERMITICITY_TOL,
    PSD_TOL,
    InvalidDensityMatrixError,
    _is_x_state,
    assert_density_matrix,
)
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
        # The message shows the trace as numpy's float64.
        message = f"^{re.escape(f'trace is {np.float64(1.5)!r}, expected 1')}$"
        with pytest.raises(InvalidDensityMatrixError, match=message):
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


def _x_state(outer_coherence: complex) -> np.ndarray:
    """HH, VV and HV, VH populations 1/4 each; the HH-VV coherence is given
    and the HV-VH one is 0.1."""
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3], rho[3, 0] = outer_coherence, np.conj(outer_coherence)
    rho[1, 2] = rho[2, 1] = 0.1
    return rho


class TestXStateValidation:
    """An X state's smallest eigenvalue is read from its two 2x2 blocks;
    every verdict and message stays that of the general route."""

    @pytest.mark.parametrize("position", [(i, j) for i in range(4) for j in range(4)])
    def test_rejects_non_finite_entries_anywhere(self, position):
        general = random_density_matrix(np.random.default_rng(3))
        for state in (_x_state(0.2j), general):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)):
                rho = state.copy()
                rho[position] = bad
                with pytest.raises(InvalidDensityMatrixError, match="non-finite entries"):
                    assert_density_matrix(rho)

    # A defect in one of the eight block entries: an imaginary part on the
    # diagonal (deviation twice its size) or an asymmetric HH-VV or HV-VH
    # coherence, above and below HERMITICITY_TOL.
    @pytest.mark.parametrize("position", [(0, 0), (0, 3), (3, 0), (3, 3),
                                          (1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("size", [3e-10, 6e-11, 4e-11])
    def test_hermiticity_defect_in_a_block(self, position, size):
        i, j = position
        defects = [1j * size, -1j * size] if i == j else [size, 1j * size, -size * (1 + 1j)]
        for defect in defects:
            rho = _x_state(0.2 + 0.05j)
            rho[i, j] += defect
            deviation = np.abs(rho - rho.conj().T).max()
            # The same defect with a Hermitian pair off the X entries, which
            # takes the general route.
            general = rho.copy()
            general[0, 1] = general[1, 0] = 1e-300
            assert _is_x_state(rho.tolist()) and not _is_x_state(general.tolist())
            assert deviation == np.abs(general - general.conj().T).max()
            for state in (rho, general):
                if deviation > HERMITICITY_TOL:
                    message = f"^{re.escape(f'not Hermitian (deviation {deviation:.3e})')}$"
                    with pytest.raises(InvalidDensityMatrixError, match=message):
                        assert_density_matrix(state)
                else:
                    assert_density_matrix(state)

    @pytest.mark.parametrize("block", [(0, 3), (1, 2)])
    @pytest.mark.parametrize("phase", [0.0, 1.0, -2.5])
    def test_negative_block_eigenvalue(self, block, phase):
        # A block [[1/4, z*], [z, 1/4]] has eigenvalues 1/4 +- |z|.
        for excess, rejected in ((2e-10, True), (5e-11, False)):
            rho = _x_state(0.2 * np.exp(1j * phase))
            i, j = block
            rho[i, j] = (0.25 + excess) * np.exp(1j * phase)
            rho[j, i] = np.conj(rho[i, j])
            assert (np.linalg.eigvalsh(rho).min() < -PSD_TOL) == rejected
            if rejected:
                with pytest.raises(InvalidDensityMatrixError, match=r"^negative eigenvalue -2\.000e-10$"):
                    assert_density_matrix(rho)
            else:
                assert_density_matrix(rho)

    def test_moduli_beyond_the_largest_double(self):
        # Finite entries whose modulus overflows: numpy's |rho - rho^dag| is
        # inf there, and a coherence beyond the largest double leaves a
        # block eigenvalue of -inf.
        huge = 1.5e308 + 1.5e308j
        rho = _x_state(0.2)
        rho[0, 1] = huge
        with pytest.raises(InvalidDensityMatrixError, match=r"^not Hermitian \(deviation inf\)$"):
            assert_density_matrix(rho)
        rho = _x_state(huge)
        with pytest.raises(InvalidDensityMatrixError, match="^negative eigenvalue -inf$"):
            assert_density_matrix(rho)

    @pytest.mark.parametrize("call", [assert_density_matrix, metrics_from_rho])
    def test_overflowing_coherence_of_a_general_state(self, call):
        # Off the X entries, np.linalg.eigvalsh returns NaN for a modulus
        # beyond the largest double; metrics_from_rho's SVD then did not
        # converge.
        huge = 1.5e308 + 1.5e308j
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1], rho[1, 0] = huge, np.conj(huge)
        with pytest.raises(InvalidDensityMatrixError, match="^negative eigenvalue nan$"):
            call(rho)

    def test_one_off_x_entry_takes_the_general_route(self, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *args, f=original, n=name: calls.append(n) or f(a, *args))
        rho = _x_state(0.2)
        metrics_from_rho(rho)
        assert calls == []
        rho[0, 1] = 1e-300
        metrics_from_rho(rho)
        assert calls == ["eigvalsh", "eigh"]
