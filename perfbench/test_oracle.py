"""Known-point tests of the benchmark oracle.

Run with: python3 -m pytest perfbench/test_oracle.py
"""

import numpy as np
import pytest
from scipy import integrate

import oracle

BELL = {
    "phi+": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0]) / np.sqrt(2),
}


@pytest.mark.parametrize("name", sorted(BELL))
def test_bell_states_are_maximally_entangled(name):
    psi = BELL[name].astype(complex)
    rho = np.outer(psi, psi.conj())
    assert oracle.concurrence(rho) == pytest.approx(1.0, abs=1e-7)
    assert oracle.purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert oracle.density_matrix_defects(rho) == []


def test_maximally_mixed_state():
    rho = np.eye(4) / 4
    assert oracle.concurrence(rho) == 0.0
    assert oracle.purity(rho) == pytest.approx(0.25, abs=1e-15)
    assert oracle.fidelity(rho) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0])
def test_werner_state_concurrence(p):
    psi = BELL["phi+"]
    rho = p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4
    assert oracle.concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-7)
    assert oracle.fidelity(rho) == pytest.approx((1 + 3 * p) / 4, abs=1e-14)


def test_pair_states_come_from_eigenvectors():
    s, h = 0.4, np.array([-0.7, 0.0, 0.3])
    u, v, delta = oracle.pair_states(s, h)
    np.testing.assert_allclose(delta, 2 * np.sqrt(s * s / 4 + h * h), rtol=1e-14)
    for i, hz in enumerate(h):
        w, vec = np.linalg.eigh(oracle.hamiltonian(s, hz)[0])
        j = vec[:, 1]
        np.testing.assert_allclose(oracle.hamiltonian(s, hz)[0] @ j, w[1] * j, atol=1e-14)
        np.testing.assert_allclose(u[i], np.kron(j.conj(), j), atol=1e-14)
        assert np.vdot(u[i], v[i]) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("window", [None, 256.0, 3000.0])
@pytest.mark.parametrize("delta", [0.0, 0.8, 2.5])
def test_phase_average_matches_time_integral(delta, window):
    t1 = 430.0
    upper = np.inf if window is None else window

    def part(t, fn):
        return fn(np.exp(-t / t1 - 1j * delta * t / oracle.HBAR)) / t1

    norm = 1.0 if window is None else -np.expm1(-window / t1)
    re = integrate.quad(part, 0, upper, args=(np.real,), epsabs=1e-13, limit=200)[0]
    im = integrate.quad(part, 0, upper, args=(np.imag,), epsabs=1e-13, limit=200)[0]
    got = oracle.phase_average(np.array([delta]), t1, window)[0]
    assert got == pytest.approx((re + 1j * im) / norm, abs=1e-10)


def test_state_is_the_time_average_of_the_cascade_ket():
    s, h, t1, window = 0.4, 0.3, 430.0, 350.0
    w, vec = np.linalg.eigh(oracle.hamiltonian(s, h)[0])
    j, l = vec[:, 1], vec[:, 0]

    def ket(t):
        phase = np.exp(-1j * (w[1] - w[0]) * t / oracle.HBAR)
        return (np.kron(j.conj(), j) + phase * np.kron(l.conj(), l)) / np.sqrt(2)

    def element(t, a, b, fn):
        psi = ket(t)
        return fn(psi[a] * psi[b].conj()) * np.exp(-t / t1) / t1

    expected = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            re = integrate.quad(element, 0, window, args=(a, b, np.real), epsabs=1e-13)[0]
            im = integrate.quad(element, 0, window, args=(a, b, np.imag), epsabs=1e-13)[0]
            expected[a, b] = (re + 1j * im) / -np.expm1(-window / t1)
    np.testing.assert_allclose(oracle.state_rho(s, h, t1, window)[0], expected, atol=1e-10)


@pytest.mark.parametrize("s,k", [(0.0, 1.0), (0.4, 1.0), (0.4, 0.99), (2.0, 0.9)])
def test_sigma_zero_fidelity_closed_form(s, k):
    t1 = 430.0
    rho, cov = oracle.gaussian_average(s, 0.0, t1)
    assert not cov.any()
    expected = (1 + k) / 4 + (k / 2) / (1 + (s * t1 / oracle.HBAR) ** 2)
    assert oracle.fidelity(oracle.mix(rho, k)) == pytest.approx(expected, abs=1e-14)


def test_reference_dot_at_sigma_zero():
    # The value the model gives; analytic_fidelity's 0.893 weights S^2 by 4.
    rho, _ = oracle.gaussian_average(0.4, 0.0, 430.0)
    assert oracle.fidelity(rho) == pytest.approx(0.968, abs=5e-4)


@pytest.mark.parametrize("s,sigma,window", [(0.4, 0.41, None), (0.0, 0.66, 256.0), (1.5, 0.2, 3000.0)])
def test_gaussian_average_matches_high_order_gauss_hermite(s, sigma, window):
    rho, cov = oracle.gaussian_average(s, sigma, 430.0, window)
    np.testing.assert_allclose(rho, oracle.gauss_hermite_rho(s, sigma, 430.0, window, 96), atol=1e-9)
    assert oracle.density_matrix_defects(rho) == []
    assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_gaussian_average_tends_to_the_sigma_zero_state():
    rho, _ = oracle.gaussian_average(0.4, 1e-4, 430.0)
    np.testing.assert_allclose(rho, oracle.state_rho(0.4, 0.0, 430.0)[0], atol=1e-7)


def test_photon_exchange_keeps_the_figures():
    rho = oracle.mix(oracle.gaussian_average(0.4, 0.41, 430.0, 350.0)[0], 0.95)
    np.testing.assert_allclose(oracle.fpc(oracle.photon_exchanged(rho)), oracle.fpc(rho), atol=1e-8)


def test_params_round_trip():
    rho = oracle.state_rho(0.7, 0.2, 430.0, 500.0)[0]
    np.testing.assert_allclose(oracle.from_params(oracle.hermitian_params(rho)), rho, atol=1e-15)


def test_likelihood_prefers_the_state_that_made_the_counts():
    labels = [a + b for a in "HVDR" for b in "HVDR"]
    rho = oracle.mix(oracle.gaussian_average(0.4, 0.41, 430.0)[0], 0.99)
    counts = 1e6 * oracle.probabilities(rho, labels)
    assert oracle.log_likelihood(rho, labels, counts) > oracle.log_likelihood(np.eye(4) / 4, labels, counts)
