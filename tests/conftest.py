"""Shared test helpers: random states, fixed-step ODE oracles, the
Hamiltonian/propagator reference model of the cascade, the per-sample
outer-product oracle of the spin-noise average, the complex128 emission
phase average that the reference moments are built from, reference
entanglement figures and oracles of the figures of merit, the single
figures of the package's metrics bundle, a thin wrapper that calls the
package's private moment kernel in physical units, and the Born-rule
probabilities and profiled log-likelihood of a given state."""

from __future__ import annotations

import math

import numpy as np

from qdcascade.linalg import HBAR_UEV_PS, assert_density_matrix
from qdcascade.metrics import metrics_from_rho
from qdcascade.model import PhysicalParams, _moments, _rho_from_moments, _scaled
from qdcascade.tomography import _born_matrix, _probabilities

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Ginibre-random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rk4_density_batch(rho0: np.ndarray, h_total: np.ndarray, t: np.ndarray,
                      n_steps: int) -> np.ndarray:
    """Fixed-step RK4 for i hbar d rho/dt = [H, rho], batched over axis 0.

    Independent of the closed-form propagator :func:`propagate_rho`:
    integrates the commutator equation directly.
    """
    rho = np.array(rho0, dtype=complex)
    dt = (np.asarray(t, dtype=float) / n_steps).reshape(-1, 1, 1)

    def rhs(r):
        return (-1j / HBAR_UEV_PS) * (h_total @ r - r @ h_total)

    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def rk4_unitary(h: np.ndarray, t: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 for i hbar dU/dt = H U starting from the identity."""
    u = np.eye(h.shape[0], dtype=complex)
    dt = t / n_steps

    def rhs(m):
        return (-1j / HBAR_UEV_PS) * (h @ m)

    for _ in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def build_hamiltonian(s: float, h_z: float) -> np.ndarray:
    """Bright-exciton Hamiltonian in the linear polarization basis, ueV.

    The splitting enters on the diagonal as +-s/2 and the Overhauser shift
    couples the two states off-diagonally with the phase that keeps the
    matrix Hermitian: [[s/2, i h_z], [-i h_z, -s/2]].
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    return np.array([[0.5 * s, 1j * h_z], [-1j * h_z, -0.5 * s]], dtype=complex)


def exciton_eigensystem(h) -> tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal exciton eigenstates (upper, lower) and splitting delta_e >= 0.

    Each eigenvector is gauged so that its first component of modulus above
    1e-12 is real and positive.
    """
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    lead = np.where(np.abs(v[0]) > 1e-12, v[0], v[1])
    v = v * (lead.conj() / np.abs(lead))
    return v[:, 1], v[:, 0], float(w[1] - w[0])


def two_photon_state(j, l, delta_e: float, t: float) -> np.ndarray:
    """Cascade two-photon ket for orthonormal exciton eigenstates j and l.

    The first tensor slot (first emitted photon) carries the complex
    conjugates of the exciton states; the branch through l accrues the
    relative phase exp(-i delta_e t / hbar) over the emission delay t.
    """
    j = np.asarray(j, dtype=complex)
    l = np.asarray(l, dtype=complex)
    phase = np.exp(-1j * delta_e * t / HBAR_UEV_PS)
    return (np.kron(j.conj(), j) + phase * np.kron(l.conj(), l)) / np.sqrt(2.0)


def unitary_exp(h, t: float) -> np.ndarray:
    """exp(-i h t / hbar) for a Hermitian 2x2 matrix h (ueV), t in ps.

    Pauli-decomposition closed form, exact up to floating point.
    """
    h = np.asarray(h, dtype=complex)
    c0 = 0.5 * (h[0, 0] + h[1, 1]).real
    cz = 0.5 * (h[0, 0] - h[1, 1]).real
    cx = h[1, 0].real
    cy = h[1, 0].imag
    omega = np.sqrt(cx * cx + cy * cy + cz * cz)
    phase = np.exp(-1j * c0 * t / HBAR_UEV_PS)
    if omega == 0.0:
        return phase * IDENTITY_2
    theta = omega * t / HBAR_UEV_PS
    axis = (cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z) / omega
    return phase * (np.cos(theta) * IDENTITY_2 - 1j * np.sin(theta) * axis)


def propagate_rho(rho0, h, t: float) -> np.ndarray:
    """Evolve a two-photon density matrix over the emission delay t.

    Only the second slot (the photon still stored as the exciton) evolves:
    rho(t) = (I (x) U) rho0 (I (x) U)^dag with U = exp(-i h t / hbar).
    """
    rho0 = assert_density_matrix(rho0)
    gate = np.kron(IDENTITY_2, unitary_exp(h, t))
    return gate @ rho0 @ gate.conj().T


def branch_pair_vectors(s: float, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Photon-pair basis vectors through the upper and lower exciton branch.

    Vectorized over the Overhauser shifts; returns (u, v) of shape (n, 4)
    where u_n = conj(j_n) (x) j_n for the upper eigenstate j_n and v_n the
    same through the lower one.
    """
    half = 0.5 * s
    energy = np.sqrt(half * half + shifts * shifts)
    a = half + energy
    norm = np.sqrt(a * a + shifts * shifts)
    degenerate = norm == 0.0  # only at s == 0 and h_z == 0
    safe = np.where(degenerate, 1.0, norm)
    j1 = np.where(degenerate, 1.0, a / safe).astype(complex)
    j2 = -1j * (shifts / safe)
    # The lower eigenstate is the orthogonal partner (j2, j1).
    l1, l2 = j2, j1
    u = np.stack([j1.conj() * j1, j1.conj() * j2, j2.conj() * j1, j2.conj() * j2], axis=1)
    v = np.stack([l1.conj() * l1, l1.conj() * l2, l2.conj() * l1, l2.conj() * l2], axis=1)
    return u, v


def outer_product_rho(s: float, shifts, t1: float, window, weights) -> np.ndarray:
    """Spin-noise averaged state from full per-sample pair vectors: the
    weighted sums of u u^dag, v v^dag and g u v^dag over all shifts."""
    shifts = np.asarray(shifts, dtype=float)
    weights = np.asarray(weights, dtype=float)
    u, v = branch_pair_vectors(s, shifts)
    g = closed_form_phase_average(2.0 * np.sqrt((0.5 * s) ** 2 + shifts * shifts), t1, window)
    uu = (u * weights[:, None]).T @ u.conj()
    vv = (v * weights[:, None]).T @ v.conj()
    cross = (u * (weights * g)[:, None]).T @ v.conj()
    rho = 0.5 * (uu + vv + cross + cross.conj().T)
    return 0.5 * (rho + rho.conj().T)


def closed_form_phase_average(delta, t1: float, window=None) -> np.ndarray:
    """Average of exp(-i delta t / hbar) over the delay density
    exp(-t/T1)/T1, truncated to [0, window] and renormalized when a window
    is given, in complex128 arithmetic: 1/(1 + i w) with w = delta T1/hbar,
    or (expm1(-x)/x) / (expm1(-a)/a) with a = W/T1 and x = a + i delta W/hbar.

    Shares no arithmetic with the package's moment kernel, which works in
    real arithmetic from the Lorentzian L and tan(delta W/(2 hbar)).
    """
    delta = np.asarray(delta, dtype=float)
    if window is None:
        return 1.0 / (1.0 + 1j * (delta * t1 / HBAR_UEV_PS))
    a = window / t1
    x = a + 1j * (delta * (window / HBAR_UEV_PS))
    return (np.expm1(-x) / x) / (np.expm1(-a) / a)


def physical_moments(s: float, shifts, t1: float, window, weights, work=None) -> np.ndarray:
    """The package's moment kernel at the Overhauser shifts (ueV) of a dot
    with splitting s (ueV) and lifetime t1 (ps), under an optional window
    (ps): the shifts are read as N(0, 1) values of sigma = 1 ueV, so the
    kernel's constants are r = 2 T1/hbar and rho_w = W/hbar."""
    point = _scaled(PhysicalParams(s=s, t1=t1, sigma=1.0, k=1.0), window)
    return _moments(shifts, *point, weights, work)


def fixed_shift_rho(s: float, h_z: float, t1: float, window=None) -> np.ndarray:
    """The package's state at the Overhauser shift pair +-h_z, weight 1/2
    each, averaged over emission times: the kernel's moments are even in
    the shift, so this is also its one-shift, unit-weight state."""
    shifts = np.array([float(h_z), -float(h_z)])
    return _rho_from_moments(physical_moments(s, shifts, t1, window, 0.5))


def concurrence_pure(psi) -> float:
    """Concurrence 2|ad - bc| of a normalized pure state (a, b, c, d) in
    HH, HV, VH, VV order."""
    psi = np.asarray(psi, dtype=complex)
    assert psi.shape == (4,) and abs(np.linalg.norm(psi) - 1.0) <= 1e-10
    return float(2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]))


def correlation_visibilities(rho) -> tuple[float, float, float]:
    """Exact polarization correlations (c_hv, c_da, c_rl) of a state: the
    expectation values of sz(x)sz, sx(x)sx and sy(x)sy, which the co/cross
    count ratios estimate."""
    rho = assert_density_matrix(rho)
    return tuple(float(np.real(np.trace(np.kron(pauli, pauli) @ rho)))
                 for pauli in (SIGMA_Z, SIGMA_X, SIGMA_Y))


def fidelity_oracle(rho) -> float:
    """<Phi+| rho |Phi+> as a matrix product, Phi+ = (|HH> + |VV>)/sqrt2."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return float(np.real(phi @ np.asarray(rho) @ phi))


def purity_oracle(rho) -> float:
    """Tr(rho^2) as a matrix product."""
    rho = np.asarray(rho)
    return float(np.real(np.trace(rho @ rho)))


def x_state_concurrence_oracle(rho) -> float:
    """Wootters' C = max(0, lam_1 - lam_2 - lam_3 - lam_4) of an X state,
    from its known spectrum: the square roots of the eigenvalues of
    rho (sy (x) sy) rho* (sy (x) sy) are sqrt(rho_00 rho_33) +- |rho_03| and
    sqrt(rho_11 rho_22) +- |rho_12|."""
    rho = np.asarray(rho)
    assert not rho[np.ix_([0, 3], [1, 2])].any() and not rho[np.ix_([1, 2], [0, 3])].any()
    lam = []
    for (i, j) in ((0, 3), (1, 2)):
        root = math.sqrt(max(0.0, rho[i, i].real * rho[j, j].real))
        lam += [root + abs(rho[i, j]), abs(root - abs(rho[i, j]))]
    lam.sort(reverse=True)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# One figure each of the package's validated metrics bundle.
def fidelity_phi_plus(rho) -> float:
    return metrics_from_rho(rho).fidelity


def purity(rho) -> float:
    return metrics_from_rho(rho).purity


def concurrence(rho) -> float:
    return metrics_from_rho(rho).concurrence


def born_probabilities(rho, settings) -> np.ndarray:
    """The package's Born-rule probabilities <k|rho|k>, one per setting."""
    return _probabilities(np.asarray(rho, dtype=complex), _born_matrix(settings))


def state_log_likelihood(rho, records) -> float:
    """Profiled Poisson log-likelihood of a given state, straight from the
    Born probabilities (same constant as the reconstruction's)."""
    probs = born_probabilities(rho, [r.setting for r in records])
    probs = np.clip(probs, 1e-300, None)
    counts = np.array([float(r.counts) for r in records])
    weights = np.array([float(r.acquisition_weight) for r in records])
    return float(counts @ np.log(probs) - counts.sum() * np.log(weights @ probs))
