"""Shared test helpers: random states, fixed-step ODE oracles and the
per-sample outer-product oracle of the spin-noise average."""

from __future__ import annotations

import numpy as np

from qdcascade.linalg import HBAR_UEV_PS
from qdcascade.model import emission_phase_average


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

    Independent of the closed-form propagator under test: integrates the
    commutator equation directly.
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
    g = emission_phase_average(2.0 * np.sqrt((0.5 * s) ** 2 + shifts * shifts), t1, window)
    uu = (u * weights[:, None]).T @ u.conj()
    vv = (v * weights[:, None]).T @ v.conj()
    cross = (u * (weights * g)[:, None]).T @ v.conj()
    rho = 0.5 * (uu + vv + cross + cross.conj().T)
    return 0.5 * (rho + rho.conj().T)
