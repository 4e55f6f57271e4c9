"""Independent reference computations for checking qdcascade outputs.

Nothing here imports qdcascade. The two-photon state comes from a numerical
eigendecomposition of the bright-exciton Hamiltonian, the emission-phase
average from the exponential delay density written out directly, the
Gaussian spin-noise average from adaptive quadrature (scipy.integrate), and
the concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy), as in
Wootters (PRL 80, 2245, 1998).

Convention: the first emitted photon carries the complex conjugate of the
exciton eigenstate, and the branch through the lower eigenstate l accrues
exp(-i delta t / hbar) over the emission delay t:
|psi(t)> = (conj(j) x j + exp(-i delta t / hbar) conj(l) x l) / sqrt(2).
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, special

# Reduced Planck constant in ueV ps (CODATA 2018: 6.582119569e-16 eV s).
HBAR = 658.2119569

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(SIGMA_Y, SIGMA_Y)
SWAP = np.eye(4)[[0, 2, 1, 3]]

# Real coordinates of a Hermitian 4x4 matrix: the 4 diagonal entries, then
# the real and imaginary parts of the 6 entries above the diagonal.
_UPPER = np.triu_indices(4, 1)
N_PARAMS = 16


def hermitian_params(rho) -> np.ndarray:
    """The 16 real coordinates of Hermitian matrices, batched over leading axes."""
    rho = np.asarray(rho)
    upper = rho[..., _UPPER[0], _UPPER[1]]
    return np.concatenate(
        [np.diagonal(rho, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1
    )


def from_params(x) -> np.ndarray:
    """Inverse of :func:`hermitian_params` for a single 16-vector."""
    x = np.asarray(x, dtype=float)
    rho = np.diag(x[:4]).astype(complex)
    rho[_UPPER] = x[4:10] + 1j * x[10:16]
    rho[_UPPER[1], _UPPER[0]] = x[4:10] - 1j * x[10:16]
    return rho


def photon_exchanged(rho) -> np.ndarray:
    """SWAP rho^T SWAP: the same state with the opposite emission-phase sign.

    For the cascade states, conj(u) = SWAP u, so exchanging the phase
    convention maps rho to this matrix. F, P and C are unchanged by it.
    """
    rho = np.asarray(rho)
    return SWAP @ np.swapaxes(rho, -1, -2) @ SWAP


def hamiltonian(s: float, h) -> np.ndarray:
    """[[S/2, i h], [-i h, -S/2]] for each shift h (ueV), shape (n, 2, 2)."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    out = np.empty(h.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * s
    out[..., 1, 1] = -0.5 * s
    out[..., 0, 1] = 1j * h
    out[..., 1, 0] = -1j * h
    return out


def pair_states(s: float, h):
    """Pair vectors u = conj(j) x j, v = conj(l) x l and the splitting delta.

    j is the upper and l the lower eigenvector of the Hamiltonian, from
    numpy.linalg.eigh. Returns u, v of shape (n, 4) and delta of shape (n,).
    """
    w, vec = np.linalg.eigh(hamiltonian(s, h))
    j = vec[..., :, 1]
    l = vec[..., :, 0]
    u = (j.conj()[..., :, None] * j[..., None, :]).reshape(-1, 4)
    v = (l.conj()[..., :, None] * l[..., None, :]).reshape(-1, 4)
    return u, v, w[..., 1] - w[..., 0]


def phase_average(delta, t1: float, window: float | None = None) -> np.ndarray:
    """<exp(-i delta t / hbar)> over t ~ exp(-t/T1)/T1, truncated to [0, window]."""
    rate = 1.0 / t1 + 1j * np.asarray(delta, dtype=float) / HBAR
    if window is None:
        return (1.0 / t1) / rate
    return (1.0 / t1) * -np.expm1(-rate * window) / (rate * -np.expm1(-window / t1))


def state_rho(s: float, h, t1: float, window: float | None = None) -> np.ndarray:
    """Emission-time averaged two-photon density matrices, shape (n, 4, 4)."""
    u, v, delta = pair_states(s, h)
    g = phase_average(delta, t1, window)[:, None, None]

    def outer(a, b):
        return a[:, :, None] * b.conj()[:, None, :]

    return 0.5 * (outer(u, u) + outer(v, v) + g.conj() * outer(u, v) + g * outer(v, u))


def mix(rho, k: float) -> np.ndarray:
    """Multi-pair mixing k rho + (1 - k) I/4."""
    return k * np.asarray(rho) + (1.0 - k) * 0.25 * np.eye(4)


def gaussian_average(s: float, sigma: float, t1: float, window: float | None = None):
    """Mean state over h ~ N(0, sigma) and the covariance of its 16 coordinates.

    Integrates with scipy.integrate.quad_vec over the standard normal. The
    covariance is that of the coordinates of the single-shift state, so the
    standard error of an n-sample Monte Carlo mean is sqrt(diag(cov) / n).
    """
    if sigma == 0.0:
        return state_rho(s, 0.0, t1, window)[0], np.zeros((N_PARAMS, N_PARAMS))
    iu = np.triu_indices(N_PARAMS)

    def integrand(x):
        p = hermitian_params(state_rho(s, sigma * x, t1, window)[0])
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * np.concatenate([p, np.outer(p, p)[iu]])

    values, error = integrate.quad_vec(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-11)
    if error > 1e-9:
        raise ArithmeticError(f"Gaussian average did not converge (error {error:.2e})")
    mean = values[:N_PARAMS]
    second = np.zeros((N_PARAMS, N_PARAMS))
    second[iu] = values[N_PARAMS:]
    second = second + np.triu(second, 1).T
    return from_params(mean), second - np.outer(mean, mean)


def gauss_hermite_rho(s: float, sigma: float, t1: float, window: float | None, order: int):
    """Gaussian average by Gauss-Hermite quadrature, nodes from scipy.special."""
    if sigma == 0.0:
        return state_rho(s, 0.0, t1, window)[0]
    x, w = special.roots_hermite(order)
    rhos = state_rho(s, np.sqrt(2.0) * sigma * x, t1, window)
    return np.tensordot(w / np.sqrt(np.pi), rhos, axes=1)


def fidelity(rho) -> np.ndarray:
    """<Phi+|rho|Phi+>, batched."""
    return np.real(np.einsum("a,...ab,b->...", PHI_PLUS.conj(), np.asarray(rho), PHI_PLUS))


def purity(rho) -> np.ndarray:
    """Tr(rho^2), batched."""
    rho = np.asarray(rho)
    return np.real(np.einsum("...ab,...ba->...", rho, rho))


def concurrence(rho) -> np.ndarray:
    """Wootters concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy), batched.

    Rounding in the eigenvalues of this non-Hermitian product shows up as
    square roots of ~1e-17, so results carry absolute errors up to ~1e-8.
    """
    rho = np.asarray(rho, dtype=complex)
    product = rho @ YY @ rho.conj() @ YY
    lam = np.sqrt(np.clip(np.linalg.eigvals(product).real, 0.0, None))
    lam = -np.sort(-lam, axis=-1)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1))


def fpc(rho) -> np.ndarray:
    """(F, P, C) stacked on the last axis."""
    return np.stack([fidelity(rho), purity(rho), concurrence(rho)], axis=-1)


def density_matrix_defects(rho, tol: float = 1e-9) -> list[str]:
    """Ways in which rho fails to be Hermitian, unit-trace and PSD."""
    rho = np.asarray(rho, dtype=complex)
    problems = []
    if rho.shape != (4, 4) or not np.isfinite(rho).all():
        return ["not a finite 4x4 matrix"]
    dev = np.abs(rho - rho.conj().T).max()
    if dev > tol:
        problems.append(f"not Hermitian ({dev:.2e})")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > tol:
        problems.append(f"trace {trace!r}")
    low = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if low < -tol:
        problems.append(f"eigenvalue {low:.2e}")
    return problems


def trace_distance(a, b) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum())


def metric_gradient(metric, rho, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar metric in the 16 coordinates."""
    x = hermitian_params(rho)
    grad = np.empty(N_PARAMS)
    for i in range(N_PARAMS):
        dx = np.zeros(N_PARAMS)
        dx[i] = step
        grad[i] = (metric(from_params(x + dx)) - metric(from_params(x - dx))) / (2.0 * step)
    return grad


# Product analyzer kets for count simulation and likelihoods.
POLARIZATION = {
    "H": np.array([1.0, 0.0]),
    "V": np.array([0.0, 1.0]),
    "D": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0]) / np.sqrt(2.0),
    "R": np.array([1.0, 1j]) / np.sqrt(2.0),
    "L": np.array([1.0, -1j]) / np.sqrt(2.0),
}


def probabilities(rho, labels) -> np.ndarray:
    """Born-rule coincidence probability for each two-letter analyzer label."""
    kets = np.array([np.kron(POLARIZATION[a], POLARIZATION[b]) for a, b in labels])
    return np.real(np.einsum("ia,ab,ib->i", kets.conj(), np.asarray(rho), kets))


def log_likelihood(rho, labels, counts, weights=None) -> float:
    """Poisson log-likelihood with the overall flux profiled out, up to a
    counts-only constant: sum n_i log p_i - N log sum w_i p_i."""
    counts = np.asarray(counts, dtype=float)
    weights = np.ones_like(counts) if weights is None else np.asarray(weights, dtype=float)
    p = np.clip(probabilities(rho, labels), 1e-300, None)
    return float(counts @ np.log(p) - counts.sum() * np.log(weights @ p))
