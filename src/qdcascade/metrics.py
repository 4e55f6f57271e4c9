"""Entanglement figures of merit for two-qubit polarization states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_Y, assert_density_matrix

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class EntanglementMetrics:
    fidelity: float
    purity: float
    concurrence: float


def _concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a validated two-qubit density matrix.

    C = max(0, lam_1 - lam_2 - lam_3 - lam_4) where the lam_i (descending)
    are the square roots of the eigenvalues of rho rho~ with the spin flip
    rho~ = (sy (x) sy) rho* (sy (x) sy). They are computed as the singular
    values of the complex symmetric matrix sqrt(p) V^dag (sy (x) sy) V* sqrt(p)
    built from the eigendecomposition rho = V p V^dag. Unlike squaring a
    matrix square root of rho, this route keeps absolute rounding errors at
    machine precision for rank-deficient states; eigenvalue noise down to
    -1e-10 is clamped to zero.
    """
    p, v = np.linalg.eigh(rho)
    scale = np.sqrt(np.clip(p, 0.0, None))
    symmetric = v.conj().T @ _SPIN_FLIP @ v.conj()
    tau = scale[:, None] * symmetric * scale[None, :]
    lam = np.linalg.svd(tau, compute_uv=False)
    return max(0.0, float(2.0 * lam[0] - lam.sum()))


def trace_distance(rho_a, rho_b) -> float:
    """Trace distance (1/2)||a - b||_1 between two density matrices."""
    diff = assert_density_matrix(rho_a) - assert_density_matrix(rho_b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def metrics_from_rho(rho) -> EntanglementMetrics:
    """Fidelity, purity and concurrence of a state in one bundle.

    The state is validated once and shared by the three figures: the
    overlap with the Bell state (|HH> + |VV>)/sqrt(2), clamped to [0, 1];
    the purity Tr(rho^2), 1 for pure states and 1/4 for the maximally mixed
    state; and the Wootters concurrence.
    """
    rho = assert_density_matrix(rho)
    fidelity = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
    return EntanglementMetrics(
        fidelity=min(max(fidelity, 0.0), 1.0),
        purity=float(np.real(np.trace(rho @ rho))),
        concurrence=_concurrence(rho),
    )
