"""Entanglement figures of merit for two-qubit polarization states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_Y, _is_x_state, assert_density_matrix

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class EntanglementMetrics:
    fidelity: float
    purity: float
    concurrence: float


def _concurrence(rho: np.ndarray, e: list) -> float:
    """Wootters concurrence of a validated two-qubit density matrix rho,
    whose entries e = rho.tolist() are passed along.

    An X state, whose eight entries between the {HH, VV} and {HV, VH}
    blocks are exact zeros, has the closed form (Yu & Eberly 2007)
    C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)),
    with each product clamped at 0.

    Any other state takes C = max(0, lam_1 - lam_2 - lam_3 - lam_4) where
    the lam_i (descending) are the square roots of the eigenvalues of
    rho rho~ with the spin flip rho~ = (sy (x) sy) rho* (sy (x) sy). They
    are computed as the singular values of the complex symmetric matrix
    sqrt(p) V^dag (sy (x) sy) V* sqrt(p) built from the eigendecomposition
    rho = V p V^dag; eigenvalue noise down to -1e-10 is clamped to zero.
    On rank-deficient states this route is off by up to 2.5e-8, about
    sqrt(eps): eigh returns about +-1e-16 for a zero eigenvalue, and its
    square root scales a row of the matrix. Tomography reconstructions near
    rank deficiency take this route.
    """
    if _is_x_state(e):
        outer = math.sqrt(max(0.0, e[0][0].real * e[3][3].real))
        inner = math.sqrt(max(0.0, e[1][1].real * e[2][2].real))
        return 2.0 * max(0.0, abs(e[0][3]) - inner, abs(e[1][2]) - outer)
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
    state; and the Wootters concurrence. P and C are capped at 1.
    F = (rho_00 + rho_03 + rho_30 + rho_33)/2 and P = sum_ij rho_ij rho_ji
    are read from the entries, real parts taken.
    """
    rho = assert_density_matrix(rho)
    e = rho.tolist()
    fidelity = 0.5 * (e[0][0] + e[0][3] + e[3][0] + e[3][3]).real
    if _is_x_state(e):
        # The eight non-zero products in row-major order; a product of exact
        # zeros adds +-0 to a real part that is never -0, so P keeps its bits.
        purity = (e[0][0] * e[0][0] + e[0][3] * e[3][0] + e[1][1] * e[1][1] + e[1][2] * e[2][1]
                  + e[2][1] * e[1][2] + e[2][2] * e[2][2] + e[3][0] * e[0][3] + e[3][3] * e[3][3]).real
    else:
        purity = sum(e[i][j] * e[j][i] for i in range(4) for j in range(4)).real
    return EntanglementMetrics(
        fidelity=min(max(fidelity, 0.0), 1.0),
        purity=min(purity, 1.0),
        concurrence=min(_concurrence(rho, e), 1.0),
    )
