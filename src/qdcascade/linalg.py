"""The package's unit constant and two-photon density-matrix validation."""

from __future__ import annotations

import cmath
import math

import numpy as np

# Reduced Planck constant in the unit system used throughout the package:
# energies in micro-eV, times in ps.
HBAR_UEV_PS = 658.2119569

IDENTITY_4 = np.eye(4, dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-9


class InvalidDensityMatrixError(ValueError):
    """Matrix is not Hermitian, unit-trace and positive within tolerance."""


def _is_x_state(e) -> bool:
    """Whether the eight entries of the 4x4 nested list e between the
    {HH, VV} and {HV, VH} blocks are exact zeros."""
    return not (e[0][1] or e[0][2] or e[1][0] or e[1][3] or e[2][0] or e[2][3] or e[3][1] or e[3][2])


def _smallest_block_eigenvalue(x: float, y: float, z: complex) -> float:
    """Smallest eigenvalue of the Hermitian 2x2 block [[x, z*], [z, y]];
    -inf where |z| exceeds the largest double."""
    return 0.5 * x + 0.5 * y - math.hypot(0.5 * x - 0.5 * y, z.real, z.imag)


def assert_density_matrix(rho) -> np.ndarray:
    """Validate and return a two-photon density matrix as a complex array.

    Checks the 4x4 shape, finiteness, Hermiticity (HERMITICITY_TOL on
    max |rho - rho^dag|), unit trace (TRACE_TOL) and positivity (PSD_TOL);
    raises InvalidDensityMatrixError on the first violation. The smallest
    eigenvalue of an X state, whose eight entries between the {HH, VV} and
    {HV, VH} blocks are exact zeros, is read from those two 2x2 blocks in
    closed form, (x + y)/2 - sqrt(((x - y)/2)^2 + |z|^2); any other state
    goes through np.linalg.eigvalsh.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrixError(f"density matrix must be 4x4, got shape {rho.shape}")
    e = rho.tolist()
    if not all(map(cmath.isfinite, e[0] + e[1] + e[2] + e[3])):
        raise InvalidDensityMatrixError("density matrix has non-finite entries")
    try:
        dev = max(abs(e[i][j] - e[j][i].conjugate()) for i in range(4) for j in range(i, 4))
    except OverflowError:  # a modulus beyond the largest double, inf in numpy
        dev = math.inf
    if dev > HERMITICITY_TOL:
        raise InvalidDensityMatrixError(f"not Hermitian (deviation {dev:.3e})")
    # Summed in the pairing of np.trace, whose float64 the message shows.
    trace = np.float64((e[0][0].real + e[1][1].real) + (e[2][2].real + e[3][3].real))
    if abs(trace - 1.0) > TRACE_TOL:
        raise InvalidDensityMatrixError(f"trace is {trace!r}, expected 1")
    if _is_x_state(e):
        w_min = min(_smallest_block_eigenvalue(e[0][0].real, e[3][3].real, e[3][0]),
                    _smallest_block_eigenvalue(e[1][1].real, e[2][2].real, e[2][1]))
    else:
        w_min = np.linalg.eigvalsh(rho).min()
    # Also rejects NaN, which eigvalsh returns where a modulus overflows.
    if not w_min >= -PSD_TOL:
        raise InvalidDensityMatrixError(f"negative eigenvalue {w_min:.3e}")
    return rho
