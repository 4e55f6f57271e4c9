"""Minimal complex linear algebra for 2- and 4-dimensional Hilbert spaces."""

from __future__ import annotations

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


def assert_density_matrix(rho) -> np.ndarray:
    """Validate and return a two-photon density matrix as a complex array.

    Checks the 4x4 shape, finiteness, Hermiticity (HERMITICITY_TOL on
    max |rho - rho^dag|), unit trace (TRACE_TOL) and positivity (PSD_TOL);
    raises InvalidDensityMatrixError on the first violation.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrixError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidDensityMatrixError("density matrix has non-finite entries")
    dev = float(np.abs(rho - rho.conj().T).max())
    if dev > HERMITICITY_TOL:
        raise InvalidDensityMatrixError(f"not Hermitian (deviation {dev:.3e})")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > TRACE_TOL:
        raise InvalidDensityMatrixError(f"trace is {trace!r}, expected 1")
    w_min = np.linalg.eigvalsh(rho).min()
    if w_min < -PSD_TOL:
        raise InvalidDensityMatrixError(f"negative eigenvalue {w_min:.3e}")
    return rho
