"""Polarization-resolved coincidence simulation and state reconstruction.

Simulates the counting experiments used to characterize the two-photon
state: the six co/cross-polarized correlation measurements that yield a
fidelity estimate, and the full 16-setting product-projector tomography
reconstructed by maximum likelihood.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import assert_density_matrix
from .model import _POISSON_STREAM, _is_integer, _philox, _reject_bools

_SQRT2 = np.sqrt(2.0)

# Fixed polarization convention: D = (H+V)/sqrt2, A = (H-V)/sqrt2,
# R = (H+iV)/sqrt2, L = (H-iV)/sqrt2.
POLARIZATION_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "R": np.array([1.0, 1j], dtype=complex) / _SQRT2,
    "L": np.array([1.0, -1j], dtype=complex) / _SQRT2,
}

SIX_BASIS_LABELS = ("HH", "HV", "DD", "DA", "RR", "RL")
SIXTEEN_BASIS_LABELS = tuple(a + b for a in "HVDR" for b in "HVDR")

MLE_DEFAULT_MAX_ITERATIONS = 100_000
# numpy's Poisson sampler rejects means from about 9.223e18 (the int64
# range less a margin); a mean is at most n_per_setting.
_POISSON_MAX_MEAN = 9.2e18
# L-BFGS-B stopping rule on the count-scaled objective -ll/N: relative
# change of the objective, and largest gradient component.
_MLE_FTOL = 1e-12
_MLE_GTOL = 1e-8


class InsufficientSettingsError(ValueError):
    """Settings do not span the state space needed for full reconstruction."""


class ZeroCountsError(ValueError):
    """Visibility is undefined because both records have zero counts."""


@dataclass(frozen=True)
class BasisSetting:
    """Analyzer setting named by two letters of POLARIZATION_KETS: the first
    letter is the first-photon arm, the second letter the second-photon arm."""

    label: str

    def __post_init__(self) -> None:
        if (not isinstance(self.label, str) or len(self.label) != 2
                or any(ch not in POLARIZATION_KETS for ch in self.label)):
            raise ValueError(f"unknown polarization label {self.label!r}")

    def product_ket(self) -> np.ndarray:
        """First-photon ket (x) second-photon ket, in HH, HV, VH, VV order."""
        first, second = (POLARIZATION_KETS[ch] for ch in self.label)
        return np.outer(first, second).ravel()


@dataclass(frozen=True)
class CountRecord:
    """Coincidences counted in one setting, a BasisSetting; counts is an
    integer >= 0, not a bool."""

    setting: BasisSetting
    counts: int
    acquisition_weight: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.setting, BasisSetting):
            raise ValueError(f"setting must be a BasisSetting, got {self.setting!r}")
        if not _is_integer(self.counts) or self.counts < 0:
            raise ValueError(f"counts must be an integer >= 0, got {self.counts!r}")
        _reject_bools(acquisition_weight=self.acquisition_weight)
        if not 0 < self.acquisition_weight < np.inf:
            raise ValueError(
                f"acquisition_weight must be finite and > 0, got {self.acquisition_weight!r}"
            )


@dataclass
class ReconstructionResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    message: str = ""
    gradient_norm: float = float("nan")


def standard_settings(mode: str) -> list[BasisSetting]:
    """Measurement settings for the two standard acquisition modes.

    "six_basis" gives the co/cross pairs of the three mutually unbiased
    bases (HH, HV, DD, DA, RR, RL); "sixteen_basis" the {H, V, D, R} product
    grid used for full tomography.
    """
    if mode == "six_basis":
        labels = SIX_BASIS_LABELS
    elif mode == "sixteen_basis":
        labels = SIXTEEN_BASIS_LABELS
    else:
        raise ValueError("mode must be 'six_basis' or 'sixteen_basis'")
    return [BasisSetting(label) for label in labels]


def _born_matrix(settings) -> np.ndarray:
    """Born matrix B of the settings: row i is conj(k_i) (x) k_i for the
    product ket k_i, so that <k_i|rho|k_i> = B_i . vec rho with rho read row
    by row."""
    kets = np.array([s.product_ket() for s in settings]).reshape(-1, 4)
    return (kets.conj()[:, :, None] * kets[:, None, :]).reshape(-1, 16)


def _probabilities(rho: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Born-rule probabilities Re(B_i . vec rho), one per row of the Born
    matrix born."""
    return (born @ rho.ravel()).real


def simulate_counts(rho, settings, n_per_setting: int, seed: int = 0,
                    poisson: bool = False) -> list[CountRecord]:
    """Coincidence counts for each setting.

    The expectation is n_per_setting (> 0 and finite as a float) times the
    Born-rule probability. With poisson=True the counts are Poisson draws
    around that mean from the Poisson stream of the stream table in
    :mod:`qdcascade.model` (see ``_philox``), reproducible for a given seed
    under the same seed rule as SimConfig, and n_per_setting must be below
    9.2e18; otherwise the rounded expectations are returned. settings may
    be any iterable.
    """
    rho = assert_density_matrix(rho)
    settings = list(settings)
    _reject_bools(n_per_setting=n_per_setting)
    if not 0 < n_per_setting <= sys.float_info.max:
        raise ValueError(f"n_per_setting must be finite and > 0, got {n_per_setting!r}")
    if poisson and not n_per_setting < _POISSON_MAX_MEAN:
        raise ValueError(f"n_per_setting must be below {_POISSON_MAX_MEAN:g} for Poisson "
                         f"counts, got {n_per_setting!r}")
    means = np.maximum(_probabilities(rho, _born_matrix(settings)), 0.0) * n_per_setting
    if poisson:
        values = np.random.Generator(_philox(seed, _POISSON_STREAM)).poisson(means)
    else:
        values = np.round(means)
    return [CountRecord(s, int(v)) for s, v in zip(settings, values)]


def visibility(co: CountRecord, cross: CountRecord) -> float:
    """(co - cross)/(co + cross) on weight-normalized count rates."""
    if co.counts + cross.counts <= 0:
        raise ZeroCountsError("both records have zero counts")
    rate_co = co.counts / co.acquisition_weight
    rate_cross = cross.counts / cross.acquisition_weight
    return float((rate_co - rate_cross) / (rate_co + rate_cross))


def fidelity_from_visibilities(c_hv: float, c_da: float, c_rl: float) -> float:
    """Bell-state fidelity estimator f = (1 + c_hv + c_da - c_rl)/4.

    Exact when the inputs are the full polarization correlations of the
    state, the expectation values of sz(x)sz, sx(x)sx and sy(x)sy that the
    co/cross count ratios estimate; clamped to [0, 1].
    """
    _reject_bools(c_hv=c_hv, c_da=c_da, c_rl=c_rl)
    for name, value in (("c_hv", c_hv), ("c_da", c_da), ("c_rl", c_rl)):
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1]")
    return min(max(0.25 * (1.0 + c_hv + c_da - c_rl), 0.0), 1.0)


_PROB_FLOOR = 1e-300
# Weight of I/4 mixed into the linear-inversion start of the fit.
_START_MIX = 1e-3


def _rho_of(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """A, rho = A A^dag / Tr(A A^dag) and Tr(A A^dag) for the parameters
    theta, the (re, im) pairs of A's 16 entries, row by row, read in place
    as A."""
    a = theta.view(complex).reshape(4, 4)
    scale = np.vdot(a, a).real  # Tr(A A^dag), the sum of |A_ab|^2
    return a, (a @ a.conj().T) / scale, scale


def _objective(theta, born, counts, weights) -> tuple[float, np.ndarray]:
    """The objective L-BFGS-B minimizes, -ll/N, and its gradient in theta,
    with N = max(total count, 1), from one evaluation of A, rho and the
    probabilities through the Born matrix born.

    ll is the Poisson log-likelihood with the overall flux profiled out, up
    to a counts-only constant. With G = sum_i (dll/dp_i) pi_i pi_i^dag,
    whose row-by-row form is (dll/dp) . conj(B), and
    M = 2 (G - Tr(G rho) I) A / Tr(A A^dag), the derivative of ll in
    Re A_ab is Re M_ab, and in Im A_ab it is Im M_ab, so the gradient of ll
    is M read as floats in theta's order.
    """
    a, rho, scale = _rho_of(theta)
    probs = np.maximum(_probabilities(rho, born), _PROB_FLOOR)
    total = counts.sum()
    flux = weights @ probs
    ll = float(counts @ np.log(probs) - total * math.log(flux))
    dll_dp = counts / probs - weights * (total / flux)
    g = (dll_dp @ born).conj().reshape(4, 4)
    # G - Tr(G rho) I on the diagonal; Tr(G rho) = sum_i (dll/dp_i) p_i is
    # zero up to rounding for a flux-profiled ll.
    g.flat[::5] -= dll_dp @ probs
    m = (g @ a) * (2.0 / scale)
    n = max(total, 1.0)
    return -ll / n, -m.view(float).ravel() / n


def _start(born, counts, weights) -> np.ndarray:
    """theta of the linear-inversion start (James, Kwiat, Munro & White 2001).

    The least-squares solution of B vec rho = counts/weights is Hermitized,
    its eigenvalues lam are clipped at 0 and renormalized, and the state is
    mixed to (1 - eps) rho + eps I/4 with eps = _START_MIX, so that no
    eigenvalue lies near 0, where the fit can stall at a rank-deficient
    saddle. A = 2 V diag(sqrt(lam)) has |A|_F = 2, the norm of A = I:
    L-BFGS-B's first trial step has unit length in theta, and from a
    smaller A it can take an eigenvalue of rho near 0. Counts whose
    estimate has no positive trace (all zero) start from A = I, the
    maximally mixed state.
    """
    # counts/weights up to a common factor, which keeps every rate at most
    # its count: a finite weight can be small enough to overflow counts/weights.
    rates = counts * (weights.min() / weights)
    solution = np.linalg.lstsq(born, rates, rcond=None)[0].reshape(4, 4)
    lam, v = np.linalg.eigh(0.5 * (solution + solution.conj().T))
    lam = np.maximum(lam, 0.0)
    trace = lam.sum()
    if not trace > 0.0:
        return np.eye(4, dtype=complex).ravel().view(float)
    lam = (1.0 - _START_MIX) * (lam / trace) + 0.25 * _START_MIX
    return (2.0 * v * np.sqrt(lam)).ravel().view(float)


def mle_reconstruct(records, max_iterations: int = MLE_DEFAULT_MAX_ITERATIONS
                    ) -> ReconstructionResult:
    """Maximum-likelihood density matrix from coincidence records.

    The state is parametrized as rho = A A^dag / Tr(A A^dag) with A a full
    complex 4x4 matrix, so every iterate is physical by construction. The
    Poisson log-likelihood (overall flux profiled out) is maximized with
    scipy's L-BFGS-B quasi-Newton method on the analytic gradient, starting
    from the projected linear-inversion estimate (see ``_start``). The
    objective, ``_objective``, is -ll/N with N the total count (at least 1),
    so the relative stopping rule (ftol 1e-12 on successive objective
    values, gtol 1e-8 on the largest gradient component) means the same at
    every count level.

    ``iterations`` counts accepted L-BFGS-B steps and is capped at exactly
    ``max_iterations``, an integer >= 1 (not a bool); ``converged`` is
    False when that cap, or any other abnormal stop, ends the run.
    ``message`` is the optimizer's termination message and
    ``gradient_norm`` the norm of the final count-scaled gradient over the
    32 real parameters of A.

    Requires at least 16 linearly independent projectors, so fewer than
    16 records and six-basis input are rejected; more records (an
    overcomplete set) are accepted.
    """
    if not _is_integer(max_iterations) or max_iterations < 1:
        raise ValueError(f"max_iterations must be an integer >= 1, got {max_iterations!r}")
    records = list(records)
    born = _born_matrix(r.setting for r in records)
    if np.linalg.matrix_rank(born, tol=1e-10) < 16:
        raise InsufficientSettingsError(
            "settings do not span the state space (16 linearly independent "
            f"projectors required, got {len(records)} records)"
        )
    counts = np.array([float(r.counts) for r in records])
    weights = np.array([float(r.acquisition_weight) for r in records])
    data = (born, counts, weights)

    # Imported here: scipy.optimize would add a few tenths of a second to
    # every `import qdcascade`.
    from scipy.optimize import minimize

    res = minimize(
        _objective, _start(*data), args=data, jac=True, method="L-BFGS-B",
        # A line search gives up after 20 evaluations, so maxiter, not
        # maxfun, is the budget that ends a long run.
        options={"maxiter": max_iterations, "maxfun": 100 * max_iterations,
                 "ftol": _MLE_FTOL, "gtol": _MLE_GTOL},
    )
    return ReconstructionResult(
        rho=_rho_of(res.x)[1],
        log_likelihood=float(-res.fun * max(counts.sum(), 1.0)),
        iterations=int(res.nit),
        converged=bool(res.success),
        message=str(res.message),
        gradient_norm=float(np.linalg.norm(res.jac)),
    )


def save_count_records_csv(records, path) -> None:
    """Write records as CSV with the header row label,counts,weight."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "counts", "weight"])
        for record in records:
            writer.writerow([
                record.setting.label,
                record.counts,
                repr(float(record.acquisition_weight)),
            ])


def load_count_records_csv(path) -> list[CountRecord]:
    """Read count records written by :func:`save_count_records_csv`.

    Every row after the header must have exactly the three fields; blank
    lines are skipped. A row's error names its line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["label", "counts", "weight"]:
            raise ValueError("expected CSV header label,counts,weight")
        records = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields label,counts,weight, got {len(row)}")
                label, counts, weight = row
                records.append(CountRecord(BasisSetting(label), int(counts), float(weight)))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
        return records
