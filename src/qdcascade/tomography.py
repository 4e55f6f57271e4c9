"""Polarization-resolved coincidence simulation and state reconstruction.

Simulates the counting experiments used to characterize the two-photon
state: the six co/cross-polarized correlation measurements that yield a
fidelity estimate, and the full 16-setting product-projector tomography
reconstructed by maximum likelihood.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field

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
        return np.kron(POLARIZATION_KETS[self.label[0]], POLARIZATION_KETS[self.label[1]])


@dataclass(frozen=True)
class CountRecord:
    """Coincidences counted in one setting; counts is an integer >= 0, not a bool."""

    setting: BasisSetting
    counts: int
    acquisition_weight: float = 1.0

    def __post_init__(self) -> None:
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
    history: np.ndarray = field(default=None, repr=False)
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


def _probabilities(rho: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Born-rule probabilities <k|rho|k> for each row k of kets."""
    return np.real(np.einsum("ia,ab,ib->i", kets.conj(), rho, kets))


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
    kets = np.array([s.product_ket() for s in settings]).reshape(-1, 4)
    means = np.maximum(_probabilities(rho, kets), 0.0) * n_per_setting
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


# Lower-triangular parametrization rho = T^dag T / Tr(T^dag T): theta holds
# the 4 real diagonal entries of T, then (re, im) pairs of the 6 sub-diagonal
# entries, row by row.
_DIAGONAL = np.diag_indices(4)
_LOWER = np.tril_indices(4, -1)

_PROB_FLOOR = 1e-300


def _rho_of(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """T, rho and Tr(T^dag T) for the parameters theta."""
    t = np.zeros((4, 4), dtype=complex)
    t[_DIAGONAL] = theta[:4]
    t[_LOWER] = theta[4::2] + 1j * theta[5::2]
    gram = t.conj().T @ t
    scale = np.trace(gram).real
    return t, gram / scale, scale


def _objective(theta, projectors, counts, weights) -> tuple[float, np.ndarray]:
    """Log-likelihood and its gradient in theta, from one evaluation of T,
    rho and the probabilities.

    Poisson likelihood with the overall flux profiled out, up to a
    counts-only constant. With G = sum_i (dll/dp_i) pi_i pi_i^dag and
    M = 2 T (G - Tr(G rho) I) / Tr(T^dag T), the derivative of ll in
    Re T_ab is Re M_ab, and in Im T_ab it is Im M_ab.
    """
    t, rho, scale = _rho_of(theta)
    probs = np.clip(_probabilities(rho, projectors), _PROB_FLOOR, None)
    total = counts.sum()
    ll = float(counts @ np.log(probs) - total * np.log(weights @ probs))
    dll_dp = counts / probs - total * weights / (weights @ probs)
    g = (projectors.T * dll_dp) @ projectors.conj()
    # Tr(G rho) = sum_i (dll/dp_i) p_i, zero up to rounding for a flux-profiled ll
    g[_DIAGONAL] -= dll_dp @ probs
    m = 2.0 * (t @ g) / scale
    gradient = np.empty(16)
    gradient[:4] = m[_DIAGONAL].real
    gradient[4::2] = m[_LOWER].real
    gradient[5::2] = m[_LOWER].imag
    return ll, gradient


def mle_reconstruct(records, max_iterations: int = MLE_DEFAULT_MAX_ITERATIONS
                    ) -> ReconstructionResult:
    """Maximum-likelihood density matrix from coincidence records.

    The state is parametrized as rho = T^dag T / Tr(T^dag T) with T lower
    triangular, so every iterate is physical by construction. The Poisson
    log-likelihood (overall flux profiled out) is maximized with scipy's
    L-BFGS-B quasi-Newton method on the analytic gradient, starting from
    the maximally mixed state T = I/2. The objective is -ll/N with N the
    total count, so the relative stopping rule (ftol 1e-12 on successive
    objective values, gtol 1e-8 on the largest gradient component) means
    the same at every count level.

    ``iterations`` counts accepted L-BFGS-B steps and is capped at exactly
    ``max_iterations``, an integer >= 1 (not a bool); ``converged`` is
    False when that cap, or any other abnormal stop, ends the run.
    ``message`` is the optimizer's termination message and
    ``gradient_norm`` the norm of the final count-scaled gradient.
    ``history`` holds the log-likelihood at the start and after every
    step; it is non-decreasing because a step is only accepted when it
    lowers the objective.

    Requires at least 16 linearly independent projectors, so fewer than
    16 records and six-basis input are rejected.
    """
    if not _is_integer(max_iterations) or max_iterations < 1:
        raise ValueError(f"max_iterations must be an integer >= 1, got {max_iterations!r}")
    records = list(records)
    projectors = np.array([r.setting.product_ket() for r in records])
    operators = np.array([np.outer(p, p.conj()).ravel() for p in projectors])
    if np.linalg.matrix_rank(operators, tol=1e-10) < 16:
        raise InsufficientSettingsError(
            "settings do not span the state space (16 linearly independent "
            f"projectors required, got {len(records)} records)"
        )
    counts = np.array([float(r.counts) for r in records])
    weights = np.array([float(r.acquisition_weight) for r in records])
    data = (projectors, counts, weights)
    scale = max(counts.sum(), 1.0)

    def objective(theta):
        ll, gradient = _objective(theta, *data)
        return -ll / scale, -gradient / scale

    def record(intermediate_result):  # scipy passes the accepted step under this name
        history.append(float(-intermediate_result.fun * scale))

    # Imported here: scipy.optimize would add a few tenths of a second to
    # every `import qdcascade`.
    from scipy.optimize import minimize

    theta0 = np.zeros(16)
    theta0[:4] = 0.5  # T = I/2, the maximally mixed starting point
    history = [_objective(theta0, *data)[0]]
    res = minimize(
        objective, theta0, jac=True, method="L-BFGS-B", callback=record,
        # A line search gives up after 20 evaluations, so maxiter, not
        # maxfun, is the budget that ends a long run.
        options={"maxiter": max_iterations, "maxfun": 100 * max_iterations,
                 "ftol": _MLE_FTOL, "gtol": _MLE_GTOL},
    )
    return ReconstructionResult(
        rho=_rho_of(res.x)[1],
        log_likelihood=float(-res.fun * scale),
        iterations=int(res.nit),
        converged=bool(res.success),
        history=np.array(history),
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
