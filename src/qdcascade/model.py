"""Biexciton-exciton cascade model under frozen nuclear spin noise.

The bright exciton doublet is split by the fine-structure splitting ``s``
and shifted by a random Overhauser field ``h_z`` that is constant within a
single emission event (the nuclear bath moves on ~100 us timescales, far
slower than the ~100 ps radiative decay). The relative phase accrued over
the emission delay dephases the two-photon polarization state once delays
and shifts are averaged over.

Unit conventions: energies in micro-eV (ueV), times in ps, except where a
field name says otherwise (``t2_star`` in ns, ``tau_s`` in us). The reduced
Planck constant in these units is :data:`~qdcascade.linalg.HBAR_UEV_PS`.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import HBAR_UEV_PS, IDENTITY_4, assert_density_matrix

PS_PER_NS = 1e3
PS_PER_US = 1e6

QUADRATURE_MODES = ("monte_carlo", "gauss_hermite")

# Agreement required between an input and the one implied by its other
# form, given together: sigma and hbar/T2* in ueV, k and k_from_g2.
SIGMA_MATCH_TOL = 1e-6


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _reject_bools(**values) -> None:
    """The float-input rule: a bool (Python or numpy) is not a number."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, got {value!r}")


def _check_seed(seed) -> None:
    """The one seed rule: an integer (not a bool) in [0, 2**64)."""
    if not _is_integer(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


# The stream table: each random purpose reads the Philox stream keyed by
# the two words (seed, stream). A new purpose takes the next number.
_OVERHAUSER_STREAM = 0  # Overhauser shifts, overhauser_samples
_POISSON_STREAM = 1  # Poisson coincidence counts, tomography.simulate_counts


def _philox(seed, stream: int) -> np.random.Philox:
    """Philox bit generator of one stream of the stream table.

    Raises ValueError for a seed that breaks :func:`_check_seed`. The
    two-word key (seed, 0) is the integer key seed, so stream 0 keeps the
    draws of the earlier single-word key.
    """
    _check_seed(seed)
    return np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))


def sigma_from_t2star(t2_star_ns: float) -> float:
    """Overhauser standard deviation sigma = hbar / T2*, in ueV for T2* in ns."""
    _reject_bools(t2_star=t2_star_ns)
    if not t2_star_ns > 0:
        raise ValueError("t2_star must be > 0")
    return HBAR_UEV_PS / (t2_star_ns * PS_PER_NS)


def k_from_g2(g2_xx: float, g2_x: float, eta_p: float) -> float:
    """Single-pair fraction from the two autocorrelations and the inversion
    efficiency: k = 1 - (g2_xx + g2_x)/2 * eta_p.

    The closed interval [0, 1] is accepted for the autocorrelations so the
    degenerate bound k = 0 stays representable.
    """
    _reject_bools(g2_xx=g2_xx, g2_x=g2_x, eta_p=eta_p)
    for name, value in (("g2_xx", g2_xx), ("g2_x", g2_x)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 < eta_p <= 1.0:
        raise ValueError("eta_p must lie in (0, 1]")
    return 1.0 - 0.5 * (g2_xx + g2_x) * eta_p


def coherence_loss(params: PhysicalParams) -> float:
    """Time-averaged exciton coherence loss 1 - exp(-(T1/T2*)^2), with
    T1/T2* = T1 sigma/hbar."""
    ratio = params.t1 * params.sigma / HBAR_UEV_PS
    return float(-np.expm1(-(ratio * ratio)))


def analytic_fidelity(params: PhysicalParams) -> float:
    """Closed-form estimate of the time-averaged Bell-state fidelity.

    f = (1 + k + 2k / (1 + 4 T1^2 (s^2 + sigma^2) / hbar^2)) / 4.

    This replaces the average of the Lorentzian coherence factor over the
    shift distribution by a single Lorentzian of the combined broadening.
    The model's Lorentzian is 1/(1 + T1^2 (s^2 + 4 h^2)/hbar^2), so the
    estimate weights s^2 by 4 against it and is not the model's sigma -> 0
    limit: 0.886 against 0.961 for the reference dot (s = 0.4 ueV, T1 =
    430 ps, k = 0.99) at sigma = 0. The CLI reports both values side by
    side.
    """
    s, sigma, t1, k = params.s, params.sigma, params.t1, params.k
    lorentz = 1.0 / (1.0 + 4.0 * t1 * t1 * (s * s + sigma * sigma) / HBAR_UEV_PS**2)
    return 0.25 * (1.0 + k + 2.0 * k * lorentz)


@dataclass(frozen=True)
class PhysicalParams:
    """Model inputs for one quantum dot.

    s: fine-structure splitting, ueV, finite and >= 0.
    t1: exciton radiative lifetime, ps, finite and > 0.
    sigma: Overhauser standard deviation, ueV, finite. May be omitted when
        t2_star is given; if both are given they must agree via
        sigma = hbar/T2*.
    t2_star: inhomogeneous electron spin coherence time, ns.
    k: fraction of cycles with at most one photon pair, in (0, 1]. May be
        omitted when g2_xx, g2_x and eta_p are all given instead; if both
        forms are given they must agree via k_from_g2.
    t1_xx: biexciton lifetime, ps. Metadata only, unused by the model.
    tau_s: nuclear spin correlation time, us. Metadata; a warning is issued
        when it undercuts the frozen-spin assumption tau_s >> T1.

    No field takes a bool.
    """

    s: float
    t1: float
    sigma: float | None = None
    t2_star: float | None = None
    k: float | None = None
    g2_xx: float | None = None
    g2_x: float | None = None
    eta_p: float | None = None
    t1_xx: float | None = None
    tau_s: float | None = None

    def __post_init__(self) -> None:
        _reject_bools(**vars(self))
        for name in ("s", "t1", "sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if not self.t1 > 0:
            raise ValueError("t1 must be > 0")
        if self.sigma is None and self.t2_star is None:
            raise ValueError("provide sigma or t2_star")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.t2_star is not None:
            implied = sigma_from_t2star(self.t2_star)
            if self.sigma is None:
                object.__setattr__(self, "sigma", implied)
            elif abs(self.sigma - implied) > SIGMA_MATCH_TOL:
                raise ValueError(
                    f"sigma={self.sigma} disagrees with hbar/T2* = {implied:.6f} ueV"
                )
        g2_inputs = (self.g2_xx, self.g2_x, self.eta_p)
        if g2_inputs != (None, None, None):
            for name, value in zip(("g2_xx", "g2_x", "eta_p"), g2_inputs):
                if value is None:
                    raise ValueError(f"{name} is missing: give all of g2_xx, g2_x and eta_p")
            implied = k_from_g2(*g2_inputs)
            if self.k is None:
                object.__setattr__(self, "k", implied)
            elif abs(self.k - implied) > SIGMA_MATCH_TOL:
                raise ValueError(
                    f"k={self.k} disagrees with k from g2_xx, g2_x and eta_p = {implied:.6f}"
                )
        elif self.k is None:
            raise ValueError("provide k, or all of g2_xx, g2_x and eta_p")
        if not 0.0 < self.k <= 1.0:
            raise ValueError("k must lie in (0, 1]")
        if self.t1_xx is not None and not self.t1_xx > 0:
            raise ValueError("t1_xx must be > 0")
        if self.tau_s is not None:
            if not self.tau_s > 0:
                raise ValueError("tau_s must be > 0")
            if self.tau_s * PS_PER_US < 100.0 * self.t1:
                warnings.warn(
                    "tau_s is below 100 T1; the frozen-spin approximation is "
                    "questionable for this dot",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class SimConfig:
    """Averaging controls.

    n_samples: Monte Carlo draws of the Overhauser shift.
    seed: seed of the counter-based sampler, an unsigned 64-bit integer.
    window: finite coincidence window in ps; None averages over all
        emission times.
    quadrature: "monte_carlo" or "gauss_hermite".
    gh_order: Gauss-Hermite order, used only in gauss_hermite mode.

    n_samples, seed and gh_order must be integers, and window a number;
    a bool is neither.
    """

    n_samples: int = 200_000
    seed: int = 1234
    window: float | None = None
    quadrature: str = "monte_carlo"
    gh_order: int = 32

    def __post_init__(self) -> None:
        for name in ("n_samples", "gh_order"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        _check_seed(self.seed)
        _reject_bools(window=self.window)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.window is not None and not 0 < self.window < math.inf:
            raise ValueError("window must be finite and > 0")
        if self.quadrature not in QUADRATURE_MODES:
            raise ValueError(f"quadrature must be one of {QUADRATURE_MODES}")
        if not 3 <= self.gh_order <= 64:
            raise ValueError("gh_order must lie in [3, 64]")


# Monte Carlo sums run over fixed chunks of the sample stream, so memory is
# bounded for any n_samples. Part of the determinism contract: changing it
# changes the summation order and with it the last bits of every output.
CHUNK_SAMPLES = 65_536

# Rows of the _moments workspace. Rows 0-2 are the summed rows A, M and K;
# a window's rows 3 and 4 hold beta, then 1 - M, and t = tan(beta) and r.
_WORK_ROWS = 5
_BETA_RANGE = (sys.float_info.min, sys.float_info.max)


def _moments(s: float, shifts: np.ndarray, t1: float, window: float | None,
             weights, work: np.ndarray | None = None) -> np.ndarray:
    """The four weighted sums over shifts that the averaged state reads:
    <1>, <Re g>, <x^2 (1 - Re g)> and <Im g x>.

    With E = sqrt(s^2/4 + h^2) and x = s/(2E); g is the emission phase
    average at the exciton splitting 2E: the average of exp(-i 2E t/hbar)
    over the delay density exp(-t/T1)/T1, truncated to [0, W] and
    renormalized when a window W is given. Every sum is even in h, so h
    and -h give the same bytes: the sums are those of the shift set
    symmetrized about 0, whose odd sums <xy (1 - Re g)> and <Im g y>, with
    y = h/E, are 0. weights is an array matching shifts or a scalar; an
    array multiplies the summed rows, a scalar the sums. Every per-sample
    intermediate is written into work[:, :n], a C-contiguous float64 array
    of _WORK_ROWS rows and at least n = shifts.size columns, 5 x 65,536 x
    8 B = 2.5 MiB at the Monte Carlo chunk size; none is complex. The Monte
    Carlo engine passes one for all its chunks; without one the call makes
    its own. The sums are one ufunc sum over a contiguous block of rows, not
    a matrix product, which would hand them to a multi-threaded BLAS.

    The kernel works in w = q E, q = 2 T1/hbar, and never forms E. Over
    all delays g = 1/(1 + i w), so Re g = L = 1/(1 + p^2 + (q h)^2),
    p = q s/2, and as x^2 = p^2/w^2 and 1 - L = w^2 L: x^2 (1 - Re g) =
    p^2 L and x Im g = -p L. A window multiplies g by 1 + kappa (1 -
    exp(-2 i beta)), kappa = 1/expm1(a), a = W/T1, beta = E W/hbar = a w/2
    = sqrt((a q h/2)^2 + (a p/2)^2); while q h is finite, only a beta that
    large overflows. With t = tan(beta), r = t/beta, u = 1/(1 + t^2),
    c2 = a/expm1(a), J = c2 r u, K = c2 a r^2 u/2, M = J + K and
    A = L (1 - M), this is exactly Re g = A + M, x^2 (1 - Re g) = p^2 A
    and x Im g = -p (A + K), so the kernel sums the rows A, M and K. beta
    is clipped to the normal doubles: r = 1 at E = 0, the limit
    beta -> 0, and an overflowed beta keeps tan finite and M ~ 0. A double
    is >= ~4.7e-19 from a pole of tan, so t^2 is finite. c2 = 1 where a
    underflows to 0. With no window, or one so long that exp(-W/T1) is 0,
    only A = L is summed. L = 1 at E = 0 and 0 where (q h)^2 overflows;
    the sums are finite while p^2 = (T1 s/hbar)^2 is.
    """
    n = shifts.size
    if work is None:
        work = np.empty((_WORK_ROWS, n))
    q = 2.0 * (t1 / HBAR_UEV_PS)
    p = q * (0.5 * s)
    decay = 0.0 if window is None else math.exp(-window / t1)
    rows = work[:3 if decay else 1, :n]
    lorentz = rows[0]
    np.multiply(shifts, q, out=lorentz)  # q h
    if decay:
        a = window / t1
        c2 = a * decay / -math.expm1(-a) if a else 1.0
        m, k, beta, r = rows[1], rows[2], work[3, :n], work[4, :n]
        ap = 0.5 * a * p
        np.multiply(lorentz, 0.5 * a, out=beta)
        np.multiply(beta, beta, out=beta)
        np.add(beta, ap * ap, out=beta)
        np.sqrt(beta, out=beta)
        beta.clip(*_BETA_RANGE, out=beta)
        np.tan(beta, out=r)
        np.multiply(r, r, out=k)
        np.add(k, 1.0, out=k)
        np.reciprocal(k, out=k)  # u
        np.divide(r, beta, out=r)  # r
        np.multiply(k, r, out=k)  # r u
        np.multiply(k, c2, out=m)  # J
        np.multiply(k, r, out=k)
        np.multiply(k, 0.5 * c2 * a, out=k)  # K
        np.add(m, k, out=m)  # M
        np.subtract(1.0, m, out=beta)  # 1 - M
    np.multiply(lorentz, lorentz, out=lorentz)
    np.add(lorentz, 1.0 + p * p, out=lorentz)
    np.reciprocal(lorentz, out=lorentz)  # L
    if decay:
        np.multiply(lorentz, beta, out=lorentz)  # A
    if np.ndim(weights):
        np.multiply(rows, weights, out=rows)
        sums, total = rows.sum(axis=1), weights.sum()
    else:
        sums, total = weights * rows.sum(axis=1), weights * n
    s_a, s_m, s_k = sums.tolist() + [0.0] * (3 - sums.size)
    return np.array([total, s_a + s_m, p * p * s_a, -p * (s_a + s_k)])


def _rho_from_moments(m: np.ndarray) -> np.ndarray:
    """The averaged X state [[a, 0, 0, d], [0, b, -b, 0], [0, -b, b, 0],
    [d*, 0, 0, a]] in HH, HV, VH, VV order, from the four sums of
    :func:`_moments`. Its Bell fidelity is a + Re d = (<1> + <Re g>)/2.

    This is 0.5 (u u^dag + v v^dag + g u v^dag + h.c.) summed over shifts
    symmetrized about 0, with the pair vectors u, v through the upper and
    lower exciton branch (see :func:`monte_carlo_rho`) written out in x and
    y = h/E. The terms odd in y cancel between h and -h, so the entries
    between the HH/VV and HV/VH blocks are exact zeros.
    """
    one, re_g, loss_x2, im_g_x = m.tolist()
    a = 0.25 * (one + re_g + loss_x2)
    b = 0.25 * (one - re_g - loss_x2)
    d = complex(0.25 * (one + re_g - loss_x2), 0.5 * im_g_x)
    return np.array([[a, 0, 0, d], [0, b, -b, 0], [0, -b, b, 0], [d.conjugate(), 0, 0, a]])


def overhauser_samples(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Deterministic standard normals z; the Overhauser shifts of a dot are
    h_z = sigma z ~ N(0, sigma), in ueV.

    Sample i is a pure function of (seed, start + i): it is derived from
    64-bit word start + i of the Overhauser stream in the stream table
    (see :func:`_philox`), so any contiguous chunk reproduces the matching
    slice of the full stream regardless of how the work is partitioned.
    Philox makes its words in 4-word counter blocks, so the call advances
    start // 4 blocks, draws n + start % 4 words and skips the first
    start % 4. n and start are integers, n >= 1 and start >= 0.

    Averages draw each chunk's normals once and scale them by each point's
    sigma (see :func:`monte_carlo_rhos`). scipy.special is imported on the
    first call, so importing the package loads no scipy module.
    """
    from scipy.special import ndtri

    for name, value in (("n", n), ("start", start)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if start < 0:
        raise ValueError("start must be >= 0")
    bitgen = _philox(seed, _OVERHAUSER_STREAM)
    blocks, skip = divmod(start, 4)
    if blocks:
        bitgen.advance(blocks)
    raw = bitgen.random_raw(n + skip)[skip:]
    # Map the top 52 bits to the open interval (0, 1); ndtri stays finite.
    uniforms = ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    return ndtri(uniforms)


@functools.cache
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per order.

    The arrays are shared between calls, so they are returned read-only.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def monte_carlo_rho(params: PhysicalParams, config: SimConfig) -> np.ndarray:
    """Spin-noise averaged two-photon density matrix.

    Averages the emission-time averaged state at one Overhauser shift over
    shifts drawn from N(0, sigma). The state is a constant linear map of
    four moments of the shifts (see :func:`_moments` and
    :func:`_rho_from_moments`), so only those moments are averaged. Monte
    Carlo mode adds them up over fixed chunks of :data:`CHUNK_SAMPLES`
    draws of the counter-based sampler: memory does not grow with
    n_samples, and the output is bitwise deterministic for a given (seed,
    n_samples). gauss_hermite mode integrates the same Gaussian with
    deterministic quadrature nodes, as one chunk. The multi-pair mixing
    channel is not applied here, see :func:`apply_multipair_mixing`.

    This is the one-point case of :func:`monte_carlo_rhos`, which draws
    each chunk's standard normals once and scales them by sigma; a point
    averaged alone or as part of a grid gives the same bytes.

    Phase convention: with u and v the pair vectors conj(e) (x) e through
    the upper and lower exciton eigenstate e, a pair emitted after the
    delay t is (v + exp(-i delta t / hbar) u)/sqrt2. The stored exciton
    evolves forward in time, so the relative phase lands on the upper
    branch and the averaged coherence is g u v^dag, with g the phase
    average at the exciton splitting delta.
    """
    return monte_carlo_rhos([(params, config)])[0]


def monte_carlo_rhos(points) -> list[np.ndarray]:
    """:func:`monte_carlo_rho` for each (PhysicalParams, SimConfig) pair.

    Points that draw nothing take one kernel call each: a sigma = 0 point
    is the one-node rule h = 0 with weight 1, and a gauss_hermite point
    uses the cached nodes. The Monte Carlo points must share seed and
    n_samples, so they share one sampler stream: each chunk of standard
    normals z = ndtri(u) is drawn once, and each point in turn adds the
    four moments of its shifts sigma * z to one float (points, 4) array.
    Only one chunk of normals is held at a time, and every point's moments
    are computed in one float64 workspace made per call: _WORK_ROWS + 1 =
    6 rows of up to CHUNK_SAMPLES columns, 6 x 65,536 x 8 B = 3 MiB, the
    last row holding the scaled shifts.
    """
    points = list(points)
    rhos = [None] * len(points)
    sampled = []
    for i, (params, config) in enumerate(points):
        if params.sigma == 0.0:
            shifts, weights = np.zeros(1), 1.0
        elif config.quadrature == "gauss_hermite":
            nodes, gh_weights = _hermgauss(config.gh_order)
            shifts = np.sqrt(2.0) * params.sigma * nodes
            weights = gh_weights / np.sqrt(np.pi)
        else:
            sampled.append(i)
            continue
        rhos[i] = _rho_from_moments(_moments(params.s, shifts, params.t1, config.window, weights))
    if not sampled:
        return rhos
    streams = {(points[i][1].seed, points[i][1].n_samples) for i in sampled}
    if len(streams) > 1:
        raise ValueError("Monte Carlo points must share seed and n_samples, got "
                         f"{sorted(streams)}")
    ((seed, n),) = streams
    sums = np.zeros((len(sampled), 4))
    work = np.empty((_WORK_ROWS + 1, min(n, CHUNK_SAMPLES)))
    kernel_work, shift_row = work[:_WORK_ROWS], work[_WORK_ROWS]
    for start in range(0, n, CHUNK_SAMPLES):
        normals = overhauser_samples(seed, min(CHUNK_SAMPLES, n - start), start)
        shifts = shift_row[:normals.size]
        for j, i in enumerate(sampled):
            params, config = points[i]
            np.multiply(params.sigma, normals, out=shifts)
            sums[j] += _moments(params.s, shifts, params.t1, config.window, 1.0, kernel_work)
    for j, i in enumerate(sampled):
        rhos[i] = _rho_from_moments(sums[j] / n)
    return rhos


def apply_multipair_mixing(rho, k: float) -> np.ndarray:
    """Mix with the maximally mixed state: k rho + (1 - k)/4 I."""
    rho = assert_density_matrix(rho)
    _reject_bools(k=k)
    if not 0.0 < k <= 1.0:
        raise ValueError("k must lie in (0, 1]")
    return k * rho + (1.0 - k) * 0.25 * IDENTITY_4
