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
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import HBAR_UEV_PS, IDENTITY_4, assert_density_matrix

PS_PER_NS = 1e3
PS_PER_US = 1e6

QUADRATURE_MODES = ("monte_carlo", "gauss_hermite")

# Agreement required between an explicit sigma and the one implied by a
# simultaneously given T2*, in ueV.
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


def coherence_loss(t1_ps: float, t2_star_ns: float) -> float:
    """Time-averaged exciton coherence loss 1 - exp(-(T1/T2*)^2)."""
    _reject_bools(t1=t1_ps, t2_star=t2_star_ns)
    if not t1_ps > 0:
        raise ValueError("t1 must be > 0")
    if not t2_star_ns > 0:
        raise ValueError("t2_star must be > 0")
    ratio = t1_ps / (t2_star_ns * PS_PER_NS)
    return float(-np.expm1(-(ratio * ratio)))


def analytic_fidelity(params: PhysicalParams) -> float:
    """Closed-form estimate of the time-averaged Bell-state fidelity.

    f = (1 + k + 2k / (1 + 4 T1^2 (s^2 + sigma^2) / hbar^2)) / 4.

    This replaces the average of the Lorentzian coherence factor over the
    shift distribution by a single Lorentzian of the combined broadening, so
    it sits below the quadrature average for broad spin noise. The CLI
    reports both values side by side.
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
        omitted when g2_xx, g2_x and eta_p are all given instead.
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
        if self.k is None:
            if any(x is None for x in g2_inputs):
                raise ValueError("provide k, or all of g2_xx, g2_x and eta_p")
            object.__setattr__(self, "k", k_from_g2(self.g2_xx, self.g2_x, self.eta_p))
        elif any(x is not None for x in g2_inputs):
            raise ValueError("give either k or the g2/eta_p inputs, not both")
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


def _phase_average(delta: np.ndarray, t1: float, window: float | None, re_g: np.ndarray,
                   im_g: np.ndarray, scratch: np.ndarray) -> None:
    """Write Re g and Im g of the emission phase average into re_g and im_g.

    g is the average of exp(-i delta t / hbar) over the delay density
    exp(-t/T1)/T1, truncated to [0, window] and renormalized when a window
    is given. delta is a float array of splittings (ueV), re_g and im_g are
    float rows of its size, and scratch holds three more such rows, used
    only with a window. delta is not written. Real arithmetic only:

    - No window: g = 1/(1 + i w) with w = delta T1/hbar, so Re g =
      1/(1 + w^2) and Im g = -w Re g.
    - Window W: g = (expm1(-x)/x) / (expm1(-a)/a) with x = a + i b,
      a = W/T1 and b = delta W/hbar. a is one scalar, so
      (a/expm1(-a)) expm1(-x) = nr + i ni with nr = a - 2 damp sin^2(b/2),
      ni = -damp sin b and damp = exp(-a) a/expm1(-a) < 0. The terms of nr
      share a sign, so there is no cancellation at small a or b. Then
      g = (nr + i ni)(a - i b)/(a^2 + b^2).

    Both sines come from one half-angle tangent t = tan(b/2):
    sin^2(b/2) = t^2/(1 + t^2) and sin b = 2t/(1 + t^2), so the windowed
    branch makes one transcendental ufunc call. Near a pole of tan the two
    forms tend to 1 and 0; a double lies at least ~4.7e-19 from any pole,
    so |t| stays below ~1e19 and t^2 finite.
    """
    if window is None:
        minus_w = im_g
        np.multiply(delta, -(t1 / HBAR_UEV_PS), out=minus_w)
        np.multiply(minus_w, minus_w, out=re_g)
        np.add(re_g, 1.0, out=re_g)
        np.reciprocal(re_g, out=re_g)
        np.multiply(minus_w, re_g, out=im_g)
        return
    a = window / t1
    damp = math.exp(-a) * (a / math.expm1(-a))
    b, nr, ni = scratch[0], scratch[1], scratch[2]
    np.multiply(delta, window / HBAR_UEV_PS, out=b)
    tan_half = nr
    np.multiply(0.5, b, out=tan_half)
    np.tan(tan_half, out=tan_half)
    np.multiply(tan_half, tan_half, out=ni)
    np.add(ni, 1.0, out=ni)
    np.divide(tan_half, ni, out=ni)  # t/(1 + t^2) = sin(b)/2
    np.multiply(tan_half, ni, out=nr)  # t^2/(1 + t^2) = sin^2(b/2)
    np.multiply(2.0 * damp, nr, out=nr)
    np.subtract(a, nr, out=nr)
    np.multiply(ni, -2.0 * damp, out=ni)
    np.multiply(nr, a, out=re_g)
    np.multiply(ni, b, out=im_g)
    np.add(re_g, im_g, out=re_g)
    np.multiply(ni, a, out=im_g)
    np.multiply(nr, b, out=nr)
    np.subtract(im_g, nr, out=im_g)
    np.multiply(b, b, out=b)
    np.add(b, a * a, out=b)
    np.divide(re_g, b, out=re_g)
    np.divide(im_g, b, out=im_g)


# The averaged state is linear in ten moments of the shift distribution.
# With E = sqrt(s^2/4 + h^2), x = s/(2E) and y = h/E (x = 1, y = 0 at the
# degenerate point s = h = 0), the gauge-invariant pair vectors through the
# upper and lower exciton branch are u = P_u m and v = P_v m with
# m = ((1+x)/2, y/2, (1-x)/2). Since y^2 = 1 - x^2, every entry of m m^T is
# a combination of (1, x, x^2, y, xy), listed here per moment.
_PAIR_UPPER = np.array([[1, 0, 0], [0, -1j, 0], [0, 1j, 0], [0, 0, 1]])
_PAIR_LOWER = np.array([[0, 0, 1], [0, 1j, 0], [0, -1j, 0], [1, 0, 0]])
_MOMENT_OUTER = np.zeros((5, 3, 3))
for (_a, _b), _coef in {
    (0, 0): (1, 2, 1, 0, 0),
    (0, 1): (0, 0, 0, 1, 1),
    (0, 2): (1, 0, -1, 0, 0),
    (1, 1): (1, 0, -1, 0, 0),
    (1, 2): (0, 0, 0, 1, -1),
    (2, 2): (1, -2, 1, 0, 0),
}.items():
    _MOMENT_OUTER[:, _a, _b] = _MOMENT_OUTER[:, _b, _a] = np.array(_coef) / 4.0


def _moment_map() -> np.ndarray:
    """(16, 10) map from (real moments, complex moments) to rho before its
    Hermitian part is taken: 0.5 (uu + vv) from <1, x, x^2, y, xy> and the
    coherence u v^dag from <g {1, x, x^2, y, xy}>."""
    def sandwich(left, right):
        return np.einsum("ia,kab,jb->kij", left, _MOMENT_OUTER, right.conj()).reshape(5, 16)

    populations = 0.5 * (sandwich(_PAIR_UPPER, _PAIR_UPPER) + sandwich(_PAIR_LOWER, _PAIR_LOWER))
    return np.concatenate([populations, sandwich(_PAIR_UPPER, _PAIR_LOWER)]).T.copy()


_RHO_FROM_MOMENTS = _moment_map()

# Monte Carlo sums run over fixed chunks of the sample stream, so memory is
# bounded for any n_samples. Part of the determinism contract: changing it
# changes the summation order and with it the last bits of every output.
CHUNK_SAMPLES = 65_536

# Rows of the _moments workspace: x, y, the energy E and delta = 2E in rows
# 5-8, Re g and Im g in rows 10-11, and the windowed phase average's
# scratch in rows 0-2. Then the five basis rows 0-4 and, over rows 5-9, the
# basis times Re g (windowed) or the weighted E and h (unwindowed).
_WORK_ROWS = 12


def _moments(s: float, shifts: np.ndarray, t1: float, window: float | None,
             weights, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums over shifts of (1, x, x^2, y, xy) and of g times each.

    g is the emission phase average at the exciton splitting 2E, written
    by :func:`_phase_average` into two float rows. weights is an array
    matching shifts or a scalar. Every per-sample intermediate is written
    into work[:, :n], a C-contiguous float64 array of _WORK_ROWS rows and
    at least n = shifts.size columns: 12 x 65,536 x 8 B = 6 MiB at the
    Monte Carlo chunk size; no per-sample array is complex. The Monte
    Carlo engine passes one for all its chunks; without one the call makes
    its own of width n. Per-sample arrays are reduced with ufunc sums
    rather than matrix products, which would hand them to a multi-threaded
    BLAS.

    Without a window, Im g = -w Re g with w = 2 E T1/hbar. With E x = s/2
    and E y = h, the five imaginary moments follow from the Re g weighted
    sums of (1, x, y) and of E and h, so the Im g row goes unused. With a
    window, the basis is multiplied by Re g and by Im g.
    """
    n = shifts.size
    if work is None:
        work = np.empty((_WORK_ROWS, n))
    half = 0.5 * s
    energy = work[7, :n]
    np.multiply(shifts, shifts, out=energy)
    np.add(energy, half * half, out=energy)
    np.sqrt(energy, out=energy)
    nonzero = work[0].view(np.bool_)[:n]  # row 0 is free until the basis is filled
    np.greater(energy, 0.0, out=nonzero)
    x, y = work[5, :n], work[6, :n]
    x.fill(1.0)
    np.divide(half, energy, out=x, where=nonzero)
    y.fill(0.0)
    np.divide(shifts, energy, out=y, where=nonzero)
    delta = work[8, :n]
    np.multiply(2.0, energy, out=delta)
    re_g, im_g = work[10, :n], work[11, :n]
    _phase_average(delta, t1, window, re_g, im_g, work[:3, :n])
    basis = work[:5, :n]
    basis[0] = weights
    np.multiply(basis[0], x, out=basis[1])
    np.multiply(basis[1], x, out=basis[2])
    np.multiply(basis[0], y, out=basis[3])
    np.multiply(basis[3], x, out=basis[4])
    if window is None:
        real = basis.sum(axis=1)
        basis = work[:7, :n]
        np.multiply(basis[0], energy, out=basis[5])
        np.multiply(basis[0], shifts, out=basis[6])
        np.multiply(basis, re_g, out=basis)
        sums = basis.sum(axis=1)
        # Im <g (1, x, x^2, y, xy)> = -scale <Re g (E, s/2, x s/2, h, y s/2)>.
        scale = 2.0 * t1 / HBAR_UEV_PS
        imag = sums[[5, 0, 1, 6, 3]] * np.array([-scale, -scale * half, -scale * half,
                                                  -scale, -scale * half])
        return real, sums[:5] + 1j * imag
    np.multiply(basis, re_g, out=work[5:10, :n])
    sums = work[:10, :n].sum(axis=1)  # the real moments, then the Re g ones
    np.multiply(basis, im_g, out=basis)
    return sums[:5], sums[5:] + 1j * basis.sum(axis=1)


def _rho_from_moments(real: np.ndarray, cross: np.ndarray) -> np.ndarray:
    rho = (_RHO_FROM_MOMENTS @ np.concatenate([real, cross])).reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


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
    ten moments of the shifts (see :func:`_moments`), so only those
    moments are averaged. Monte Carlo mode adds them up over fixed chunks
    of :data:`CHUNK_SAMPLES` draws of the counter-based sampler: memory
    does not grow with n_samples, and the output is bitwise deterministic
    for a given (seed, n_samples). gauss_hermite mode integrates the same
    Gaussian with deterministic quadrature nodes, as one chunk. The
    multi-pair mixing channel is not applied here, see
    :func:`apply_multipair_mixing`.

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
    moments of its shifts sigma * z. Only one chunk of normals is held at a
    time, and every point's moments are computed in one float64 workspace
    made per call: _WORK_ROWS + 1 = 13 rows of up to CHUNK_SAMPLES columns,
    13 x 65,536 x 8 B = 6.5 MiB, the last row holding the scaled shifts.
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
        rhos[i] = _rho_from_moments(*_moments(params.s, shifts, params.t1, config.window, weights))
    if not sampled:
        return rhos
    streams = {(points[i][1].seed, points[i][1].n_samples) for i in sampled}
    if len(streams) > 1:
        raise ValueError("Monte Carlo points must share seed and n_samples, got "
                         f"{sorted(streams)}")
    ((seed, n),) = streams
    real = np.zeros((len(sampled), 5))
    cross = np.zeros((len(sampled), 5), dtype=complex)
    work = np.empty((_WORK_ROWS + 1, min(n, CHUNK_SAMPLES)))
    kernel_work, shift_row = work[:_WORK_ROWS], work[_WORK_ROWS]
    for start in range(0, n, CHUNK_SAMPLES):
        normals = overhauser_samples(seed, min(CHUNK_SAMPLES, n - start), start)
        shifts = shift_row[:normals.size]
        for j, i in enumerate(sampled):
            params, config = points[i]
            np.multiply(params.sigma, normals, out=shifts)
            chunk_real, chunk_cross = _moments(params.s, shifts, params.t1, config.window,
                                               1.0, kernel_work)
            real[j] += chunk_real
            cross[j] += chunk_cross
    for j, i in enumerate(sampled):
        rhos[i] = _rho_from_moments(real[j] / n, cross[j] / n)
    return rhos


def apply_multipair_mixing(rho, k: float) -> np.ndarray:
    """Mix with the maximally mixed state: k rho + (1 - k)/4 I."""
    rho = assert_density_matrix(rho)
    if not 0.0 < k <= 1.0:
        raise ValueError("k must lie in (0, 1]")
    return k * rho + (1.0 - k) * 0.25 * IDENTITY_4
