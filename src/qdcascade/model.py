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
# form, given together: sigma and hbar/T2*, k and k_from_g2; relative to
# the implied value once that exceeds 1 (1 ueV for sigma; k is <= 1).
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
    sigma = HBAR_UEV_PS / (t2_star_ns * PS_PER_NS)
    if math.isinf(sigma):
        raise ValueError(f"sigma must be finite, got hbar/T2* = inf from t2_star={t2_star_ns!r}")
    return sigma


def k_from_g2(g2_xx: float, g2_x: float, eta_p: float) -> float:
    """Single-pair fraction from the two autocorrelations and the inversion
    efficiency: k = 1 - (g2_xx + g2_x)/2 * eta_p.

    k = 0 at g2_xx = g2_x = eta_p = 1, the closed bounds of the inputs;
    :class:`PhysicalParams` rejects that k, naming these three inputs.
    """
    _reject_bools(g2_xx=g2_xx, g2_x=g2_x, eta_p=eta_p)
    for name, value in (("g2_xx", g2_xx), ("g2_x", g2_x)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 < eta_p <= 1.0:
        raise ValueError("eta_p must lie in (0, 1]")
    return 1.0 - 0.5 * (g2_xx + g2_x) * eta_p


def coherence_loss(params: PhysicalParams) -> float:
    """Exciton coherence loss estimate 1 - exp(-(T1/T2*)^2), T1/T2* = r/2 of
    :func:`_scaled`. It is not the model's averaged loss 1 - <L> at s = 0
    (Gauss-Hermite 64): 0.0078 against 0.0287 at T1 = 230 ps and T2* =
    2.6 ns, and 0.059 against 0.155 at 420 ps and 1.7 ns."""
    half_r = 0.5 * _scaled(params, None)[1]
    return float(-np.expm1(-(half_r * half_r)))


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
    p, r, _, _ = _scaled(params, None)
    lorentz = 1.0 / (1.0 + 4.0 * p * p + r * r)
    return 0.25 * (1.0 + params.k + 2.0 * params.k * lorentz)


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
            self._resolve("sigma", sigma_from_t2star(self.t2_star), "hbar/T2*", " ueV")
        k_source = "k"
        g2_inputs = (self.g2_xx, self.g2_x, self.eta_p)
        if g2_inputs != (None, None, None):
            for name, value in zip(("g2_xx", "g2_x", "eta_p"), g2_inputs):
                if value is None:
                    raise ValueError(f"{name} is missing: give all of g2_xx, g2_x and eta_p")
            k_source = self._resolve("k", k_from_g2(*g2_inputs), "k from g2_xx, g2_x and eta_p")
        elif self.k is None:
            raise ValueError("provide k, or all of g2_xx, g2_x and eta_p")
        if not 0.0 < self.k <= 1.0:
            raise ValueError(f"{k_source} must lie in (0, 1]")
        if self.t1_xx is not None and not self.t1_xx > 0:
            raise ValueError("t1_xx must be > 0")
        if self.tau_s is not None:
            if not self.tau_s > 0:
                raise ValueError("tau_s must be > 0")
            if self.tau_s * PS_PER_US < 100.0 * self.t1:
                warnings.warn(
                    "tau_s is below 100 T1; the frozen-spin approximation is "
                    "questionable for this dot",
                    stacklevel=3,
                )

    def _resolve(self, name: str, implied: float, source: str, unit: str = "") -> str:
        """The agreement rule of two input forms: fill the field from the value
        its other form implies, or check a given one to SIGMA_MATCH_TOL.
        Returns the form the value came from, source when filled, else name."""
        given = getattr(self, name)
        if given is None:
            object.__setattr__(self, name, implied)
            return source
        if abs(given - implied) > SIGMA_MATCH_TOL * max(1.0, abs(implied)):
            raise ValueError(f"{name}={given} disagrees with {source} = {implied:.6f}{unit}")
        return name


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

# Rows of the kernel workspace. Rows 0-2 are the summed rows A, M and K of
# _moments; a window's rows 3 and 4 hold beta, then 1 - M, and t = tan(beta)
# and tau. Rows 5 and 6 hold the rows (r z)^2 and L that _grouped_moments
# shares between points.
_WORK_ROWS = 7
_BETA_RANGE = (sys.float_info.min, sys.float_info.max)


def _scaled(params: PhysicalParams, window: float | None) -> tuple[float, float, float, float]:
    """The one unit conversion of the averages: p = T1 s/hbar,
    r = 2 T1 sigma/hbar = 2 T1/T2*, a = W/T1 and rho_w = W sigma/hbar.
    Without a window a = inf, so exp(-a) = 0 selects the unwindowed sums.
    r and rho_w are clipped to the largest double, so the node z = 0 of an
    odd rule meets no inf x 0; rho_w is 0 where W/hbar underflows."""
    q = 2.0 * (params.t1 / HBAR_UEV_PS)
    r = min(q * params.sigma, sys.float_info.max)
    if window is None:
        return q * (0.5 * params.s), r, math.inf, 0.0
    rho_w = min((window / HBAR_UEV_PS) * params.sigma, sys.float_info.max)
    return q * (0.5 * params.s), r, window / params.t1, rho_w


def _moments(lorentz: np.ndarray, z: np.ndarray, p: float, a: float, rho_w: float,
             weights, work: np.ndarray) -> np.ndarray:
    """The four weighted sums <1>, <Re g>, <x^2 (1 - Re g)> and <Im g x>
    the state reads, over N(0, 1) values z of the shifts h = sigma z, given
    their Lorentzian row L = 1/(1 + p^2 + (r z)^2) (see
    :func:`_grouped_moments`).

    With p, r, a and rho_w from :func:`_scaled`, E = sqrt(s^2/4 + h^2) and
    x = s/(2E), g is the average of exp(-i 2E t/hbar) over the delay
    density exp(-t/T1)/T1, truncated to [0, W] and renormalized when a
    window W is given. Every sum is even in z, so z and -z give the same
    bytes and the odd sums <xy (1 - Re g)> and <Im g y>, y = h/E, are 0.
    weights is an array matching z or a scalar; an array multiplies the
    summed rows, a scalar the sums. lorentz is only read. Per-sample
    intermediates, none complex, go into rows 0-4 of work[:, :n], float64
    with C-contiguous rows of at least n = z.size columns. The sums are one
    ufunc sum over a block of rows, not a matrix product, which would hand
    them to a multi-threaded BLAS.

    Over all delays g = 1/(1 + i w), w = 2 E T1/hbar, so Re g = L =
    1/(1 + p^2 + (r z)^2), and as x^2 = p^2/w^2 and 1 - L = w^2 L:
    x^2 (1 - Re g) = p^2 L and x Im g = -p L. A window multiplies g by
    1 + kappa (1 - exp(-2 i beta)), kappa = 1/expm1(a), with the angle
    beta = E W/hbar = sqrt((rho_w z)^2 + (a p/2)^2). With t = tan(beta),
    tau = t/beta, u = 1/(1 + t^2), c2 = a/expm1(a), J = c2 tau u,
    K = c2 a tau^2 u/2, M = J + K and A = L (1 - M), this is exactly
    Re g = A + M, x^2 (1 - Re g) = p^2 A and x Im g = -p (A + K), so the
    kernel sums the rows A, M and K. beta is clipped to the normal doubles:
    tau = 1 at E = 0, and an overflowed beta keeps tan finite and M ~ 0. A
    double is >= ~4.7e-19 from a pole of tan, so t^2 is finite. c2 = 1
    where a underflows to 0. Where exp(-a) = 0, only A = L is summed. L = 1
    at E = 0 and 0 where (r z)^2 overflows; the sums are finite while p^2 is.
    """
    n = z.size
    decay = math.exp(-a)
    if decay:
        c2 = a * decay / -math.expm1(-a) if a else 1.0
        rows = work[:3, :n]
        m, k, beta, tau = rows[1], rows[2], work[3, :n], work[4, :n]
        np.multiply(z, rho_w, out=beta)  # h W/hbar
        np.multiply(beta, beta, out=beta)
        np.add(beta, (0.5 * a * p) * (0.5 * a * p), out=beta)
        np.sqrt(beta, out=beta)  # beta = E W/hbar
        beta.clip(*_BETA_RANGE, out=beta)
        np.tan(beta, out=tau)
        np.multiply(tau, tau, out=k)
        np.add(k, 1.0, out=k)
        np.reciprocal(k, out=k)  # u
        np.divide(tau, beta, out=tau)  # tau
        np.multiply(k, tau, out=k)  # tau u
        np.multiply(k, c2, out=m)  # J
        np.multiply(k, tau, out=k)
        np.multiply(k, 0.5 * c2 * a, out=k)  # K
        np.add(m, k, out=m)  # M
        np.subtract(1.0, m, out=beta)
        np.multiply(lorentz, beta, out=rows[0])  # A = L (1 - M)
    else:
        rows = lorentz[np.newaxis]  # A = L
    if np.ndim(weights):
        rows = np.multiply(rows, weights, out=work[:len(rows), :n])
        sums, total = rows.sum(axis=1), weights.sum()
    else:
        sums, total = weights * rows.sum(axis=1), weights * n
    s_a, s_m, s_k = sums.tolist() + [0.0] * (3 - sums.size)
    return np.array([total, s_a + s_m, p * p * s_a, -p * (s_a + s_k)])


def _group(points: dict) -> dict:
    """The points {table row: (p, r, a, rho_w) of :func:`_scaled`} nested
    by the kernel rows they share, r -> p -> (a, rho_w) -> table rows:
    (r z)^2 depends on r alone, L on (p, r), and the moments on all four.
    p is keyed with its sign, so s = -0.0, whose L is that of s = 0, keeps
    the signed zero of its last moment."""
    groups = {}
    for row, (p, r, a, rho_w) in points.items():
        by_p = groups.setdefault(r, {})
        by_window = by_p.setdefault((p, math.copysign(1.0, p)), {})
        by_window.setdefault((a, rho_w), []).append(row)
    return groups


def _grouped_moments(z: np.ndarray, groups: dict, weights, work: np.ndarray | None = None):
    """Yield (table rows, moments of :func:`_moments`) for each distinct
    (p, r, a, rho_w) of groups (see :func:`_group`), over the N(0, 1)
    values z with weights. (r z)^2 is formed once per r, into row 5 of the
    workspace, and L = 1/(1 + p^2 + (r z)^2) once per (p, r), into row 6.
    These are the same operations on the same inputs as for a point alone,
    so every point gets the bytes it would get alone. work is as for
    :func:`_moments`, with _WORK_ROWS rows, and is made when not given.
    """
    n = z.size
    if work is None:
        work = np.empty((_WORK_ROWS, n))
    square, lorentz = work[5, :n], work[6, :n]
    for r, by_p in groups.items():
        np.multiply(z, r, out=square)  # r z
        np.multiply(square, square, out=square)
        for (p, _), by_window in by_p.items():
            np.add(square, 1.0 + p * p, out=lorentz)
            np.reciprocal(lorentz, out=lorentz)  # L
            for (a, rho_w), rows in by_window.items():
                yield rows, _moments(lorentz, z, p, a, rho_w, weights, work)


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

    scipy.special is imported on the first call, so importing the package
    loads no scipy module.
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
def _normal_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite rule for N(0, 1), computed once per order: nodes
    z = sqrt(2) x, bitwise symmetric about 0, and weights w/sqrt(pi) from
    hermgauss's x and w. Order 1 is the node z = 0 of weight 1. The arrays
    are shared between calls, so they are returned read-only.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes *= np.sqrt(2.0)
    weights /= np.sqrt(np.pi)
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

    This is the one-point case of :func:`monte_carlo_rhos`; a point
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

    Each point owns one row of a float (points, 4) table of moments, and
    the states are read from the table alone. Points that draw nothing
    write their rows in one pass over the N(0, 1) rule of
    :func:`_normal_rule` they share: the gh_order rule, or at sigma = 0 the
    one node z = 0 of weight 1. The Monte Carlo points must share seed and
    n_samples, so they share one sampler stream: each chunk of normals
    z = ndtri(u) is drawn once, each point adds its moments of it to its
    row, and those rows are divided by n. In each pass the points share
    per-sample rows (see :func:`_grouped_moments`): (r z)^2 is formed once
    per noise level r, L once per dot (p, r), and the moments once per
    distinct (p, r, a, rho_w), then added to every point that has them.
    Each point keeps its own chunk-order sums, so it gets the bytes it
    would get alone. One chunk is held at a time, and every pass writes
    into one float64 workspace of _WORK_ROWS x CHUNK_SAMPLES, 3.5 MiB,
    made per call.
    """
    points = list(points)
    table = np.zeros((len(points), 4))
    rules = {}  # rule order -> {row: scaled constants} of points that draw nothing
    sampled = {}  # row -> scaled constants of each Monte Carlo point
    streams = set()
    for i, (params, config) in enumerate(points):
        scaled = _scaled(params, config.window)
        if params.sigma and config.quadrature == "monte_carlo":
            sampled[i] = scaled
            streams.add((config.seed, config.n_samples))
        else:
            rules.setdefault(config.gh_order if params.sigma else 1, {})[i] = scaled
    if len(streams) > 1:
        raise ValueError("Monte Carlo points must share seed and n_samples, got "
                         f"{sorted(streams)}")
    for order, rule_points in rules.items():
        nodes, weights = _normal_rule(order)
        for rows, moments in _grouped_moments(nodes, _group(rule_points), weights):
            for i in rows:
                table[i] = moments
    for seed, n in streams:  # none, or the one shared stream
        groups = _group(sampled)
        work = np.empty((_WORK_ROWS, min(n, CHUNK_SAMPLES)))
        for start in range(0, n, CHUNK_SAMPLES):
            normals = overhauser_samples(seed, min(CHUNK_SAMPLES, n - start), start)
            for rows, moments in _grouped_moments(normals, groups, 1.0, work):
                for i in rows:
                    table[i] += moments
        table[list(sampled)] /= n
    return [_rho_from_moments(row) for row in table]


def apply_multipair_mixing(rho, k: float) -> np.ndarray:
    """Mix with the maximally mixed state: k rho + (1 - k)/4 I."""
    rho = assert_density_matrix(rho)
    _reject_bools(k=k)
    if not 0.0 < k <= 1.0:
        raise ValueError("k must lie in (0, 1]")
    return k * rho + (1.0 - k) * 0.25 * IDENTITY_4
