"""Release-gating checks.

One test per headline requirement, each printing a one-line verdict with
the computed figures, so `pytest -v -s tests/test_acceptance.py` doubles
as the acceptance checklist (without -s pytest captures the verdicts of
passing tests).
"""

import time

import numpy as np
from numpy import kron as tensor

from conftest import (
    IDENTITY_2,
    build_hamiltonian,
    concurrence,
    concurrence_pure,
    correlation_visibilities,
    fidelity_phi_plus,
    propagate_rho,
    random_density_matrix,
    random_pure_state,
    rk4_density_batch,
    state_log_likelihood,
)
from qdcascade.linalg import HBAR_UEV_PS
from qdcascade.metrics import metrics_from_rho, trace_distance
from qdcascade.model import (
    PhysicalParams,
    SimConfig,
    analytic_fidelity,
    apply_multipair_mixing,
    coherence_loss,
    monte_carlo_rho,
    overhauser_samples,
    sigma_from_t2star,
)
from qdcascade.tomography import (
    fidelity_from_visibilities,
    mle_reconstruct,
    simulate_counts,
    standard_settings,
)

# Strain-tuned InGaAs reference dot: T1 = 430 ps, S = 0.4 ueV,
# sigma = 0.41 ueV (T2* = 1.6 ns), k = 0.99.
REFERENCE_PARAMS = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
REFERENCE_CONFIG = SimConfig(n_samples=200_000, seed=1234)


def test_reference_dot_full_average_metrics():
    start = time.perf_counter()
    rho = apply_multipair_mixing(
        monte_carlo_rho(REFERENCE_PARAMS, REFERENCE_CONFIG), REFERENCE_PARAMS.k
    )
    m = metrics_from_rho(rho)
    elapsed = time.perf_counter() - start
    assert abs(m.fidelity - 0.89) <= 0.01
    assert abs(m.purity - 0.81) <= 0.02
    assert abs(m.concurrence - 0.79) <= 0.02
    assert elapsed < 10.0
    print(f"PASS full-average reference dot: f={m.fidelity:.4f} (0.89+-0.01), "
          f"P={m.purity:.4f} (0.81+-0.02), C={m.concurrence:.4f} (0.79+-0.02), "
          f"{elapsed:.1f}s")


def test_sigma_from_coherence_time():
    sigma = sigma_from_t2star(1.7)
    assert abs(sigma - 0.387) <= 0.003
    print(f"PASS sigma from T2*=1.7 ns: {sigma:.4f} ueV (0.387+-0.003)")


def test_coherence_loss_figures():
    low = coherence_loss(PhysicalParams(s=0.0, t1=230.0, t2_star=2.6, k=1.0))
    assert abs(low - 0.0078) < 1e-5
    assert low < 0.01  # reported as below one percent
    high = coherence_loss(PhysicalParams(s=0.0, t1=420.0, t2_star=1.7, k=1.0))
    assert 0.05 <= high <= 0.07
    print(f"PASS coherence loss: 230ps/2.6ns -> {low:.5f} (<1%), "
          f"420ps/1.7ns -> {high:.4f} (in [0.05, 0.07])")


def test_window_filtered_concurrence():
    start = time.perf_counter()
    config = SimConfig(n_samples=200_000, seed=1234, window=350.0)
    # Dephasing-only model for window filtering, no multi-pair mixing.
    m = metrics_from_rho(monte_carlo_rho(REFERENCE_PARAMS, config))
    elapsed = time.perf_counter() - start
    assert abs(m.concurrence - 0.98) <= 0.01
    assert elapsed < 10.0
    print(f"PASS window-filtered concurrence at 350 ps: C={m.concurrence:.4f} "
          f"(0.98+-0.01), {elapsed:.1f}s")


def test_gaas_reference_fidelity():
    params = PhysicalParams(s=0.0, t1=230.0, sigma=sigma_from_t2star(2.6), k=1.0)
    rho = monte_carlo_rho(params, SimConfig(n_samples=200_000, seed=1234))
    fidelity = fidelity_phi_plus(rho)
    assert 0.97 <= fidelity <= 0.99
    print(f"PASS GaAs reference point: f={fidelity:.4f} (in [0.97, 0.99])")


def test_closed_form_propagation_vs_rk4():
    rng = np.random.default_rng(2024)
    n = 100
    splittings = rng.uniform(0.0, 10.0, n)
    shifts = rng.uniform(-10.0, 10.0, n)
    times = rng.uniform(0.0, 1500.0, n)
    hamiltonians = np.array([build_hamiltonian(s, h) for s, h in zip(splittings, shifts)])
    h_total = np.array([tensor(IDENTITY_2, h) for h in hamiltonians])
    rho0 = np.array([random_density_matrix(rng) for _ in range(n)])
    oracle = rk4_density_batch(rho0, h_total, times, n_steps=20_000)
    worst = 0.0
    for i in range(n):
        closed = propagate_rho(rho0[i], hamiltonians[i], times[i])
        worst = max(worst, float(np.abs(closed - oracle[i]).max()))
    assert worst < 1e-8
    print(f"PASS closed-form propagation vs RK4 (100 triples): max dev {worst:.2e} (< 1e-8)")


def test_concurrence_matches_pure_state_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        psi = random_pure_state(rng)
        dev = abs(concurrence(np.outer(psi, psi.conj())) - concurrence_pure(psi))
        worst = max(worst, dev)
    assert worst < 1e-10
    print(f"PASS Wootters vs pure-state oracle (1000 states): max dev {worst:.2e} (< 1e-10)")


def test_visibility_fidelity_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        rho = random_density_matrix(rng)
        estimate = fidelity_from_visibilities(*correlation_visibilities(rho))
        worst = max(worst, abs(estimate - fidelity_phi_plus(rho)))
    assert worst < 1e-10
    print(f"PASS visibility estimator identity (200 states): max dev {worst:.2e} (< 1e-10)")


def test_monte_carlo_vs_gauss_hermite():
    # Purcell-enhanced lifetime keeps the per-shift Lorentzian wide enough
    # for order-32 quadrature to resolve across the whole noise range.
    t1 = 127.0
    n = 1_000_000
    seed = 20_240
    cases = [(0.0, 0.3), (1.2, 0.0), (0.4, 0.41), (0.0, 1.0), (1.0, 1.0),
             (0.5, 2.5), (1.5, 0.7), (2.0, 2.0), (2.5, 0.3), (2.5, 2.5)]
    worst_pull = 0.0
    for s, sigma in cases:
        params = PhysicalParams(s=s, t1=t1, sigma=sigma, k=1.0)
        f_mc = fidelity_phi_plus(monte_carlo_rho(params, SimConfig(n_samples=n, seed=seed)))
        f_gh = fidelity_phi_plus(monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite")))
        if sigma == 0.0:
            assert f_mc == f_gh
            continue
        shifts = sigma * overhauser_samples(seed, n)
        lorentz = 1.0 / (1.0 + (s * s + 4.0 * shifts**2) * (t1 / HBAR_UEV_PS) ** 2)
        per_sample = 0.5 * (1.0 + lorentz)
        # the per-sample fidelity formula anchors the standard error estimate
        assert abs(per_sample.mean() - f_mc) < 1e-10
        standard_error = per_sample.std(ddof=1) / np.sqrt(n)
        assert abs(f_mc - f_gh) <= 3.0 * standard_error + 1e-12
        worst_pull = max(worst_pull, abs(f_mc - f_gh) / standard_error)
    print(f"PASS Monte Carlo (1e6) vs Gauss-Hermite (32), 10 parameter sets: "
          f"worst pull {worst_pull:.2f} sigma (< 3)")


def test_ideal_dot_is_perfect_at_every_window():
    params = PhysicalParams(s=0.0, t1=430.0, sigma=0.0, k=1.0)
    for window in (None, 1e-3, 1.0, 350.0, 1e7):
        config = SimConfig(n_samples=1000, seed=1, window=window)
        m = metrics_from_rho(monte_carlo_rho(params, config))
        assert abs(m.fidelity - 1.0) < 1e-12
        assert abs(m.purity - 1.0) < 1e-12
        assert abs(m.concurrence - 1.0) < 1e-12
    print("PASS ideal dot (sigma=0, S=0, k=1): f = P = C = 1 within 1e-12 at every window")


def test_closed_form_fidelity_value_and_gap():
    closed_form = analytic_fidelity(REFERENCE_PARAMS)
    assert abs(closed_form - 0.8148) <= 1e-4
    rho = apply_multipair_mixing(
        monte_carlo_rho(REFERENCE_PARAMS, REFERENCE_CONFIG), REFERENCE_PARAMS.k
    )
    averaged = fidelity_phi_plus(rho)
    gap = averaged - closed_form
    # The closed form averages the broadening before the Lorentzian and is
    # known to sit well below the sampled average; the gap is a feature of
    # the approximation and must stay visible in reports.
    assert gap > 0.05
    print(f"PASS closed-form fidelity {closed_form:.4f} (0.8148+-1e-4); "
          f"sampled average {averaged:.4f}, documented gap {gap:.4f}")


def test_tomography_round_trip():
    start = time.perf_counter()
    rho_true = apply_multipair_mixing(
        monte_carlo_rho(REFERENCE_PARAMS, REFERENCE_CONFIG), REFERENCE_PARAMS.k
    )
    records = simulate_counts(rho_true, standard_settings("sixteen_basis"), 10**6)
    result = mle_reconstruct(records)
    elapsed = time.perf_counter() - start
    distance = trace_distance(result.rho, rho_true)
    # The reported log-likelihood is the fitted state's, and it is at least
    # the true state's.
    fitted = state_log_likelihood(result.rho, records)
    truth = state_log_likelihood(rho_true, records)
    assert result.converged
    assert distance < 1e-4
    assert abs(result.log_likelihood - fitted) <= 1e-9 * abs(fitted)
    assert result.log_likelihood >= truth - 1e-9 * abs(truth)
    assert elapsed < 30.0
    print(f"PASS tomography round trip: trace distance {distance:.2e} (< 1e-4), "
          f"log-likelihood {result.log_likelihood - truth:.2e} above the true state's "
          f"after {result.iterations} iterations, {elapsed:.1f}s")
