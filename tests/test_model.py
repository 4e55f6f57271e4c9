import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from conftest import (
    IDENTITY_2,
    PHI_PLUS,
    build_hamiltonian,
    closed_form_phase_average,
    concurrence,
    concurrence_pure,
    correlation_visibilities,
    exciton_eigensystem,
    fidelity_phi_plus,
    fixed_shift_rho,
    kernel_moments,
    outer_product_rho,
    physical_moments,
    propagate_rho,
    purity,
    random_density_matrix,
    rk4_density_batch,
    two_photon_state,
)
from qdcascade.linalg import HBAR_UEV_PS, assert_density_matrix
from qdcascade.metrics import metrics_from_rho
from qdcascade.model import (
    QUADRATURE_MODES,
    PhysicalParams,
    SimConfig,
    analytic_fidelity,
    apply_multipair_mixing,
    coherence_loss,
    k_from_g2,
    monte_carlo_rho,
    monte_carlo_rhos,
    overhauser_samples,
    sigma_from_t2star,
)
from qdcascade.model import (
    _WORK_ROWS,
    CHUNK_SAMPLES,
    _normal_rule,
    _philox,
    _rho_from_moments,
    _scaled,
)
from qdcascade.tomography import (
    CountRecord,
    fidelity_from_visibilities,
    simulate_counts,
    standard_settings,
)

PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())


# TestHamiltonian through TestPropagateRho check the reference model in
# conftest.py (Hamiltonian, eigenstates, ket, closed-form propagator) that
# the package's moment engine is compared against.
class TestHamiltonian:
    def test_diagonal_at_zero_shift(self):
        assert np.allclose(build_hamiltonian(1.3, 0.0), np.diag([0.65, -0.65]))

    def test_pure_shift(self):
        h = build_hamiltonian(0.0, 0.5)
        assert np.allclose(h, np.array([[0.0, 0.5j], [-0.5j, 0.0]]))

    def test_eigen_splitting(self):
        # 2 sqrt((s/2)^2 + h_z^2) evaluated directly
        _, _, delta = exciton_eigensystem(build_hamiltonian(0.4, 0.41))
        assert abs(delta - np.sqrt(0.4**2 + 4 * 0.41**2)) < 1e-12
        assert abs(delta - 0.9124) < 1e-4

    def test_rejects_negative_splitting(self):
        with pytest.raises(ValueError):
            build_hamiltonian(-0.1, 0.0)


class TestEigensystem:
    def test_linear_eigenstates_at_zero_shift(self):
        j, l, delta = exciton_eigensystem(build_hamiltonian(1.3, 0.0))
        assert np.allclose(j, [1.0, 0.0])
        assert np.allclose(l, [0.0, 1.0])
        assert abs(delta - 1.3) < 1e-12

    def test_circular_eigenstates_at_zero_splitting(self):
        j, l, delta = exciton_eigensystem(build_hamiltonian(0.0, 0.7))
        plus = np.array([1.0, 1j]) / np.sqrt(2)
        minus = np.array([1.0, -1j]) / np.sqrt(2)
        # circular states up to phase and labelling
        overlaps = sorted([abs(plus.conj() @ j), abs(minus.conj() @ j)])
        assert overlaps[1] > 1 - 1e-12
        assert abs(abs(j.conj() @ l)) < 1e-12
        assert abs(delta - 1.4) < 1e-12


class TestTwoPhotonState:
    def test_bell_state_at_zero_delay(self):
        j, l, delta = exciton_eigensystem(build_hamiltonian(1.3, 0.0))
        assert np.allclose(two_photon_state(j, l, delta, 0.0), PHI_PLUS)

    def test_pi_phase(self):
        s = 1.3
        j, l, delta = exciton_eigensystem(build_hamiltonian(s, 0.0))
        psi = two_photon_state(j, l, delta, np.pi * HBAR_UEV_PS / s)
        expected = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
        assert np.abs(np.abs(psi.conj() @ expected) - 1.0) < 1e-12
        assert fidelity_phi_plus(np.outer(psi, psi.conj())) < 1e-12

    def test_normalized_for_any_shift(self):
        j, l, delta = exciton_eigensystem(build_hamiltonian(0.6, 0.9))
        psi = two_photon_state(j, l, delta, 333.0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_instantaneous_state_is_maximally_entangled(self):
        # phase evolution alone never degrades the single-event entanglement
        for s, h_z in ((1.3, 0.0), (0.4, 0.41), (0.0, 2.0), (2.5, -1.7)):
            j, l, delta = exciton_eigensystem(build_hamiltonian(s, h_z))
            for t in (0.0, 55.0, 430.0, 2000.0):
                psi = two_photon_state(j, l, delta, t)
                assert abs(concurrence_pure(psi) - 1.0) < 1e-12
                assert abs(concurrence(np.outer(psi, psi.conj())) - 1.0) < 1e-12


class TestPropagateRho:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng)
        assert np.allclose(propagate_rho(rho, build_hamiltonian(0.7, 0.2), 0.0), rho)

    def test_matches_analytic_state(self):
        # Propagating the zero-delay pure state reproduces the analytic
        # two-photon state; under the upper/lower ordering the relative
        # phase exp(-i delta t / hbar) lands on the branch listed second,
        # which is the upper one for forward evolution.
        h = build_hamiltonian(0.9, 0.55)
        j, l, delta = exciton_eigensystem(h)
        psi0 = two_photon_state(j, l, delta, 0.0)
        for t in (37.0, 211.0, 950.0):
            propagated = propagate_rho(np.outer(psi0, psi0.conj()), h, t)
            psi_t = two_photon_state(l, j, delta, t)
            assert np.abs(propagated - np.outer(psi_t, psi_t.conj())).max() < 1e-12

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(4)
        rho0 = random_density_matrix(rng)
        h = build_hamiltonian(1.7, -0.8)
        t = 100.0
        oracle = rk4_density_batch(
            rho0[None, :, :], np.kron(IDENTITY_2, h)[None, :, :], np.array([t]), n_steps=10000
        )[0]  # step 0.01 ps
        assert np.abs(propagate_rho(rho0, h, t) - oracle).max() < 1e-8

    def test_preserves_spectrum(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng)
        evolved = propagate_rho(rho, build_hamiltonian(0.4, 1.1), 777.0)
        assert np.allclose(np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(rho), atol=1e-10)

    def test_matches_rk4_at_long_delays(self):
        # closed form vs RK4 up to 5 ns across the stated parameter box
        rng = np.random.default_rng(8)
        triples = [(10.0, 10.0, 5000.0), (10.0, -10.0, 5000.0),
                   (0.1, 4.0, 4200.0), (7.3, 0.0, 3600.0)]
        rho0 = np.array([random_density_matrix(rng) for _ in triples])
        hams = np.array([build_hamiltonian(s, h) for s, h, _ in triples])
        h_total = np.array([np.kron(IDENTITY_2, h) for h in hams])
        times = np.array([t for _, _, t in triples])
        oracle = rk4_density_batch(rho0, h_total, times, n_steps=50_000)
        for i, (s, h_z, t) in enumerate(triples):
            closed = propagate_rho(rho0[i], hams[i], t)
            assert np.abs(closed - oracle[i]).max() < 1e-8

    def test_rejects_invalid_state(self):
        from qdcascade.linalg import InvalidDensityMatrixError

        with pytest.raises(InvalidDensityMatrixError):
            propagate_rho(np.eye(4), build_hamiltonian(0.4, 0.0), 10.0)


class TestTimeAveragedRho:
    def test_bell_state_when_degenerate(self):
        for window in (None, 1.0, 350.0):
            rho = fixed_shift_rho(0.0, 0.0, 430.0, window)
            assert np.abs(rho - PHI_PLUS_RHO).max() < 1e-15

    def test_infinite_window_coherence(self):
        # cross coherence <exp(-i delta t/hbar)> = 1/(1 + i delta T1/hbar)
        s, t1 = 1.1, 380.0
        rho = fixed_shift_rho(s, 0.0, t1)
        expected = 1.0 / (1.0 + 1j * s * t1 / HBAR_UEV_PS)
        assert abs(2.0 * rho[0, 3] - expected) < 1e-12
        f_expected = 0.5 * (1.0 + 1.0 / (1.0 + (s * t1 / HBAR_UEV_PS) ** 2))
        assert abs(fidelity_phi_plus(rho) - f_expected) < 1e-10

    def test_windowed_average_matches_time_quadrature(self):
        # independent oracle: Simpson average of the propagated matrices
        # against the truncated exponential delay density, at the shifts
        # +h_z and -h_z with weight 1/2 each
        s, h_z, t1, window = 0.8, 0.45, 430.0, 600.0
        times = np.linspace(0.0, window, 601)
        weights = np.exp(-times / t1)
        oracle = 0.0
        for shift in (h_z, -h_z):
            h = build_hamiltonian(s, shift)
            j, l, delta = exciton_eigensystem(h)
            psi0 = two_photon_state(j, l, delta, 0.0)
            rho0 = np.outer(psi0, psi0.conj())
            stack = np.array([propagate_rho(rho0, h, t) for t in times])
            oracle = oracle + 0.5 * simpson(weights[:, None, None] * stack, x=times, axis=0)
        oracle /= simpson(weights, x=times)
        assert np.abs(fixed_shift_rho(s, h_z, t1, window) - oracle).max() < 1e-7

    def test_short_window_limit(self):
        rho = fixed_shift_rho(1.3, 0.0, 430.0, window=1e-3)
        assert np.abs(rho - PHI_PLUS_RHO).max() < 1e-6

    # The phase average g is read through the kernel's moments at a shift
    # pair +-h (see pair_moments) and compared with moments built from an
    # independent g: the complex128 closed form, or a series.
    def test_phase_average_forms(self):
        delta, t1 = 1.2, 430.0

        def g(window):
            # At s = delta and h = 0, x = 1: the moments are (1, Re g,
            # 1 - Re g, Im g).
            moments = physical_moments(delta, np.zeros(1), t1, window, 1.0)
            assert abs(moments[2] - (1.0 - moments[1])) < 1e-15
            return complex(moments[1], moments[3])

        value = g(None)
        assert abs(value - 1.0 / (1.0 + 1j * delta * t1 / HBAR_UEV_PS)) < 1e-15
        # tiny window: no phase accrues yet
        assert abs(g(1e-6) - 1.0) < 1e-9
        # huge window recovers the unwindowed average
        assert abs(g(1e9) - value) < 1e-14
        # an array of shifts, one of them the degenerate point E = 0
        assert physical_moments(0.0, np.zeros(1), t1, None, 1.0).tolist() == [1.0, 1.0, 0.0, 0.0]
        both = physical_moments(0.0, np.array([0.0, 0.5 * delta]), t1, None, 1.0)
        assert abs(both[1] - (1.0 + value.real)) < 1e-15

    def test_windowed_phase_average_at_small_window(self):
        # window/T1 = 1.03e-4, where 1 - exp(-x) cancels to ~4 digits. The
        # reference sums (1 - exp(-x))/x = sum_k (-x)^k/(k+1)!, which has
        # converged to rounding after ten terms for |x| < 2e-3.
        def ratio(x):
            return sum((-x) ** k / math.factorial(k + 1) for k in range(10))

        def series(delta, t1, window):
            rate = 1.0 / t1 + 1j * np.asarray(delta) / HBAR_UEV_PS
            return ratio(rate * window) / ratio(window / t1)

        t1 = 430.0
        window = 1.03e-4 * t1
        deltas = np.array([0.0, 0.4, 0.9124, 3.0, 20.0])
        pairs = pair_moments(deltas, t1, window, series)
        for delta, (moments, expected) in zip(np.repeat(deltas, 2), pairs):
            assert np.abs(moments - expected).max() <= 2e-15 * abs(series(delta, t1, window))

    @hypothesis_settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        deltas=st.lists(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-100.0, 100.0)),
                        min_size=1, max_size=20),
        t1=st.floats(20.0, 3000.0),
        window_over_t1=st.one_of(st.none(), st.floats(1e-2, 50.0)),
    )
    def test_phase_average_against_complex_oracle(self, deltas, t1, window_over_t1):
        # Independent of the kernel's real arithmetic: complex128 closed forms.
        deltas = np.array(deltas)
        window = None if window_over_t1 is None else window_over_t1 * t1
        for moments, expected in pair_moments(deltas, t1, window):
            assert np.abs(moments - expected).max() <= 2e-15
        for delta in deltas:
            moments = physical_moments(abs(delta), np.zeros(1), t1, window, 1.0)  # x = 1
            assert abs(complex(moments[1], moments[3])) <= 1.0 + 2 * np.finfo(float).eps
            shift = physical_moments(0.0, np.array([0.5 * delta]), t1, window, 1.0)
            assert physical_moments(0.0, np.array([-0.5 * delta]), t1, window, 1.0).tobytes() == \
                shift.tobytes()
        assert physical_moments(0.0, np.zeros(1), t1, window, 1.0).tolist() == [1.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("t1, window", [(50.0, 1.0), (430.0, 350.0), (2000.0, 3000.0),
                                            (430.0, 1e5)])
    def test_phase_average_at_tan_poles_and_small_angles(self, t1, window):
        # The window rows take cos^2 and sin cos of beta = delta W/(2 hbar)
        # from t = tan(beta): near beta = (2k+1) pi/2, |t| is as large as a
        # float beta allows, and for beta <= 1e-8, t^2 is below the rounding
        # of 1 + t^2. Where beta^2 underflows, beta is 0 and takes the floor.
        poles = (2 * np.arange(51) + 1) * np.pi * HBAR_UEV_PS / window
        small = np.geomspace(1e-300, 1e-8, 60) * HBAR_UEV_PS / window
        deltas = np.concatenate([poles, np.nextafter(poles, np.inf),
                                 np.nextafter(poles, -np.inf), small, [0.0]])
        deltas = np.concatenate([deltas, -deltas])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = list(pair_moments(deltas, t1, window))
        assert max(np.abs(moments - expected).max() for moments, expected in pairs) <= 2e-15
        splitting_alone = [moments for moments, _ in pairs[::2]]  # x = 1
        assert max(abs(complex(m[1], m[3])) for m in splitting_alone) <= \
            1.0 + 2 * np.finfo(float).eps

    def test_valid_density_matrix(self):
        for window in (None, 120.0):
            rho = fixed_shift_rho(0.9, 0.6, 500.0, window)
            assert_density_matrix(rho)


class TestOverhauserSamples:
    def test_counter_based_subranges(self):
        full = overhauser_samples(987654321, 64)
        assert np.array_equal(full[10:30], overhauser_samples(987654321, 20, start=10))
        assert np.array_equal(full[:5], overhauser_samples(987654321, 5))

    # Every start % 4, the edge of a 4-word Philox block and of a chunk.
    @pytest.mark.parametrize("start", [*range(8), CHUNK_SAMPLES - 1, CHUNK_SAMPLES,
                                       CHUNK_SAMPLES + 1])
    def test_any_start_reads_the_matching_slice(self, start):
        full = overhauser_samples(2024, CHUNK_SAMPLES + 16)
        for n in (1, 5, 9):
            assert np.array_equal(overhauser_samples(2024, n, start), full[start:start + n])

    def test_one_philox_word_per_sample(self):
        # Sample i is ndtri of the top 52 bits of word i of stream (seed, 0).
        from scipy.special import ndtri

        raw = _philox(77, 0).random_raw(1001)
        uniforms = ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        assert np.array_equal(overhauser_samples(77, 1001), ndtri(uniforms))

    def test_deterministic(self):
        assert np.array_equal(overhauser_samples(42, 1000), overhauser_samples(42, 1000))

    def test_gaussian_moments(self):
        h = overhauser_samples(7, 400_000)
        assert abs(h.mean()) < 5 / np.sqrt(h.size)
        assert abs(h.std() - 1.0) < 5 / np.sqrt(2 * h.size)
        z = (h - h.mean()) / h.std()
        assert abs(np.mean(z**3)) < 5 * np.sqrt(6 / h.size)  # skewness
        assert abs(np.mean(z**4) - 3.0) < 5 * np.sqrt(24 / h.size)  # excess kurtosis

    def test_no_correlation_within_philox_blocks(self):
        # Four consecutive samples come from one 4-word Philox block.
        z = overhauser_samples(8, 400_000)
        z = (z - z.mean()) / z.std()
        for lag in range(1, 5):
            assert abs(np.mean(z[:-lag] * z[lag:])) < 5 / np.sqrt(z.size)

    def test_stream_pinned(self):
        # Bitwise values of the (seed, 0) stream past the first chunk.
        assert overhauser_samples(1234, 3, start=70_000).tolist() == [
            0.18787238702592074, -1.0929731285367696, -1.62089755224895,
        ]


class TestMomentAverage:
    # (s, window) pairs: degenerate and split doublets, the full average, the
    # series branch of a tiny window, a typical and a long window.
    CASES = [(s, window) for s in (0.0, 0.4, 3.0) for window in (None, 1e-3, 350.0, 1e5)]

    @pytest.mark.parametrize("s, window", CASES)
    def test_matches_outer_product_oracle(self, s, window):
        # The kernel's sums are even in h: they give the state of the shifts
        # symmetrized about 0, each of h and -h at half the weight.
        rng = np.random.default_rng(self.CASES.index((s, window)))
        shifts = np.concatenate([[0.0], rng.normal(scale=rng.uniform(0.05, 2.0), size=999)])
        weights = rng.uniform(size=shifts.size)
        weights /= weights.sum()
        moment = _rho_from_moments(physical_moments(s, shifts, 430.0, window, weights))
        expected = outer_product_rho(s, np.concatenate([shifts, -shifts]), 430.0, window,
                                     np.concatenate([weights, weights]) / 2)
        assert np.abs(moment - expected).max() <= 1e-13

    def test_single_shift_matches_oracle(self):
        for s, h in ((0.0, 0.0), (0.0, 0.7), (1.1, 0.0), (0.4, -2.5)):
            expected = outer_product_rho(s, [h, -h], 430.0, 350.0, [0.5, 0.5])
            assert np.abs(fixed_shift_rho(s, h, 430.0, 350.0) - expected).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, CHUNK_SAMPLES - 1, CHUNK_SAMPLES, CHUNK_SAMPLES + 1,
                                   3 * CHUNK_SAMPLES + 17])
    def test_chunk_boundaries(self, n):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=1.0)
        config = SimConfig(n_samples=n, seed=2024, window=350.0)
        shifts = params.sigma * overhauser_samples(config.seed, n)
        whole = _rho_from_moments(physical_moments(params.s, shifts, params.t1, config.window,
                                           np.full(n, 1.0 / n)))
        assert np.abs(monte_carlo_rho(params, config) - whole).max() <= 1e-13

    @pytest.mark.parametrize("n", [200_000, 2_000_000])
    def test_memory_bounded(self, n):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=1.0)
        tracemalloc.start()
        try:
            monte_carlo_rho(params, SimConfig(n_samples=n, seed=9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @hypothesis_settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        s=st.floats(0.0, 20.0),
        sigma=st.floats(0.0, 5.0),
        window=st.one_of(st.none(), st.floats(1e-4, 1e5)),
        quadrature=st.sampled_from(["monte_carlo", "gauss_hermite"]),
        k=st.floats(1e-6, 1.0),
    )
    def test_states_are_physical(self, s, sigma, window, quadrature, k):
        params = PhysicalParams(s=s, t1=430.0, sigma=sigma, k=k)
        rho = monte_carlo_rho(params, SimConfig(n_samples=5_000, seed=13, window=window,
                                                quadrature=quadrature))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.array_equal(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        mixed = apply_multipair_mixing(rho, params.k)
        m = metrics_from_rho(mixed)
        assert 0.0 <= m.fidelity <= 1.0
        assert 0.25 - 1e-12 <= m.purity <= 1.0 + 1e-12
        assert 0.0 <= m.concurrence <= 1.0 + 1e-12
        from_visibilities = fidelity_from_visibilities(*correlation_visibilities(mixed))
        assert abs(from_visibilities - m.fidelity) <= 1e-12

    @hypothesis_settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        s=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        sigma=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        t1=st.floats(20.0, 3000.0),
        window=st.one_of(st.none(), st.floats(1e-4, 1e5)),
        quadrature=st.sampled_from(["monte_carlo", "gauss_hermite"]),
    )
    def test_fidelity_reads_two_moments(self, s, sigma, t1, window, quadrature):
        # Before mixing, F = a + Re d = (<1> + <Re g>)/2 for any shift set.
        params = PhysicalParams(s=s, t1=t1, sigma=sigma, k=1.0)
        config = SimConfig(n_samples=3_000, seed=17, window=window, quadrature=quadrature)
        if quadrature == "gauss_hermite":
            nodes, weights = _normal_rule(config.gh_order)
            m = kernel_moments(nodes, _scaled(params, window), weights)
        else:
            m = per_point_moments(params, config)
        fidelity = metrics_from_rho(_rho_from_moments(m)).fidelity
        assert abs(fidelity - 0.5 * (m[0] + m[1])) <= 1e-15


def reference_moments(s, shifts, t1, window, weights, phase_average=closed_form_phase_average):
    """The four moment sums from g = phase_average(2E, t1, window), by
    default the complex128 closed form: a per-call array of x = s/(2E)
    (x = 1 at E = 0), and one pairwise sum of w and of w times each of
    Re g, x^2 (1 - Re g) and x Im g. The kernel sums the Lorentzian row L
    and, with a window, three window rows instead."""
    half = 0.5 * s
    energy = np.sqrt(half * half + shifts * shifts)
    x = np.divide(half, energy, out=np.ones_like(energy), where=energy > 0.0)
    g = phase_average(2.0 * energy, t1, window)
    w = np.broadcast_to(weights, shifts.shape)
    loss_x = (1.0 - g.real) * x
    terms = np.stack([g.real, x * loss_x, x * g.imag])
    return np.concatenate([[w.sum()], (terms * w).sum(axis=1)])


def pair_moments(deltas, t1, window, phase_average=closed_form_phase_average):
    """(kernel, reference) moment vectors at the shift pair +-h, weight 1/2
    each, for each splitting delta: first the splitting alone (s = |delta|,
    h = 0, so x = 1 and the moments are 1, Re g, 1 - Re g and Im g), then
    the shift alone (s = 0, h = delta/2, so x = 0)."""
    for delta in np.ravel(deltas):
        for s, h in ((abs(delta), 0.0), (0.0, 0.5 * delta)):
            shifts = np.array([h, -h])
            yield (physical_moments(s, shifts, t1, window, 0.5),
                   reference_moments(s, shifts, t1, window, 0.5, phase_average))


def longdouble_moment_rows(s, shifts, t1, window):
    """The per-shift terms of the last three moments, Re g, x^2 (1 - Re g)
    and Im g x, in np.longdouble arithmetic with x = 1 at E = 0. With
    w = 2 E T1/hbar, b = 2 E W/hbar, a = W/T1 and c = 1 - exp(-a), g is
    ((c + 2 exp(-a) sin^2(b/2)) + i exp(-a) sin b)/((1 + i w) c), and
    1/(1 + i w) without a window."""
    ld = np.longdouble
    h = shifts.astype(ld)
    half = ld(s) / 2
    energy = np.sqrt(half * half + h * h)
    nonzero = energy > 0
    x = np.where(nonzero, half / np.where(nonzero, energy, ld(1)), ld(1))
    w = 2 * energy * ld(t1) / ld(HBAR_UEV_PS)
    if window is None:
        decay, c, b = ld(0), ld(1), np.zeros_like(energy)
    else:
        a = ld(window) / ld(t1)
        decay, c, b = np.exp(-a), -np.expm1(-a), 2 * energy * ld(window) / ld(HBAR_UEV_PS)
    real = c + 2 * decay * np.sin(b / 2) ** 2
    imag = decay * np.sin(b)
    scale = 1 / ((1 + w * w) * c)
    re_g = (real + w * imag) * scale
    im_g = (imag - w * real) * scale
    return [re_g, x * x * (1 - re_g), im_g * x]


class TestMomentKernel:
    WINDOWS = (None, 1e-3, 350.0, 1e5)

    @staticmethod
    def chunks():
        """A full chunk, then a shorter tail; both hold an exact zero shift."""
        full = 0.6 * overhauser_samples(31, CHUNK_SAMPLES)
        tail = 0.6 * overhauser_samples(31, 999, start=CHUNK_SAMPLES)
        full[17] = tail[3] = 0.0
        return full, tail

    @staticmethod
    def assert_sums_close(moments, expected, weights, n):
        # 1e-15 of the weights' sum per moment: each sum adds terms of at
        # most one in magnitude times their weight.
        total = float(np.sum(np.broadcast_to(weights, (n,))))
        assert np.abs(moments - expected).max() <= 1e-15 * total

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("s", [0.0, 0.4])
    def test_used_workspace_equals_fresh_bytes(self, s, window):
        work = np.full((_WORK_ROWS, CHUNK_SAMPLES), np.nan)
        for shifts in self.chunks():
            weights = np.linspace(0.5, 1.5, shifts.size)
            for w in (1.0, weights):
                used = physical_moments(s, shifts, 430.0, window, w, work)
                fresh = physical_moments(s, shifts, 430.0, window, w)
                assert used.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("s", [0.0, 0.4, 3.0])
    def test_windowed_branch_equals_reference_bytes(self, s, window):
        # The kernel sums L and the window rows; the reference sums the rows
        # of x and the complex128 g. They agree within 1e-15 of the
        # weights' sum, with and without a window.
        for shifts in self.chunks():
            for w in (1.0, np.linspace(0.5, 1.5, shifts.size)):
                moments = physical_moments(s, shifts, 430.0, window, w)
                expected = reference_moments(s, shifts, 430.0, window, w)
                self.assert_sums_close(moments, expected, w, shifts.size)

    @hypothesis_settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        s=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        sigma=st.floats(1e-3, 5.0),
        t1=st.floats(20.0, 3000.0),
        order=st.integers(3, 64),
        sampled=st.booleans(),
    )
    def test_unwindowed_sums_match_reference(self, s, sigma, t1, order, sampled):
        # Odd Gauss-Hermite orders put a node at h = 0; the sampled shifts
        # carry an exact zero and uneven weights.
        if sampled:
            rng = np.random.default_rng(order)
            shifts = np.concatenate([[0.0], rng.normal(scale=sigma, size=40 * order)])
            weights = rng.uniform(0.1, 2.0, size=shifts.size)
        else:
            nodes, weights = _normal_rule(order)
            shifts = sigma * nodes
        moments = physical_moments(s, shifts, t1, None, weights)
        expected = reference_moments(s, shifts, t1, None, weights)
        self.assert_sums_close(moments, expected, weights, shifts.size)

    @pytest.mark.parametrize("t1", [20.0, 3000.0])
    @pytest.mark.parametrize("s", [0.0, 0.4, 2.0, 20.0])
    def test_unwindowed_sums_match_longdouble(self, s, t1):
        # 20 cases per window, without one and at four windows: five noise
        # widths, unit and uneven weights, with and without an exact zero
        # shift (at s = 0 the degenerate point E = 0).
        rng = np.random.default_rng(int(s) + int(t1))
        for window in (None, 1e-3, 350.0, 3000.0, 1e5):
            for sigma in (0.01, 0.1, 0.41, 1.0, 5.0):
                for uneven in (False, True):
                    for zero in (False, True):
                        shifts = rng.normal(scale=sigma, size=2_000)
                        if zero:
                            shifts[0] = 0.0
                        weights = rng.uniform(0.1, 2.0, size=shifts.size) if uneven else 1.0
                        w = np.broadcast_to(weights, shifts.shape).astype(np.longdouble)
                        rows = longdouble_moment_rows(s, shifts, t1, window)
                        expected = [w.sum()] + [(w * row).sum() for row in rows]
                        moments = physical_moments(s, shifts, t1, window, weights)
                        error = max(abs(np.longdouble(m) - e) for m, e in zip(moments, expected))
                        assert error <= 1e-15 * w.sum()

    def test_finite_where_c_overflows(self):
        # Above T1 = ~4.4e156 ps, c = (2 T1/hbar)^2 overflows while p =
        # T1 s/hbar need not: at s = 3e-154 ueV and h = 0, Re g is 0.046.
        shifts = np.zeros(1)
        moments = physical_moments(3e-154, shifts, 1e157, None, 1.0)
        self.assert_sums_close(moments, reference_moments(3e-154, shifts, 1e157, None, 1.0),
                               1.0, 1)
        assert abs(moments[1] - 0.0459) < 1e-4

    @pytest.mark.parametrize("weight", [1.0, 0.3, np.array([0.3])])
    def test_degenerate_point(self, weight):
        # s = h = 0: x = 1 and g = 1.
        w = float(np.sum(weight))
        for t1 in (20.0, 430.0, 3000.0):
            moments = physical_moments(0.0, np.zeros(1), t1, None, weight)
            assert moments.tolist() == [w, w, 0.0, 0.0]
            # At s = 1e-170 ueV, s^2 underflows to 0: the same point.
            moments = physical_moments(1e-170, np.zeros(1), t1, None, weight)
            self.assert_sums_close(moments, [w, w, 0.0, 0.0], weight, 1)
            # At s = 1e-160 ueV, s^2/4 is subnormal.
            rho = _rho_from_moments(physical_moments(1e-160, np.zeros(1), t1, None, weight) / w)
            assert np.abs(rho - PHI_PLUS_RHO).max() <= 1e-15

    @pytest.mark.parametrize("order", [3, 33, 63])
    def test_degenerate_node_of_odd_orders(self, order):
        # At s = 0 the middle node h = 0 is the degenerate point, where
        # g = 1; every other node has x = 0, so the two sums holding x are 0.
        nodes, weights = _normal_rule(order)
        assert nodes[order // 2] == 0.0
        moments = physical_moments(0.0, 0.41 * nodes, 430.0, None, weights)
        assert moments[[2, 3]].tolist() == [0.0, 0.0]
        expected = reference_moments(0.0, 0.41 * nodes, 430.0, None, weights)
        self.assert_sums_close(moments, expected, weights, order)

    @hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        s=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        shifts=st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=1, max_size=30),
        t1=st.floats(20.0, 3000.0),
        window=st.one_of(st.none(), st.floats(1e-3, 1e5)),
        uneven=st.booleans(),
    )
    def test_sums_are_even_in_the_shift_bytes(self, s, shifts, t1, window, uneven):
        # Every sum is even in h, so h -> -h leaves each byte of the moment
        # vector, in both branches and for array and scalar weights.
        shifts = np.array(shifts)
        weights = np.linspace(0.5, 1.5, shifts.size) if uneven else 0.7
        moments = physical_moments(s, shifts, t1, window, weights)
        assert moments.shape == (4,)
        assert physical_moments(s, -shifts, t1, window, weights).tobytes() == moments.tobytes()


class TestMonteCarloRho:
    def test_zero_sigma_equals_fixed_shift(self):
        params = PhysicalParams(s=0.8, t1=430.0, sigma=0.0, k=1.0)
        config = SimConfig(n_samples=1000, seed=5)
        assert np.array_equal(
            monte_carlo_rho(params, config), fixed_shift_rho(0.8, 0.0, 430.0)
        )

    def test_bitwise_deterministic(self):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        for config in (SimConfig(n_samples=20_000, seed=77),
                       SimConfig(n_samples=3 * CHUNK_SAMPLES + 17, seed=5, window=350.0),
                       SimConfig(quadrature="gauss_hermite", window=350.0)):
            assert monte_carlo_rho(params, config).tobytes() == monte_carlo_rho(params, config).tobytes()

    def test_valid_density_matrix(self):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        for window in (None, 350.0):
            config = SimConfig(n_samples=20_000, seed=3, window=window)
            rho = monte_carlo_rho(params, config)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert_density_matrix(rho)

    def test_gauss_hermite_close_to_monte_carlo(self):
        params = PhysicalParams(s=0.6, t1=430.0, sigma=0.5, k=1.0)
        mc = monte_carlo_rho(params, SimConfig(n_samples=200_000, seed=11))
        gh = monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite"))
        assert np.abs(mc - gh).max() < 5e-3

    def test_gauss_hermite_nodes_cached_read_only(self):
        params = PhysicalParams(s=0.6, t1=430.0, sigma=0.5, k=1.0)
        config = SimConfig(quadrature="gauss_hermite", gh_order=24)
        first = monte_carlo_rho(params, config)
        nodes, weights = _normal_rule(24)
        assert _normal_rule(24)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0
        # The physicists' rule, for the weight exp(-x^2), scaled to N(0, 1).
        x, w = np.polynomial.hermite.hermgauss(24)
        fresh_nodes, fresh_weights = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
        assert np.array_equal(nodes, fresh_nodes) and np.array_equal(weights, fresh_weights)
        uncached = _rho_from_moments(kernel_moments(fresh_nodes, _scaled(params, None), fresh_weights))
        assert np.array_equal(first, uncached)
        assert np.array_equal(monte_carlo_rho(params, config), first)

    def test_normal_rule(self):
        # Order 1 is the sigma = 0 point. The kernel's sums are even in the
        # shift bytes, so bitwise symmetric nodes keep the state an X state;
        # the rule integrates 1, z^2 and z^4 of N(0, 1).
        nodes, weights = _normal_rule(1)
        assert (nodes.tolist(), weights.tolist()) == ([0.0], [1.0])
        for order in range(3, 65):
            nodes, weights = _normal_rule(order)
            assert np.array_equal(nodes[::-1], -nodes), order
            assert not nodes.flags.writeable and not weights.flags.writeable
            assert _normal_rule(order)[1] is weights
            assert abs(weights.sum() - 1.0) <= 4.4e-16, order
            assert abs(weights @ nodes**2 - 1.0) <= 1e-13, order
            assert abs(weights @ nodes**4 - 3.0) <= 1e-13, order

    @hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        s=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        sigma=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        t1=st.floats(20.0, 3000.0),
        order=st.integers(3, 64),
        window=st.one_of(st.none(), st.floats(1e-3, 10.0), st.floats(1e3, 1e7)),
        k=st.floats(1e-6, 1.0),
        quadrature=st.sampled_from(QUADRATURE_MODES),
    )
    def test_concurrence_of_x_states(self, s, sigma, t1, order, window, k, quadrature):
        # The shift distribution N(0, sigma) is symmetric in h, so the
        # state is an X state in every mode: the eight entries between the
        # HH/VV and HV/VH blocks are exact zeros, and C = 2 max(0, |d| - b,
        # b - a) with a, b, d = rho_11, rho_22, |rho_14|.
        params = PhysicalParams(s=s, t1=t1, sigma=sigma, k=k)
        config = SimConfig(n_samples=2_000, seed=29, quadrature=quadrature, gh_order=order,
                           window=window)
        unmixed = monte_carlo_rho(params, config)
        rho = apply_multipair_mixing(unmixed, k)
        for state in (unmixed, rho):
            assert state[np.ix_([0, 3], [1, 2])].tolist() == [[0.0, 0.0]] * 2
            assert state[np.ix_([1, 2], [0, 3])].tolist() == [[0.0, 0.0]] * 2
        a, b, d = rho[0, 0].real, rho[1, 1].real, abs(rho[0, 3])
        x_form = 2.0 * max(0.0, d - b, b - a)
        assert abs(metrics_from_rho(rho).concurrence - x_form) <= 1e-12

    def test_fidelity_monotone_in_each_parameter(self):
        # same seed couples the draws, so monotonicity holds per sample
        config = SimConfig(n_samples=4000, seed=19)

        def fid(s, sigma, t1):
            params = PhysicalParams(s=s, t1=t1, sigma=sigma, k=1.0)
            return fidelity_phi_plus(monte_carlo_rho(params, config))

        for sigma in (0.0, 0.4, 1.0):
            values = [fid(s, sigma, 430.0) for s in (0.0, 0.4, 1.0, 2.0)]
            assert np.all(np.diff(values) <= 1e-12)
        for s in (0.0, 0.7):
            values = [fid(s, sigma, 430.0) for sigma in (0.0, 0.3, 0.8, 1.6)]
            assert np.all(np.diff(values) <= 1e-12)
        for s, sigma in ((0.5, 0.3), (0.0, 0.6)):
            values = [fid(s, sigma, t1) for t1 in (100.0, 300.0, 700.0)]
            assert np.all(np.diff(values) <= 1e-12)

    # The model reads s, sigma, T1 and W only through p = T1 s/hbar,
    # r = 2 T1 sigma/hbar and a = W/T1 (rho_w = W sigma/hbar = a r/2), so
    # scaling T1 and W by lam and s and sigma by 1/lam keeps the state. A
    # power of two scales each factor of the constants exactly.
    SCALE_INPUTS = {
        "s": st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
        "sigma": st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        "t1": st.floats(20.0, 3000.0),
        "window": st.one_of(st.none(), st.floats(1e-3, 1e5)),
        "quadrature": st.sampled_from(QUADRATURE_MODES),
    }

    @staticmethod
    def scaled_states(s, sigma, t1, window, quadrature, lam):
        config = SimConfig(n_samples=2_000, seed=37, window=window, quadrature=quadrature)
        state = monte_carlo_rho(PhysicalParams(s=s, t1=t1, sigma=sigma, k=1.0), config)
        scaled = monte_carlo_rho(PhysicalParams(s=s / lam, t1=t1 * lam, sigma=sigma / lam, k=1.0),
                                 replace(config, window=None if window is None else window * lam))
        return state, scaled

    @hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
    @given(exponent=st.integers(-20, 20), **SCALE_INPUTS)
    def test_power_of_two_scale_keeps_the_bytes(self, s, sigma, t1, window, quadrature, exponent):
        state, scaled = self.scaled_states(s, sigma, t1, window, quadrature, 2.0**exponent)
        assert scaled.tobytes() == state.tobytes()

    @hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
    @given(lam=st.floats(0.1, 10.0), **SCALE_INPUTS)
    def test_any_scale_keeps_the_state(self, s, sigma, t1, window, quadrature, lam):
        state, scaled = self.scaled_states(s, sigma, t1, window, quadrature, lam)
        assert np.abs(scaled - state).max() <= 1e-15


def per_point_moments(params, config):
    """The per-point Monte Carlo loop: each point draws its own normals
    ndtri(u), chunk by chunk, and averages their moments."""
    sums = np.zeros(4)
    n = config.n_samples
    point = _scaled(params, config.window)
    for start in range(0, n, CHUNK_SAMPLES):
        normals = overhauser_samples(config.seed, min(CHUNK_SAMPLES, n - start), start)
        sums += kernel_moments(normals, point, 1.0)
    return sums / n


class TestMonteCarloRhos:
    # sigma = 0, Gauss-Hermite and Monte Carlo points, with and without a
    # window; the Gauss-Hermite point's seed differs, which is allowed.
    POINTS = [
        (0.4, 0.41, None, "monte_carlo"),
        (0.0, 0.0, 350.0, "monte_carlo"),
        (3.0, 1.0, 350.0, "monte_carlo"),
        (0.7, 0.3, 256.0, "gauss_hermite"),
        (0.0, 0.05, 1e-3, "monte_carlo"),
        (1.2, 0.0, None, "gauss_hermite"),
        (0.4, 0.41, 3000.0, "monte_carlo"),
        # Points that share the grid's per-sample rows: r = 2 T1 sigma/hbar
        # without s, one dot at several windows, exact duplicates, and
        # s = -0.0 next to s = 0, whose L is shared and whose last moment's
        # signed zero is not.
        (1.0, 0.41, None, "monte_carlo"),
        (3.0, 0.41, 350.0, "monte_carlo"),
        (0.4, 0.41, 100.0, "monte_carlo"),
        (0.4, 0.41, 350.0, "monte_carlo"),
        (0.4, 0.41, None, "monte_carlo"),
        (3.0, 1.0, 350.0, "monte_carlo"),
        (-0.0, 0.05, 1e-3, "monte_carlo"),
        (0.0, 0.3, 256.0, "gauss_hermite"),
        (-0.0, 0.3, 256.0, "gauss_hermite"),
        (0.7, 0.3, 256.0, "gauss_hermite"),
        (0.7, 0.3, None, "gauss_hermite"),
    ]
    # Where (r z)^2 overflows, L is 0, in the rows the point shares too.
    HUGE_SIGMA_POINTS = [
        (0.4, 1e300, None, "monte_carlo"),
        (0.4, 1e300, 350.0, "monte_carlo"),
        (1.0, 1e300, None, "monte_carlo"),
        (0.4, 1e300, None, "gauss_hermite"),
    ]

    @staticmethod
    def points(n, seed=2024, table=POINTS):
        return [(PhysicalParams(s=s, t1=430.0, sigma=sigma, k=0.99),
                 SimConfig(n_samples=n, seed=seed + (quadrature == "gauss_hermite"),
                           window=window, quadrature=quadrature))
                for s, sigma, window, quadrature in table]

    @pytest.mark.parametrize("n", [1, CHUNK_SAMPLES - 1, CHUNK_SAMPLES + 1,
                                   3 * CHUNK_SAMPLES + 17])
    def test_equals_per_point_bytes(self, n):
        self.assert_per_point_bytes(self.points(n))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, CHUNK_SAMPLES - 1, CHUNK_SAMPLES + 1,
                                   3 * CHUNK_SAMPLES + 17])
    def test_overflowing_point_equals_per_point_bytes(self, n):
        huge = self.points(n, table=self.HUGE_SIGMA_POINTS)
        self.assert_per_point_bytes(huge[:1] + self.points(n) + huge[1:])

    @staticmethod
    def assert_per_point_bytes(points):
        rhos = monte_carlo_rhos(points)
        assert len(rhos) == len(points)
        for (params, config), rho in zip(points, rhos):
            assert rho.tobytes() == monte_carlo_rho(params, config).tobytes()
            if params.sigma > 0 and config.quadrature == "monte_carlo":
                assert rho.tobytes() == _rho_from_moments(per_point_moments(params, config)).tobytes()

    def test_empty(self):
        assert monte_carlo_rhos([]) == []

    @pytest.mark.parametrize("change", [{"seed": 7}, {"n_samples": 999}])
    def test_monte_carlo_points_must_share_stream(self, change):
        points = self.points(1000)
        params, config = points[0]
        with pytest.raises(ValueError, match="seed and n_samples"):
            monte_carlo_rhos(points + [(params, replace(config, **change))])
        # sigma = 0 and Gauss-Hermite points draw nothing, so they may differ.
        zero = PhysicalParams(s=0.4, t1=430.0, sigma=0.0, k=1.0)
        gh = replace(config, quadrature="gauss_hermite", **change)
        assert len(monte_carlo_rhos(points + [(zero, replace(config, **change)),
                                              (params, gh)])) == len(points) + 2

    def test_memory_bounded_for_a_sweep_grid(self):
        # The 84 points of a 21-row sweep: four sigma bands per splitting.
        config = SimConfig(n_samples=200_000, seed=9)
        points = [(PhysicalParams(s=float(s), t1=430.0, sigma=sigma, k=1.0), config)
                  for s in np.linspace(0.0, 2.0, 21)
                  for sigma in (0.0, sigma_from_t2star(3.2), sigma_from_t2star(1.7),
                                sigma_from_t2star(1.0))]
        tracemalloc.start()
        try:
            rhos = monte_carlo_rhos(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rhos) == 84
        assert peak < 32 * 2**20

    def test_memory_bounded_for_a_window_sweep_grid(self):
        # The six windows of the benchmark's window-sweep, on one dot.
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=1.0)
        points = [(params, SimConfig(n_samples=200_000, seed=9, window=window))
                  for window in (100.0, 200.0, 350.0, 500.0, 1000.0, 3000.0)]
        tracemalloc.start()
        try:
            rhos = monte_carlo_rhos(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rhos) == 6
        assert peak < 32 * 2**20


class TestWindowRange:
    # A window's rows carry c2 = a/expm1(a), a = W/T1: the window is the
    # full average once exp(-W/T1) underflows, and c2 stays finite down to
    # a = 0, where it is 1.
    CONFIGS = {
        "monte_carlo": SimConfig(n_samples=CHUNK_SAMPLES + 17, seed=8),
        "gauss_hermite": SimConfig(quadrature="gauss_hermite", gh_order=33),
    }

    @staticmethod
    def state(s, sigma, rule, window):
        params = PhysicalParams(s=s, t1=430.0, sigma=sigma, k=1.0)
        return monte_carlo_rho(params, replace(TestWindowRange.CONFIGS[rule], window=window))

    # At s = 3e3 ueV and W = 1.7e308 ps, b = 2 E W/hbar overflows.
    @pytest.mark.parametrize("window", [1e6, 1e300, 1.7e308])
    @pytest.mark.parametrize("rule", ["monte_carlo", "gauss_hermite", "zero_sigma"])
    @pytest.mark.parametrize("s", [0.0, 0.4, 3e3])
    def test_long_window_is_the_full_average_bytes(self, s, rule, window):
        sigma = 0.0 if rule == "zero_sigma" else 0.41
        rule = "monte_carlo" if rule == "zero_sigma" else rule
        full = self.state(s, sigma, rule, None)
        assert self.state(s, sigma, rule, window).tobytes() == full.tobytes()

    # Below ~9.6e-306 ps, W/T1 is subnormal; at 1e-321 ps, it is exactly 0.
    @pytest.mark.parametrize("window", [1e-300, 5e-306, 4e-306, 1e-307, 1e-310, 1e-321])
    @pytest.mark.parametrize("rule", ["monte_carlo", "gauss_hermite"])
    def test_tiny_window_is_the_bell_state(self, rule, window):
        for s in (0.0, 0.4):
            m = metrics_from_rho(self.state(s, 0.41, rule, window))
            assert max(abs(m.fidelity - 1.0), abs(m.purity - 1.0),
                       abs(m.concurrence - 1.0)) <= 1e-12


HUGE_SIGMA_WINDOWS = (None, 1e-3, 350.0, 3000.0)


def with_windows(values):
    """(value, window) cases for each of HUGE_SIGMA_WINDOWS; an unwindowed
    case keeps the id of its value alone."""
    return [pytest.param(value, window, id=str(value) if window is None else f"{value}-W{window}")
            for window in HUGE_SIGMA_WINDOWS for value in values]


class TestSigmaRange:
    # The kernel reads L = 1/(1 + p^2 + (r z)^2), r z = 2 T1 h/hbar: where
    # r z or its square overflows, L is 0. A window's angle beta = E W/hbar
    # is formed from rho_w z, rho_w = W sigma/hbar, so it overflows only
    # where beta itself does; it is then clipped to the largest double,
    # where the window rows are ~0. r and rho_w are finite, and z is, so
    # with or without a window the average stays finite for any sigma.
    CONFIGS = TestWindowRange.CONFIGS

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sigma, window", with_windows([1e154, 1e300]))
    def test_huge_sigma_monte_carlo_is_the_incoherent_state(self, sigma, window):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=sigma, k=1.0)
        config = replace(self.CONFIGS["monte_carlo"], window=window)
        rho = assert_density_matrix(monte_carlo_rho(params, config))
        assert abs(metrics_from_rho(rho).fidelity - 0.5) <= 1e-15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("s, window", with_windows([0.0, 1e-3, 0.4]))
    def test_huge_sigma_gauss_hermite_keeps_the_middle_node(self, s, window):
        # Only the node at h = 0, of weight w, keeps its coherence:
        # F = (1 + w Re g(s/2))/2. The outer rows r z overflow to inf, and
        # the middle node stays at z = 0 up to the largest sigma.
        config = replace(self.CONFIGS["gauss_hermite"], window=window)
        middle = _normal_rule(33)[1][16]
        re_g = closed_form_phase_average(s, 430.0, window).real
        for sigma in (1e300, 1.3e308, 1.7e308):
            params = PhysicalParams(s=s, t1=430.0, sigma=sigma, k=1.0)
            rho = assert_density_matrix(monte_carlo_rho(params, config))
            fidelity = metrics_from_rho(rho).fidelity
            assert abs(fidelity - 0.5 * (1.0 + middle * re_g)) <= 1e-15, sigma

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_q_h_is_the_incoherent_state(self):
        # At T1 = 1e6 ps, 2 T1 h/hbar overflows where h = sigma z does not;
        # L = 0 there.
        params = PhysicalParams(s=0.4, t1=1e6, sigma=1e305, k=1.0)
        for window in HUGE_SIGMA_WINDOWS:
            config = replace(self.CONFIGS["monte_carlo"], window=window)
            rho = assert_density_matrix(monte_carlo_rho(params, config))
            assert abs(metrics_from_rho(rho).fidelity - 0.5) <= 1e-15, window

    # Where (2 T1 h/hbar)^2 overflows and L is 0, a window short enough to
    # keep beta = E W/hbar small still keeps the coherence, also at
    # T1 = 1e6 ps and sigma = 1e304 ueV, where 2 T1 h/hbar itself
    # overflows on the outer nodes.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t1, sigma, window", [
        *(pytest.param(430.0, 1e300, window, id=str(window))
          for window in (1e-303, 1e-300, 1e-298)),
        pytest.param(1e6, 1e304, 1e-302, id="T1e6-sigma1e304-W1e-302"),
    ])
    def test_short_window_at_huge_sigma_against_closed_form(self, t1, sigma, window):
        params = PhysicalParams(s=0.4, t1=t1, sigma=sigma, k=1.0)
        config = replace(self.CONFIGS["gauss_hermite"], window=window)
        rho = assert_density_matrix(monte_carlo_rho(params, config))
        nodes, weights = _normal_rule(33)
        splitting = 2.0 * np.hypot(0.2, sigma * nodes)
        re_g = closed_form_phase_average(splitting, t1, window).real
        expected = 0.5 * (1.0 + weights @ re_g)
        assert abs(metrics_from_rho(rho).fidelity - expected) <= 1e-15

    # Where W/hbar underflows to 0, so does rho_w, and every value keeps
    # its coherence: the moments are the Bell limit (1, 1, 0, -0), where an
    # overflowed shift sigma z times W/hbar = 0 once gave nan.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("window", [1e-321, 5e-324])
    @pytest.mark.parametrize("rule, sigma", [("gauss_hermite", 3e307), ("monte_carlo", 1.7e308)])
    def test_window_below_hbar_resolution_is_the_bell_limit(self, rule, sigma, window):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=sigma, k=1.0)
        if rule == "gauss_hermite":
            config = replace(self.CONFIGS[rule], window=window)
            nodes, weights = _normal_rule(33)
            moments = kernel_moments(nodes, _scaled(params, window), weights)
        else:
            config = SimConfig(n_samples=1_000, seed=3, window=window)
            moments = per_point_moments(params, config)
        assert np.abs(moments - [1.0, 1.0, 0.0, 0.0]).max() <= 4.4e-16
        rho = assert_density_matrix(monte_carlo_rho(params, config))
        assert np.abs(rho - PHI_PLUS_RHO).max() <= 1e-15


class TestMixing:
    def test_identity_at_k_one(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(rng)
        assert np.array_equal(apply_multipair_mixing(rho, 1.0), rho)

    def test_small_k_limit(self):
        mixed = apply_multipair_mixing(PHI_PLUS_RHO, 1e-14)
        assert np.abs(mixed - np.eye(4) / 4.0).max() < 1e-13

    def test_werner_metrics_against_eigensolve_oracle(self):
        k = 0.99
        werner = apply_multipair_mixing(PHI_PLUS_RHO, k)
        assert abs(fidelity_phi_plus(werner) - (3 * k + 1) / 4) < 1e-12
        assert abs(purity(werner) - (k * k + (1 - k * k) / 4)) < 1e-12
        # brute-force spectrum of rho rho~ as an independent route
        yy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
        lam = np.sqrt(np.sort(np.abs(np.linalg.eigvals(werner @ yy @ werner.conj() @ yy)))[::-1])
        oracle = max(0.0, 2 * lam[0] - lam.sum())
        assert abs(oracle - (3 * k - 1) / 2) < 1e-10
        assert abs(concurrence(werner) - oracle) < 1e-10

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            apply_multipair_mixing(PHI_PLUS_RHO, 0.0)
        with pytest.raises(ValueError):
            apply_multipair_mixing(PHI_PLUS_RHO, 1.2)


class TestConversions:
    def test_k_from_g2_reference_inputs(self):
        assert abs(k_from_g2(0.009, 0.002, 0.70) - 0.996150) < 1e-9

    def test_k_from_g2_bounds(self):
        assert k_from_g2(0.0, 0.0, 1.0) == 1.0
        assert k_from_g2(1.0, 1.0, 1.0) == 0.0

    def test_sigma_from_t2star_values(self):
        assert abs(sigma_from_t2star(1.7) - 0.3872) < 1e-4
        assert abs(sigma_from_t2star(2.6) - 0.2532) < 1e-4
        assert sigma_from_t2star(np.inf) == 0.0

    def test_coherence_loss_values(self):
        assert abs(coherence_loss(PhysicalParams(s=0.0, t1=230.0, t2_star=2.6, k=1.0))
                   - 0.0078) < 1e-5
        assert abs(coherence_loss(PhysicalParams(s=0.0, t1=420.0, t2_star=1.7, k=1.0))
                   - 0.0592) < 1e-4
        assert coherence_loss(PhysicalParams(s=0.0, t1=1e-9, t2_star=1.7, k=1.0)) < 1e-12


class TestAnalyticFidelity:
    def test_perfect_limit(self):
        assert analytic_fidelity(PhysicalParams(s=0.0, t1=430.0, sigma=0.0, k=1.0)) == 1.0

    def test_large_splitting_limit(self):
        k = 0.9
        params = PhysicalParams(s=1e9, t1=430.0, sigma=0.0, k=k)
        assert abs(analytic_fidelity(params) - (1 + k) / 4) < 1e-12

    def test_reference_point(self):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        assert abs(analytic_fidelity(params) - 0.8148) < 1e-4


def _params(**inputs):
    """The reference dot with some inputs replaced; None drops an input."""
    kwargs = {"s": 0.4, "t1": 430.0, "sigma": 0.41, "k": 0.99, **inputs}
    return PhysicalParams(**{key: value for key, value in kwargs.items() if value is not None})


class TestPublicInputChecks:
    # n and start count samples; a float or a bool is not a count.
    @pytest.mark.parametrize("call, message", [
        (lambda: overhauser_samples(1, 2.5), "n must be an integer"),
        (lambda: overhauser_samples(1, True), "n must be an integer"),
        (lambda: overhauser_samples(1, 4, 1.5), "start must be an integer"),
        (lambda: overhauser_samples(1, 0), "n must be >= 1"),
        (lambda: overhauser_samples(1, 4, -1), "start must be >= 0"),
        (lambda: k_from_g2(-0.1, 0.0, 0.7), "g2_xx must lie in"),
        (lambda: k_from_g2(0.0, 1.5, 0.7), "g2_x must lie in"),
        (lambda: k_from_g2(0.0, 0.0, 0.0), "eta_p must lie in"),
        (lambda: k_from_g2(0.0, 0.0, 1.5), "eta_p must lie in"),
        (lambda: _params(sigma=-0.1), "sigma must be >= 0"),
        (lambda: _params(k=None), "provide k, or all of g2_xx, g2_x and eta_p"),
        (lambda: _params(k=0.0), r"k must lie in \(0, 1\]"),
        (lambda: _params(k=1.5), r"k must lie in \(0, 1\]"),
        # A k derived from g2 is named by the inputs it came from.
        (lambda: _params(k=None, g2_xx=1.0, g2_x=1.0, eta_p=1.0),
         r"^k from g2_xx, g2_x and eta_p must lie in \(0, 1\]$"),
        (lambda: _params(t1_xx=0.0), "t1_xx must be > 0"),
        (lambda: _params(tau_s=-1.0), "tau_s must be > 0"),
        (lambda: _params(k=None, g2_xx=0.009, eta_p=0.7), "^g2_x is missing"),
        (lambda: _params(g2_xx=0.009, g2_x=0.002), "^eta_p is missing"),
        (lambda: _params(g2_xx=0.009, g2_x=0.002, eta_p=0.7),
         r"^k=0.99 disagrees with k from g2_xx, g2_x and eta_p = 0.996150$"),
    ])
    def test_rejects_non_finite_and_non_positive(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call()


# Unchecked, each bool ran as 1.0.
_BOOL_INPUTS = {
    "SimConfig.window": lambda value: SimConfig(window=value),
    "PhysicalParams.s": lambda value: PhysicalParams(s=value, t1=430.0, sigma=0.41, k=0.99),
    "PhysicalParams.k": lambda value: PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=value),
    "PhysicalParams.eta_p": lambda value: PhysicalParams(s=0.4, t1=430.0, sigma=0.41,
                                                         g2_xx=0.0, g2_x=0.0, eta_p=value),
    "sigma_from_t2star": lambda value: sigma_from_t2star(value),
    "k_from_g2": lambda value: k_from_g2(0.0, 0.0, value),
    "PhysicalParams.t1": lambda value: PhysicalParams(s=0.4, t1=value, sigma=0.41, k=0.99),
    "simulate_counts": lambda value: simulate_counts(np.eye(4) / 4.0,
                                                     standard_settings("six_basis"), value),
    "CountRecord": lambda value: CountRecord(standard_settings("six_basis")[0], 5, value),
    "apply_multipair_mixing": lambda value: apply_multipair_mixing(np.eye(4) / 4.0, value),
    "fidelity_from_visibilities": lambda value: fidelity_from_visibilities(0.9, 0.9, value),
}


@pytest.mark.parametrize("value", [True, np.bool_(True)])
@pytest.mark.parametrize("call", _BOOL_INPUTS)
def test_float_inputs_reject_bools(call, value):
    with pytest.raises(ValueError, match=rf"must be a number, got {value!r}$"):
        _BOOL_INPUTS[call](value)


class TestPhysicalParams:
    def test_sigma_resolved_from_t2star(self):
        params = PhysicalParams(s=0.4, t1=430.0, t2_star=1.6, k=0.99)
        assert abs(params.sigma - HBAR_UEV_PS / 1600.0) < 1e-12

    def test_sigma_t2star_consistency_enforced(self):
        PhysicalParams(s=0.4, t1=430.0, sigma=HBAR_UEV_PS / 1600.0, t2_star=1.6, k=0.99)
        with pytest.raises(ValueError):
            PhysicalParams(s=0.4, t1=430.0, sigma=0.5, t2_star=1.6, k=0.99)

    def test_sigma_agreement_is_relative_above_1_uev(self):
        # hbar/T2* = 65.821196 ueV at T2* = 0.01 ns: 65.8212 is off by 6.5e-8
        # of it, which passes; an error of 1e-5 of it does not.
        params = PhysicalParams(s=0.4, t1=430.0, sigma=65.8212, t2_star=0.01, k=0.99)
        assert params.sigma == 65.8212
        with pytest.raises(ValueError, match=r"^sigma=65.82\d* disagrees with hbar/T2\*"):
            PhysicalParams(s=0.4, t1=430.0, sigma=HBAR_UEV_PS / 10.0 * (1.0 + 1e-5),
                           t2_star=0.01, k=0.99)

    def test_k_resolved_from_g2(self):
        params = PhysicalParams(s=0.0, t1=230.0, sigma=0.25, g2_xx=0.009, g2_x=0.002, eta_p=0.70)
        assert abs(params.k - 0.996150) < 1e-9

    def test_rejects_conflicting_k_inputs(self):
        with pytest.raises(ValueError):
            PhysicalParams(s=0.0, t1=230.0, sigma=0.25, k=0.9, g2_xx=0.01, g2_x=0.01, eta_p=0.7)

    def test_accepts_k_that_agrees_with_g2(self):
        implied = k_from_g2(0.009, 0.002, 0.70)
        for k in (implied, implied + 0.9e-6, 0.99615):
            params = PhysicalParams(s=0.0, t1=230.0, sigma=0.25, k=k,
                                    g2_xx=0.009, g2_x=0.002, eta_p=0.70)
            assert params.k == k

    # A params keeps both forms of sigma and of k, and they agree, so replace
    # works from every input form.
    @pytest.mark.parametrize("inputs", [
        {"sigma": 0.41, "k": 0.99},
        {"t2_star": 1.6, "k": 0.99},
        {"sigma": 0.41, "g2_xx": 0.009, "g2_x": 0.002, "eta_p": 0.7},
        {"t2_star": 1.6, "g2_xx": 0.009, "g2_x": 0.002, "eta_p": 0.7},
    ], ids=["sigma-k", "t2star-k", "sigma-g2", "t2star-g2"])
    def test_replace_round_trip(self, inputs):
        params = PhysicalParams(s=0.4, t1=430.0, **inputs)
        assert replace(params, s=0.5) == PhysicalParams(s=0.5, t1=430.0, **inputs)
        assert replace(params) == params

    def test_replace_t2star(self):
        params = PhysicalParams(s=0.4, t1=430.0, t2_star=1.6, k=0.99)
        assert (replace(params, sigma=None, t2_star=2.0)
                == PhysicalParams(s=0.4, t1=430.0, t2_star=2.0, k=0.99))
        with pytest.raises(ValueError, match="disagrees with hbar/T2"):
            replace(params, t2_star=2.0)

    def test_requires_some_noise_input(self):
        with pytest.raises(ValueError):
            PhysicalParams(s=0.4, t1=430.0, k=0.99)

    # Unchecked, each of these gives a non-finite monte_carlo_rho. Below
    # about 3.7e-309 ns, hbar/T2* overflows to an infinite sigma.
    @pytest.mark.parametrize("field, value", [
        ("s", math.nan), ("t1", math.inf), ("sigma", math.nan), ("sigma", math.inf),
        ("t2_star", 1e-320),
    ])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"s": 0.4, "t1": 430.0, "sigma": 0.41, "k": 0.99, field: value}
        message = (r"sigma must be finite, got hbar/T2\* = inf from t2_star=1e-320$"
                   if field == "t2_star" else f"{field} must be finite")
        with pytest.raises(ValueError, match=message):
            PhysicalParams(**kwargs)

    def test_frozen_spin_warning(self):
        with pytest.warns(UserWarning, match="frozen-spin") as record:
            PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99, tau_s=0.001)
        # The warning points at the line that built the dot.
        assert [entry.filename for entry in record] == [__file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99, tau_s=100.0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_samples=0)
        with pytest.raises(ValueError):
            SimConfig(window=0.0)
        with pytest.raises(ValueError):
            SimConfig(quadrature="simpson")
        with pytest.raises(ValueError):
            SimConfig(gh_order=2)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)

    # Unchecked, seed=7.5 and n_samples=True run silently, gh_order=32.7
    # fails late with a TypeError and window=inf gives a NaN state.
    @pytest.mark.parametrize("field, value", [
        ("seed", 7.5), ("n_samples", True), ("n_samples", 1000.9), ("gh_order", 32.7),
        ("seed", np.bool_(True)), ("window", math.inf), ("window", math.nan),
    ])
    def test_rejects_non_integral_and_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        plain = SimConfig(n_samples=70_000, seed=5)
        numpy_ints = SimConfig(n_samples=np.int64(70_000), seed=np.uint64(5))
        assert np.array_equal(monte_carlo_rho(params, plain), monte_carlo_rho(params, numpy_ints))
        assert SimConfig(gh_order=np.int32(16)).gh_order == 16


# The one seed rule and the Philox stream table behind every seeded call.
_SEEDED_CALLS = {
    "SimConfig": lambda seed: SimConfig(seed=seed),
    "overhauser_samples": lambda seed: overhauser_samples(seed, 4),
    "simulate_counts": lambda seed: simulate_counts(
        np.eye(4) / 4.0, standard_settings("six_basis"), 100, seed=seed, poisson=True),
}


class TestSeedRule:
    # Unchecked, overhauser_samples(2**64 + 5, ...) read the Poisson
    # stream of seed 5.
    @pytest.mark.parametrize("call", _SEEDED_CALLS)
    @pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1, True, np.bool_(True), 1.5, None])
    def test_every_seeded_call_rejects_the_same_seeds(self, call, seed):
        with pytest.raises(ValueError,
                           match=rf"^seed must be an integer in \[0, 2\*\*64\), got {seed!r}$"):
            _SEEDED_CALLS[call](seed)

    @pytest.mark.parametrize("call", _SEEDED_CALLS)
    def test_every_seeded_call_accepts_the_largest_seed(self, call):
        _SEEDED_CALLS[call](np.uint64(2**64 - 1))
