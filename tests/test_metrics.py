import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import (
    PHI_PLUS,
    concurrence,
    concurrence_pure,
    correlation_visibilities,
    fidelity_oracle,
    fidelity_phi_plus,
    purity,
    purity_oracle,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    x_state_concurrence_oracle,
)
from qdcascade.linalg import InvalidDensityMatrixError, _smallest_block_eigenvalue, assert_density_matrix
from qdcascade.metrics import metrics_from_rho, trace_distance
from qdcascade.model import (
    PhysicalParams,
    SimConfig,
    apply_multipair_mixing,
    k_from_g2,
    monte_carlo_rho,
    sigma_from_t2star,
)
from qdcascade.tomography import fidelity_from_visibilities

PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())
MIXED = np.eye(4, dtype=complex) / 4.0


class TestFidelity:
    def test_bell_state(self):
        assert abs(fidelity_phi_plus(PHI_PLUS_RHO) - 1.0) < 1e-14

    def test_maximally_mixed(self):
        assert fidelity_phi_plus(MIXED) == 0.25

    def test_werner(self):
        werner = apply_multipair_mixing(PHI_PLUS_RHO, 0.99)
        assert abs(fidelity_phi_plus(werner) - 0.9925) < 1e-12

    def test_pauli_identity(self):
        rng = np.random.default_rng(31)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        for _ in range(50):
            rho = random_density_matrix(rng)
            expectation = lambda op: np.real(np.trace(op @ rho))  # noqa: E731
            identity_value = 0.25 * (
                1.0
                + expectation(np.kron(sx, sx))
                - expectation(np.kron(sy, sy))
                + expectation(np.kron(sz, sz))
            )
            assert abs(fidelity_phi_plus(rho) - identity_value) < 1e-12


class TestPurity:
    def test_pure_states(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            psi = random_pure_state(rng)
            assert abs(purity(np.outer(psi, psi.conj())) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert purity(MIXED) == 0.25

    def test_werner(self):
        k = 0.99
        value = purity(apply_multipair_mixing(PHI_PLUS_RHO, k))
        assert abs(value - (k * k + (1 - k * k) / 4)) < 1e-12
        assert abs(value - 0.98508) < 1e-5

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            value = purity(random_density_matrix(rng))
            assert 0.25 - 1e-12 <= value <= 1.0 + 1e-12


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(PHI_PLUS_RHO) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_werner(self):
        assert abs(concurrence(apply_multipair_mixing(PHI_PLUS_RHO, 0.99)) - 0.985) < 1e-10

    def test_matches_pure_state_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            psi = random_pure_state(rng)
            rho = np.outer(psi, psi.conj())
            assert abs(concurrence(rho) - concurrence_pure(psi)) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            rho = random_density_matrix(rng)
            gate = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = gate @ rho @ gate.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            value = concurrence(random_density_matrix(rng))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_mixing_degrades_concurrence_faster_than_fidelity(self):
        for k in (0.99, 0.9, 0.7):
            werner = apply_multipair_mixing(PHI_PLUS_RHO, k)
            fidelity_drop = 1.0 - fidelity_phi_plus(werner)
            concurrence_drop = 1.0 - concurrence(werner)
            assert abs(fidelity_drop - 3 * (1 - k) / 4) < 1e-10
            assert abs(concurrence_drop - 3 * (1 - k) / 2) < 1e-10


class TestConcurrencePure:
    def test_bell_state(self):
        assert abs(concurrence_pure(PHI_PLUS) - 1.0) < 1e-15

    def test_product_state(self):
        assert concurrence_pure(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_phase_invariance(self):
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            psi = np.array([1.0, 0.0, 0.0, np.exp(1j * theta)]) / np.sqrt(2)
            assert abs(concurrence_pure(psi) - 1.0) < 1e-12


class TestVisibilityIdentity:
    def test_exact_correlations_reproduce_fidelity(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            rho = random_density_matrix(rng)
            c_hv, c_da, c_rl = correlation_visibilities(rho)
            assert abs(fidelity_from_visibilities(c_hv, c_da, c_rl) - fidelity_phi_plus(rho)) < 1e-10


class TestBundleAndDistance:
    def test_metrics_bundle(self):
        bundle = metrics_from_rho(PHI_PLUS_RHO)
        assert abs(bundle.fidelity - 1.0) < 1e-14
        assert abs(bundle.purity - 1.0) < 1e-14
        assert abs(bundle.concurrence - 1.0) < 1e-14

    def test_bundle_validates_once(self, monkeypatch):
        import qdcascade.metrics as metrics_module

        calls = []
        original = metrics_module.assert_density_matrix

        def counting(rho, *args, **kwargs):
            calls.append(1)
            return original(rho, *args, **kwargs)

        monkeypatch.setattr(metrics_module, "assert_density_matrix", counting)
        rho = random_density_matrix(np.random.default_rng(23))
        metrics_from_rho(rho)
        assert len(calls) == 1
        with pytest.raises(InvalidDensityMatrixError):
            metrics_from_rho(np.eye(4))

    def test_trace_distance(self):
        assert trace_distance(PHI_PLUS_RHO, PHI_PLUS_RHO) == 0.0
        assert abs(trace_distance(PHI_PLUS_RHO, MIXED) - 0.75) < 1e-12

    def test_rejects_invalid_input(self):
        for rho in (np.eye(4), np.eye(4) * 0.5, np.diag([2.0, 0.0, 0.0, -1.0])):
            with pytest.raises(InvalidDensityMatrixError):
                metrics_from_rho(rho)


def _random_state(seed: int, rank: int) -> np.ndarray:
    """A random density matrix of the given rank, 1 (pure) to 4."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


STATES = {"seed": st.integers(0, 2**32 - 1), "rank": st.integers(1, 4)}


class TestInvariantProperties:
    """The invariants of the figures of merit, over random states of every
    rank and single-pair fractions k in (0, 1]."""

    @hypothesis_settings(max_examples=200, deadline=None, derandomize=True)
    @given(**STATES, k=st.floats(0.0, 1.0, exclude_min=True))
    def test_mixing_is_linear_in_fidelity_and_quadratic_in_purity(self, seed, rank, k):
        rho = _random_state(seed, rank)
        mixed = apply_multipair_mixing(rho, k)
        assert_density_matrix(mixed)
        pure, mix = metrics_from_rho(rho), metrics_from_rho(mixed)
        assert abs(mix.fidelity - (k * pure.fidelity + (1.0 - k) / 4.0)) <= 1e-14
        assert abs(mix.purity - (k * k * pure.purity + (1.0 - k * k) / 4.0)) <= 1e-14

    @hypothesis_settings(max_examples=200, deadline=None, derandomize=True)
    @given(**STATES, k=st.floats(0.0, 1.0, exclude_min=True))
    def test_figure_ranges_and_fidelity_bound(self, seed, rank, k):
        for rho in (_random_state(seed, rank), apply_multipair_mixing(_random_state(seed, rank), k)):
            m = metrics_from_rho(rho)
            assert 0.25 - 1e-14 <= m.purity <= 1.0 + 1e-14
            assert 0.0 <= m.concurrence <= 1.0
            assert m.fidelity <= 0.5 * (1.0 + m.concurrence) + 1e-12

    @hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
    @given(theta=st.floats(0.0, 0.5 * math.pi))
    def test_fidelity_bound_is_reached(self, theta):
        # cos(theta)|HH> + sin(theta)|VV>: F = (1 + sin 2 theta)/2 and C = sin 2 theta.
        psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
        m = metrics_from_rho(np.outer(psi, psi))
        assert abs(m.fidelity - 0.5 * (1.0 + m.concurrence)) <= 1e-12

    @hypothesis_settings(max_examples=200, deadline=None, derandomize=True)
    @given(**STATES)
    def test_fidelity_from_exact_visibilities(self, seed, rank):
        rho = _random_state(seed, rank)
        estimate = fidelity_from_visibilities(*correlation_visibilities(rho))
        assert abs(estimate - metrics_from_rho(rho).fidelity) <= 1e-14

    @hypothesis_settings(max_examples=50, deadline=None, derandomize=True)
    @given(t2_star=st.floats(0.1, 10.0), g2_xx=st.floats(0.0, 0.5), g2_x=st.floats(0.0, 0.5),
           eta_p=st.floats(0.0, 1.0, exclude_min=True),
           window=st.one_of(st.none(), st.floats(10.0, 3000.0)))
    def test_agreeing_input_forms_give_the_same_state(self, t2_star, g2_xx, g2_x, eta_p, window):
        sigma, k = sigma_from_t2star(t2_star), k_from_g2(g2_xx, g2_x, eta_p)
        g2 = {"g2_xx": g2_xx, "g2_x": g2_x, "eta_p": eta_p}
        noise_forms = [{"sigma": sigma}, {"t2_star": t2_star}, {"sigma": sigma, "t2_star": t2_star}]
        pair_forms = [{"k": k}, g2, {"k": k, **g2}]
        config = SimConfig(quadrature="gauss_hermite", window=window)
        states = set()
        for noise in noise_forms:
            for pairs in pair_forms:
                params = PhysicalParams(s=0.4, t1=430.0, **noise, **pairs)
                rho = apply_multipair_mixing(monte_carlo_rho(params, config), params.k)
                states.add(rho.tobytes())
        assert len(states) == 1


UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
# (u, t, phase) of a 2x2 block [[x, z], [z*, y]]: x = w u, y = w (1 - u) and
# z = t sqrt(x y) exp(i phase), rank-deficient at t = 1 or u in {0, 1}.
BLOCK = st.tuples(UNIT, UNIT, st.floats(-math.pi, math.pi))
X_STATES = {"share": UNIT, "outer": BLOCK, "inner": BLOCK}
PAIR_FRACTIONS = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


def _x_state(share, outer, inner, k) -> np.ndarray:
    """The X state with a share of the trace in its {HH, VV} block and the
    rest in its {HV, VH} block, mixed with the single-pair fraction k."""
    rho = np.zeros((4, 4), dtype=complex)
    for (i, j), weight, (u, t, phase) in (((0, 3), share, outer), ((1, 2), 1.0 - share, inner)):
        rho[i, i], rho[j, j] = weight * u, weight * (1.0 - u)
        rho[i, j] = t * math.sqrt(rho[i, i].real * rho[j, j].real) * cmath.exp(1j * phase)
        rho[j, i] = rho[i, j].conjugate()
    return apply_multipair_mixing(rho, k)


class TestXStates:
    """States whose eight entries between the {HH, VV} and {HV, VH} blocks
    are exact zeros are read through their two 2x2 blocks."""

    @hypothesis_settings(max_examples=300, deadline=None, derandomize=True)
    @given(**X_STATES, k=PAIR_FRACTIONS)
    def test_figures_equal_the_oracles(self, share, outer, inner, k):
        rho = _x_state(share, outer, inner, k)
        m = metrics_from_rho(rho)
        assert abs(m.fidelity - fidelity_oracle(rho)) <= 1e-14
        assert abs(m.purity - purity_oracle(rho)) <= 1e-14
        assert abs(m.concurrence - x_state_concurrence_oracle(rho)) <= 1e-14

    @hypothesis_settings(max_examples=300, deadline=None, derandomize=True)
    @given(**X_STATES, k=PAIR_FRACTIONS)
    def test_closed_form_smallest_eigenvalue(self, share, outer, inner, k):
        rho = _x_state(share, outer, inner, k)
        closed = min(_smallest_block_eigenvalue(rho[0, 0].real, rho[3, 3].real, rho[3, 0]),
                     _smallest_block_eigenvalue(rho[1, 1].real, rho[2, 2].real, rho[2, 1]))
        assert abs(closed - np.linalg.eigvalsh(rho).min()) <= 1e-15

    # A rotated X state is not an X state, so this pits the closed forms
    # against the general eigh + SVD route. That route's rounding in C grows
    # like eps/sqrt(smallest eigenvalue), so C is compared on states mixed
    # with k <= 0.99, whose eigenvalues are at least 0.0025.
    @hypothesis_settings(max_examples=300, deadline=None, derandomize=True)
    @given(**X_STATES, k=st.floats(0.0, 0.99, exclude_min=True), seed=st.integers(0, 2**32 - 1))
    def test_local_unitary_invariance(self, share, outer, inner, k, seed):
        rng = np.random.default_rng(seed)
        rho = _x_state(share, outer, inner, k)
        gate = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = gate @ rho @ gate.conj().T
        assert rotated[0, 1] != 0.0
        before, after = metrics_from_rho(rho), metrics_from_rho(rotated)
        assert abs(after.purity - before.purity) <= 1e-14
        assert abs(after.concurrence - before.concurrence) <= 1e-14

    @pytest.mark.parametrize("quadrature", ["monte_carlo", "gauss_hermite"])
    def test_ideal_dot_is_exactly_maximally_entangled(self, quadrature):
        params = PhysicalParams(s=0.0, t1=430.0, sigma=0.0, k=1.0)
        rho = apply_multipair_mixing(monte_carlo_rho(params, SimConfig(quadrature=quadrature)), 1.0)
        m = metrics_from_rho(rho)
        assert (m.fidelity, m.purity, m.concurrence) == (1.0, 1.0, 1.0)

    def test_concurrence_is_at_most_one(self):
        # A 1e-300 ps window keeps every shift's coherence, and the state's
        # rounding puts |rho_03| one ulp above 1/2: the closed form alone
        # would read C = 1 + 2.2e-16.
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=1.0)
        rho = monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite", window=1e-300))
        assert 2.0 * abs(rho[0, 3]) > 1.0
        assert metrics_from_rho(rho).concurrence == 1.0

    @pytest.mark.parametrize("window", [1e-321, 1e-307, 1e-300])
    def test_purity_is_at_most_one(self, window):
        # The same windows round the HH and VV populations to
        # 0.5000000000000001 each: the sum alone would read P = 1 + 4.4e-16.
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=1.0)
        rho = monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite", window=window))
        assert purity_oracle(rho) > 1.0
        assert metrics_from_rho(rho).purity == 1.0
