import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import (
    PHI_PLUS,
    born_probabilities,
    fidelity_phi_plus,
    purity,
    random_density_matrix,
    state_log_likelihood,
)
from qdcascade import tomography
from qdcascade.linalg import InvalidDensityMatrixError
from qdcascade.metrics import trace_distance
from qdcascade.model import PhysicalParams, SimConfig, apply_multipair_mixing, monte_carlo_rho
from qdcascade.tomography import (
    POLARIZATION_KETS,
    BasisSetting,
    CountRecord,
    InsufficientSettingsError,
    ZeroCountsError,
    _born_matrix,
    _objective,
    _probabilities,
    _rho_of,
    _start,
    fidelity_from_visibilities,
    load_count_records_csv,
    mle_reconstruct,
    save_count_records_csv,
    simulate_counts,
    standard_settings,
    visibility,
)

PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())
MIXED = np.eye(4, dtype=complex) / 4.0


class TestStandardSettings:
    def test_six_basis(self):
        settings = standard_settings("six_basis")
        assert settings == [BasisSetting(label) for label in ("HH", "HV", "DD", "DA", "RR", "RL")]
        assert np.array_equal(settings[0].product_ket(), [1.0, 0.0, 0.0, 0.0])

    def test_six_basis_is_three_co_cross_pairs(self):
        # The CLI reads its visibilities c_hv, c_da and c_rl from consecutive
        # settings: within a pair the first arm is the same, the second arm
        # is first co-polarized and then orthogonal.
        settings = standard_settings("six_basis")
        pairs = list(zip(settings[::2], settings[1::2]))
        assert [co.label[0] for co, _ in pairs] == ["H", "D", "R"]
        for co, cross in pairs:
            assert co.label[1] == co.label[0] == cross.label[0]
            overlap = np.vdot(POLARIZATION_KETS[co.label[1]], POLARIZATION_KETS[cross.label[1]])
            assert abs(overlap) < 1e-15

    def test_sixteen_basis(self):
        settings = standard_settings("sixteen_basis")
        assert len(settings) == 16
        assert len({s.label for s in settings}) == 16

    def test_projectors_normalized(self):
        for mode in ("six_basis", "sixteen_basis"):
            for setting in standard_settings(mode):
                assert abs(np.linalg.norm(setting.product_ket()) - 1.0) < 1e-12

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            standard_settings("four_basis")


class TestBasisSetting:
    def test_label_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(BasisSetting)] == ["label"]

    def test_product_ket_reads_the_polarization_kets(self):
        # Bit for bit the Kronecker product, for all 36 labels.
        for label in ALL_LABELS:
            first, second = (POLARIZATION_KETS[ch] for ch in label)
            assert np.array_equal(BasisSetting(label).product_ket(), np.kron(first, second))

    @pytest.mark.parametrize("label", ["", "H", "HHV", "HX", "hv", 5, ("H", "V")])
    def test_rejects_unknown_label(self, label):
        with pytest.raises(ValueError, match="unknown polarization label"):
            BasisSetting(label)

    def test_settings_and_records_are_values(self):
        assert BasisSetting("HV") == BasisSetting("HV")
        records = {CountRecord(BasisSetting("HV"), 3), CountRecord(BasisSetting("HV"), 3)}
        assert records == {CountRecord(BasisSetting("HV"), 3)}


class TestSimulateCounts:
    def test_orthogonal_projection(self):
        records = simulate_counts(PHI_PLUS_RHO, [BasisSetting("HV")], 1000)
        assert records[0].counts == 0

    def test_diagonal_coincidence(self):
        records = simulate_counts(PHI_PLUS_RHO, [BasisSetting("DD")], 1000)
        assert records[0].counts == 500

    def test_maximally_mixed(self):
        records = simulate_counts(MIXED, standard_settings("sixteen_basis"), 1000)
        assert all(r.counts == 250 for r in records)

    def test_reads_a_generator_of_settings_once(self):
        settings = standard_settings("six_basis")
        records = simulate_counts(MIXED, (s for s in settings), 100)
        assert records == simulate_counts(MIXED, settings, 100)
        assert len(records) == len(settings)

    @pytest.mark.parametrize("n_per_setting", [np.nan, np.inf, 0, -5])
    def test_rejects_n_per_setting_not_finite_and_positive(self, n_per_setting):
        with pytest.raises(ValueError, match="n_per_setting must be finite and > 0"):
            simulate_counts(MIXED, standard_settings("six_basis"), n_per_setting)

    # Unchecked, 10**400 overflowed the float conversion and a mean above
    # about 9.2e18 failed inside numpy's Poisson sampler.
    @pytest.mark.parametrize("poisson, n_per_setting", [(False, 10**400), (True, 9.2e18),
                                                        (True, 10**20)],
                             ids=["rounded-1e400", "poisson-9.2e18", "poisson-1e20"])
    def test_rejects_a_budget_the_draw_cannot_hold(self, poisson, n_per_setting):
        with pytest.raises(ValueError, match="^n_per_setting must be"):
            simulate_counts(MIXED, standard_settings("six_basis"), n_per_setting,
                            poisson=poisson)

    def test_poisson_budget_just_below_the_ceiling(self):
        records = simulate_counts(PHI_PLUS_RHO, [BasisSetting("HH")], 9.1e18, poisson=True)
        assert abs(records[0].counts - 4.55e18) < 1e10

    def test_poisson_deterministic(self):
        settings = standard_settings("sixteen_basis")
        a = simulate_counts(PHI_PLUS_RHO, settings, 10_000, seed=5, poisson=True)
        b = simulate_counts(PHI_PLUS_RHO, settings, 10_000, seed=5, poisson=True)
        assert [r.counts for r in a] == [r.counts for r in b]
        c = simulate_counts(PHI_PLUS_RHO, settings, 10_000, seed=6, poisson=True)
        assert [r.counts for r in a] != [r.counts for r in c]

    def test_poisson_stream_apart_from_sampler(self):
        # The draw reads the Philox stream keyed (seed, 1), i.e. the integer
        # key seed + 2**64, not the Overhauser sampler's stream keyed seed.
        settings = standard_settings("sixteen_basis")
        means = 10_000 * born_probabilities(PHI_PLUS_RHO, settings)
        drawn = [r.counts for r in simulate_counts(PHI_PLUS_RHO, settings, 10_000, seed=5,
                                                   poisson=True)]
        own = np.random.Generator(np.random.Philox(key=5 + 2**64)).poisson(means)
        shared = np.random.Generator(np.random.Philox(key=5)).poisson(means)
        assert drawn == own.tolist()
        assert drawn != shared.tolist()

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidDensityMatrixError):
            simulate_counts(np.eye(4), standard_settings("six_basis"), 100)


class TestCountRecord:
    @pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_rejects_weight_not_finite_and_positive(self, weight):
        with pytest.raises(ValueError, match="acquisition_weight must be finite and > 0"):
            CountRecord(BasisSetting("HH"), 10, acquisition_weight=weight)

    @pytest.mark.parametrize("counts", [-1, np.nan, 1.5, True, False])
    def test_rejects_counts_not_a_non_negative_integer(self, counts):
        with pytest.raises(ValueError, match=f"counts must be an integer >= 0, got {counts!r}"):
            CountRecord(BasisSetting("HH"), counts)

    @pytest.mark.parametrize("setting", ["HH", None, ("H", "H")])
    def test_rejects_setting_not_a_basis_setting(self, setting):
        with pytest.raises(ValueError, match=re.escape(f"setting must be a BasisSetting, got {setting!r}")):
            CountRecord(setting, 5)

    def test_frozen(self):
        record = CountRecord(BasisSetting("HH"), 10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.acquisition_weight = np.inf


class TestVisibility:
    def test_extremes(self):
        co = CountRecord(BasisSetting("HH"), 1000)
        cross = CountRecord(BasisSetting("HV"), 0)
        assert visibility(co, cross) == 1.0
        assert visibility(CountRecord(BasisSetting("HH"), 500),
                          CountRecord(BasisSetting("HV"), 500)) == 0.0

    def test_weight_normalization(self):
        co = CountRecord(BasisSetting("HH"), 1000, acquisition_weight=2.0)
        cross = CountRecord(BasisSetting("HV"), 500, acquisition_weight=1.0)
        assert visibility(co, cross) == 0.0

    def test_rl_visibility_of_bell_state(self):
        records = simulate_counts(
            PHI_PLUS_RHO, [BasisSetting("RR"), BasisSetting("RL")], 100_000
        )
        assert visibility(records[0], records[1]) == -1.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ZeroCountsError):
            visibility(CountRecord(BasisSetting("HH"), 0),
                       CountRecord(BasisSetting("HV"), 0))


class TestFidelityFromVisibilities:
    def test_ideal_bell(self):
        assert fidelity_from_visibilities(1.0, 1.0, -1.0) == 1.0

    def test_uncorrelated(self):
        assert fidelity_from_visibilities(0.0, 0.0, 0.0) == 0.25

    def test_range_check(self):
        with pytest.raises(ValueError):
            fidelity_from_visibilities(1.5, 0.0, 0.0)

    def test_count_based_estimate_on_cascade_state(self):
        # co/cross count ratios estimate the full correlations exactly for
        # the symmetric cascade states, up to integer rounding of the counts
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        rho = apply_multipair_mixing(
            monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite")), params.k
        )
        records = simulate_counts(rho, standard_settings("six_basis"), 10**8)
        by_label = {r.setting.label: r for r in records}
        estimate = fidelity_from_visibilities(
            visibility(by_label["HH"], by_label["HV"]),
            visibility(by_label["DD"], by_label["DA"]),
            visibility(by_label["RR"], by_label["RL"]),
        )
        assert abs(estimate - fidelity_phi_plus(rho)) < 1e-6


class TestMLEReconstruct:
    def test_round_trip_bell_state(self):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("sixteen_basis"), 10**6)
        result = mle_reconstruct(records)
        assert result.converged
        assert fidelity_phi_plus(result.rho) >= 1.0 - 1e-5

    def test_round_trip_maximally_mixed(self):
        records = simulate_counts(MIXED, standard_settings("sixteen_basis"), 10**6)
        result = mle_reconstruct(records)
        assert abs(purity(result.rho) - 0.25) < 1e-4

    def test_round_trip_random_state(self):
        rng = np.random.default_rng(61)
        rho = random_density_matrix(rng)
        records = simulate_counts(rho, standard_settings("sixteen_basis"), 10**7)
        result = mle_reconstruct(records)
        assert trace_distance(result.rho, rho) < 1e-3

    def test_degenerate_counts_still_physical(self):
        records = simulate_counts(MIXED, standard_settings("sixteen_basis"), 1000)
        records[1:] = [dataclasses.replace(record, counts=0) for record in records[1:]]
        result = mle_reconstruct(records)
        w = np.linalg.eigvalsh(result.rho)
        assert w.min() >= -1e-10
        assert abs(np.trace(result.rho).real - 1.0) < 1e-12

    def test_reproducible(self):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("sixteen_basis"), 10**5)
        a = mle_reconstruct(records)
        b = mle_reconstruct(records)
        assert np.array_equal(a.rho, b.rho)
        assert a.log_likelihood == b.log_likelihood
        assert a.iterations == b.iterations

    def test_rejects_six_basis(self):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("six_basis"), 1000)
        with pytest.raises(InsufficientSettingsError):
            mle_reconstruct(records)

    @pytest.mark.parametrize("n", [0, 1, 6, 15])
    def test_rejects_fewer_than_16_records(self, n):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("sixteen_basis"), 1000)[:n]
        with pytest.raises(InsufficientSettingsError, match=f"got {n} records"):
            mle_reconstruct(records)

    def test_rejects_degenerate_projector_set(self):
        setting = BasisSetting("HH")
        records = [CountRecord(setting, 100) for _ in range(16)]
        with pytest.raises(InsufficientSettingsError):
            mle_reconstruct(records)

    def test_noisy_counts_high_fidelity(self):
        # Poisson noise at 1e4 counts per setting still reconstructs the
        # Bell state to better than 0.99 fidelity in nearly every trial
        settings = standard_settings("sixteen_basis")
        good = 0
        for seed in range(100):
            records = simulate_counts(PHI_PLUS_RHO, settings, 10**4, seed=seed, poisson=True)
            result = mle_reconstruct(records)
            if fidelity_phi_plus(result.rho) >= 0.99:
                good += 1
        assert good >= 95

    def test_unconverged_flag_on_tiny_budget(self):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("sixteen_basis"), 10**5)
        result = mle_reconstruct(records, max_iterations=2)
        assert not result.converged
        assert result.iterations == 2

    # Unchecked, nan and inf ran without a cap, 2.5 stopped after 3 steps
    # and True after 1.
    @pytest.mark.parametrize("budget", [math.nan, math.inf, 2.5, True, 0])
    def test_budget_must_be_an_integer_of_at_least_one(self, budget):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("sixteen_basis"), 1000)
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            mle_reconstruct(records, max_iterations=budget)

    def test_numpy_integer_budget_caps_the_run(self):
        rho = 0.9 * PHI_PLUS_RHO + 0.1 * MIXED
        records = simulate_counts(rho, standard_settings("sixteen_basis"), 10_000)
        assert mle_reconstruct(records).iterations > 3
        capped = mle_reconstruct(records, max_iterations=np.int64(3))
        assert capped.iterations == 3
        assert not capped.converged

    def test_reports_why_it_stopped(self):
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("sixteen_basis"), 10**5)
        done = mle_reconstruct(records)
        assert done.converged and done.message.startswith("CONVERGENCE")
        assert 0.0 <= done.gradient_norm < 1e-3
        capped = mle_reconstruct(records, max_iterations=2)
        assert "ITERATIONS" in capped.message
        assert capped.gradient_norm > done.gradient_norm

    @pytest.mark.parametrize("seed", [1, 5])
    def test_reference_dot_at_1e5_converges(self, seed):
        # Poisson draws on which a normalized-gradient ascent with an
        # absolute stopping rule ran out of its 100,000-step budget.
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        rho = apply_multipair_mixing(
            monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite")), params.k
        )
        settings = standard_settings("sixteen_basis")
        means = 100_000 * np.maximum(born_probabilities(rho, settings), 0.0)
        # The draws of the stream keyed (seed, 0), on which that ascent failed.
        counts = np.random.Generator(np.random.Philox(key=seed)).poisson(means)
        records = [CountRecord(s, int(c)) for s, c in zip(settings, counts)]
        result = mle_reconstruct(records)
        assert result.converged
        assert result.log_likelihood >= state_log_likelihood(rho, records)

    @pytest.mark.parametrize("s, k, config, n_per_setting", [
        # the reference dot, on which the triangular T stopped 9e-4 below
        (0.4, 0.99, SimConfig(quadrature="gauss_hermite"), 1_000_000),
        # the shipped spec at --samples 20000 and --n-per-setting 10000, and a
        # smaller splitting with more multi-pair mixing at 1e3 counts, on
        # which a start from A = I/2 stalled at a saddle
        (0.4, 0.99, SimConfig(n_samples=20_000), 10_000),
        (0.2, 0.95, SimConfig(n_samples=20_000, seed=1), 1_000),
    ], ids=["reference-dot-1e6", "shipped-spec-1e4", "s0.2-k0.95-1e3"])
    def test_stopping_rule_stops_near_the_maximum(self, monkeypatch, s, k, config,
                                                  n_per_setting):
        # Noiseless counts; the maximum is the fit run with ftol = gtol = 0,
        # which stops only where no step helps.
        params = PhysicalParams(s=s, t1=430.0, sigma=0.41, k=k)
        rho = apply_multipair_mixing(monte_carlo_rho(params, config), params.k)
        records = simulate_counts(rho, standard_settings("sixteen_basis"), n_per_setting)
        result = mle_reconstruct(records)
        monkeypatch.setattr(tomography, "_MLE_FTOL", 0.0)
        monkeypatch.setattr(tomography, "_MLE_GTOL", 0.0)
        maximum = mle_reconstruct(records, max_iterations=20_000)
        assert result.converged
        assert maximum.log_likelihood - result.log_likelihood <= 1e-4

    @hypothesis_settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        state_seed=st.integers(0, 2**32 - 1),
        count_seed=st.integers(0, 2**32 - 1),
        n_per_setting=st.sampled_from([10, 100, 1_000, 10_000, 100_000]),
        purity_mix=st.floats(0.0, 1.0),
    )
    def test_reconstruction_is_physical_and_likely(self, state_seed, count_seed,
                                                   n_per_setting, purity_mix):
        # Blend a pure state with a full-rank one to cover near-pure inputs.
        rng = np.random.default_rng(state_seed)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = purity_mix * np.outer(psi, psi.conj()) + (1.0 - purity_mix) * random_density_matrix(rng)
        records = simulate_counts(rho, standard_settings("sixteen_basis"), n_per_setting,
                                  seed=count_seed, poisson=True)
        result = mle_reconstruct(records)
        out = result.rho
        assert np.abs(out - out.conj().T).max() < 1e-14
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        truth = state_log_likelihood(rho, records)
        assert result.log_likelihood >= truth - 1e-9 * max(1.0, abs(truth))

    @pytest.mark.parametrize("case", ["unit_weights", "uneven_weights", "zero_count"])
    def test_gradient_matches_finite_differences(self, case):
        rng = np.random.default_rng(71)
        rho = random_density_matrix(rng)
        records = simulate_counts(rho, standard_settings("sixteen_basis"), 10**5)
        born = _born_matrix(r.setting for r in records)
        counts = np.array([float(r.counts) for r in records])
        weights = np.ones(len(records))
        if case == "uneven_weights":
            weights = rng.uniform(0.5, 2.0, len(records))
        elif case == "zero_count":
            counts[3] = 0.0
        theta = rng.normal(scale=0.4, size=32)
        # _objective returns -ll/n; the check is on the unscaled ll.
        n = max(counts.sum(), 1.0)
        analytic = n * _objective(theta, born, counts, weights)[1]
        step = 1e-6
        for index in range(32):
            bump = np.zeros(32)
            bump[index] = step
            numeric = n * (
                _objective(theta + bump, born, counts, weights)[0]
                - _objective(theta - bump, born, counts, weights)[0]
            ) / (2 * step)
            assert abs(analytic[index] - numeric) < 1e-3 * max(1.0, abs(numeric))


ALL_LABELS = tuple(a + b for a in POLARIZATION_KETS for b in POLARIZATION_KETS)


class TestLinearInversionStart:
    @pytest.mark.parametrize("labels", [
        tomography.SIXTEEN_BASIS_LABELS,
        ALL_LABELS,
        tomography.SIXTEEN_BASIS_LABELS + ("DR",),
    ], ids=["sixteen", "all-36", "one-duplicated"])
    @pytest.mark.parametrize("state", ["random", "bell"])
    def test_noiseless_counts_start_at_the_mixed_state(self, labels, state):
        # Expected counts, not rounded: the least-squares solve returns rho,
        # and the start is (1 - eps) rho + eps I/4 with |A|_F = 2.
        rng = np.random.default_rng(73)
        rho = random_density_matrix(rng) if state == "random" else PHI_PLUS_RHO
        born = _born_matrix(BasisSetting(label) for label in labels)
        weights = rng.uniform(0.5, 2.0, len(labels))
        counts = 1e6 * weights * _probabilities(rho, born)
        a, start, _ = _rho_of(_start(born, counts, weights))
        eps = tomography._START_MIX
        assert np.abs(start - ((1.0 - eps) * rho + eps * MIXED)).max() < 1e-12
        assert abs(np.linalg.norm(a) - 2.0) < 1e-14

    def test_zero_counts_start_at_the_maximally_mixed_state(self):
        records = [CountRecord(s, 0) for s in standard_settings("sixteen_basis")]
        theta = _start(_born_matrix(r.setting for r in records), np.zeros(16), np.ones(16))
        assert np.array_equal(theta, np.eye(4, dtype=complex).ravel().view(float))
        result = mle_reconstruct(records)
        assert result.converged
        assert np.array_equal(result.rho, MIXED)

    @pytest.mark.parametrize("weight", [5e-324, 1e-300])
    def test_start_is_finite_for_a_tiny_weight(self, weight):
        # counts/weight overflows; the rates are taken relative to it.
        settings = standard_settings("sixteen_basis")
        counts = np.arange(100.0, 116.0)
        weights = np.ones(16)
        weights[0] = weight
        assert np.all(np.isfinite(_start(_born_matrix(settings), counts, weights)))
        records = [CountRecord(s, int(c), w) for s, c, w in zip(settings, counts, weights)]
        assert mle_reconstruct(records).converged

    @pytest.mark.parametrize("labels", [ALL_LABELS, tomography.SIXTEEN_BASIS_LABELS + ("HH",)],
                             ids=["all-36", "one-duplicated"])
    def test_overcomplete_sets_reconstruct(self, labels):
        rng = np.random.default_rng(79)
        rho = random_density_matrix(rng)
        records = simulate_counts(rho, [BasisSetting(label) for label in labels], 10**6)
        result = mle_reconstruct(records)
        assert result.converged
        assert trace_distance(result.rho, rho) < 1e-3


class TestCountsCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.csv"
        records = simulate_counts(PHI_PLUS_RHO, standard_settings("six_basis"), 12345,
                                  seed=3, poisson=True)
        records[2] = dataclasses.replace(records[2], acquisition_weight=2.5)
        save_count_records_csv(records, path)
        assert load_count_records_csv(path) == records

    def test_header_row(self, tmp_path):
        path = tmp_path / "counts.csv"
        save_count_records_csv(
            simulate_counts(MIXED, standard_settings("six_basis"), 100), path
        )
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == "label,counts,weight"

    @pytest.mark.parametrize("weight", ["inf", "nan", "0.0", "-2.5"])
    def test_rejects_weight_not_finite_and_positive(self, tmp_path, weight):
        path = tmp_path / "counts.csv"
        path.write_text(f"label,counts,weight\nHH,10,1.0\nHV,3,{weight}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="acquisition_weight must be finite and > 0"):
            load_count_records_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,counts,weight\nHH,1,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_count_records_csv(path)

    # Unchecked, a short row raised TypeError from float(None) and an extra
    # field was dropped without a word.
    @pytest.mark.parametrize("row, fields", [("HH,5", 2), ("HH,5,1.0,x", 4)])
    def test_rejects_row_without_three_fields(self, tmp_path, row, fields):
        path = tmp_path / "counts.csv"
        path.write_text(f"label,counts,weight\nHV,3,1.0\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line 4: expected 3 fields label,counts,weight, "
                                             f"got {fields}$"):
            load_count_records_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("HV,1.5,1.0", "invalid literal for int"),
        ("XQ,1,1.0", "unknown polarization label 'XQ'"),
        ("HV,1,x", "could not convert string to float"),
    ])
    def test_row_errors_name_their_line(self, tmp_path, row, message):
        path = tmp_path / "counts.csv"
        path.write_text(f"label,counts,weight\nHH,10,1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line 3: {message}"):
            load_count_records_csv(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("label,counts,weight\n\nHH,5,1.0\n\nHV,3,2.0\n", encoding="utf-8")
        assert load_count_records_csv(path) == [CountRecord(BasisSetting("HH"), 5),
                                                CountRecord(BasisSetting("HV"), 3, 2.0)]


def test_born_probabilities_match_direct_products():
    rng = np.random.default_rng(67)
    rho = random_density_matrix(rng)
    settings = standard_settings("sixteen_basis")
    for setting, probability in zip(settings, born_probabilities(rho, settings)):
        ket = setting.product_ket()
        assert abs(probability - np.real(ket.conj() @ rho @ ket)) < 1e-15


def test_package_import_leaves_scipy_optimize_unloaded():
    # mle_reconstruct imports scipy.optimize and overhauser_samples
    # scipy.special on first use, so importing the package loads no scipy
    # module and stays cheap.
    import qdcascade

    code = ("import sys, qdcascade, qdcascade.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    src = str(Path(qdcascade.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
