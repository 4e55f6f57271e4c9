import csv
import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from qdcascade.cli import _fmt, main
from qdcascade.linalg import HBAR_UEV_PS
from qdcascade.model import (
    CHUNK_SAMPLES,
    PhysicalParams,
    SimConfig,
    analytic_fidelity,
    apply_multipair_mixing,
    monte_carlo_rho,
    sigma_from_t2star,
)
from qdcascade.metrics import metrics_from_rho

REFERENCE_SPEC = resources.files("qdcascade") / "data" / "ingaas_strain_tuned.json"
LITERATURE = resources.files("qdcascade") / "data" / "literature.json"


def write_spec(tmp_path, name="spec.json", **overrides):
    doc = {
        "params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99},
        "config": {"n_samples": 5000, "seed": 42},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_reference_spec(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["simulate", str(REFERENCE_SPEC), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        for key in ("fidelity", "purity", "concurrence", "closed_form_fidelity",
                    "params", "seed", "n_samples"):
            assert key in doc
        assert 0.87 < doc["fidelity"] < 0.91
        assert doc["seed"] == 1234
        assert doc["n_samples"] == 200_000
        assert abs(doc["closed_form_fidelity"]
                   - analytic_fidelity(PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99))
                   ) < 1e-12

    def test_ideal_dot_all_metrics_one(self, tmp_path):
        spec = write_spec(
            tmp_path,
            params={"s_ueV": 0.0, "sigma_ueV": 0.0, "t1_ps": 430.0, "k": 1.0},
        )
        out = tmp_path / "out.json"
        assert main(["simulate", str(spec), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        for key in ("fidelity", "purity", "concurrence"):
            assert abs(doc[key] - 1.0) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        spec = write_spec(tmp_path)
        assert main(["simulate", str(spec), "--out", str(out_a)]) == 0
        assert main(["simulate", str(spec), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        out = tmp_path / "out.json"
        spec = write_spec(tmp_path)
        assert main(["simulate", str(spec), "--seed", "777", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["seed"] == 777

    def test_density_matrix_output(self, tmp_path):
        spec = write_spec(tmp_path, outputs=["both"])
        out = tmp_path / "out.json"
        assert main(["simulate", str(spec), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        dm = doc["density_matrix"]
        assert dm["basis"] == "HHHVVHVV"
        matrix = np.array([[complex(re, im) for re, im in row] for row in dm["matrix"]])
        assert matrix.shape == (4, 4)
        assert abs(np.trace(matrix) - 1.0) < 1e-12

    def test_unknown_key_rejected(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            params={"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99,
                    "t2star_ns": 1.6},
        )
        out = tmp_path / "never.json"
        assert main(["simulate", str(spec), "--out", str(out)]) == 2
        assert "t2star_ns" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json_rejected(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json", encoding="utf-8")
        assert main(["simulate", str(spec)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_gauss_hermite_flag(self, tmp_path):
        out = tmp_path / "out.json"
        spec = write_spec(tmp_path)
        assert main(["simulate", str(spec), "--quadrature", "gauss_hermite",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["quadrature"] == "gauss_hermite"
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        from qdcascade.model import apply_multipair_mixing

        rho = apply_multipair_mixing(
            monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite")), 0.99
        )
        assert abs(doc["fidelity"] - metrics_from_rho(rho).fidelity) < 1e-12

    @pytest.mark.parametrize("params, params_keys", [
        (None, ["s_ueV", "t1_ps", "sigma_ueV", "k", "t1_xx_ps"]),
        ({"s_ueV": 0.4, "t1_ps": 430.0, "t2_star_ns": 1.6, "g2_xx": 0.009, "g2_x": 0.002,
          "eta_p": 0.7, "tau_s_us": 100.0},
         ["s_ueV", "t1_ps", "sigma_ueV", "k", "g2_xx", "g2_x", "eta_p", "t2_star_ns",
          "tau_s_us"]),
    ])
    def test_json_key_order(self, tmp_path, params, params_keys):
        spec = REFERENCE_SPEC if params is None else write_spec(tmp_path, params=params)
        out = tmp_path / "out.json"
        assert main(["simulate", str(spec), "--quadrature", "gauss_hermite",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert list(doc) == ["fidelity", "purity", "concurrence", "closed_form_fidelity",
                             "params", "seed", "n_samples", "quadrature", "gh_order",
                             "window_ps"]
        assert list(doc["params"]) == params_keys

    def test_null_counts_as_absent_where_default_is_none(self, tmp_path):
        spec = write_spec(
            tmp_path,
            params={"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99,
                    "t2_star_ns": None, "tau_s_us": None},
            config={"n_samples": 5000, "seed": 42, "window_ps": None},
        )
        reference = write_spec(tmp_path, name="reference.json")
        out = tmp_path / "out.json"
        expected = tmp_path / "expected.json"
        assert main(["simulate", str(spec), "--out", str(out)]) == 0
        assert main(["simulate", str(reference), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    # Each malformed run spec exits 2 with one error line and no output.
    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "run spec must be a JSON object"),
        ('{"config": {}}', "missing key 'params' in run spec"),
        ('{"params": [0.4]}', "params must be a JSON object"),
        ('{"params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "k": 0.99}}',
         "missing key 't1_ps' in params"),
        ('{"params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99}, '
         '"config": 5}', "config must be a JSON object"),
        ('{"params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99}, '
         '"outputs": []}', "'outputs' must be a non-empty list"),
        ('{"params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99}, '
         '"outputs": ["pdf"]}', "unknown output mode 'pdf' in outputs"),
        ('{"params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.9, '
         '"g2_xx": 0.009, "g2_x": 0.002, "eta_p": 0.7}}', "k=0.9 disagrees with k from"),
        (None, "cannot read"),
    ], ids=["not-an-object", "no-params", "params-not-an-object", "missing-key",
            "config-not-an-object", "empty-outputs", "unknown-output", "k-disagrees-with-g2",
            "unreadable"])
    def test_rejects_malformed_run_spec(self, tmp_path, capsys, text, message):
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text, encoding="utf-8")
        assert main(["simulate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_config_defaults_without_config_key(self, tmp_path):
        params = {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"params": params}), encoding="utf-8")
        explicit = write_spec(tmp_path, params=params, config={})
        out, expected = tmp_path / "out.json", tmp_path / "expected.json"
        flags = ["--quadrature", "gauss_hermite"]
        assert main(["simulate", str(bare), *flags, "--out", str(out)]) == 0
        assert main(["simulate", str(explicit), *flags, "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_k_with_agreeing_g2_inputs(self, tmp_path):
        g2 = {"g2_xx": 0.009, "g2_x": 0.002, "eta_p": 0.7}
        both = write_spec(tmp_path, "both.json", params={
            "s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99615, **g2})
        g2_only = write_spec(tmp_path, "g2.json", params={
            "s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, **g2})
        out, expected = tmp_path / "out.json", tmp_path / "expected.json"
        flags = ["--quadrature", "gauss_hermite"]
        assert main(["simulate", str(both), *flags, "--out", str(out)]) == 0
        assert main(["simulate", str(g2_only), *flags, "--out", str(expected)]) == 0
        doc, reference = (json.loads(p.read_text(encoding="utf-8")) for p in (out, expected))
        assert doc["params"] == {**reference["params"], "k": 0.99615}
        assert abs(doc["fidelity"] - reference["fidelity"]) < 1e-12

    def test_k_from_g2_out_of_range_names_the_g2_inputs(self, tmp_path, capsys):
        # g2_xx = g2_x = eta_p = 1 gives k = 0, and the spec gives no k.
        spec = write_spec(tmp_path, params={"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0,
                                            "g2_xx": 1, "g2_x": 1, "eta_p": 1})
        assert main(["simulate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: invalid params: k from g2_xx, g2_x and eta_p "
                                "must lie in (0, 1]\n")
        assert captured.out == ""

    def test_module_entry_point(self, tmp_path):
        spec = write_spec(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "qdcascade.cli", "simulate", str(spec)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seed"] == 42


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweep")
    spec = write_spec(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(spec), "--s-min", "0", "--s-max", "200",
                 "--n-points", "5", "--quadrature", "gauss_hermite",
                 "--out", str(out)])
    assert code == 0
    return read_csv(out)


class TestSweep:
    def test_header(self, sweep_rows):
        assert sweep_rows[0] == ["S_ueV", "f_sigma0", "f_sigma_low", "f_sigma_ref",
                                 "f_sigma_high", "f_closed_form_ref"]

    def test_monotone_in_noise_rowwise(self, sweep_rows):
        for row in sweep_rows[1:]:
            f0, flow, fref, fhigh = (float(x) for x in row[1:5])
            assert f0 >= flow >= fref >= fhigh

    def test_zero_splitting_zero_noise_value(self, sweep_rows):
        k = 0.99
        assert abs(float(sweep_rows[1][1]) - (1 + 3 * k) / 4) < 1e-12

    def test_closed_form_column(self, sweep_rows):
        sigma_ref = HBAR_UEV_PS / 1700.0
        for row in sweep_rows[1:]:
            point = PhysicalParams(s=float(row[0]), t1=430.0, sigma=sigma_ref, k=0.99)
            expected = analytic_fidelity(point)
            assert abs(float(row[5]) - expected) < 1e-12

    def test_large_splitting_tail(self, sweep_rows):
        k = 0.99
        tail = sweep_rows[-1]
        assert float(tail[0]) == 200.0
        for value in tail[1:]:
            assert abs(float(value) - (1 + k) / 4) < 1e-3

    def test_rejects_bad_range(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["sweep", str(spec), "--s-min", "2", "--s-max", "1",
                     "--n-points", "5"]) == 2
        assert main(["sweep", str(spec), "--s-min", "0", "--s-max", "1",
                     "--n-points", "1"]) == 2

    def test_monte_carlo_reruns_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", str(spec), "--s-min", "0", "--s-max", "2", "--n-points", "3"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_terminated_by_newline(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--s-min", "0", "--s-max", "1",
                     "--n-points", "2", "--quadrature", "gauss_hermite",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").endswith("\n")


class TestWindowSweep:
    def test_columns_and_limits(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "windows.csv"
        code = main(["window-sweep", str(spec),
                     "--windows", "100", "350", "3000", "10000000",
                     "--quadrature", "gauss_hermite", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["window_ps", "concurrence", "fidelity", "purity"]
        concurrences = [float(r[1]) for r in rows[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(concurrences, concurrences[1:]))
        # huge window converges to the unwindowed dephasing-only average
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        full = metrics_from_rho(monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite")))
        tail = rows[-1]
        assert abs(float(tail[1]) - full.concurrence) < 1e-9
        assert abs(float(tail[2]) - full.fidelity) < 1e-9
        assert abs(float(tail[3]) - full.purity) < 1e-9

    def test_extreme_windows(self, tmp_path):
        # Tiny windows keep the Bell state, and one with exp(-W/T1) = 0 gives
        # the full average exactly.
        spec = write_spec(tmp_path)
        out = tmp_path / "windows.csv"
        code = main(["window-sweep", str(spec), "--windows", "5e-306", "1e-300", "1e300",
                     "1.7e308", "--quadrature", "gauss_hermite", "--out", str(out)])
        assert code == 0
        rows = [[float(value) for value in row[1:]] for row in read_csv(out)[1:]]
        assert np.abs(np.array(rows[:2]) - 1.0).max() <= 1e-12
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        full = metrics_from_rho(monte_carlo_rho(params, SimConfig(quadrature="gauss_hermite")))
        assert rows[2:] == [[full.concurrence, full.fidelity, full.purity]] * 2

    # Windows down to W/T1 = 0 (1e-321 ps) keep the Bell state and exit 0.
    @pytest.mark.parametrize("window", ["1e-307", "1e-321"],
                             ids=["tiny-window", "window-over-t1-underflows"])
    def test_tiny_window_is_the_bell_state(self, tmp_path, window):
        spec = write_spec(tmp_path)
        out = tmp_path / "windows.csv"
        code = main(["window-sweep", str(spec), "--windows", window, "--out", str(out)])
        assert code == 0
        row = [float(value) for value in read_csv(out)[1][1:]]
        assert np.abs(np.array(row) - 1.0).max() <= 1e-12

    # With or without a window, sigma answers up to where its shifts
    # overflow: at sigma = 1e300 every shift has lost its coherence.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("quadrature", ["monte_carlo", "gauss_hermite"])
    def test_huge_sigma_is_the_incoherent_state(self, tmp_path, quadrature):
        spec = write_spec(tmp_path, params={
            "s_ueV": 0.4, "sigma_ueV": 1e300, "t1_ps": 430.0, "k": 1.0})
        out = tmp_path / "windows.csv"
        code = main(["window-sweep", str(spec), "--windows", "1e-3", "350", "3000",
                     "--quadrature", quadrature, "--out", str(out)])
        assert code == 0
        for row in read_csv(out)[1:]:
            assert float(row[1]) == 0.0
            assert abs(float(row[2]) - 0.5) <= 1e-15

    def test_rejects_unsorted_windows(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["window-sweep", str(spec), "--windows", "300", "100"]) == 2
        assert main(["window-sweep", str(spec), "--windows", "-5"]) == 2

    # SimConfig's window rule, reported under the flag.
    @pytest.mark.parametrize("windows", [["0"], ["-1", "5"]], ids=["zero", "negative"])
    def test_rejects_non_positive_windows(self, tmp_path, capsys, windows):
        spec = write_spec(tmp_path)
        assert main(["window-sweep", str(spec), "--windows", *windows]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid --windows: window must be")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestCompare:
    def test_bundled_literature(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        code = main(["compare", str(LITERATURE), "--quadrature", "gauss_hermite",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0][0] == "label"
        assert rows[0][-1] == "within_range"
        table = {row[0]: row for row in rows[1:]}
        assert table["ingaas_strain_tuned_fidelity"][-1] == "true"
        low = float(table["ingaas_strain_tuned_fidelity"][7])
        high = float(table["ingaas_strain_tuned_fidelity"][8])
        assert low <= 0.89 <= high
        # human-readable summary goes to stdout when the CSV goes to a file
        assert "ingaas_strain_tuned_fidelity" in capsys.readouterr().out

    def test_empty_entries(self, tmp_path, capsys):
        lit = tmp_path / "empty.json"
        lit.write_text(json.dumps({"entries": []}), encoding="utf-8")
        assert main(["compare", str(lit)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("label,")
        assert len(out.splitlines()) == 1

    def test_rejects_unknown_entry_key(self, tmp_path, capsys):
        lit = tmp_path / "bad.json"
        lit.write_text(json.dumps({"entries": [{
            "label": "x", "t1_ps": 100.0, "s_ueV": 0.0, "reported_value": 0.9,
            "reported_metric": "fidelity", "t2_star_range_ns": [1.0, 2.0],
            "windowps": 100.0,
        }]}), encoding="utf-8")
        assert main(["compare", str(lit)]) == 2
        assert "windowps" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({}, "literature file must be an object with an 'entries' list"),
        ([], "literature file must be an object with an 'entries' list"),
        ({"entries": {}}, "'entries' must be a list"),
    ], ids=["no-entries", "not-an-object", "entries-not-a-list"])
    def test_rejects_malformed_literature_file(self, tmp_path, capsys, doc, message):
        lit = tmp_path / "bad.json"
        lit.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compare", str(lit)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    # Range checks come from PhysicalParams and SimConfig; the CLI itself
    # checks only the metric name, the range's shape and low <= high.
    @pytest.mark.parametrize("key, value", [
        ("t1_ps", 0),
        ("s_ueV", -1),
        ("window_ps", 0),
        ("t2_star_range_ns", [0, 1]),
        ("t2_star_range_ns", [3, 1]),
        ("t2_star_range_ns", [1.0]),
        ("reported_metric", "purity"),
        ("label", None),
    ])
    def test_rejects_invalid_entry(self, tmp_path, capsys, key, value):
        entry = {
            "label": "x", "t1_ps": 100.0, "s_ueV": 0.0, "reported_value": 0.9,
            "reported_metric": "fidelity", "t2_star_range_ns": [1.0, 2.0],
        }
        entry[key] = value
        lit = tmp_path / "bad.json"
        lit.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        assert main(["compare", str(lit), "--quadrature", "gauss_hermite"]) == 2
        captured = capsys.readouterr()
        assert "entries[0]" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestGridCellsMatchPerPointStates:
    """sweep, window-sweep and compare average all their points in one
    engine call; every cell must equal the figure of the point averaged on
    its own, at a sample count spanning two chunks."""

    N = CHUNK_SAMPLES + 100

    def test_sweep(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--s-min", "0", "--s-max", "2", "--n-points", "3",
                     "--samples", str(self.N), "--out", str(out)]) == 0
        config = SimConfig(n_samples=self.N, seed=42)
        sigmas = [0.0] + [sigma_from_t2star(t2) for t2 in (3.2, 1.7, 1.0)]
        rows = read_csv(out)[1:]
        assert len(rows) == 3
        for s, row in zip((0.0, 1.0, 2.0), rows):
            expected = [
                metrics_from_rho(apply_multipair_mixing(monte_carlo_rho(
                    PhysicalParams(s=s, t1=430.0, sigma=sigma, k=0.99), config), 0.99)).fidelity
                for sigma in sigmas
            ]
            assert row[1:5] == [_fmt(f) for f in expected]

    def test_window_sweep(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "windows.csv"
        windows = (100.0, 350.0, 3000.0)
        assert main(["window-sweep", str(spec), "--windows", *map(str, windows),
                     "--samples", str(self.N), "--out", str(out)]) == 0
        params = PhysicalParams(s=0.4, t1=430.0, sigma=0.41, k=0.99)
        rows = read_csv(out)[1:]
        assert len(rows) == len(windows)
        for window, row in zip(windows, rows):
            m = metrics_from_rho(monte_carlo_rho(
                params, SimConfig(n_samples=self.N, seed=42, window=window)))
            assert row == [_fmt(window), _fmt(m.concurrence), _fmt(m.fidelity), _fmt(m.purity)]

    def test_compare(self, tmp_path):
        out = tmp_path / "compare.csv"
        assert main(["compare", str(LITERATURE), "--samples", str(self.N),
                     "--out", str(out)]) == 0
        entries = json.loads(LITERATURE.read_text(encoding="utf-8"))["entries"]
        rows = read_csv(out)[1:]
        assert len(rows) == len(entries)
        for entry, row in zip(entries, rows):
            config = SimConfig(n_samples=self.N, window=entry.get("window_ps"))
            predicted = sorted(
                getattr(metrics_from_rho(monte_carlo_rho(PhysicalParams(
                    s=entry["s_ueV"], t1=entry["t1_ps"], t2_star=t2, k=1.0), config)),
                    entry["reported_metric"])
                for t2 in entry["t2_star_range_ns"]
            )
            assert row[7:9] == [_fmt(value) for value in predicted]


class TestTomographyCommand:
    def test_six_basis_estimate_only(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "tomo.json"
        code = main(["tomography", str(spec), "--mode", "six_basis",
                     "--n-per-setting", "1000000", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert "fidelity_estimate" in doc
        assert "reconstruction" not in doc
        assert abs(doc["fidelity_estimate"]["fidelity"] - doc["true_state"]["fidelity"]) < 1e-4

    def test_sixteen_basis_round_trip(self, tmp_path):
        spec = write_spec(
            tmp_path,
            params={"s_ueV": 0.0, "sigma_ueV": 0.0, "t1_ps": 430.0, "k": 1.0},
        )
        out = tmp_path / "tomo.json"
        code = main(["tomography", str(spec), "--n-per-setting", "1000000",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        reco = doc["reconstruction"]
        assert reco["converged"] is True
        assert reco["trace_distance"] < 1e-4
        assert reco["fidelity"] > 1 - 1e-5
        assert doc["counts"][0]["label"] == "HH"

    def test_poisson_runs_reproducible(self, tmp_path):
        spec = write_spec(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["tomography", str(spec), "--mode", "six_basis", "--poisson",
                "--n-per-setting", "20000"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "tomo.json"
        code = main(["tomography", str(spec), "--n-per-setting", "100000",
                     "--max-iterations", "2", "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["reconstruction"]["converged"] is False
        assert "converge" in capsys.readouterr().err

    def test_reports_why_reconstruction_stopped(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "tomo.json"
        assert main(["tomography", str(spec), "--n-per-setting", "100000",
                     "--out", str(out)]) == 0
        reco = json.loads(out.read_text(encoding="utf-8"))["reconstruction"]
        assert list(reco) == ["fidelity", "purity", "concurrence", "trace_distance",
                              "log_likelihood", "iterations", "converged", "message",
                              "gradient_norm", "density_matrix"]
        assert reco["message"].startswith("CONVERGENCE")
        assert 0.0 <= reco["gradient_norm"] < 1e-3

    def test_rejects_non_positive_budget(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        code = main(["tomography", str(spec), "--max-iterations", "0"])
        assert code == 2
        assert "--max-iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--poisson", "--n-per-setting", str(10**20)],
                                       ["--n-per-setting", str(10**400)],
                                       ["--n-per-setting", "0"],
                                       ["--n-per-setting", "-5"]],
                             ids=["poisson-1e20", "rounded-1e400", "zero", "negative"])
    def test_rejects_a_budget_the_draw_cannot_hold(self, tmp_path, capsys, flags):
        spec = write_spec(tmp_path)
        assert main(["tomography", str(spec), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid --n-per-setting: n_per_setting must be")
        assert err.count("\n") == 1


class TestNumericalFailures:
    # Inputs that pass every check can still overflow the averages or leave
    # a co/cross pair without counts; each exits 3 with one error line.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, message", [
        (["simulate", "{huge_s}"], "non-finite"),
        (["tomography", "{spec}", "--mode", "six_basis", "--n-per-setting", "1"], "zero counts"),
        (["window-sweep", "{huge_s}", "--windows", "350"], "non-finite"),
    ], ids=["huge-splitting", "one-count-per-setting", "huge-splitting-windowed"])
    def test_exits_3(self, tmp_path, capsys, command, message):
        paths = {
            "spec": write_spec(tmp_path),
            "huge_s": write_spec(tmp_path, "huge_s.json", params={
                "s_ueV": 1e200, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99}),
        }
        assert main([arg.format(**paths) for arg in command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestNumberInputs:
    # Each input exits 2 with a message naming the offending value, rather
    # than a traceback (non-finite values) or a silent truncation.
    @pytest.mark.parametrize("section, key, token", [
        ("params", "s_ueV", "NaN"),
        ("params", "s_ueV", "Infinity"),
        ("params", "s_ueV", '"nan"'),
        ("params", "sigma_ueV", "NaN"),
        ("config", "n_samples", "1000.9"),
        ("config", "seed", "7.5"),
        ("config", "gh_order", "32.7"),
        ("config", "n_samples", "true"),
        ("params", "s_ueV", "null"),
        ("config", "seed", "null"),
        ("config", "quadrature", "null"),
        ("config", "seed", '"abc"'),
    ])
    def test_run_spec_value_rejected(self, tmp_path, capsys, section, key, token):
        doc = {
            "params": {"s_ueV": 0.4, "sigma_ueV": 0.41, "t1_ps": 430.0, "k": 0.99},
            "config": {"n_samples": 5000, "seed": 42, "quadrature": "gauss_hermite"},
        }
        doc[section][key] = "@"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc).replace('"@"', token), encoding="utf-8")
        assert main(["simulate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert f"'{key}' in {section}" in captured.err
        assert captured.out == ""

    def test_t2_star_whose_sigma_overflows(self, tmp_path, capsys):
        # Below about 3.7e-309 ns, hbar/T2* is inf; unchecked, the average
        # exited 3 on a non-finite state.
        spec = write_spec(tmp_path,
                          params={"s_ueV": 0.4, "t1_ps": 430.0, "t2_star_ns": 1e-320, "k": 0.99},
                          config={"quadrature": "gauss_hermite", "gh_order": 33})
        assert main(["simulate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: invalid params: sigma must be finite, got hbar/T2* = inf "
                                "from t2_star=1e-320\n")
        assert captured.out == ""

    def test_window_sweep_nan_window(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["window-sweep", str(spec), "--windows", "nan"]) == 2
        assert "--windows must be finite" in capsys.readouterr().err

    def test_sweep_nan_s_min(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["sweep", str(spec), "--s-min", "nan", "--s-max", "1",
                     "--n-points", "3"]) == 2
        assert "--s-min must be finite" in capsys.readouterr().err

    def test_sweep_negative_s_min(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["sweep", str(spec), "--s-min", "-1", "--s-max", "1",
                     "--n-points", "3"]) == 2
        assert "--s-min must be >= 0" in capsys.readouterr().err

    def test_literature_nan_value(self, tmp_path, capsys):
        lit = tmp_path / "nan.json"
        lit.write_text(json.dumps({"entries": [{
            "label": "x", "t1_ps": 100.0, "s_ueV": 0.0, "reported_value": float("nan"),
            "reported_metric": "fidelity", "t2_star_range_ns": [1.0, 2.0],
        }]}), encoding="utf-8")
        assert main(["compare", str(lit)]) == 2
        assert "'reported_value' in entries[0] must be finite" in capsys.readouterr().err

    def test_integral_float_and_numeric_string_accepted(self, tmp_path):
        spec = write_spec(tmp_path, config={"n_samples": 5000.0, "seed": "42"})
        reference = write_spec(tmp_path, name="reference.json")
        out = tmp_path / "out.json"
        expected = tmp_path / "expected.json"
        assert main(["simulate", str(spec), "--out", str(out)]) == 0
        assert main(["simulate", str(reference), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
