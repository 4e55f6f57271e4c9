"""Command line front end.

Subcommands: simulate (one parameter set), sweep (fidelity vs splitting for
several noise levels), window-sweep (metrics vs coincidence window),
compare (model range vs reported literature values) and tomography
(simulated counting run plus reconstruction). Inputs are strict JSON files;
unknown keys are rejected. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, model, tomography

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# T2* endpoints (ns) spanning the reported electron coherence times, plus the
# typical value; they define the sigma columns of the sweep output.
T2_STAR_LOW_NOISE_NS = 3.2
T2_STAR_REFERENCE_NS = 1.7
T2_STAR_HIGH_NOISE_NS = 1.0

BASIS_ORDER = "HHHVVHVV"

OUTPUT_MODES = ("metrics", "density_matrix", "closed_form", "both")
REPORTED_METRICS = ("fidelity", "concurrence")


class ConfigError(Exception):
    """Invalid input file or option; maps to exit code 2."""


@dataclass(frozen=True)
class LiteratureEntry:
    label: str
    t1: float                      # ps
    s: float                       # ueV
    reported_value: float
    reported_metric: str
    t2_star_range: tuple[float, float]  # ns
    window: float | None = None    # ps

    def __post_init__(self) -> None:
        if not self.t1 > 0:
            raise ValueError("t1_ps must be > 0")
        if self.s < 0:
            raise ValueError("s_ueV must be >= 0")
        if self.reported_metric not in REPORTED_METRICS:
            raise ValueError(f"reported_metric must be one of {REPORTED_METRICS}")
        low, high = self.t2_star_range
        if not 0 < low <= high:
            raise ValueError("t2_star_range_ns must be (low, high) with 0 < low <= high")
        if self.window is not None and not self.window > 0:
            raise ValueError("window_ps must be > 0")


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {context}")


def _number(value, name: str, integer: bool = False):
    """A finite number from a JSON value, a numeric string or a parsed flag.

    Booleans are not numbers here. With integer=True the value must be
    integral: an int, an integral float or an integer string.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    try:
        if integer and not isinstance(value, float):
            return int(value)
        number = float(value)
    except (OverflowError, ValueError):
        raise ConfigError(f"{name} must be {kind}, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integer:
        if not number.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(number)
    return number


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


_PARAM_KEYS = {
    "s_ueV", "t1_ps", "sigma_ueV", "t2_star_ns", "k",
    "g2_xx", "g2_x", "eta_p", "t1_xx_ps", "tau_s_us",
}


def _parse_params(obj) -> model.PhysicalParams:
    if not isinstance(obj, dict):
        raise ConfigError("'params' must be a JSON object")
    _check_keys(obj, _PARAM_KEYS, "params")
    for required in ("s_ueV", "t1_ps"):
        if required not in obj:
            raise ConfigError(f"missing key '{required}' in params")

    def opt(key):
        return None if obj.get(key) is None else _number(obj[key], f"'{key}' in params")

    try:
        return model.PhysicalParams(
            s=_number(obj["s_ueV"], "'s_ueV' in params"),
            t1=_number(obj["t1_ps"], "'t1_ps' in params"),
            sigma=opt("sigma_ueV"),
            t2_star=opt("t2_star_ns"),
            k=opt("k"),
            g2_xx=opt("g2_xx"),
            g2_x=opt("g2_x"),
            eta_p=opt("eta_p"),
            t1_xx=opt("t1_xx_ps"),
            tau_s=opt("tau_s_us"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


_CONFIG_KEYS = {"n_samples", "seed", "window_ps", "quadrature", "gh_order"}
# (config key, command-line flag that overrides it)
_CONFIG_FLAGS = (("n_samples", "samples"), ("seed", "seed"), ("quadrature", "quadrature"),
                 ("gh_order", "gh_order"))


def _parse_config(obj, args) -> model.SimConfig:
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError("'config' must be a JSON object")
    _check_keys(obj, _CONFIG_KEYS, "config")
    merged = dict(obj)
    for key, flag in _CONFIG_FLAGS:
        if getattr(args, flag, None) is not None:
            merged[key] = getattr(args, flag)
    given = {key: _number(merged[key], f"'{key}' in config", integer=True)
             for key in ("n_samples", "seed", "gh_order") if key in merged}
    if "quadrature" in merged:
        given["quadrature"] = str(merged["quadrature"])
    if merged.get("window_ps") is not None:
        given["window"] = _number(merged["window_ps"], "'window_ps' in config")
    try:
        return model.SimConfig(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


_RUN_SPEC_KEYS = {"params", "config", "outputs"}


def load_run_spec(path, args) -> tuple[model.PhysicalParams, model.SimConfig, list[str]]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("run spec must be a JSON object")
    _check_keys(doc, _RUN_SPEC_KEYS, "run spec")
    if "params" not in doc:
        raise ConfigError("missing key 'params' in run spec")
    params = _parse_params(doc["params"])
    config = _parse_config(doc.get("config"), args)
    outputs = doc.get("outputs", ["metrics", "closed_form"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("'outputs' must be a non-empty list")
    for mode in outputs:
        if mode not in OUTPUT_MODES:
            raise ConfigError(f"unknown output mode '{mode}' in outputs")
    return params, config, outputs


def _params_echo(params: model.PhysicalParams) -> dict:
    echo = {
        "s_ueV": params.s,
        "t1_ps": params.t1,
        "sigma_ueV": params.sigma,
        "k": params.k,
    }
    if params.t2_star is not None:
        echo["t2_star_ns"] = params.t2_star
    if params.t1_xx is not None:
        echo["t1_xx_ps"] = params.t1_xx
    if params.tau_s is not None:
        echo["tau_s_us"] = params.tau_s
    return echo


def _density_matrix_doc(rho) -> dict:
    return {
        "basis": BASIS_ORDER,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(rho)],
    }


def _write_text(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def cmd_simulate(args) -> int:
    params, config, outputs = load_run_spec(args.run_spec, args)
    rho = model.apply_multipair_mixing(model.monte_carlo_rho(params, config), params.k)
    m = metrics.metrics_from_rho(rho)
    doc = {
        "fidelity": m.fidelity,
        "purity": m.purity,
        "concurrence": m.concurrence,
        "closed_form_fidelity": model.analytic_fidelity(params.s, params.sigma, params.t1, params.k),
        "params": _params_echo(params),
        "seed": config.seed,
        "n_samples": config.n_samples,
        "quadrature": config.quadrature,
        "gh_order": config.gh_order,
        "window_ps": config.window,
    }
    if "density_matrix" in outputs or "both" in outputs:
        doc["density_matrix"] = _density_matrix_doc(rho)
    _write_text(_json_text(doc), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    params, config, _ = load_run_spec(args.run_spec, args)
    s_min = _number(args.s_min, "--s-min")
    s_max = _number(args.s_max, "--s-max")
    if s_min < 0:
        raise ConfigError("--s-min must be >= 0")
    if s_min > s_max:
        raise ConfigError("--s-min must not exceed --s-max")
    if args.n_points < 2:
        raise ConfigError("--n-points must be >= 2")
    sigma_bands = [
        0.0,
        model.sigma_from_t2star(T2_STAR_LOW_NOISE_NS),
        model.sigma_from_t2star(T2_STAR_REFERENCE_NS),
        model.sigma_from_t2star(T2_STAR_HIGH_NOISE_NS),
    ]
    rows = []
    for s in np.linspace(s_min, s_max, args.n_points):
        fidelities = []
        for sigma in sigma_bands:
            point = model.PhysicalParams(s=float(s), t1=params.t1, sigma=sigma, k=params.k)
            rho = model.apply_multipair_mixing(model.monte_carlo_rho(point, config), params.k)
            fidelities.append(metrics.fidelity_phi_plus(rho))
        closed_form = model.analytic_fidelity(float(s), sigma_bands[2], params.t1, params.k)
        rows.append([_fmt(s)] + [_fmt(f) for f in fidelities] + [_fmt(closed_form)])
    header = ["S_ueV", "f_sigma0", "f_sigma_low", "f_sigma_ref", "f_sigma_high",
              "f_closed_form_ref"]
    _write_text(_csv_text(header, rows), args.out)
    return EXIT_OK


def cmd_window_sweep(args) -> int:
    params, config, _ = load_run_spec(args.run_spec, args)
    windows = [_number(w, "--windows") for w in args.windows]
    if any(w <= 0 for w in windows):
        raise ConfigError("windows must be positive")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ConfigError("windows must be strictly ascending")
    rows = []
    for window in windows:
        windowed = replace(config, window=window)
        # Dephasing-only figures: the multi-pair mixing channel is not part
        # of the window-filtered model.
        m = metrics.metrics_from_rho(model.monte_carlo_rho(params, windowed))
        rows.append([_fmt(window), _fmt(m.concurrence), _fmt(m.fidelity), _fmt(m.purity)])
    header = ["window_ps", "concurrence", "fidelity", "purity"]
    _write_text(_csv_text(header, rows), args.out)
    return EXIT_OK


_LITERATURE_KEYS = {
    "label", "t1_ps", "s_ueV", "window_ps", "reported_value",
    "reported_metric", "t2_star_range_ns",
}


def _parse_literature(path) -> list[LiteratureEntry]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ConfigError("literature file must be an object with an 'entries' list")
    _check_keys(doc, {"entries"}, "literature file")
    if not isinstance(doc["entries"], list):
        raise ConfigError("'entries' must be a list")
    entries = []
    for i, obj in enumerate(doc["entries"]):
        context = f"entries[{i}]"
        if not isinstance(obj, dict):
            raise ConfigError(f"{context} must be an object")
        _check_keys(obj, _LITERATURE_KEYS, context)
        for required in ("label", "t1_ps", "s_ueV", "reported_value",
                         "reported_metric", "t2_star_range_ns"):
            if required not in obj:
                raise ConfigError(f"missing key '{required}' in {context}")
        rng = obj["t2_star_range_ns"]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise ConfigError(f"'t2_star_range_ns' in {context} must be [low, high]")
        try:
            entries.append(LiteratureEntry(
                label=str(obj["label"]),
                t1=_number(obj["t1_ps"], f"'t1_ps' in {context}"),
                s=_number(obj["s_ueV"], f"'s_ueV' in {context}"),
                reported_value=_number(obj["reported_value"], f"'reported_value' in {context}"),
                reported_metric=str(obj["reported_metric"]),
                t2_star_range=tuple(_number(t, f"'t2_star_range_ns' in {context}") for t in rng),
                window=(None if obj.get("window_ps") is None
                        else _number(obj["window_ps"], f"'window_ps' in {context}")),
            ))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {context}: {exc}") from exc
    return entries


def _predicted_metric(entry: LiteratureEntry, sigma: float, config: model.SimConfig) -> float:
    # Upper-limit model: pure dephasing, no multi-pair mixing (k unknown for
    # literature sources).
    params = model.PhysicalParams(s=entry.s, t1=entry.t1, sigma=sigma, k=1.0)
    windowed = replace(config, window=entry.window)
    m = metrics.metrics_from_rho(model.monte_carlo_rho(params, windowed))
    return m.fidelity if entry.reported_metric == "fidelity" else m.concurrence


def cmd_compare(args) -> int:
    entries = _parse_literature(args.literature)
    config = _parse_config({}, args)
    header = [
        "label", "reported_metric", "t1_ps", "s_ueV", "window_ps",
        "t2_star_low_ns", "t2_star_high_ns", "predicted_low", "predicted_high",
        "reported_value", "within_range",
    ]
    rows = []
    lines = []
    for entry in entries:
        t2_low, t2_high = entry.t2_star_range
        # Longer T2* means weaker noise, hence the higher prediction.
        predictions = sorted(
            _predicted_metric(entry, model.sigma_from_t2star(t2), config)
            for t2 in (t2_low, t2_high)
        )
        low, high = predictions
        within = low <= entry.reported_value <= high
        rows.append([
            entry.label, entry.reported_metric, _fmt(entry.t1), _fmt(entry.s),
            _fmt(entry.window), _fmt(t2_low), _fmt(t2_high), _fmt(low),
            _fmt(high), _fmt(entry.reported_value), str(within).lower(),
        ])
        lines.append(
            f"{entry.label}: reported {entry.reported_metric} "
            f"{entry.reported_value:.3f}, model range [{low:.3f}, {high:.3f}]"
            f" -> {'within' if within else 'outside'}"
        )
    text = _csv_text(header, rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(text, args.out)
        sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_tomography(args) -> int:
    params, config, _ = load_run_spec(args.run_spec, args)
    if args.n_per_setting <= 0:
        raise ConfigError("--n-per-setting must be > 0")
    if args.max_iterations <= 0:
        raise ConfigError("--max-iterations must be > 0")
    rho_true = model.apply_multipair_mixing(model.monte_carlo_rho(params, config), params.k)
    settings = tomography.standard_settings(args.mode)
    records = tomography.simulate_counts(
        rho_true, settings, args.n_per_setting, seed=config.seed, poisson=args.poisson,
    )
    true_metrics = metrics.metrics_from_rho(rho_true)
    doc = {
        "mode": args.mode,
        "n_per_setting": args.n_per_setting,
        "poisson": bool(args.poisson),
        "seed": config.seed,
        "true_state": {
            "fidelity": true_metrics.fidelity,
            "purity": true_metrics.purity,
            "concurrence": true_metrics.concurrence,
        },
        "counts": [
            {"label": r.setting.label, "counts": r.counts, "weight": r.acquisition_weight}
            for r in records
        ],
    }
    exit_code = EXIT_OK
    if args.mode == "six_basis":
        by_label = {r.setting.label: r for r in records}
        c_hv = tomography.visibility(by_label["HH"], by_label["HV"])
        c_da = tomography.visibility(by_label["DD"], by_label["DA"])
        c_rl = tomography.visibility(by_label["RR"], by_label["RL"])
        doc["fidelity_estimate"] = {
            "c_hv": c_hv,
            "c_da": c_da,
            "c_rl": c_rl,
            "fidelity": tomography.fidelity_from_visibilities(c_hv, c_da, c_rl),
        }
    else:
        result = tomography.mle_reconstruct(records, max_iterations=args.max_iterations)
        reco_metrics = metrics.metrics_from_rho(result.rho)
        doc["reconstruction"] = {
            "fidelity": reco_metrics.fidelity,
            "purity": reco_metrics.purity,
            "concurrence": reco_metrics.concurrence,
            "trace_distance": metrics.trace_distance(result.rho, rho_true),
            "log_likelihood": result.log_likelihood,
            "iterations": result.iterations,
            "converged": result.converged,
            "message": result.message,
            "gradient_norm": result.gradient_norm,
            "density_matrix": _density_matrix_doc(result.rho),
        }
        if not result.converged:
            exit_code = EXIT_NUMERICAL
    _write_text(_json_text(doc), args.out)
    if exit_code == EXIT_NUMERICAL:
        print("tomography: reconstruction did not converge", file=sys.stderr)
    return exit_code


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed from the config")
    parser.add_argument("--samples", type=int, default=None,
                        help="override n_samples from the config")
    parser.add_argument("--quadrature", choices=model.QUADRATURE_MODES, default=None,
                        help="override the averaging mode")
    parser.add_argument("--gh-order", dest="gh_order", type=int, default=None,
                        help="Gauss-Hermite order (gauss_hermite mode)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcascade",
        description="Cascade photon-pair entanglement under nuclear spin noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="metrics for one parameter set")
    p.add_argument("run_spec", help="JSON run spec (params, config, outputs)")
    _add_common_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="fidelity vs fine-structure splitting")
    p.add_argument("run_spec")
    p.add_argument("--s-min", type=float, required=True, help="ueV")
    p.add_argument("--s-max", type=float, required=True, help="ueV")
    p.add_argument("--n-points", type=int, required=True)
    _add_common_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("window-sweep",
                       help="dephasing-only metrics vs coincidence window")
    p.add_argument("run_spec")
    p.add_argument("--windows", type=float, nargs="+", required=True,
                   help="ascending windows in ps")
    _add_common_options(p)
    p.set_defaults(func=cmd_window_sweep)

    p = sub.add_parser("compare", help="model range vs reported literature values")
    p.add_argument("literature", help="JSON literature file")
    _add_common_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tomography", help="simulated counting run and reconstruction")
    p.add_argument("run_spec")
    p.add_argument("--n-per-setting", dest="n_per_setting", type=int, default=1_000_000)
    p.add_argument("--mode", choices=("six_basis", "sixteen_basis"),
                   default="sixteen_basis")
    p.add_argument("--poisson", action="store_true", help="draw Poisson counts")
    p.add_argument("--max-iterations", dest="max_iterations", type=int,
                   default=tomography.MLE_DEFAULT_MAX_ITERATIONS)
    _add_common_options(p)
    p.set_defaults(func=cmd_tomography)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tomography.InsufficientSettingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
