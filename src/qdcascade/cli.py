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
import functools
import io
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, replace

import numpy as np

from . import metrics, model, tomography
from .linalg import InvalidDensityMatrixError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Sweep column -> T2* in ns: no spin noise, then the long end, the typical
# value (read by f_closed_form_ref) and the short end of reported T2* values.
_SWEEP_BANDS = {"f_sigma0": math.inf, "f_sigma_low": 3.2, "f_sigma_ref": 1.7, "f_sigma_high": 1.0}

BASIS_ORDER = "HHHVVHVV"

# A run spec's `outputs` values. simulate always prints the metrics and the
# closed-form fidelity, so "metrics" and "closed_form" (the shipped spec
# lists both) add nothing; the others add the density matrix.
OUTPUT_MODES = ("metrics", "density_matrix", "closed_form", "both")
_DENSITY_MATRIX_OUTPUTS = ("density_matrix", "both")
REPORTED_METRICS = ("fidelity", "concurrence")  # EntanglementMetrics field names


class ConfigError(Exception):
    """Invalid input file or option; maps to exit code 2."""


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


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _number_pair(value, name: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{name} must be [low, high]")
    return _number(value[0], name), _number(value[1], name)


# One table of (JSON key, field) pairs per JSON record, in the order of the
# output echoes. Each config key is also the argparse dest of the flag that
# overrides it.
_PARAMS_TABLE = (
    ("s_ueV", "s"), ("t1_ps", "t1"), ("sigma_ueV", "sigma"), ("k", "k"),
    ("g2_xx", "g2_xx"), ("g2_x", "g2_x"), ("eta_p", "eta_p"),
    ("t2_star_ns", "t2_star"), ("t1_xx_ps", "t1_xx"), ("tau_s_us", "tau_s"),
)
_CONFIG_TABLE = (
    ("seed", "seed"), ("n_samples", "n_samples"), ("quadrature", "quadrature"),
    ("gh_order", "gh_order"), ("window_ps", "window"),
)
# A literature entry: the dot, its window, the reported figure and a T2* range.
_LITERATURE_TABLE = (
    ("label", "label"),
    *(pair for pair in _PARAMS_TABLE + _CONFIG_TABLE if pair[1] in ("s", "t1", "window")),
    ("reported_value", "reported_value"), ("reported_metric", "reported_metric"),
    ("t2_star_range_ns", "t2_star_range"),
)
# How each field is read from JSON, where that is not _number.
_integer = functools.partial(_number, integer=True)
_CONVERTERS = {
    "seed": _integer, "n_samples": _integer, "gh_order": _integer,
    "quadrature": _text, "label": _text, "reported_metric": _text,
    "t2_star_range": _number_pair,
}


def _read_record(obj, table, context: str, *classes) -> dict:
    """Keyword arguments for the dataclasses from one JSON object.

    A key is required when its field has no default in classes (or is not
    one of their fields); null counts as absent where the field defaults to
    None and is passed to the converter anywhere else.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    _check_keys(obj, {key for key, _ in table}, context)
    defaults = {f.name: f.default for cls in classes for f in fields(cls)}
    kwargs = {}
    for key, field in table:
        default = defaults.get(field, MISSING)
        if key not in obj or (obj[key] is None and default is None):
            if default is MISSING:
                raise ConfigError(f"missing key '{key}' in {context}")
            continue
        kwargs[field] = _CONVERTERS.get(field, _number)(obj[key], f"'{key}' in {context}")
    return kwargs


def _build(factory, context: str, kwargs: dict):
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _parse_config(obj, args) -> model.SimConfig:
    """SimConfig from a run spec's config object and the flags that override it."""
    if obj is None:
        obj = {}
    if isinstance(obj, dict):
        flags = {key: getattr(args, key) for key, _ in _CONFIG_TABLE
                 if getattr(args, key, None) is not None}
        obj = {**obj, **flags}
    return _build(model.SimConfig, "config",
                  _read_record(obj, _CONFIG_TABLE, "config", model.SimConfig))


def load_run_spec(path, args) -> tuple[model.PhysicalParams, model.SimConfig, bool]:
    """The dot, its averaging controls and whether simulate adds the density
    matrix, from a run spec and the flags that override its config."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("run spec must be a JSON object")
    _check_keys(doc, {"params", "config", "outputs"}, "run spec")
    if "params" not in doc:
        raise ConfigError("missing key 'params' in run spec")
    params = _build(model.PhysicalParams, "params",
                    _read_record(doc["params"], _PARAMS_TABLE, "params", model.PhysicalParams))
    config = _parse_config(doc.get("config"), args)
    outputs = doc.get("outputs", ["metrics", "closed_form"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("'outputs' must be a non-empty list")
    for mode in outputs:
        if mode not in OUTPUT_MODES:
            raise ConfigError(f"unknown output mode '{mode}' in outputs")
    return params, config, any(mode in _DENSITY_MATRIX_OUTPUTS for mode in outputs)


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
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def cmd_simulate(args) -> int:
    params, config, include_density_matrix = load_run_spec(args.run_spec, args)
    rho = model.apply_multipair_mixing(model.monte_carlo_rho(params, config), params.k)
    doc = {
        **asdict(metrics.metrics_from_rho(rho)),
        "closed_form_fidelity": model.analytic_fidelity(params),
        "params": {key: getattr(params, field) for key, field in _PARAMS_TABLE
                   if getattr(params, field) is not None},
        **{key: getattr(config, field) for key, field in _CONFIG_TABLE},
    }
    if include_density_matrix:
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
    s_values = np.linspace(s_min, s_max, args.n_points)
    points = [{column: model.PhysicalParams(s=float(s), t1=params.t1, t2_star=t2_star, k=params.k)
               for column, t2_star in _SWEEP_BANDS.items()} for s in s_values]
    rhos = model.monte_carlo_rhos((point, config) for row in points for point in row.values())
    mixed = (model.apply_multipair_mixing(rho, params.k) for rho in rhos)
    grid = np.reshape([metrics.metrics_from_rho(rho).fidelity for rho in mixed],
                      (s_values.size, len(_SWEEP_BANDS)))
    rows = []
    for s, row, fidelities in zip(s_values, points, grid):
        closed_form = model.analytic_fidelity(row["f_sigma_ref"])
        rows.append([_fmt(s)] + [_fmt(f) for f in fidelities] + [_fmt(closed_form)])
    header = ["S_ueV", *_SWEEP_BANDS, "f_closed_form_ref"]
    _write_text(_csv_text(header, rows), args.out)
    return EXIT_OK


def cmd_window_sweep(args) -> int:
    params, config, _ = load_run_spec(args.run_spec, args)
    windows = [_number(w, "--windows") for w in args.windows]
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ConfigError("windows must be strictly ascending")
    windowed = [_build(functools.partial(replace, config), "--windows", {"window": w})
                for w in windows]
    rhos = model.monte_carlo_rhos((params, c) for c in windowed)
    rows = []
    for window, rho in zip(windows, rhos):
        # Dephasing-only figures: the multi-pair mixing channel is not part
        # of the window-filtered model.
        m = metrics.metrics_from_rho(rho)
        rows.append([_fmt(window), _fmt(m.concurrence), _fmt(m.fidelity), _fmt(m.purity)])
    header = ["window_ps", "concurrence", "fidelity", "purity"]
    _write_text(_csv_text(header, rows), args.out)
    return EXIT_OK


def _parse_literature(path, config: model.SimConfig) -> list:
    """Each entry as (record, points at both ends of its T2* range, windowed config)."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ConfigError("literature file must be an object with an 'entries' list")
    _check_keys(doc, {"entries"}, "literature file")
    if not isinstance(doc["entries"], list):
        raise ConfigError("'entries' must be a list")
    entries = []
    for i, obj in enumerate(doc["entries"]):
        context = f"entries[{i}]"
        entry = _read_record(obj, _LITERATURE_TABLE, context,
                             model.PhysicalParams, model.SimConfig)
        if entry["reported_metric"] not in REPORTED_METRICS:
            raise ConfigError(
                f"invalid {context}: reported_metric must be one of {REPORTED_METRICS}")
        low, high = entry["t2_star_range"]
        if low > high:
            raise ConfigError(f"invalid {context}: t2_star_range_ns must have low <= high")
        # Upper-limit model: pure dephasing, no multi-pair mixing (k unknown
        # for literature sources).
        dot = {"s": entry["s"], "t1": entry["t1"], "k": 1.0}
        points = [_build(model.PhysicalParams, context, {**dot, "t2_star": t2}) for t2 in (low, high)]
        windowed = _build(functools.partial(replace, config), context,
                          {"window": entry.get("window")})
        entries.append((entry, points, windowed))
    return entries


def cmd_compare(args) -> int:
    entries = _parse_literature(args.literature, _parse_config({}, args))
    header = [
        "label", "reported_metric", "t1_ps", "s_ueV", "window_ps",
        "t2_star_low_ns", "t2_star_high_ns", "predicted_low", "predicted_high",
        "reported_value", "within_range",
    ]
    # Both ends of every entry's T2* range, in entry order.
    rhos = model.monte_carlo_rhos(
        (point, windowed) for _, points, windowed in entries for point in points
    )
    rows = []
    lines = []
    for (entry, points, windowed), ends in zip(entries, zip(rhos[::2], rhos[1::2])):
        label, metric, value = entry["label"], entry["reported_metric"], entry["reported_value"]
        # Longer T2* means weaker noise, hence the higher prediction.
        low, high = sorted(getattr(metrics.metrics_from_rho(rho), metric) for rho in ends)
        within = low <= value <= high
        rows.append([
            label, metric, _fmt(entry["t1"]), _fmt(entry["s"]), _fmt(windowed.window),
            _fmt(points[0].t2_star), _fmt(points[1].t2_star), _fmt(low), _fmt(high),
            _fmt(value), str(within).lower(),
        ])
        lines.append(
            f"{label}: reported {metric} {value:.3f}, model range [{low:.3f}, {high:.3f}]"
            f" -> {'within' if within else 'outside'}"
        )
    _write_text(_csv_text(header, rows), args.out)
    if args.out is not None:
        sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_tomography(args) -> int:
    params, config, _ = load_run_spec(args.run_spec, args)
    if args.max_iterations <= 0:
        raise ConfigError("--max-iterations must be > 0")
    rho_true = model.apply_multipair_mixing(model.monte_carlo_rho(params, config), params.k)
    settings = tomography.standard_settings(args.mode)
    records = _build(functools.partial(tomography.simulate_counts, rho_true, settings),
                     "--n-per-setting", {"n_per_setting": args.n_per_setting,
                                         "seed": config.seed, "poisson": args.poisson})
    doc = {
        "mode": args.mode,
        "n_per_setting": args.n_per_setting,
        "poisson": bool(args.poisson),
        "seed": config.seed,
        "true_state": asdict(metrics.metrics_from_rho(rho_true)),
        "counts": [
            {"label": r.setting.label, "counts": r.counts, "weight": r.acquisition_weight}
            for r in records
        ],
    }
    exit_code = EXIT_OK
    if args.mode == "six_basis":
        # The settings come as co/cross pairs: HH/HV, DD/DA and RR/RL.
        pairs = zip(("c_hv", "c_da", "c_rl"), records[::2], records[1::2])
        estimate = {name: tomography.visibility(co, cross) for name, co, cross in pairs}
        estimate["fidelity"] = tomography.fidelity_from_visibilities(**estimate)
        doc["fidelity_estimate"] = estimate
    else:
        result = tomography.mle_reconstruct(records, max_iterations=args.max_iterations)
        fit = asdict(result)
        del fit["rho"]
        doc["reconstruction"] = {
            **asdict(metrics.metrics_from_rho(result.rho)),
            "trace_distance": metrics.trace_distance(result.rho, rho_true),
            **fit,
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
    parser.add_argument("--samples", dest="n_samples", type=int, default=None,
                        help="override n_samples from the config")
    parser.add_argument("--quadrature", choices=model.QUADRATURE_MODES, default=None,
                        help="override the averaging mode")
    parser.add_argument("--gh-order", dest="gh_order", type=int, default=None,
                        help="Gauss-Hermite order (gauss_hermite mode)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    changes nothing in it, and help text is laid out when it is printed."""
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
    except (ConfigError, tomography.InsufficientSettingsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidDensityMatrixError, tomography.ZeroCountsError) as exc:
        # Inputs that pass every check can still overflow the averages, or
        # leave a co/cross pair without counts.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
