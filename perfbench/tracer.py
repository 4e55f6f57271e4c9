"""Spans around calls into the qdcascade modules, recorded from outside.

Within a ``with`` block the tracer replaces module attributes with timing
wrappers, and puts the originals back when the block ends; the package source is
not touched. A target that no longer exists is skipped and reported on
stderr, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict

# (span name, module, attribute). Spans without a per-layer metric of their
# own still take their time out of the enclosing span's self time.
TARGETS = (
    ("cli.main", "qdcascade.cli", "main"),
    ("cli.load_run_spec", "qdcascade.cli", "load_run_spec"),
    ("model.monte_carlo_rho", "qdcascade.model", "monte_carlo_rho"),
    ("model.overhauser_samples", "qdcascade.model", "overhauser_samples"),
    ("model.branch_pairs", "qdcascade.model", "_branch_pair_vectors"),
    ("model.emission_phase_average", "qdcascade.model", "emission_phase_average"),
    ("model.reduce", "qdcascade.model", "_averaged_rho"),
    ("model.quadrature_nodes", "numpy.polynomial.hermite", "hermgauss"),
    ("model.apply_multipair_mixing", "qdcascade.model", "apply_multipair_mixing"),
    ("model.analytic_fidelity", "qdcascade.model", "analytic_fidelity"),
    ("metrics.metrics_from_rho", "qdcascade.metrics", "metrics_from_rho"),
    ("metrics.fidelity_phi_plus", "qdcascade.metrics", "fidelity_phi_plus"),
    ("metrics.purity", "qdcascade.metrics", "purity"),
    ("metrics.concurrence", "qdcascade.metrics", "concurrence"),
    ("linalg.assert_density_matrix", "qdcascade.linalg", "assert_density_matrix"),
    ("tomography.mle_reconstruct", "qdcascade.tomography", "mle_reconstruct"),
    ("tomography.simulate_counts", "qdcascade.tomography", "simulate_counts"),
    ("tomography.csv", "qdcascade.tomography", "save_count_records_csv"),
    ("tomography.csv", "qdcascade.tomography", "load_count_records_csv"),
)


def patch(module_name: str, attr: str, make_wrapper, undo: list) -> bool:
    """Replace a function by make_wrapper(function) wherever qdcascade holds it.

    Returns False, changing nothing, when the function does not exist.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    holders = [module] + [m for key, m in list(sys.modules.items())
                          if key == "qdcascade" or key.startswith("qdcascade.")]
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, wrapper)
                undo.append((holder, key, original))
    return True


def unpatch(undo: list) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
    undo.clear()


class AllocationProbe:
    """Peak traced allocation inside each monte_carlo_rho call.

    tracemalloc slows every allocation, several-fold on the Gauss-Hermite
    path, so the probe runs in a round of its own, apart from the spans.
    """

    def __init__(self):
        self.peaks = []
        self._undo = []

    def __enter__(self):
        patch("qdcascade.model", "monte_carlo_rho", self._wrap, self._undo)
        return self

    def __exit__(self, *exc_info):
        unpatch(self._undo)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def peak_mb(self) -> float:
        return max(self.peaks, default=0) / 2**20


class Tracer:
    def __init__(self):
        self.spans = []  # (round, id, parent id or -1, name, start, end)
        self.events = []  # (round, kind, value) counts taken at span boundaries
        self.round = 0
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    def __enter__(self):
        for name, module_name, attr in TARGETS:
            if not patch(module_name, attr, functools.partial(self._wrap, name), self._undo):
                self.missing.append(f"{module_name}.{attr}")
        if self.missing:
            print(f"trace: not found, reported as 0: {', '.join(self.missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc_info):
        unpatch(self._undo)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.round, span_id, parent, name, start, end))
            if observe:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self, bound.arguments, result)
                except (TypeError, AttributeError, KeyError):
                    pass  # a changed signature or result reports nothing
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round\tid\tparent\tname\tstart_s\tend_s\n")
            for rnd, span_id, parent, name, start, end in self.spans:
                fh.write(f"{rnd}\t{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

    def round_metrics(self, rnd: int) -> dict[str, float]:
        spans = [s for s in self.spans if s[0] == rnd]
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            child_time[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for _, span_id, _, name, start, end in spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[span_id]
            calls[name] += 1
        events = defaultdict(list)
        for event_round, kind, value in self.events:
            if event_round == rnd:
                events[kind].append(value)
        draws = events["draw"]
        iterations = sum(events["iterations"])
        mc_calls = calls["model.monte_carlo_rho"]
        return {
            "cli.load_run_spec.s": total["cli.load_run_spec"],
            "cli.main.self_s": self_time["cli.main"],
            "model.monte_carlo_rho.calls": mc_calls,
            "model.monte_carlo_rho.s": total["model.monte_carlo_rho"],
            "model.overhauser_samples.s": total["model.overhauser_samples"],
            "model.overhauser_samples.draws": len(draws),
            "model.sampler.unique_draw_ratio": len(set(draws)) / len(draws) if draws else 0.0,
            "model.shifts": sum(events["shifts"]),
            "model.branch_pairs.s": total["model.branch_pairs"],
            "model.emission_phase_average.s": total["model.emission_phase_average"],
            "model.reduce.s": self_time["model.reduce"],
            "model.quadrature_nodes.s": total["model.quadrature_nodes"],
            "model.apply_multipair_mixing.s": total["model.apply_multipair_mixing"],
            "metrics.metrics_from_rho.calls": calls["metrics.metrics_from_rho"],
            "metrics.metrics_from_rho.s": total["metrics.metrics_from_rho"],
            "metrics.concurrence.s": total["metrics.concurrence"],
            "linalg.assert_density_matrix.calls": calls["linalg.assert_density_matrix"],
            "linalg.assert_density_matrix.s": total["linalg.assert_density_matrix"],
            "linalg.validations_per_state":
                calls["linalg.assert_density_matrix"] / mc_calls if mc_calls else 0.0,
            "tomography.mle_reconstruct.calls": calls["tomography.mle_reconstruct"],
            "tomography.mle_reconstruct.s": total["tomography.mle_reconstruct"],
            "tomography.mle.iterations": iterations,
            "tomography.mle.s_per_iteration":
                total["tomography.mle_reconstruct"] / iterations if iterations else 0.0,
            "tomography.mle.not_converged": events["converged"].count(False),
            "tomography.simulate_counts.s": total["tomography.simulate_counts"],
            "tomography.csv.s": total["tomography.csv"],
        }

    def layer_metrics(self, rounds) -> dict[str, float]:
        """Per-round values, low median over the given traced rounds."""
        per_round = [self.round_metrics(r) for r in rounds]
        return {key: statistics.median_low(m[key] for m in per_round) for key in per_round[0]}


def _observe_draw(tracer, args, _result):
    # Samples are a pure function of (seed, start + i), so one key per stream.
    tracer.events.append((tracer.round, "draw", (args["seed"], args["n"], args["start"])))


def _observe_shifts(tracer, args, _result):
    tracer.events.append((tracer.round, "shifts", len(args["shifts"])))


def _observe_mle(tracer, _args, result):
    tracer.events.append((tracer.round, "iterations", int(result.iterations)))
    tracer.events.append((tracer.round, "converged", bool(result.converged)))


OBSERVERS = {
    "model.overhauser_samples": _observe_draw,
    "model.reduce": _observe_shifts,
    "tomography.mle_reconstruct": _observe_mle,
}


def import_times(python: str, env: dict, runs: int) -> dict[str, float]:
    """Median import cost of qdcascade and of the scipy modules it pulls in,
    from `python -X importtime` in fresh processes."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import qdcascade, qdcascade.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative times of top-level qdcascade imports and of the
    outermost scipy imports. Lines come children first, indented 2 spaces
    per level after a single space."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, int(cumulative), name.strip()))
    scipy_us = qdcascade_us = 0
    stack = []  # ancestors of the current line: (level, is_scipy)
    for level, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_us += cumulative
        if level == 0 and (name == "qdcascade" or name.startswith("qdcascade.")):
            qdcascade_us += cumulative
        stack.append((level, is_scipy))
    return {"setup.import_qdcascade.s": qdcascade_us * 1e-6, "setup.import_scipy.s": scipy_us * 1e-6}
