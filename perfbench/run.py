#!/usr/bin/env python3
"""qdcascade benchmark: run one workload, timed or traced.

    python3 perfbench/run.py --workload mc-large --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ../src relative to this
file. A run repeats whole rounds of the workload's operations until the next
round would overrun --seconds (at least one round), checks the first round
against the oracle and every later round against the first, and prints one
JSON object as the last line of stdout. With --trace 0 it reports the
end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
ones; progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
SETUP_CODE = ("import time; t = time.perf_counter(); import qdcascade, qdcascade.cli; "
              "print(time.perf_counter() - t)")


@dataclass
class Round:
    wall: float
    cpu: float
    op_times: list[float]
    attempted: int
    failed: list[str]


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> float:
    """Median time for a fresh process to import qdcascade and qdcascade.cli.
    One untimed import first fills the bytecode and file caches."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


class Runner:
    """Runs rounds of one workload. Keeps the first round's outputs for the
    oracle check and compares every later round with them as it ends, so
    memory does not grow with the number of rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds: list[Round] = []
        self.first = None  # (outputs, failed) of the first round
        self.consistent = True

    def run_round(self) -> Round:
        from workloads import same

        ops = self.workload.operations()
        outputs, op_times, failed = {}, [], []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            start = time.perf_counter()
            try:
                outputs[op.name] = op.run()
            except Exception as exc:  # a failed operation is counted and the round goes on
                failed.append(op.name)
                if op.name in self.workload.expected_failures:
                    log(f"{op.name} failed as expected: {exc}")
                else:
                    log(f"{op.name} FAILED:\n{traceback.format_exc()}")
            if op.timed:
                op_times.append(time.perf_counter() - start)
        rnd = Round(time.perf_counter() - wall0, time.process_time() - cpu0, op_times, len(ops), failed)
        self.rounds.append(rnd)
        if self.first is None:
            self.first = (outputs, failed)
        elif failed != self.first[1] or not same(outputs, self.first[0]):
            log(f"CHECK FAILED: round {len(self.rounds)} differs from round 1")
            self.consistent = False
        log(f"round {len(self.rounds)}: wall {rnd.wall:.3f} s, cpu {rnd.cpu:.3f} s, "
            f"{rnd.attempted} operations, failed {failed or 'none'}")
        return rnd

    def run_phase(self, budget: float, tracer=None) -> list[Round]:
        """Whole rounds until the next one would overrun the budget; at least one."""
        rounds, measured = [], 0.0
        while True:
            if tracer is not None:
                tracer.round = len(self.rounds)
            rounds.append(self.run_round())
            measured += rounds[-1].wall
            if measured + rounds[-1].wall > budget:
                return rounds

    def correct(self) -> bool:
        from workloads import CheckFailed

        try:
            self.workload.check(self.first[0])
        except CheckFailed as exc:
            log(f"CHECK FAILED: {exc}")
            return False
        return self.consistent


def report(values: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdcascade" / "__init__.py").is_file():
        print(f"error: no qdcascade source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = program_env()
    setup_s = None if args.trace else measure_setup(env)
    work_dir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, work_dir))
        if not args.trace:
            rounds = runner.run_phase(args.seconds)
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(r.wall for r in rounds),
                "op_p50_ms": 1e3 * statistics.median(t for r in rounds for t in r.op_times),
                "cpu_s": statistics.median(r.cpu for r in rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = report(values, declared["end_to_end"])
        else:
            untraced = runner.run_phase(args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced = runner.run_phase(args.seconds / 2, tracer)
            with tracing.AllocationProbe() as probe:
                runner.run_round()
            values = tracer.layer_metrics(range(len(untraced), len(untraced) + len(traced)))
            values["model.peak_alloc_mb"] = probe.peak_mb()
            values.update(tracing.import_times(sys.executable, env, IMPORTTIME_RUNS))
            values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                          - statistics.median(r.wall for r in untraced))
            trace_dir = BENCH / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.tsv"
            tracer.write(trace_path)
            log(f"{len(tracer.spans)} spans written to {trace_path}; tracing overhead "
                f"{values['trace.overhead_s']:+.3f} s per round")
            metrics = report(values, declared["per_layer"])
        correct = runner.correct()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in runner.rounds),
        "failed": sum(len(r.failed) for r in runner.rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
