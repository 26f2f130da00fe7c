"""bachain benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload chains --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy, and the run
fails if it is missing.  Work files go to ``.bench_work/`` there.

A run sets the workload up several times (``setup_s`` is the median),
then repeats identical passes until ``--seconds`` have elapsed.  Every
pass is checked after its timing ends: return codes, round trips,
theorem checks, oracle agreement, and output digests that must equal the
first pass's (and the pinned ones in ``pins.json`` for the default seed).
A pass that breaks a check counts as failed operations.

``--trace 0`` reports the end-to-end metrics, with times in
reference-speed seconds (see ``clock.py``).  ``--trace 1`` alternates
untraced and traced passes: the traced ones give the per-layer metrics
of the median traced pass, the untraced ones the base for
``trace.overhead_frac``, and the spans of the last traced pass are
written to ``.bench_work/<workload>.spans.tsv``.

The human-readable summary lines come first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from clock import Clock  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 15
MIN_PASSES = 2
PACKAGE_MODULES = ("realnum", "linform", "enumerator", "analysis",
                   "extension", "cli")


class BenchError(Exception):
    """The benchmark cannot run here (missing package or bad arguments)."""


def load_package() -> types.SimpleNamespace:
    """Import ``bachain`` afresh from ``ROOT/src``."""
    src = ROOT / "src"
    if not (src / "bachain" / "__init__.py").is_file():
        raise BenchError(f"no bachain package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "bachain" or n.startswith("bachain.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bachain")
    if Path(pkg.__file__).resolve().parent != (src / "bachain").resolve():
        raise BenchError(f"bachain imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"bachain.{m}") for m in PACKAGE_MODULES})


def load_pins(workload: str, size: str, seed: int) -> dict:
    if seed != workloads.DEFAULT_SEED:
        return {}
    pins = json.loads((BENCH / "pins.json").read_text())
    return pins.get(size, {}).get(workload, {})


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full"):
        if workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}; choose from "
                             f"{', '.join(workloads.WORKLOADS)}")
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = ROOT / ".bench_work" / workload
        self.pins = load_pins(workload, size, seed)
        self.first_outputs: dict = {}
        self.failed = 0
        self.attempted = 0
        self.notes: list[str] = []

    def setup(self) -> list:
        """Set up SETUP_REPS times and keep the last; return when each
        set-up started and ended."""
        spans = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            self.bc = load_package()
            if self.work.exists():
                shutil.rmtree(self.work)
            self.work.mkdir(parents=True)
            self.wl = workloads.WORKLOADS[self.name](
                self.bc, self.work, self.seed,
                workloads.SIZES[self.size][self.name])
            spans.append((t0, perf_counter()))
        return spans

    def _account(self, res: workloads.PassResult) -> None:
        """Check a finished pass and count its operations and failures."""
        self.wl.check(res)
        for label, data in res.outputs.items():
            got = workloads.digest(data)
            want = self.first_outputs.setdefault(label, got)
            if got != want:
                res.fail(f"{label} differs from the first pass's output")
            pinned = self.pins.get(label)
            if pinned is not None and got != pinned:
                res.fail(f"{label}: sha256 {got} != pinned {pinned}")
        if self.pins and set(self.pins) != set(res.outputs):
            res.fail("outputs differ from the pinned set of files")
        self.attempted += res.ops
        self.failed += min(len(res.failures), res.ops)
        self.notes.extend(res.failures)

    def _traced_pass(self, tracer) -> dict:
        tracer.reset()
        tracer.install()
        try:
            res = self.wl.run_pass()
        finally:
            tracer.uninstall()
        res.measure(lambda a, b: b - a)
        self._account(res)
        metrics, failures = layers.layer_metrics(
            tracer, res.wall, res.output_bytes if self.wl.cli_outputs else 0)
        if failures:
            self.failed += 1
            self.notes.extend(failures)
        return metrics

    def run(self) -> dict:
        """Set up, run passes until the time is up, and return the
        summary figures and the metrics, each as (value, unit)."""
        # a traced run keeps raw seconds: the clock's kernel would run
        # inside spans
        clock = None if self.trace else Clock()
        tracer = None
        plain, layer_runs = [], []
        if clock:
            clock.start()
        try:
            setup_spans = self.setup()
            if self.trace:
                tracer = layers.make_tracer(self.bc)
            t_end = perf_counter() + self.seconds
            while (len(plain) < MIN_PASSES or perf_counter() < t_end
                   or (self.trace and len(layer_runs) < MIN_PASSES)):
                if self.trace and len(layer_runs) < len(plain):
                    layer_runs.append(self._traced_pass(tracer))
                else:
                    res = self.wl.run_pass()
                    self._account(res)
                    plain.append(res)
        finally:
            if clock:
                clock.stop()
        seconds = clock.scaled if clock else (lambda a, b: b - a)
        for res in plain:
            res.measure(seconds)

        summary = {
            "passes": (len(plain), "count"),
            "wall_raw_s": (statistics.median(
                p.span[1] - p.span[0] for p in plain), "s"),
        }
        summary.update(self.wl.summary(plain))
        if self.trace:
            tracer.write(self.work.parent / f"{self.name}.spans.tsv")
            summary["traced_passes"] = (len(layer_runs), "count")
            metrics = self._layer_result(plain, layer_runs)
        else:
            summary["kernel_ms"] = (
                1000 * statistics.median(clock.kernel_seconds()), "ms")
            metrics = {
                "setup_s": (statistics.median(
                    seconds(a, b) for a, b in setup_spans), "s"),
                "wall_s": (statistics.median(p.wall for p in plain), "s"),
                "op_p50_ms": (self.wl.op_ms(plain), "ms"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        summary["failed_frac"] = (self.failed / self.attempted, "ratio")
        return {"summary": summary, "metrics": metrics}

    def _layer_result(self, plain, layer_runs) -> dict:
        """Metrics of the traced pass with the median wall time, after
        checking that every count repeated in every traced pass."""
        for metrics in layer_runs[1:]:
            for name in layers.COUNTS:
                if metrics[name] != layer_runs[0][name]:
                    self.failed += 1
                    self.notes.append(f"{name} did not repeat: "
                                      f"{metrics[name]} != {layer_runs[0][name]}")
        walls = [m["trace.wall_s"] for m in layer_runs]
        median_pass = layer_runs[walls.index(statistics.median_low(walls))]
        median_pass["trace.overhead_frac"] = (
            statistics.median(walls) /
            statistics.median(p.wall for p in plain) - 1)
        return {name: (median_pass[name], unit)
                for name, unit in layers.METRICS.items()}


def result_line(runner: Runner, out: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        runner = Runner(args.workload, args.seed, args.seconds,
                        bool(args.trace))
        out = runner.run()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for note in runner.notes:
        print(f"bench: check failed: {note}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for name, (value, unit) in list(out["summary"].items()) + \
            list(out["metrics"].items()):
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(result_line(runner, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
