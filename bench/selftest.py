"""Small-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at tiny sizes, once untraced and twice traced, for a
single short run each, and checks that:

- every metric ``BENCHMARK.json`` names is reported, with its unit;
- the correctness gate passes (no failed operation, outputs match the
  digests pinned for the default seed at these sizes);
- the traced counts repeat exactly between the two traced runs;
- module self times plus the benchmark's own time add up to the traced
  wall time;
- ``run.py`` exits nonzero without a result in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's files.

Exits 0 when every check holds and prints one line per failure otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
from layers import COUNTS, MODULES
from workloads import DEFAULT_SEED, WORKLOADS


def check_metrics(where, metrics, declared, problems) -> None:
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{where}: {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{where}: {spec['name']} in {got['unit']}, "
                            f"declared {spec['unit']}")
    extra = set(metrics) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")


def run_tiny(name: str, trace: bool, problems: list) -> dict:
    runner = run.Runner(name, DEFAULT_SEED, 0, trace, size="tiny")
    line = run.result_line(runner, runner.run())
    where = f"{name} trace={int(trace)}"
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"{where}: correctness gate failed: "
                        f"{runner.notes[:3]}")
    return line["metrics"]


def check_bare_directory(problems: list) -> None:
    """The benchmark must refuse to run without the package source."""
    bare = run.ROOT / ".bench_work" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "chains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without src/")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        check_metrics(f"{name} trace=0", run_tiny(name, False, problems),
                      spec["end_to_end"], problems)
        first = run_tiny(name, True, problems)
        second = run_tiny(name, True, problems)
        check_metrics(f"{name} trace=1", first, spec["per_layer"], problems)
        for count in COUNTS:
            if first[count]["value"] != second[count]["value"]:
                problems.append(f"{name}: {count} did not repeat "
                                f"({first[count]['value']} then "
                                f"{second[count]['value']})")
        total = sum(first[f"{m}.self_s"]["value"]
                    for m in MODULES + ("bench",))
        wall = first["trace.wall_s"]["value"]
        if not math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{name}: self times sum to {total}, "
                            f"traced wall is {wall}")
        print(f"selftest: {name} done", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else
          f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
