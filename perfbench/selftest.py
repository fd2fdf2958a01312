"""Self-test of the traced run.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: all four) it makes two traced runs with the
same seed and checks that every per-layer metric the benchmark declares
is reported, and that every count (the ``*.calls`` metrics,
``webs.generate_connected_cubic.graphs``, ``laurent.divexact.max_terms``
and ``homology.rank_reuse``) is identical between the two runs.  It also
checks that ``BENCHMARK.json`` declares exactly the metrics the tracer
reports.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans
from run import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed {result['failed']} items")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if [(m["name"], m["unit"]) for m in declared] != list(spans.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    for workload in args.workloads:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for name, _ in spans.PER_LAYER:
            if name not in first or name not in second:
                problems.append(f"{workload}: {name} missing from the traced output")
        for name in spans.COUNTS:
            if first.get(name) != second.get(name):
                problems.append(f"{workload}: {name} {first.get(name)} != {second.get(name)}")
        print(f"{workload}: {len(spans.COUNTS)} counts compared", flush=True)
    for problem in problems:
        print(f"FAIL  {problem}")
    print("traced-run self-test passed" if not problems else "traced-run self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
