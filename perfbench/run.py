"""Run one workload of the webfoam benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uct-suite --seed 0 --seconds 20 --trace 0

Workloads: ``uct-suite``, ``cubic-enum``, ``operator-models``, ``cli-cold``
(see ``DESIGN.md``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
run instead.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 400, "failed": 0, "metrics": {...}}

Every workload runs in a fresh interpreter (``worker.py``) that imports
``webfoam`` from this checkout's ``src/``.  ``setup_s`` is the median,
over several fresh interpreters, of the time from spawning the process
until it reports its inputs ready.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("uct-suite", "cubic-enum", "operator-models", "cli-cold")

#: Fresh interpreters whose set-up time is sampled in an untraced run.
SETUP_SAMPLES = 7
#: Every process this script starts must be done by then.
DEADLINE_S = 170


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time and the rest of its stdout."""
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(WORKER), *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - begin
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args} did not finish in time") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed with exit code {proc.returncode}")
    return setup_s, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "webfoam" / "__init__.py").is_file():
        print(f"error: no webfoam package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn([*common, "--setup-only"], deadline)[0])
        setup_s, out = spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])
    attempted, failed = result.pop("attempted"), result.pop("failed")

    if args.trace:
        units = dict(spans.PER_LAYER)
        print(f"{args.workload}: traced run, passes untraced/traced {result.pop('passes')}")
    else:
        units = {
            "setup_s": "s",
            "wall_s": "s",
            "item_ms.p50": "ms",
            "item_ms.tail": "ms",
            "peak_rss_mb": "MB",
            "correct_frac": "ratio",
        }
        result["setup_s"] = statistics.median(setups)
        result["correct_frac"] = (attempted - failed) / attempted
        print(
            f"{args.workload}: {result.pop('passes')} passes, {result.pop('samples')} item "
            f"samples, item_ms.tail is p{result.pop('tail_percentile')}, "
            f"failed_frac {failed / attempted} ratio ({failed} of {attempted} items)"
        )
    metrics = {name: {"value": result[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
