"""One workload process: set up, say ``ready``, then measure.

``run.py`` starts this script in a fresh interpreter::

    python3 -s perfbench/worker.py --workload NAME --seed N --setup-only
    python3 -s perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It prints ``ready`` once the workload's inputs are built and, unless
``--setup-only`` is given, one JSON line with the run's results at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _, import_s = spans.import_cli(ROOT)
    import workloads  # imports the package, so only once src is on the path

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_goldens())
    caches = workloads.find_caches()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    if args.trace:
        half = args.seconds / 2
        walls, records, _ = workloads.run_passes(workload, caches, half, 1, import_s)
        tracer = spans.Tracer()
        spans.instrument(tracer)
        traced_walls, traced_records, layers = workloads.run_passes(
            workload, caches, half, 1, import_s, tracer
        )
        tracer.uninstall()
        for name, _ in spans.PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            values = [pass_metrics[name] for pass_metrics in layers]
            if name in spans.COUNTS:
                if len(set(values)) > 1:
                    raise RuntimeError(f"{name} differs between traced passes: {values}")
                result[name] = values[0]
            else:
                result[name] = statistics.median(values)
        result["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1
        )
        records += traced_records
        result["passes"] = [len(walls), len(traced_walls)]
    else:
        walls, records, _ = workloads.run_passes(
            workload, caches, args.seconds, workload.min_passes, import_s
        )
        latencies = sorted(x for record in records for x in record.latencies)
        result["wall_s"] = statistics.median(walls)
        # The median of per-pass medians: with few items per pass (6 in
        # operator-models) a pooled median falls between two items' samples.
        result["item_ms.p50"] = (
            statistics.median(statistics.median(record.latencies) for record in records) * 1000
        )
        result["item_ms.tail"] = workloads.percentile(latencies, workload.tail_percentile) * 1000
        result["peak_rss_mb"] = workload.peak_rss_mb()
        result["passes"] = len(walls)
        result["samples"] = len(latencies)
        result["tail_percentile"] = workload.tail_percentile
    result["attempted"] = sum(record.attempted for record in records)
    result["failed"] = sum(record.failed for record in records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
