"""Measure the timings the ROADMAP quotes, to reconcile them with this box.

Usage, from the root of a checkout::

    python3 perfbench/baselines.py

Each timing starts with the package's caches empty and is the median of
``REPEATS`` runs, except the two long acceptance checks, which run once.
A timing more than 25% away from the quoted figure is flagged.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5

#: Figure quoted in ROADMAP.md, in seconds.
QUOTED = {
    "inequality-uct-suite check": 11.6,
    "tait-formula check": 3.0,
    "generate_connected_cubic(10), cold": 2.5,
    "CLI cold start, foam sphere 6": 0.16,
    "theta model build": 0.045,
    "theta edge decomposition": 0.055,
}


def cli_sphere() -> None:
    subprocess.run(
        [sys.executable, "-s", "-m", "webfoam.cli", "foam", "sphere", "6"],
        cwd=ROOT / "src",
        capture_output=True,
        check=True,
    )


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from webfoam import acceptance, operators, webs

    def timed(fn, repeats: int = REPEATS, prepare=None) -> float:
        """Median time of ``fn``, called on ``prepare()``'s result if given."""
        caches = workloads.find_caches()
        samples = []
        for _ in range(repeats):
            workloads.cold_caches(caches)
            args = (prepare(),) if prepare is not None else ()
            start = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    measured = {
        "inequality-uct-suite check": timed(
            lambda: acceptance.run_all(["inequality-uct-suite"]), repeats=1
        ),
        "tait-formula check": timed(
            lambda: acceptance.run_all(["tait-formula"]), repeats=1
        ),
        "generate_connected_cubic(10), cold": timed(
            lambda: webs.generate_connected_cubic(10)
        ),
        "CLI cold start, foam sphere 6": timed(cli_sphere),
        "theta model build": timed(operators.theta_module),
        "theta edge decomposition": timed(
            lambda module: operators.edge_decomposition(module, ("e1", "e2", "e3")),
            prepare=operators.theta_module,
        ),
    }
    print(f"{'timing':<38} {'quoted s':>9} {'measured s':>11} {'ratio':>6}")
    for name, quoted in QUOTED.items():
        ratio = measured[name] / quoted
        flag = "" if 0.75 <= ratio <= 1.25 else "  does not reproduce"
        print(f"{name:<38} {quoted:>9.3f} {measured[name]:>11.3f} {ratio:>6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
