"""Record the reference outputs that the workloads check against.

Usage, from the root of a checkout whose outputs are trusted::

    python3 perfbench/record_goldens.py

It writes ``perfbench/goldens.json``: a digest of each ``uct-suite``
report, the detail line of each ``operator-models`` check, and the
stdout and exit code of each ``cli-cold`` command.  The workloads only
read this file; a later change to the package must match it as it is.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from webfoam import acceptance

    uct = workloads.UctSuite(0, {"uct-suite": []})
    reports = [uct.analyze(data) for data in uct.complexes]
    if not all(uct.invariants_hold(report) for report in reports):
        sys.exit("refusing to record uct-suite reports that break f2_dim = r + 2l")
    results = [acceptance.run_all([key])[0] for key in workloads.OperatorModels.KEYS]
    if not all(r.passed for r in results):
        sys.exit(f"refusing to record failing checks: {[r.key for r in results if not r.passed]}")
    cli = workloads.CliCold(0, {"cli-cold": {}})
    goldens = {
        "uct-suite": [workloads.report_digest(report) for report in reports],
        "operator-models": {r.key: r.detail for r in results},
        "cli-cold": {},
    }
    for argv in workloads.CliCold.CASES:
        proc = cli.invoke(argv, traced=False)
        goldens["cli-cold"][" ".join(argv)] = {
            "exit": proc.returncode,
            "stdout": proc.stdout.decode(),
        }
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
