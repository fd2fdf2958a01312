"""``webfoam`` CLI entry point with layer spans, for traced ``cli-cold`` runs.

Used as ``python -s perfbench/cli_child.py <cli arguments>`` in place of
``python -s -m webfoam.cli``.  Standard output and the exit code are the
CLI's own; the spans' aggregate goes to the last line of standard error.
"""

import json
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    cli, import_s = spans.import_cli(ROOT)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    tracer.import_s.append(import_s)
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.fold()
        sys.stdout.flush()
        print(spans.TRACE_MARKER + json.dumps(tracer.to_dict()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
