"""Command-line front end.

Subcommands mirror the library modules:

* ``foam sphere M`` / ``foam theta M1 M2 M3`` -- closed-foam values;
* ``web info|tait|predict-rank FILE`` -- web inspection and counting;
* ``ops unknot|theta [--show] [--check] [--decompose]`` -- operator models;
* ``complex analyze FILE | cone-p | handcuffs-linked | certify-order4``
  -- differential-module analysis;
* ``verify-all`` -- the full verification suite.

Web arguments are file paths; a bare name (``dodecahedron``) that is no
file falls back to the shipped corpus.  The ``complex analyze`` argument
is a file path only: there is no corpus of complexes.  Output is
deterministic byte-for-byte for fixed inputs and flags (the opt-in
``verify-all --timings`` column is the one exception); ``--json``
switches every subcommand to a machine-readable report.  Each handler
computes through the library and returns its exit code, its report and
its text lines; :func:`main` alone writes stdout, the report as JSON
under ``--json`` and the lines otherwise.  Two handlers write stderr
lines themselves: ``web predict-rank`` its planarity warnings, and
``verify-all`` one line per check that failed internally.

Exit codes: 0 success, 1 failed checks, 2 usage error, 3 malformed
input (and running out of memory), 4 invalid web or complex, 5 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .errors import InputError, InternalConsistencyError, ValidationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_VALIDATION = 4
EXIT_INTERNAL = 5

#: Values grow as powers of P; beyond desk scale there is nothing to see.
MAX_CLI_DOTS = 64

#: ``sorted(acceptance.CHECKS)``, spelled out so that building the parser
#: does not import every layer (a test keeps the two equal).
CHECK_KEYS = (
    "cone-p",
    "foam-table",
    "handcuffs-pair",
    "inequality-uct-suite",
    "order4-certificate",
    "tait-formula",
    "theta-model",
    "unknot-model",
)


# Every command imports the layers it uses inside its handler.  The foam
# evaluators stay reachable as module attributes (``cli.eval_theta``)
# without importing the ring for commands that never evaluate a foam.
def __getattr__(name: str):
    if name in ("eval_sphere", "eval_theta"):
        from . import foams

        return getattr(foams, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _status_line(ok: bool, label: str) -> str:
    return f"{'PASS' if ok else 'FAIL'}  {label}"


def _parse_direction(text: str) -> tuple[int, int, int]:
    from .homology import DIRECTIONS

    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if parts not in DIRECTIONS:
        allowed = " or ".join(",".join(str(c) for c in d) for d in DIRECTIONS)
        raise argparse.ArgumentTypeError(
            f"direction must be {allowed}, got {text!r}"
        )
    return parts  # type: ignore[return-value]


def _checked_dots(value: str) -> int:
    m = int(value)
    if m < 0:
        raise argparse.ArgumentTypeError("dot counts must be nonnegative")
    if m > MAX_CLI_DOTS:
        raise argparse.ArgumentTypeError(
            f"dot counts above {MAX_CLI_DOTS} are not supported on the CLI"
        )
    return m


def _resolve_web(target: str) -> webs.Web:
    from . import webs

    path = Path(target)
    if path.exists():
        return webs.load_web(path)
    if "/" not in target and "\\" not in target and not target.endswith(".json"):
        return webs.corpus_web(target)
    raise InputError(f"{target}: no such file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webfoam",
        description="Exact web/foam algebra: Tait counts, operator models, "
        "and torsion analysis over F2[T1^±,T2^±,T3^±].",
        epilog="exit codes: 0 ok, 1 failed checks, 2 usage, 3 bad input, "
        "4 invalid object, 5 internal inconsistency",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    foam = sub.add_parser("foam", help="closed-foam evaluations")
    foam_sub = foam.add_subparsers(dest="foam_command", required=True)
    sphere = foam_sub.add_parser("sphere", help="dotted 2-sphere value")
    sphere.add_argument("dots", type=_checked_dots)
    sphere.add_argument("--json", action="store_true")
    theta = foam_sub.add_parser("theta", help="dotted theta-foam value")
    theta.add_argument("dots", type=_checked_dots, nargs=3)
    theta.add_argument("--json", action="store_true")

    web = sub.add_parser("web", help="web inspection and Tait counting")
    web_sub = web.add_subparsers(dest="web_command", required=True)
    for name, help_text in (
        ("info", "validate and summarize a web"),
        ("tait", "count Tait colorings (two independent methods)"),
        ("predict-rank", "matching-formula rank prediction"),
    ):
        cmd = web_sub.add_parser(name, help=help_text)
        cmd.add_argument("web", help="path to a web JSON file, or a corpus name")
        cmd.add_argument("--json", action="store_true")

    ops = sub.add_parser("ops", help="edge-operator models")
    ops_sub = ops.add_subparsers(dest="ops_command", required=True)
    for name in ("unknot", "theta"):
        cmd = ops_sub.add_parser(name, help=f"the {name} operator model")
        cmd.add_argument("--show", action="store_true", help="print the matrices")
        cmd.add_argument(
            "--check", action="store_true", help="verify the operator relations"
        )
        cmd.add_argument(
            "--decompose",
            action="store_true",
            help="fraction-field ranks of all edge-subset summands",
        )
        cmd.add_argument("--json", action="store_true")

    cx = sub.add_parser("complex", help="differential-module analysis")
    cx_sub = cx.add_subparsers(dest="complex_command", required=True)
    analyze = cx_sub.add_parser("analyze", help="analyze a complex JSON file")
    analyze.add_argument("complex", help="path to a complex JSON file")
    analyze.add_argument(
        "--direction",
        type=_parse_direction,
        action="append",
        help="substitution direction (1,1,1 or 1,1,0); may repeat",
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--json", action="store_true")
    for name, help_text in (
        ("cone-p", "the mapping cone of P times the identity on rank 2"),
        ("handcuffs-linked", "the rank-6 cone of u^2 + P on the circle model"),
    ):
        cmd = cx_sub.add_parser(name, help=help_text)
        cmd.add_argument("--direction", type=_parse_direction, action="append")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--json", action="store_true")
    certify = cx_sub.add_parser(
        "certify-order4", help="order-of-vanishing certificate for P at (1,1,1)"
    )
    certify.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify-all", help="run the full verification suite")
    verify.add_argument(
        "--only",
        help="comma-separated check keys (default: all); "
        f"available: {', '.join(CHECK_KEYS)}",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="seed for the randomized-rank suite"
    )
    verify.add_argument(
        "--corpus", help="override the corpus directory for the Tait check"
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (output is then not byte-stable)",
    )
    verify.add_argument("--json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_foam(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    from . import foams

    if args.foam_command == "sphere":
        value = foams.eval_sphere(args.dots)
        label = f"sphere({args.dots})"
    else:
        value = foams.eval_theta(*args.dots)
        label = f"theta({', '.join(str(m) for m in args.dots)})"
    return EXIT_OK, {"foam": label, "value": str(value)}, [str(value)]


def _cmd_web(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    from . import webs

    web = _resolve_web(args.web).validate()
    # exact counts have about 0.5 digits per edge, so lift the int-to-string
    # limit for the output; the input was parsed under it (main restores it)
    sys.set_int_max_str_digits(0)
    try:
        if args.web_command == "info":
            ones, even, _ = webs.one_set_census(web)
            report = {
                "name": web.name,
                "vertices": len(web.vertices),
                "edges": len(web.edges) - len(web.loops) - len(web.circles),
                "loops": len(web.loops),
                "circles": len(web.circles),
                "one_sets": ones,
                "even_one_sets": even,
                "declared_planar": web.planar,
                "abstract_planar": webs.is_abstract_planar(web),
            }
            return EXIT_OK, report, [f"{key}: {report[key]}" for key in sorted(report)]
        if args.web_command == "tait":
            bt = webs.count_tait_backtracking(web)
            mf = webs.count_tait_matching_formula(web)
            if bt != mf:
                raise InternalConsistencyError(
                    f"web {web.name!r}: backtracking count {bt} "
                    f"!= matching-formula count {mf}"
                )
            return EXIT_OK, {"web": web.name, "tait_colorings": bt}, [str(bt)]
        # predict-rank
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predicted = webs.predict_planar_rank(web)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        report = {
            "web": web.name,
            "predicted_rank": predicted,
            "planar_backed": not caught,
        }
        return EXIT_OK, report, [str(predicted)]
    except RecursionError as exc:
        # the counters recurse once per edge
        raise InputError(f"{args.web}: too large for the exact counters") from exc


def _cmd_ops(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    from . import operators

    if args.ops_command == "unknot":
        module = operators.unknot_module()
    else:
        module = operators.theta_module()
    report: dict = {"model": args.ops_command, "rank": module.rank}
    lines: list[str] = [f"model: {args.ops_command}", f"rank: {module.rank}"]
    failed = False

    if args.show:
        matrices = {
            name: [[str(x) for x in row] for row in mat]
            for name, mat in sorted(module.operators.items())
        }
        report["operators"] = matrices
        for name, rows in matrices.items():
            lines.append(f"operator {name}:")
            for row in rows:
                lines.append("  [" + ", ".join(row) + "]")

    if args.check:
        checks = module.relations
        report["checks"] = dict(checks)
        lines.extend(_status_line(ok, name) for name, ok in checks)
        failed |= not all(ok for _, ok in checks)

    if args.decompose:
        decomposition = operators.edge_decomposition(module)
        ranks = {
            "{" + ",".join(sorted(subset)) + "}": r
            for subset, r in decomposition.subset_ranks.items()
        }
        report["summand_ranks"] = ranks
        lines.append("summand ranks over Frac(R):")
        for key in sorted(ranks):
            lines.append(f"  {key or '{}'}: {ranks[key]}")
        projections = decomposition.projection_checks
        if projections:
            report["projections"] = dict(projections)
            lines.extend(_status_line(ok, name) for name, ok in projections)
            failed |= not all(ok for _, ok in projections)

    return (EXIT_CHECK_FAILED if failed else EXIT_OK), report, lines


def _cmd_complex(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    from . import homology

    if args.complex_command == "certify-order4":
        entries = homology.order_four_certificate()
        passed = all(ok for _, _, ok in entries)
        report = {
            "entries": [
                {"claim": claim, "computed": got, "passed": ok}
                for claim, got, ok in entries
            ],
            "passed": passed,
        }
        lines = [_status_line(ok, f"{claim}: {got}") for claim, got, ok in entries]
        return (EXIT_OK if passed else EXIT_CHECK_FAILED), report, lines
    if args.complex_command == "analyze":
        path = Path(args.complex)
        module = homology.load_complex(path)
        label = path.name
    elif args.complex_command == "cone-p":
        module = homology.cone_of_p()
        label = "cone-p"
    else:
        module = homology.linked_handcuffs_model()
        label = "handcuffs-linked"
    # a repeated direction is analysed once, in first-given order
    directions = dict.fromkeys(args.direction or homology.DIRECTIONS)
    reports = [module.bockstein(d, seed=args.seed) for d in directions]
    report = {
        "complex": label,
        "rank": module.rank,
        "frac_rank": module.frac_rank(seed=args.seed),
        "f2_dim": module.f2_dim(),
        "directions": [r.to_dict() for r in reports],
    }
    lines = [
        f"complex: {label}",
        f"rank: {module.rank}",
        f"frac_rank: {report['frac_rank']}",
        f"f2_dim: {report['f2_dim']}",
    ]
    if module.two_term is not None:
        ker, coker = module.two_term_ranks(seed=args.seed)
        report["map_kernel_rank"] = ker
        report["map_cokernel_rank"] = coker
        lines.append(f"two-term map: kernel rank {ker}, cokernel rank {coker}")
    for r in reports:
        torsion = "{" + ",".join(str(a) for a in r.torsion_exponents) + "}"
        lines.append(
            f"direction {','.join(str(c) for c in r.direction)}: "
            f"r={r.r} l={r.l} torsion={torsion}"
        )
    return EXIT_OK, report, lines


def _cmd_verify_all(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    from . import acceptance

    keys = None
    if args.only:
        keys = [k.strip() for k in args.only.split(",") if k.strip()]
    corpus = Path(args.corpus) if args.corpus else None
    if corpus is not None and not corpus.is_dir():
        raise InputError(f"{corpus}: not a directory")
    try:
        results = acceptance.run_all(keys, corpus=corpus, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    passed = all(r.passed for r in results)
    report = {
        "checks": [
            {k: v for k, v in r.to_dict().items() if args.timings or k != "seconds"}
            for r in results
        ],
        "passed": passed,
    }
    width = max(len(r.key) for r in results)
    lines = []
    for r in results:
        stamp = f"  ({r.seconds:6.2f}s)" if args.timings else ""
        lines.append(_status_line(r.passed, f"{r.key:<{width}}{stamp}  {r.detail}"))
    lines.append("all checks passed" if passed else "FAILURES")
    internal = [r for r in results if r.internal_error]
    for r in internal:
        print(f"{r.key}: {r.detail}", file=sys.stderr)
    if internal:
        return EXIT_INTERNAL, report, lines
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), report, lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digit_limit = sys.get_int_max_str_digits()
    handler = {
        "foam": _cmd_foam,
        "web": _cmd_web,
        "ops": _cmd_ops,
        "complex": _cmd_complex,
        "verify-all": _cmd_verify_all,
    }[args.command]
    try:
        code, report, lines = handler(args)
        if args.json:
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            print("\n".join(lines))
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
