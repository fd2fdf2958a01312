"""Spans around calls into webfoam's layers, and the per-layer metrics.

A :class:`Tracer` replaces a public function at the place where its
callers look it up (a module global or a class attribute) with a wrapper
that records a span: name, start, end and parent span.  The spans of one
item share the item as their trace and stay in memory until the item
ends; :meth:`Tracer.fold` then turns them into per-name call counts,
inclusive time and self time (duration minus the time covered by child
spans) and drops them.  Folding per item keeps memory flat: a pass of
``uct-suite`` makes millions of ring multiplications.

The package itself is not modified; everything here is installed from
outside and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

#: Per-layer metrics reported by a traced run, with their units.  Each
#: name is ``<module>.<function>.<kind>``; kinds ``calls``, ``self_s``
#: and ``total_s`` come from the spans of that function.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("laurent.mul.calls", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.divexact.calls", "count"),
    ("laurent.divexact.self_s", "s"),
    ("laurent.divexact.max_terms", "count"),
    ("laurent.substitute_line.self_s", "s"),
    ("linalg.fraction_rank.calls", "count"),
    ("linalg.fraction_rank.total_s", "s"),
    ("linalg.rank_frac_exact.self_s", "s"),
    ("linalg.rank_frac_randomized.self_s", "s"),
    ("linalg.gf16_mul.calls", "count"),
    ("linalg.gf16_inv.calls", "count"),
    ("linalg.smith_normal_form.self_s", "s"),
    ("linalg.det_poly.calls", "count"),
    ("linalg.det_poly.self_s", "s"),
    ("linalg.adjugate.self_s", "s"),
    ("linalg.nullspace_frac.calls", "count"),
    ("linalg.nullspace_frac.self_s", "s"),
    ("homology.bockstein.self_s", "s"),
    ("homology.frac_rank.calls", "count"),
    ("homology.complex_from_dict.self_s", "s"),
    ("homology.rank_reuse", "ratio"),
    ("webs.generate_connected_cubic.self_s", "s"),
    ("webs.generate_connected_cubic.graphs", "count"),
    ("webs.count_tait_backtracking.self_s", "s"),
    ("webs.count_tait_matching_formula.self_s", "s"),
    ("webs.one_sets.calls", "count"),
    ("webs.complement_cycles.calls", "count"),
    ("foams.eval_theta.calls", "count"),
    ("foams.eval_theta.self_s", "s"),
    ("foams.pairing_matrix.self_s", "s"),
    ("operators.theta_module.self_s", "s"),
    ("operators.edge_decomposition.self_s", "s"),
    ("operators.check_vertex_relations.self_s", "s"),
    ("acceptance.run_all.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Prefix of the stderr line on which a traced CLI process reports its spans.
TRACE_MARKER = "perfbench-trace "

#: Metrics that must repeat exactly between two traced runs of one seed.
COUNTS = tuple(
    name
    for name, unit in PER_LAYER
    if unit == "count" or name == "homology.rank_reuse"
)


class Tracer:
    """Records spans for wrapped functions and folds them per item."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._span_name: list[int] = []
        self._span_parent: list[int] = []
        self._span_start: list[float] = []
        self._span_end: list[float] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new aggregate (one pass)."""
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.max_terms = 0
        self.matrices: set = set()
        self.merged_matrices = 0
        self.graphs = 0
        self.import_s: list[float] = []

    # -- installing wrappers -------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        ``before`` sees the call's arguments and ``after`` its result;
        both run outside the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self._ids))
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------

    def fold(self) -> None:
        """Fold the spans recorded since the last fold into the aggregate."""
        if len(self._stack) != 1:
            raise RuntimeError("fold() called inside an open span")
        names = list(self._ids)
        child = [0.0] * len(self._span_name)
        for i, parent in enumerate(self._span_parent):
            if parent >= 0:
                child[parent] += self._span_end[i] - self._span_start[i]
        for i, nid in enumerate(self._span_name):
            duration = self._span_end[i] - self._span_start[i]
            agg = self.spans.setdefault(names[nid], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child[i]
        for buffer in (self._span_name, self._span_parent, self._span_start, self._span_end):
            buffer.clear()

    def to_dict(self) -> dict:
        """The aggregate in a JSON-ready form that :meth:`merge` accepts."""
        return {
            "spans": self.spans,
            "max_terms": self.max_terms,
            "distinct_matrices": len(self.matrices) + self.merged_matrices,
            "graphs": self.graphs,
            "import_s": self.import_s,
        }

    def merge(self, data: dict) -> None:
        """Add the aggregate of another process (a traced CLI run)."""
        for name, (calls, total, self_s) in data["spans"].items():
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        self.max_terms = max(self.max_terms, data["max_terms"])
        self.merged_matrices += data["distinct_matrices"]
        self.graphs += data["graphs"]
        self.import_s.extend(data["import_s"])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current aggregate (all but the overhead)."""
        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            span, _, kind = name.rpartition(".")
            calls, total, self_s = self.spans.get(span, (0, 0.0, 0.0))
            if kind == "calls":
                out[name] = calls
            elif kind == "self_s":
                out[name] = self_s
            elif kind == "total_s":
                out[name] = total
        out["laurent.divexact.max_terms"] = self.max_terms
        ranked = self.spans.get("linalg.fraction_rank", (0,))[0]
        distinct = len(self.matrices) + self.merged_matrices
        out["homology.rank_reuse"] = distinct / ranked if ranked else 0.0
        out["webs.generate_connected_cubic.graphs"] = self.graphs
        out["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        return out


def import_cli(root: Path):
    """Import ``webfoam.cli`` from ``root/src`` and time the import.

    Returns the module and the seconds the import took.  Exits when the
    package came from anywhere but the checkout's ``src/``.
    """
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    from webfoam import cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"webfoam imported from {cli.__file__}, not from {root / 'src'}")
    return cli, import_s


def instrument(tracer: Tracer) -> None:
    """Wrap every layer function the per-layer metrics name.

    Each function is wrapped where its callers look it up: ``linalg``
    calls ``poly_divexact`` through its own global, ``homology`` calls
    ``substitute_line`` through its own, and ``eval_theta`` is imported
    by name into four modules.
    """
    from webfoam import acceptance, cli, foams, homology, laurent, linalg, operators, webs

    def operand_terms(a, b):
        tracer.max_terms = max(tracer.max_terms, len(a.terms), len(b.terms))

    def ranked_matrix(mat, *args, **kwargs):
        tracer.matrices.add(tuple(tuple(row) for row in mat))

    def generated(graphs):
        tracer.graphs += len(graphs)

    tracer.patch(laurent.LaurentPoly, "__mul__", "laurent.mul")
    tracer.patch(linalg, "poly_divexact", "laurent.divexact", before=operand_terms)
    tracer.patch(homology, "substitute_line", "laurent.substitute_line")
    tracer.patch(linalg, "fraction_rank", "linalg.fraction_rank", before=ranked_matrix)
    for fn in (
        "rank_frac_exact",
        "rank_frac_randomized",
        "gf16_mul",
        "gf16_inv",
        "smith_normal_form",
        "det_poly",
        "adjugate",
        "nullspace_frac",
    ):
        tracer.patch(linalg, fn, f"linalg.{fn}")
    tracer.patch(homology.DifferentialModule, "bockstein", "homology.bockstein")
    tracer.patch(homology.DifferentialModule, "frac_rank", "homology.frac_rank")
    tracer.patch(homology, "complex_from_dict", "homology.complex_from_dict")
    tracer.patch(
        webs, "generate_connected_cubic", "webs.generate_connected_cubic", after=generated
    )
    for fn in ("count_tait_backtracking", "count_tait_matching_formula", "one_sets", "complement_cycles"):
        tracer.patch(webs, fn, f"webs.{fn}")
    for owner in (foams, operators, acceptance, cli):
        tracer.patch(owner, "eval_theta", "foams.eval_theta")
    for owner in (foams, operators):
        tracer.patch(owner, "pairing_matrix", "foams.pairing_matrix")
    for fn in ("theta_module", "edge_decomposition", "check_vertex_relations"):
        tracer.patch(operators, fn, f"operators.{fn}")
    tracer.patch(acceptance, "run_all", "acceptance.run_all")
    tracer.patch(cli, "main", "cli.main")
