"""The benchmark's four workloads, each with its correctness gate.

A workload builds its inputs once (set-up) and then runs passes; every
pass records each item's latency and whether its output matched a
reference that does not come from the code under test.  Import this
module only after ``src`` is on ``sys.path``: it imports the package.

Why each workload exists, which layers it stresses or bypasses, and the
percentile behind its tail latency are written down in ``DESIGN.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans
from webfoam import acceptance, cli, foams, homology, laurent, linalg, operators, webs

#: Connected cubic multigraphs on n vertices, up to isomorphism (OEIS A005967).
A005967 = {2: 2, 4: 5, 6: 17, 8: 71, 10: 388}

#: Tait-coloring counts known independently of the code: the dodecahedron
#: has 60 edge 3-colorings, the Petersen graph (a snark) has none.
PINNED_TAIT = {"dodecahedron": 60, "petersen": 0}

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def find_caches() -> list:
    """Every ``functools`` cache in the package's modules and classes.

    Call before tracing is installed, while module globals are still the
    cache objects themselves.
    """
    found: dict[int, object] = {}
    for module in (laurent, linalg, webs, foams, operators, homology, acceptance, cli):
        for obj in vars(module).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members = list(vars(obj).values())
            for member in members:
                if hasattr(member, "cache_clear") and hasattr(member, "cache_info"):
                    found[id(member)] = member
    return list(found.values())


def cold_caches(caches: list) -> None:
    """Empty every cache and check that each one reports zero entries.

    A CLI process starts with these caches empty, so a pass that found
    them full would time dictionary lookups instead of the work.
    """
    for cache in caches:
        cache.cache_clear()
    full = [c.__qualname__ for c in caches if c.cache_info().currsize]
    if full:
        raise RuntimeError(f"caches not empty before a timed pass: {full}")


def report_digest(report: object) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PassRecord:
    """Latencies and outcomes of the items of one pass.

    A failing item is counted and reported on stderr; it is never retried
    or dropped.
    """

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._tracer = tracer

    def item(self, label: str, run, check, sampled: bool = True):
        """Time ``run()``, then judge its output with ``check``.

        Returns the output, or None when ``run`` raised.
        """
        start = time.perf_counter()
        try:
            out = run()
            error = None
        except Exception as exc:  # counted as a failed item, the pass goes on
            out, error = None, exc
        elapsed = time.perf_counter() - start
        if self._tracer is not None:
            self._tracer.fold()
        if sampled:
            self.latencies.append(elapsed)
        self.attempted += 1
        if error is None:
            try:
                ok = bool(check(out))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            self.failed += 1
            print(f"item failed: {label}: {error or 'output differs from reference'}", file=sys.stderr)
        return out

    def missing(self, label: str, count: int) -> None:
        """Count ``count`` items that could not run because their input failed."""
        self.attempted += count
        self.failed += count
        print(f"items failed: {label}: {count} not run", file=sys.stderr)


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile; at least 10 samples must lie beyond it."""
    rank = math.ceil(q / 100 * len(sorted_samples))
    if len(sorted_samples) - rank < 10:
        raise RuntimeError(
            f"p{q} of {len(sorted_samples)} samples has fewer than 10 samples beyond it"
        )
    return sorted_samples[rank - 1]


def run_passes(workload, caches, seconds, min_passes, import_s, tracer=None):
    """Repeat timed passes for ``seconds`` and at least ``min_passes`` times.

    Returns the pass times, the pass records and, when traced, each
    pass's per-layer metrics.
    """
    walls, records, layers = [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        cold_caches(caches)
        record = PassRecord(tracer)
        if tracer is not None:
            tracer.reset()
            tracer.import_s.append(import_s)
        begin = time.perf_counter()
        workload.run_pass(record, tracer)
        walls.append(time.perf_counter() - begin)
        records.append(record)
        if tracer is not None:
            layers.append(tracer.metrics())
    return walls, records, layers


class Workload:
    """One workload: ``__init__`` builds its inputs, ``run_pass`` runs them once."""

    name = ""
    #: Percentile reported as ``item_ms.tail``.
    tail_percentile = 95
    #: Passes every run makes, so that the tail has at least 10 samples beyond it.
    min_passes = 1

    def run_pass(self, record: PassRecord, tracer=None) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class UctSuite(Workload):
    """``webfoam complex analyze`` on the 200 modules of ``inequality-uct-suite``."""

    name = "uct-suite"
    tail_percentile = 95
    #: A pass takes about 11 s; three give each item three samples.
    min_passes = 3
    #: The modules are those of the acceptance check at its default seed;
    #: the run's seed drives the randomized rank (see DESIGN.md).
    MODULE_SEED = 0
    COUNT = 200

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.complexes = [
            homology.complex_to_dict(
                homology.random_complex(self.MODULE_SEED * 1_000_003 + k, 2 + k % 11)
            )
            for k in range(self.COUNT)
        ]
        self.digests = goldens[self.name]

    def analyze(self, data: dict) -> dict:
        module = homology.complex_from_dict(data)
        reports = [module.bockstein(d) for d in homology.DIRECTIONS]
        return {
            "rank": module.rank,
            "frac_rank": module.frac_rank(seed=self.seed),
            "f2_dim": module.f2_dim(),
            "directions": [r.to_dict() for r in reports],
        }

    @staticmethod
    def invariants_hold(report: dict) -> bool:
        """f2_dim = r + 2l in every direction, and f2_dim >= frac_rank."""
        uct = all(d["f2_dim"] == d["r"] + 2 * d["l"] for d in report["directions"])
        return uct and report["f2_dim"] >= report["frac_rank"]

    def check(self, k: int, report: dict) -> bool:
        return self.invariants_hold(report) and report_digest(report) == self.digests[k]

    def run_pass(self, record: PassRecord, tracer=None) -> None:
        for k, data in enumerate(self.complexes):
            record.item(
                f"module {k}",
                lambda data=data: self.analyze(data),
                lambda report, k=k: self.check(k, report),
            )


class CubicEnum(Workload):
    """Cold cubic-graph generation for n <= 10, then both Tait counters."""

    name = "cubic-enum"
    tail_percentile = 97

    def __init__(self, seed: int, goldens: dict):
        self.corpus = [webs.corpus_web(name).validate() for name in webs.corpus_names()]

    @staticmethod
    def counts(web) -> tuple[int, int]:
        return webs.count_tait_backtracking(web), webs.count_tait_matching_formula(web)

    @staticmethod
    def agree(web, counts: tuple[int, int]) -> bool:
        bt, mf = counts
        return bt == mf and bt == PINNED_TAIT.get(web.name, bt)

    def run_pass(self, record: PassRecord, tracer=None) -> None:
        generated = []
        for n, expected in A005967.items():
            graphs = record.item(
                f"generate_connected_cubic({n})",
                lambda n=n: webs.generate_connected_cubic(n),
                lambda graphs, expected=expected: len(graphs) == expected,
                sampled=False,
            )
            if graphs is None:
                record.missing(f"counters on n={n}", expected)
            else:
                generated.extend(graphs)
        for web in generated + self.corpus:
            record.item(
                f"tait counts of {web.name}",
                lambda web=web: self.counts(web),
                lambda counts, web=web: self.agree(web, counts),
            )


class OperatorModels(Workload):
    """The six short ``verify-all`` checks, one ``run_all`` call each."""

    name = "operator-models"
    tail_percentile = 95
    min_passes = 40
    KEYS = (
        "cone-p",
        "foam-table",
        "handcuffs-pair",
        "order4-certificate",
        "theta-model",
        "unknot-model",
    )

    def __init__(self, seed: int, goldens: dict):
        self.details = goldens[self.name]

    def run_pass(self, record: PassRecord, tracer=None) -> None:
        for key in self.KEYS:
            record.item(
                key,
                lambda key=key: acceptance.run_all([key])[0],
                lambda result, key=key: result.passed and result.detail == self.details[key],
            )


class CliCold(Workload):
    """Fresh ``python -m webfoam.cli`` processes, one after another."""

    name = "cli-cold"
    tail_percentile = 90
    min_passes = 13
    CASES = (
        ("foam", "sphere", "6"),
        ("foam", "theta", "0", "3", "4", "--json"),
        ("web", "tait", "dodecahedron"),
        ("web", "predict-rank", "cube", "--json"),
        ("complex", "cone-p"),
        ("complex", "certify-order4"),
        ("ops", "unknot", "--check"),
        ("ops", "theta", "--check"),
    )

    def __init__(self, seed: int, goldens: dict):
        root = Path(__file__).resolve().parents[1]
        # Run from src/ so that `-m webfoam.cli` imports this checkout's
        # package ahead of anything on the path or installed.
        self.cwd = root / "src"
        self.shim = Path(__file__).resolve().parent / "cli_child.py"
        self.goldens = goldens[self.name]

    def invoke(self, argv: tuple[str, ...], traced: bool) -> subprocess.CompletedProcess:
        entry = [str(self.shim)] if traced else ["-m", "webfoam.cli"]
        return subprocess.run(
            [sys.executable, "-s", *entry, *argv],
            cwd=self.cwd,
            capture_output=True,
            timeout=60,
        )

    def run_pass(self, record: PassRecord, tracer=None) -> None:
        for argv in self.CASES:
            golden = self.goldens[" ".join(argv)]
            proc = record.item(
                " ".join(argv),
                lambda argv=argv: self.invoke(argv, tracer is not None),
                lambda proc, golden=golden: proc.returncode == golden["exit"]
                and proc.stdout == golden["stdout"].encode(),
            )
            if tracer is not None and proc is not None:
                lines = proc.stderr.decode().splitlines()
                if not lines or not lines[-1].startswith(spans.TRACE_MARKER):
                    raise RuntimeError(f"traced CLI run {argv} reported no spans")
                tracer.merge(json.loads(lines[-1][len(spans.TRACE_MARKER) :]))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (UctSuite, CubicEnum, OperatorModels, CliCold)}


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())
