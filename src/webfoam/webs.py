"""Trivalent webs: abstract cubic multigraphs with loops and free circles.

A web is stored abstractly (no spatial embedding): vertices are named,
and each edge is a regular edge between two distinct vertices, a loop at
a single vertex (counting twice toward its valence), or a free circle
with no endpoints.  Webs with no vertices at all (disjoint circles) are
valid.

The module provides

* 1-set (perfect matching) enumeration on the vertex part, as frozensets
  of edge ids; the vertex counts of the complementary cycles of a 1-set;
  and one evenness test on those counts (every cycle even);
* two independent Tait-coloring counters: direct backtracking over edge
  colorings in an edge order fixed before the search, and the
  matching-formula count ``sum over even 1-sets s of 2^n(s)`` where
  ``n(s)`` is the number of complementary cycles.  Both count each
  connected component alone and multiply, with a factor 3 per circle;
* the planar rank prediction (the matching-formula count, which is a
  theorem only for planar webs -- non-planar inputs get a warning);
* a JSON file format and the shipped corpus of named webs;
* exhaustive generation of connected cubic multigraphs up to
  isomorphism, used by the test and verification suites.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InputError, ValidationError, _read_json

__all__ = [
    "Edge",
    "Web",
    "one_sets",
    "components",
    "complement_cycles",
    "is_even",
    "count_tait_backtracking",
    "count_tait_matching_formula",
    "predict_planar_rank",
    "is_abstract_planar",
    "disjoint_union",
    "web_from_dict",
    "web_to_dict",
    "load_web",
    "corpus_names",
    "corpus_web",
    "corpus_dir",
    "generate_connected_cubic",
    "NonPlanarPredictionWarning",
]


class NonPlanarPredictionWarning(UserWarning):
    """The rank prediction was requested for a web without planar backing."""


@dataclass(frozen=True)
class Edge:
    """An edge record: 2 distinct ends, 1 end (loop), or none (circle)."""

    id: str
    ends: tuple[str, ...]

    @property
    def kind(self) -> str:
        return ("circle", "loop", "edge")[len(self.ends)]

    def incidences(self) -> list[str]:
        """Endpoint vertices with multiplicity: a loop lists its vertex twice."""
        if len(self.ends) == 1:
            return [self.ends[0], self.ends[0]]
        return list(self.ends)


@dataclass(frozen=True)
class Web:
    """A trivalent multigraph, possibly with loops and free circles."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    planar: bool | None = None

    def __post_init__(self):
        ids = Counter(e.id for e in self.edges)
        if len(ids) != len(self.edges):
            dup = sorted(i for i, n in ids.items() if n > 1)
            raise ValidationError(f"duplicate edge ids: {', '.join(dup)}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        known = set(self.vertices)
        for e in self.edges:
            if len(e.ends) == 2 and e.ends[0] == e.ends[1]:
                raise ValidationError(
                    f"edge {e.id!r}: equal endpoints must use the loop form"
                )
            for v in e.ends:
                if v not in known:
                    raise ValidationError(f"edge {e.id!r} meets unknown vertex {v!r}")

    def validate(self) -> "Web":
        """Check trivalence at every vertex; report all offenders at once."""
        degrees = self.degrees()
        bad = [
            f"vertex {v!r} has valence {degrees[v]}"
            for v in self.vertices
            if degrees[v] != 3
        ]
        if bad:
            raise ValidationError("; ".join(bad))
        return self

    def degrees(self) -> dict[str, int]:
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            for v in e.incidences():
                deg[v] += 1
        return deg

    @property
    def circles(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind == "circle")

    @property
    def loops(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind == "loop")


def one_sets(web: Web) -> list[frozenset[str]]:
    """All 1-sets of the vertex part: exactly one incident member at each vertex.

    Incidences count with multiplicity: a loop contributes 2 at its
    vertex, so loops never occur in a 1-set.  Free circles never appear
    either; a caller counting 1-sets of the whole web doubles the count
    for each circle.
    """
    web.validate()
    regular = [e for e in web.edges if e.kind == "edge"]
    incident: dict[str, list[Edge]] = {v: [] for v in web.vertices}
    for e in regular:
        for v in e.ends:
            incident[v].append(e)

    matchings: list[frozenset[str]] = []
    chosen: list[str] = []
    covered: set[str] = set()

    def extend() -> None:
        uncovered = [v for v in web.vertices if v not in covered]
        if not uncovered:
            matchings.append(frozenset(chosen))
            return
        # most-constrained vertex first
        def candidates(v: str) -> list[Edge]:
            return [
                e
                for e in incident[v]
                if e.ends[0] not in covered and e.ends[1] not in covered
            ]

        v = min(uncovered, key=lambda u: len(candidates(u)))
        for e in candidates(v):
            covered.update(e.ends)
            chosen.append(e.id)
            extend()
            chosen.pop()
            covered.difference_update(e.ends)

    extend()
    return matchings


def _roots(vertices: Iterable[str], edges: Iterable[Edge]) -> dict[str, str]:
    """Union-find: each vertex mapped to a representative of its component.

    Groups merge smaller into larger, so a vertex changes group at most
    log2(n) times.
    """
    group = {v: [v] for v in vertices}
    for e in edges:
        if len(e.ends) == 2:
            a, b = group[e.ends[0]], group[e.ends[1]]
            if a is not b:
                if len(a) < len(b):
                    a, b = b, a
                a += b
                for v in b:
                    group[v] = a
    return {v: g[0] for v, g in group.items()}


def components(web: Web) -> list[Web]:
    """The connected components of the vertex part, as circle-free webs.

    Tait colorings, 1-sets and even 1-sets of a web are those of its
    components chosen independently, so their counts multiply.
    """
    root = _roots(web.vertices, web.edges)
    parts: dict[str, tuple[list[str], list[Edge]]] = {}
    for v in web.vertices:
        parts.setdefault(root[v], ([], []))[0].append(v)
    for e in web.edges:
        if e.ends:
            parts[root[e.ends[0]]][1].append(e)
    if len(parts) == 1 and not web.circles:
        return [web]
    return [
        Web(web.name, tuple(vs), tuple(es), web.planar) for vs, es in parts.values()
    ]


def complement_cycles(web: Web, s: Iterable[str]) -> list[int]:
    """Vertex counts of the complementary cycles of the 1-set ``s``.

    Every vertex of a trivalent web meets exactly two complement
    incidences (a loop counting twice), so each connected component of
    the complement is one cycle.  Free circles are left out.
    """
    s = frozenset(s)
    hits = dict.fromkeys(web.vertices, 0)
    known = 0
    for e in web.edges:
        if e.id in s:
            known += 1
            for v in e.incidences():
                hits[v] += 1
    if known != len(s):
        stray = s - {e.id for e in web.edges}
        raise ValidationError(f"unknown edge ids: {sorted(stray)}")
    if any(h != 1 for h in hits.values()):
        raise ValidationError("edge subset is not a 1-set")
    root = _roots(web.vertices, (e for e in web.edges if e.id not in s))
    return list(Counter(root.values()).values())


def is_even(cycles: Iterable[int]) -> bool:
    """True when every complementary cycle has an even number of vertices.

    Each vertex carries exactly one incidence of the 1-set, so a cycle's
    vertex count is the number of 1-set endpoints on it.
    """
    return all(n % 2 == 0 for n in cycles)


def count_tait_backtracking(web: Web) -> int:
    """Number of edge 3-colorings with distinct colors at every vertex.

    Loops make their vertex uncolorable (two incidences share a color);
    free circles are unconstrained and contribute a factor of 3 each.
    Each component is searched alone and the counts multiply.
    """
    web.validate()
    if web.loops:
        return 0
    total = 3 ** len(web.circles)
    for part in components(web):
        total *= _count_colorings(part.edges)
    return total


def _count_colorings(edges: tuple[Edge, ...]) -> int:
    """Proper 3-edge-colorings of a loopless set of edges, by backtracking.

    The edge order is fixed before the search: the next edge is the one
    that meets the most edges already ordered, counting both ends.
    ``earlier[i]`` holds the positions of those edges for position ``i``.
    """
    rest = list(edges)
    at: dict[str, list[int]] = {}  # vertex -> positions of its ordered edges
    earlier: list[list[int]] = []
    while rest:
        e = max(rest, key=lambda f: sum(len(at.get(v, ())) for v in f.ends))
        rest.remove(e)
        earlier.append([j for v in e.ends for j in at.get(v, ())])
        for v in e.ends:
            at.setdefault(v, []).append(len(earlier) - 1)
    color = [0] * len(earlier)

    def count(i: int) -> int:
        if i == len(earlier):
            return 1
        used = {color[j] for j in earlier[i]}
        total = 0
        for c in (0, 1, 2):
            if c not in used:
                color[i] = c
                total += count(i + 1)
        return total

    return count(0)


def count_tait_matching_formula(web: Web) -> int:
    """Tait-coloring count via even 1-sets: sum of 2^n(s), per component.

    A 1-set of the web is one 1-set of each component, plus any subset of
    the free circles.  A circle is either in the 1-set or one more (even)
    complementary circle, so it contributes a factor 1 + 2 = 3, and the
    sums over the components' 1-sets multiply.
    """
    total = 3 ** len(web.circles)
    for part in components(web):
        cycle_counts = (complement_cycles(part, s) for s in one_sets(part))
        total *= sum(1 << len(c) for c in cycle_counts if is_even(c))
    return total


def is_abstract_planar(web: Web) -> bool:
    """Planarity of the underlying abstract graph.

    Loops and parallel edges never affect planarity, so the test runs on
    the underlying simple graph.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(web.vertices)
    for e in web.edges:
        if e.kind == "edge":
            g.add_edge(*e.ends)
    return nx.check_planarity(g, counterexample=False)[0]


def predict_planar_rank(web: Web) -> int:
    """The matching-formula count, interpreted as a free-rank prediction.

    The interpretation is backed by a theorem only when the web has a
    planar embedding.  The caller's ``planar`` declaration is trusted for
    the embedding but cross-checked against abstract planarity; a web
    without planar backing still gets the count, with a warning.
    """
    count = count_tait_matching_formula(web)
    abstract = is_abstract_planar(web)
    if web.planar and not abstract:
        warnings.warn(
            f"web {web.name!r} is declared planar but the abstract graph is "
            "not planar; the declaration cannot be honored",
            NonPlanarPredictionWarning,
            stacklevel=2,
        )
    elif not web.planar or not abstract:
        warnings.warn(
            f"web {web.name!r} has no planar backing; "
            "the predicted rank is heuristic only",
            NonPlanarPredictionWarning,
            stacklevel=2,
        )
    return count


def disjoint_union(a: Web, b: Web) -> Web:
    """Disjoint union with deterministic relabeling; counts multiply."""

    def relabel(web: Web, tag: str) -> tuple[list[str], list[Edge]]:
        verts = [f"{tag}:{v}" for v in web.vertices]
        edges = [
            Edge(f"{tag}:{e.id}", tuple(f"{tag}:{v}" for v in e.ends))
            for e in web.edges
        ]
        return verts, edges

    va, ea = relabel(a, "0")
    vb, eb = relabel(b, "1")
    if a.planar and b.planar:
        planar: bool | None = True
    elif a.planar is False or b.planar is False:
        planar = False
    else:
        planar = None
    return Web(f"{a.name}+{b.name}", tuple(va + vb), tuple(ea + eb), planar)


# ---------------------------------------------------------------------------
# JSON input format.
# ---------------------------------------------------------------------------


def web_from_dict(data: object, source: str = "<web>") -> Web:
    """Build a web from the JSON object format, with precise error paths."""

    def fail(path: str, message: str) -> InputError:
        return InputError(f"{source}: {path}: {message}")

    if not isinstance(data, dict):
        raise fail("$", "expected a JSON object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise fail("name", "expected a string")
    vertices = data.get("vertices", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise fail("vertices", "expected a list of strings")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise fail("edges", "expected a list")
    edges = []
    for i, rec in enumerate(raw_edges):
        path = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise fail(path, "expected an object")
        eid = rec.get("id")
        if not isinstance(eid, str) or not eid:
            raise fail(path, "missing or non-string 'id'")
        forms = [k for k in ("ends", "loop", "circle") if k in rec]
        if len(forms) != 1:
            raise fail(path, "need exactly one of 'ends', 'loop', 'circle'")
        if "ends" in rec:
            ends = rec["ends"]
            if (
                not isinstance(ends, list)
                or len(ends) != 2
                or not all(isinstance(v, str) for v in ends)
            ):
                raise fail(path, "'ends' must be a list of two vertex names")
            if ends[0] == ends[1]:
                raise fail(path, "equal endpoints must use the loop form")
            edges.append(Edge(eid, (ends[0], ends[1])))
        elif "loop" in rec:
            v = rec["loop"]
            if not isinstance(v, str):
                raise fail(path, "'loop' must be a vertex name")
            edges.append(Edge(eid, (v,)))
        else:
            if rec["circle"] is not True:
                raise fail(path, "'circle' must be true")
            edges.append(Edge(eid, ()))
    planar = data.get("planar")
    if planar is not None and not isinstance(planar, bool):
        raise fail("planar", "expected a boolean")
    try:
        return Web(name, tuple(vertices), tuple(edges), planar)
    except ValidationError as exc:
        raise fail("$", str(exc)) from exc


def web_to_dict(web: Web) -> dict:
    edges = []
    for e in web.edges:
        if e.kind == "edge":
            edges.append({"id": e.id, "ends": [e.ends[0], e.ends[1]]})
        elif e.kind == "loop":
            edges.append({"id": e.id, "loop": e.ends[0]})
        else:
            edges.append({"id": e.id, "circle": True})
    data: dict = {"name": web.name, "vertices": list(web.vertices), "edges": edges}
    if web.planar is not None:
        data["planar"] = web.planar
    return data


def load_web(path: str | Path) -> Web:
    path = Path(path)
    return web_from_dict(_read_json(path), source=str(path))


def corpus_dir() -> Path:
    """Directory holding the shipped corpus of named webs."""
    return Path(str(resources.files("webfoam").joinpath("corpus")))


def corpus_names() -> list[str]:
    return sorted(p.stem for p in corpus_dir().glob("*.json"))


def corpus_web(name: str) -> Web:
    path = corpus_dir() / f"{name}.json"
    if not path.exists():
        raise InputError(
            f"no corpus web named {name!r}; available: {', '.join(corpus_names())}"
        )
    return load_web(path)


# ---------------------------------------------------------------------------
# Exhaustive generation of connected cubic multigraphs up to isomorphism.
# ---------------------------------------------------------------------------
#
# States are partial multigraphs in which every edge already has at least
# one full (valence-3) endpoint; the search completes one deficient vertex
# at a time.  The set of completions of a state depends only on its
# isomorphism class, so states are deduplicated by a canonical certificate
# and each isomorphism class of finished graphs is produced exactly once.


class _State:
    __slots__ = ("n", "loops", "mult")

    def __init__(self, n: int, loops: tuple[int, ...], mult: tuple[tuple[int, ...], ...]):
        self.n = n
        self.loops = loops
        self.mult = mult

    def degree(self, v: int) -> int:
        return 2 * self.loops[v] + sum(self.mult[v])

    def with_completion(
        self, v: int, add_loop: bool, edge_counts: dict[int, int]
    ) -> "_State":
        loops = list(self.loops)
        if add_loop:
            loops[v] += 1
        mult = [list(row) for row in self.mult]
        for u, c in edge_counts.items():
            mult[v][u] += c
            mult[u][v] += c
        return _State(self.n, tuple(loops), tuple(tuple(row) for row in mult))


def _components(state: _State) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(state.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in range(state.n):
                if y not in seen and state.mult[x][y]:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _dead_end(state: _State) -> bool:
    """True when no completion of the state can be connected."""
    comps = _components(state)
    if len(comps) == 1:
        return False
    for comp in comps:
        if len(comp) < state.n and all(state.degree(v) == 3 for v in comp):
            return True
    return False


def _refine(
    colors: list, adjacency: list[list[tuple[int, int]]]
) -> list[int]:
    """Color refinement; returns stable integer colors (canonical ranks)."""
    n = len(colors)
    current = list(colors)
    while True:
        signatures = []
        for v in range(n):
            neigh = sorted((m, current[u]) for u, m in adjacency[v])
            signatures.append((current[v], tuple(neigh)))
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        fresh = [ranking[sig] for sig in signatures]
        if fresh == current:
            return fresh
        current = fresh


def _canon_component(
    verts: list[int], state: _State
) -> tuple:
    """Canonical certificate of one connected component (individualization)."""
    index = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i, v in enumerate(verts):
        for w in verts:
            if w != v and state.mult[v][w]:
                adjacency[i].append((index[w], state.mult[v][w]))

    def encode(order: list[int]) -> tuple:
        loops = tuple(state.loops[verts[v]] for v in order)
        tri = []
        for i in range(m):
            for j in range(i + 1, m):
                tri.append(state.mult[verts[order[i]]][verts[order[j]]])
        return (m, loops, tuple(tri))

    def search(colors: list) -> tuple:
        stable = _refine(colors, adjacency)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(stable):
            cells.setdefault(c, []).append(v)
        if all(len(cell) == 1 for cell in cells.values()):
            order = sorted(range(m), key=lambda v: stable[v])
            return encode(order)
        target = min(c for c, cell in cells.items() if len(cell) > 1)
        best = None
        for v in cells[target]:
            branched = [(0, c) if u == v else (1, c) for u, c in enumerate(stable)]
            cert = search(branched)
            if best is None or cert < best:
                best = cert
        return best

    init = [(state.degree(v), state.loops[v]) for v in verts]
    return search(list(init))


def _canonical_certificate(state: _State) -> tuple:
    comps = _components(state)
    isolated = sum(1 for c in comps if len(c) == 1 and state.degree(next(iter(c))) == 0)
    certs = sorted(
        _canon_component(sorted(c), state)
        for c in comps
        if not (len(c) == 1 and state.degree(next(iter(c))) == 0)
    )
    return (state.n, isolated, tuple(certs))


def _completions(state: _State, v: int) -> Iterator[_State]:
    deficit = 3 - state.degree(v)
    partners = [
        u for u in range(state.n) if u != v and state.degree(u) < 3
    ]

    def choose(remaining: int, start: int, counts: dict[int, int], used_loop: bool):
        if remaining == 0:
            yield state.with_completion(v, used_loop, dict(counts))
            return
        if not used_loop and not counts and state.loops[v] == 0 and remaining >= 2:
            yield from choose(remaining - 2, 0, counts, True)
        for k in range(start, len(partners)):
            u = partners[k]
            capacity = 3 - state.degree(u)
            already = counts.get(u, 0)
            if already >= capacity:
                continue
            counts[u] = already + 1
            yield from choose(remaining - 1, k, counts, used_loop)
            if already:
                counts[u] = already
            else:
                del counts[u]

    yield from choose(deficit, 0, {}, False)


@functools.lru_cache(maxsize=None)
def generate_connected_cubic(n: int) -> tuple[Web, ...]:
    """All connected cubic multigraphs on n vertices, up to isomorphism.

    Loops and parallel edges are allowed.  ``n`` must be even (the sum
    of valences is 3n).  Graphs are returned as webs with deterministic
    vertex and edge names.
    """
    if n <= 0 or n % 2:
        raise ValueError("a cubic multigraph needs a positive even vertex count")
    start = _State(n, (0,) * n, tuple((0,) * n for _ in range(n)))
    seen = {_canonical_certificate(start)}
    queue = [start]
    finals: dict[tuple, _State] = {}
    while queue:
        state = queue.pop()
        deficient = [v for v in range(n) if state.degree(v) < 3]
        if not deficient:
            if len(_components(state)) == 1:
                finals.setdefault(_canonical_certificate(state), state)
            continue
        anchored = [v for v in deficient if state.degree(v) > 0]
        v = max(anchored, key=state.degree) if anchored else deficient[0]
        for child in _completions(state, v):
            if _dead_end(child):
                continue
            cert = _canonical_certificate(child)
            if cert not in seen:
                seen.add(cert)
                queue.append(child)

    webs = []
    for idx, (_, state) in enumerate(sorted(finals.items())):
        vertices = tuple(f"v{i}" for i in range(n))
        edges = []
        counter = 0
        for i in range(n):
            if state.loops[i]:
                edges.append(Edge(f"e{counter}", (f"v{i}",)))
                counter += 1
        for i in range(n):
            for j in range(i + 1, n):
                for _ in range(state.mult[i][j]):
                    edges.append(Edge(f"e{counter}", (f"v{i}", f"v{j}")))
                    counter += 1
        webs.append(Web(f"cubic{n}-{idx}", vertices, tuple(edges)))
    return tuple(webs)
