"""Trivalent webs: abstract cubic multigraphs with loops and free circles.

A web is stored abstractly (no spatial embedding): vertices are named,
and each edge is a regular edge between two distinct vertices, a loop at
a single vertex (counting twice toward its valence), or a free circle
with no endpoints.  Webs with no vertices at all (disjoint circles) are
valid.

The module provides

* 1-set (perfect matching) enumeration, complementary cycle
  decompositions and the evenness test;
* two independent Tait-coloring counters: direct backtracking over edge
  colorings, and the matching-formula count ``sum over even 1-sets s of
  2^n(s)`` where ``n(s)`` is the number of complementary cycles;
* the planar rank prediction (the matching-formula count, which is a
  theorem only for planar webs -- non-planar inputs get a warning);
* a JSON file format and the shipped corpus of named webs;
* exhaustive generation of connected cubic multigraphs up to
  isomorphism, used by the test and verification suites.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InputError, ValidationError, _read_json

__all__ = [
    "Edge",
    "Web",
    "EdgeSubset",
    "CycleComponent",
    "CycleDecomposition",
    "one_sets",
    "complement_cycles",
    "is_even",
    "count_tait_backtracking",
    "count_tait_matching_formula",
    "without_circles",
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
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
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

    def subset(self, edge_ids: Iterable[str]) -> "EdgeSubset":
        return EdgeSubset(self, frozenset(edge_ids))


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of the edges of a web; classification is always recomputed."""

    web: Web
    edges: frozenset[str]

    def __post_init__(self):
        known = {e.id for e in self.web.edges}
        stray = self.edges - known
        if stray:
            raise ValidationError(f"unknown edge ids: {sorted(stray)}")

    def complement(self) -> frozenset[str]:
        return frozenset(e.id for e in self.web.edges) - self.edges

    def _incidence_count(self, edge_ids: frozenset[str]) -> dict[str, int]:
        count = {v: 0 for v in self.web.vertices}
        for e in self.web.edges:
            if e.id in edge_ids:
                for v in e.incidences():
                    count[v] += 1
        return count

    def is_one_set(self) -> bool:
        return all(c == 1 for c in self._incidence_count(self.edges).values())

    def is_two_set(self) -> bool:
        return all(c == 2 for c in self._incidence_count(self.edges).values())

    def is_even(self) -> bool:
        return is_even(self.web, self)


@dataclass(frozen=True)
class CycleComponent:
    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]
    is_circle: bool


@dataclass(frozen=True)
class CycleDecomposition:
    components: tuple[CycleComponent, ...]

    @property
    def n(self) -> int:
        return len(self.components)


def one_sets(web: Web) -> list[EdgeSubset]:
    """All 1-sets: exactly one incident member at each vertex, by multiplicity.

    A loop contributes 2 at its vertex, so loops never occur in a 1-set.
    Free circles are unconstrained, so each matching of the vertex part
    spawns one subset per subset of circles.
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

    circles = [e.id for e in web.circles]
    subsets = []
    for matching in matchings:
        for k in range(len(circles) + 1):
            for extra in itertools.combinations(circles, k):
                subsets.append(EdgeSubset(web, matching | frozenset(extra)))
    return subsets


def _half_edges(e: Edge) -> list[tuple[str, int]]:
    """(vertex, slot) incidences of a non-circle edge; loops give two slots."""
    if e.kind == "loop":
        return [(e.ends[0], 0), (e.ends[0], 1)]
    return [(e.ends[0], 0), (e.ends[1], 1)]


def complement_cycles(web: Web, s: EdgeSubset | frozenset) -> CycleDecomposition:
    """Decompose the complement of a 1-set into cycles and free circles.

    The complement is a 2-set: every vertex has exactly two incident
    complement edges (a loop counting twice), so the complement edges
    with endpoints form disjoint closed walks covering every vertex.
    """
    if not isinstance(s, EdgeSubset):
        s = EdgeSubset(web, frozenset(s))
    if not s.is_one_set():
        raise ValidationError("edge subset is not a 1-set")
    comp_ids = s.complement()
    comp_edges = [e for e in web.edges if e.id in comp_ids]

    components: list[CycleComponent] = []
    for e in comp_edges:
        if e.kind == "circle":
            components.append(CycleComponent((), (e.id,), True))

    at_vertex: dict[str, list[tuple[str, int]]] = {v: [] for v in web.vertices}
    partner: dict[tuple[str, int], tuple[str, int]] = {}
    by_id = {e.id: e for e in comp_edges}
    for e in comp_edges:
        if e.kind == "circle":
            continue
        (v0, s0), (v1, s1) = _half_edges(e)
        at_vertex[v0].append((e.id, s0))
        at_vertex[v1].append((e.id, s1))
        partner[(e.id, s0)] = (e.id, s1)
        partner[(e.id, s1)] = (e.id, s0)

    visited: set[tuple[str, int]] = set()
    for v_start in web.vertices:
        for h_start in at_vertex[v_start]:
            if h_start in visited:
                continue
            verts: list[str] = []
            eids: list[str] = []
            h = h_start
            v = v_start
            while True:
                # cross the edge from half-edge h ...
                visited.add(h)
                eids.append(h[0])
                h2 = partner[h]
                visited.add(h2)
                e = by_id[h2[0]]
                v = e.ends[0] if e.kind == "loop" else e.ends[h2[1]]
                verts.append(v)
                # ... then leave v through its other incidence
                a, b = at_vertex[v]
                h = b if a == h2 else a
                if h == h_start:
                    break
            components.append(CycleComponent(tuple(verts), tuple(eids), False))
    return CycleDecomposition(tuple(components))


def is_even(web: Web, s: EdgeSubset | frozenset) -> bool:
    """True when every complementary cycle carries an even number of s-endpoints.

    Each vertex lies on exactly one complementary cycle and carries
    exactly one s-incidence, so the endpoint count on a cycle is its
    vertex count.
    """
    decomposition = complement_cycles(web, s)
    return all(len(c.vertices) % 2 == 0 for c in decomposition.components)


def count_tait_backtracking(web: Web) -> int:
    """Number of edge 3-colorings with distinct colors at every vertex.

    Loops make their vertex uncolorable (two incidences share a color);
    free circles are unconstrained and contribute a factor of 3 each.
    """
    web.validate()
    if web.loops:
        return 0
    regular = [e for e in web.edges if e.kind == "edge"]
    factor = 3 ** len(web.circles)
    if not regular:
        return factor

    incident: dict[str, list[int]] = {v: [] for v in web.vertices}
    for idx, e in enumerate(regular):
        for v in e.ends:
            incident[v].append(idx)
    color: dict[int, int] = {}

    def allowed(idx: int) -> list[int]:
        used = set()
        for v in regular[idx].ends:
            for other in incident[v]:
                if other in color:
                    used.add(color[other])
        return [c for c in (0, 1, 2) if c not in used]

    def count() -> int:
        uncolored = [i for i in range(len(regular)) if i not in color]
        if not uncolored:
            return 1
        # most-constrained edge first
        idx = max(
            uncolored,
            key=lambda i: sum(
                1
                for v in regular[i].ends
                for other in incident[v]
                if other in color
            ),
        )
        total = 0
        for c in allowed(idx):
            color[idx] = c
            total += count()
            del color[idx]
        return total

    return factor * count()


def without_circles(web: Web) -> Web:
    """The web with its free circles removed (the web itself if it has none)."""
    if not web.circles:
        return web
    edges = tuple(e for e in web.edges if e.kind != "circle")
    return Web(web.name, web.vertices, edges, web.planar)


def count_tait_matching_formula(web: Web) -> int:
    """Tait-coloring count via even 1-sets: sum of 2^n(s).

    A free circle is either in the 1-set or one more (even) complementary
    circle, so it contributes 1 + 2 = 3: the sum runs over the 1-sets of
    the circle-free web and is multiplied by 3^c for c circles, instead of
    over 2^c times as many 1-sets.
    """
    core = without_circles(web)
    total = 0
    for s in one_sets(core):
        decomposition = complement_cycles(core, s)
        if all(len(c.vertices) % 2 == 0 for c in decomposition.components):
            total += 1 << decomposition.n
    return total * 3 ** len(web.circles)


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
