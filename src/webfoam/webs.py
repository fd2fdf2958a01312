"""Trivalent webs: abstract cubic multigraphs with loops and free circles.

A web is stored abstractly (no spatial embedding): vertices are named,
and each edge is a regular edge between two distinct vertices, a loop at
a single vertex (counting twice toward its valence), or a free circle
with no endpoints.  Webs with no vertices at all (disjoint circles) are
valid.  Each web is compiled once, in its constructor, and every public
call reads that compiled form: the integer incidences (``_incidences``),
the connected components in breadth-first order (``_components``), the
loops and circles (``_loops``, ``_circles``), and the valence verdict
(``_valence_error``).

The module provides

* 1-set (perfect matching) enumeration on the vertex part, as frozensets
  of edge ids; the vertex counts of the complementary cycles of a 1-set;
  and one evenness test on those counts (every cycle even);
* the 1-set census of a web: its 1-sets, its even 1-sets, and the
  matching-formula count ``sum over even 1-sets s of 2^n(s)`` where
  ``n(s)`` is the number of complementary cycles;
* two independent Tait-coloring counters: direct backtracking over edge
  colorings in an edge order fixed before the search, and the
  matching-formula count from the census.  Both count each connected
  component alone and multiply, with a factor 3 per circle;
  :func:`count_tait_colorings` runs both and raises on a disagreement;
* the planar rank prediction (the matching-formula count, which is a
  theorem only for planar webs -- a web without planar backing gets a
  caveat text beside the count), with a planarity test of the
  underlying graph by path addition per block;
* a JSON file format and the shipped corpus of named webs;
* exhaustive generation of connected cubic multigraphs up to
  isomorphism, used by the test and verification suites.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import InputError, InternalConsistencyError, ValidationError, _read_json

__all__ = [
    "Edge",
    "Web",
    "one_sets",
    "one_set_census",
    "complement_cycles",
    "is_even",
    "count_tait_backtracking",
    "count_tait_matching_formula",
    "count_tait_colorings",
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
]


@dataclass(frozen=True)
class Edge:
    """An edge record: 2 distinct ends, 1 end (loop), or none (circle)."""

    id: str
    ends: tuple[str, ...]

    @property
    def kind(self) -> str:
        return ("circle", "loop", "edge")[len(self.ends)]


_Incidences = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class Web:
    """A trivalent multigraph, possibly with loops and free circles.

    The constructor checks names and edge ends but not valences, so an
    instance may be non-trivalent until :meth:`validate` is called.  It
    also compiles the web once, into private fields that take no part in
    equality, hash or repr.  Vertex ``i`` is ``vertices[i]`` and edge
    ``j`` is ``edges[j]``;

    * ``_incidences[i]`` lists the ``(edge, other end)`` pairs at vertex
      ``i`` in edge order, a loop twice;
    * ``_components`` holds each connected component as a vertex tuple,
      roots in vertex order and neighbours in incidence order;
    * ``_loops`` and ``_circles`` are the loop and circle edges, in edge
      order;
    * ``_valence_error`` names every vertex of valence other than 3, in
      vertex order, and is empty for a trivalent web.
    """

    name: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    planar: bool | None = None
    _incidences: _Incidences = field(init=False, repr=False, compare=False)
    _components: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _loops: tuple[Edge, ...] = field(init=False, repr=False, compare=False)
    _circles: tuple[Edge, ...] = field(init=False, repr=False, compare=False)
    _valence_error: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = Counter(e.id for e in self.edges)
        if len(ids) != len(self.edges):
            dup = sorted(i for i, n in ids.items() if n > 1)
            raise ValidationError(f"duplicate edge ids: {', '.join(dup)}")
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            dup = sorted(v for v, n in Counter(self.vertices).items() if n > 1)
            raise ValidationError(f"duplicate vertex names: {', '.join(dup)}")
        inc: list[list[tuple[int, int]]] = [[] for _ in index]
        loops, circles = [], []
        for j, e in enumerate(self.edges):
            if len(e.ends) > 2:
                raise ValidationError(f"edge {e.id!r} has more than two ends")
            if len(e.ends) == 2 and e.ends[0] == e.ends[1]:
                raise ValidationError(
                    f"edge {e.id!r}: equal endpoints must use the loop form"
                )
            for v in e.ends:
                if v not in index:
                    raise ValidationError(f"edge {e.id!r} meets unknown vertex {v!r}")
            if not e.ends:
                circles.append(e)
                continue
            if len(e.ends) == 1:
                loops.append(e)
            a, b = index[e.ends[0]], index[e.ends[-1]]
            inc[a].append((j, b))
            inc[b].append((j, a))
        bad = "; ".join(
            f"vertex {v!r} has valence {len(at)}"
            for v, at in zip(self.vertices, inc)
            if len(at) != 3
        )
        compiled = tuple(map(tuple, inc))
        object.__setattr__(self, "_incidences", compiled)
        object.__setattr__(self, "_components", _parts(compiled))
        object.__setattr__(self, "_loops", tuple(loops))
        object.__setattr__(self, "_circles", tuple(circles))
        object.__setattr__(self, "_valence_error", bad)

    def validate(self) -> "Web":
        """Check trivalence at every vertex; report all offenders at once."""
        if self._valence_error:
            raise ValidationError(self._valence_error)
        return self

    @property
    def circles(self) -> tuple[Edge, ...]:
        return self._circles

    @property
    def loops(self) -> tuple[Edge, ...]:
        return self._loops


def _parts(inc: _Incidences) -> tuple[tuple[int, ...], ...]:
    """Each connected component as a vertex tuple, from one breadth-first
    pass: roots in vertex order, neighbours in incidence order."""
    seen = [False] * len(inc)
    parts = []
    for root in range(len(inc)):
        if not seen[root]:
            seen[root] = True
            part = [root]
            for v in part:
                for _, w in inc[v]:
                    if not seen[w]:
                        seen[w] = True
                        part.append(w)
            parts.append(tuple(part))
    return tuple(parts)


def one_sets(web: Web) -> list[frozenset[str]]:
    """All 1-sets of the vertex part: exactly one incident member at each vertex.

    Incidences count with multiplicity: a loop contributes 2 at its
    vertex, so loops never occur in a 1-set.  Free circles never appear
    either; a caller counting 1-sets of the whole web doubles the count
    for each circle.

    The search always matches the first uncovered vertex in a breadth-first
    order of each component, so a vertex left without partners shows early.
    A loop leads back to its own vertex, so both the order and the search skip it.
    """
    inc = web.validate()._incidences
    order = [v for part in web._components for v in part]
    ids = [e.id for e in web.edges]
    return [frozenset(ids[j] for j in s) for s in _one_sets(inc, order)]


def _one_sets(inc: _Incidences, order: Sequence[int]) -> list[tuple[int, ...]]:
    """The 1-sets over the vertices ``order``, as edge tuples; the search
    matches the first uncovered vertex of ``order`` at every step."""
    matchings: list[tuple[int, ...]] = []
    covered = [False] * len(inc)
    end = len(order)

    def extend(i: int, chosen: tuple[int, ...]) -> None:
        while i < end and covered[order[i]]:
            i += 1
        if i == end:
            matchings.append(chosen)
            return
        v = order[i]
        covered[v] = True
        for j, w in inc[v]:
            if not covered[w]:
                covered[w] = True
                extend(i + 1, chosen + (j,))
                covered[w] = False
        covered[v] = False

    extend(0, ())
    return matchings


def complement_cycles(web: Web, s: Iterable[str]) -> list[int]:
    """Vertex counts of the complementary cycles of the 1-set ``s``.

    Every vertex of a trivalent web meets exactly two complement
    incidences (a loop counting twice), so each connected component of
    the complement is one cycle.  Cycles come in the order of their first
    vertex in ``web.vertices``; free circles are left out.  The web must be
    trivalent: any other web raises its valence ``ValidationError`` first.
    """
    inc = web.validate()._incidences
    s = frozenset(s)
    index = {e.id: j for j, e in enumerate(web.edges)}
    if not s <= index.keys():
        raise ValidationError(f"unknown edge ids: {sorted(s - index.keys())}")
    chosen = {index[i] for i in s}
    if any(sum(j in chosen for j, _ in at) != 1 for at in inc):
        raise ValidationError("edge subset is not a 1-set")
    return _cycle_lengths(inc, range(len(inc)), chosen)


def _cycle_lengths(inc: _Incidences, vertices: Iterable[int], s: set[int]) -> list[int]:
    """Vertex counts of the complement cycles of the 1-set ``s`` through
    ``vertices``, walked one at a time and ordered by their first vertex."""
    seen = [False] * len(inc)
    lengths = []
    for v in vertices:
        came, n = None, 0
        while not seen[v]:
            seen[v] = True
            n += 1
            for e, w in inc[v]:
                if e != came and e not in s:
                    break
            v, came = w, e
        if n:
            lengths.append(n)
    return lengths


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
    inc = web.validate()._incidences
    if web._loops:
        return 0
    total = 3 ** len(web._circles)
    for part in web._components:
        total *= _count_colorings(inc, part)
    return total


def _count_colorings(inc: _Incidences, part: Sequence[int]) -> int:
    """Proper 3-edge-colorings of one connected loopless component, by backtracking.

    The edge order is fixed before the search: the next edge is the one
    that meets the most edges already ordered (``score``), counting both
    ends, the lowest index first on ties.  ``earlier[i]`` holds the
    positions of those edges for position ``i``.

    Permuting the colors acts freely on proper colorings (every vertex
    shows all three), and the first two edges of the order share a vertex,
    so each orbit of six has one coloring that gives them colors 0 and 1.
    """
    ends = {j: (v, w) for v in part for j, w in inc[v] if v < w}
    score = dict.fromkeys(sorted(ends), 0)  # over the unordered edges
    position: dict[int, int] = {}
    earlier: list[list[int]] = []
    while score:
        j = max(score, key=score.__getitem__)
        del score[j]
        near = [k for v in ends[j] for k, _ in inc[v]]
        earlier.append([position[k] for k in near if k in position])
        position[j] = len(earlier) - 1
        for k in near:
            if k in score:
                score[k] += 1
    color = [0, 1] + [0] * (len(earlier) - 2)

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

    return 6 * count(2)


def one_set_census(web: Web) -> tuple[int, int, int]:
    """The 1-sets, the even 1-sets, and the sum of 2^n(s) over the even 1-sets.

    A 1-set of the web is one 1-set of each component, plus any subset of
    the free circles, so the counts multiply over the components.  A
    circle is in the 1-set or not (a factor 2 on the 1-sets), keeps every
    cycle even either way (a factor 2 on the even ones), and outside the
    1-set is one more complementary cycle, so it weighs 1 + 2 = 3 in the sum.
    """
    inc = web.validate()._incidences
    circles = len(web._circles)
    ones, even, weighted = 2**circles, 2**circles, 3**circles
    for part in web._components:
        cycles = [_cycle_lengths(inc, part, set(s)) for s in _one_sets(inc, part)]
        even_cycles = [c for c in cycles if is_even(c)]
        ones *= len(cycles)
        even *= len(even_cycles)
        weighted *= sum(1 << len(c) for c in even_cycles)
    return ones, even, weighted


def count_tait_matching_formula(web: Web) -> int:
    """Tait-coloring count via even 1-sets: sum of 2^n(s) over the even 1-sets s."""
    return one_set_census(web)[2]


def count_tait_colorings(web: Web) -> int:
    """The Tait-coloring count, by both counters; a disagreement is internal."""
    bt = count_tait_backtracking(web)
    mf = count_tait_matching_formula(web)
    if bt != mf:
        raise InternalConsistencyError(
            f"web {web.name!r}: backtracking count {bt} "
            f"!= matching-formula count {mf}"
        )
    return bt


def is_abstract_planar(web: Web) -> bool:
    """Planarity of the underlying abstract graph.

    Loops and parallel edges never affect planarity, so the test runs on
    the underlying simple graph.  A graph is planar exactly when each of
    its blocks (biconnected components) is, and each block is tested by
    path addition (:func:`_planar_block`).
    """
    inc = web._incidences
    adj = [dict.fromkeys(w for _, w in at if w != v) for v, at in enumerate(inc)]
    return all(_planar_block(block) for block in _blocks(adj))


def _blocks(adj: list[dict[int, None]]) -> Iterator[list[tuple[int, int]]]:
    """Edge lists of the blocks of a simple graph (Hopcroft-Tarjan).

    The depth-first search keeps its own stack, so deep graphs cannot
    exhaust the recursion limit.  A tree edge ``(p, v)`` closes a block
    when nothing below ``v`` reaches above ``p``; the block is then the
    edges stacked since that tree edge.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    for root in range(len(adj)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        edges: list[tuple[int, int]] = []
        # (vertex, parent, unseen neighbours, stack position of the tree edge)
        stack = [(root, None, iter(adj[root]), 0)]
        while stack:
            v, parent, rest, at = stack[-1]
            for w in rest:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append((w, v, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if w != parent and index[w] < index[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], index[w])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= index[parent]:
                    yield edges[at:]
                    del edges[at:]


def _planar_block(edges: list[tuple[int, int]]) -> bool:
    """Planarity of a block, by Demoucron-Malgrange-Pertuiset path addition.

    The embedded part ``H`` starts as one edge, whose single face is the
    closed walk along it; each face is a vertex list in cyclic order.  A
    fragment of ``H`` is an edge outside ``H`` joining two of its
    vertices, or a component of the rest of the graph with its edges to
    ``H``; its attachments are its vertices in ``H``, and a face admits
    it when the face holds all of them.  Each round embeds a path through
    a fragment, between two attachments, across a face admitting it, and
    splits that face.  A fragment that no face admits proves the graph
    non-planar; otherwise a fragment with one admissible face goes first,
    and any choice is safe when every fragment has two or more
    (Demoucron, Malgrange & Pertuiset 1964).  Each round adds an edge and
    costs O(n + m).
    """
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    m = len(edges)
    faces = [list(edges[0])]
    placed = set(edges[0])
    used = {frozenset(edges[0])}
    while len(used) < m:
        on: dict[int, set[int]] = {}
        for i, face in enumerate(faces):
            for x in face:
                on.setdefault(x, set()).add(i)
        best = None
        for attach, path in _fragments(adj, placed, used):
            admissible = set.intersection(*(on[x] for x in attach))
            if not admissible:
                return False
            if best is None or len(admissible) < len(best[0]):
                best = (admissible, path)
                if len(admissible) == 1:
                    break
        admissible, path = best
        i = min(admissible)
        face = faces[i]
        start, end = face.index(path[0]), face.index(path[-1])
        if start <= end:
            arc, rest = face[start : end + 1], face[end:] + face[: start + 1]
        else:
            arc, rest = face[start:] + face[: end + 1], face[end : start + 1]
        faces[i] = arc + path[-2:0:-1]
        faces.append(rest + path[1:-1])
        placed.update(path)
        used.update(frozenset(pair) for pair in zip(path, path[1:]))
    return True


def _fragments(adj: dict[int, list[int]], placed: set[int], used: set[frozenset]):
    """``(attachments, path)`` for each fragment of the embedded part.

    The path runs through the fragment between two distinct attachments;
    in a block every fragment has two attachments or more.
    """
    for a in placed:
        for b in adj[a]:
            if b in placed and a < b and frozenset((a, b)) not in used:
                yield (a, b), [a, b]
    seen: set[int] = set()
    for s in adj:
        if s in placed or s in seen:
            continue
        seen.add(s)
        comp = [s]
        attach: dict[int, None] = {}
        for x in comp:
            for y in adj[x]:
                if y in placed:
                    attach[y] = None
                elif y not in seen:
                    seen.add(y)
                    comp.append(y)
        yield attach, _path_through(adj, placed, set(comp), next(iter(attach)))


def _path_through(
    adj: dict[int, list[int]], placed: set[int], inside: set[int], a: int
) -> list[int]:
    """A path from ``a`` through ``inside`` to another placed vertex."""
    first = next(x for x in adj[a] if x in inside)
    prev: dict[int, int | None] = {first: None}
    queue = [first]
    for x in queue:
        b = next((y for y in adj[x] if y in placed and y != a), None)
        if b is not None:
            break
        for y in adj[x]:
            if y in inside and y not in prev:
                prev[y] = x
                queue.append(y)
    path = [b]
    while x is not None:
        path.append(x)
        x = prev[x]
    path.append(a)
    return path


def predict_planar_rank(web: Web) -> tuple[int, str | None]:
    """The matching-formula count, read as a free-rank prediction, and its caveat.

    The interpretation is backed by a theorem only when the web has a
    planar embedding.  The caller's ``planar`` declaration is trusted for
    the embedding but cross-checked against abstract planarity.  The
    caveat is None for a web with planar backing; otherwise it is a text
    saying why the count is only heuristic.
    """
    count = count_tait_matching_formula(web)
    abstract = is_abstract_planar(web)
    if web.planar and not abstract:
        return count, (
            f"web {web.name!r} is declared planar but the abstract graph is "
            "not planar; the declaration cannot be honored"
        )
    if not web.planar or not abstract:
        return count, (
            f"web {web.name!r} has no planar backing; "
            "the predicted rank is heuristic only"
        )
    return count, None


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
    return Path(__file__).with_name("corpus")


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
# Each child is certified once, when it is made, and the certificate
# travels with it: a finished graph is never certified again.
#
# The completed vertex is always joined to the one component of
# non-isolated vertices (or starts it), so every state of the search has
# a single such component, and a child is a dead end exactly when that
# component is full while isolated vertices remain.
#
# Any permutation of the isolated (degree-0) vertices is an automorphism of
# a state, so completing a vertex only ever uses the first isolated
# partners, with nonincreasing multiplicities along them.  Every child
# dropped by this rule is isomorphic to one that is kept, so the rule is
# exact.


class _State:
    """A partial multigraph: loop counts and, per vertex, neighbour -> multiplicity."""

    __slots__ = ("loops", "adj", "deg")

    def __init__(self, loops: tuple[int, ...], adj: tuple[dict[int, int], ...]):
        self.loops = loops
        self.adj = adj
        self.deg = tuple([2 * k + sum(a.values()) for k, a in zip(loops, adj)])

    def with_completion(
        self, v: int, add_loop: bool, edge_counts: dict[int, int]
    ) -> "_State":
        """Add a loop and/or edges at ``v``; no partner is a neighbour yet."""
        loops = self.loops
        if add_loop:
            loops = loops[:v] + (loops[v] + 1,) + loops[v + 1 :]
        adj = list(self.adj)
        adj[v] = {**adj[v], **edge_counts}
        for u, c in edge_counts.items():
            adj[u] = {**adj[u], v: c}
        return _State(loops, tuple(adj))


def _dead_end(state: _State) -> bool:
    """True when no completion of a search state can be connected.

    Valid for the states of the search, whose non-isolated vertices form
    one component: that component is full while isolated vertices remain.
    """
    return 0 in state.deg and all(d == 0 or d == 3 for d in state.deg)


def _refine(
    colors: list[int], k: int, edges: list[tuple[int, int, int]]
) -> tuple[list[int], int]:
    """Color refinement of ``k`` ranked colors to an equitable partition.

    Each round ranks the vertices by their color and the number of edges
    they send into each color class, which depends on no vertex label.
    A vertex sends at most 3 edges anywhere, so the counts pack into two
    bits per class.  It stops as soon as the partition is discrete or a
    round splits no cell.
    """
    m = len(colors)
    shift = 2 * m
    while k < m:
        signature = [c << shift for c in colors]
        for a, b, c in edges:
            signature[a] += c << 2 * colors[b]
            signature[b] += c << 2 * colors[a]
        ranked = sorted(set(signature))
        if len(ranked) == k:
            break
        rank = {sig: i for i, sig in enumerate(ranked)}
        colors = [rank[sig] for sig in signature]
        k = len(ranked)
    return colors, k


def _canonical_certificate(state: _State) -> tuple:
    """A complete isomorphism invariant of the state, by individualization.

    Colors are integer ranks, starting from each vertex's loops and edge
    multiplicities.  Swapping two twins (vertices with the same loops and
    the same multiplicity to every other vertex) is an automorphism, so a
    partition whose non-singleton cells all consist of twins encodes the
    same way in every order; the search stops there.  Otherwise it
    individualizes each vertex of the smallest other non-singleton cell
    in turn and keeps the least encoding.  The encoding is the loops in
    canonical order and one integer per vertex pair,
    ``4 * (n * i + j) + multiplicity`` for positions ``i < j``.
    """
    loops, adj = state.loops, state.adj
    n = len(loops)
    edges = [(v, w, c) for v in range(n) for w, c in adj[v].items() if w > v]
    init = [64 * k for k in loops]
    for a, b, c in edges:
        init[a] += 1 << 2 * c
        init[b] += 1 << 2 * c
    ranking = {key: i for i, key in enumerate(sorted(set(init)))}

    def twins(a: int, b: int) -> bool:
        na, nb = adj[a], adj[b]
        return (
            loops[a] == loops[b]
            and len(na) == len(nb)
            and all(nb.get(x) == c for x, c in na.items() if x != b)
        )

    def search(colors: list[int], k: int) -> tuple:
        colors, k = _refine(colors, k, edges)
        cell = None
        if k < n:
            cells: dict[int, list[int]] = {}
            for v, c in enumerate(colors):
                cells.setdefault(c, []).append(v)
            mixed = [
                (len(members), c)
                for c, members in cells.items()
                if len(members) > 1
                and not all(twins(members[0], u) for u in members[1:])
            ]
            if mixed:
                cell = cells[min(mixed)[1]]
        if cell is None:
            pos = [0] * n
            order = sorted(range(n), key=colors.__getitem__)
            for i, v in enumerate(order):
                pos[v] = i
            code = []
            for a, b, c in edges:
                a, b = pos[a], pos[b]
                code.append(4 * (n * a + b) + c if a < b else 4 * (n * b + a) + c)
            code.sort()
            return (tuple(loops[v] for v in order), tuple(code))
        target = colors[cell[0]]
        best = None
        for v in cell:
            branched = [c + 1 if c > target else c for c in colors]
            for u in cell:
                if u != v:
                    branched[u] = target + 1
            cert = search(branched, k + 1)
            if best is None or cert < best:
                best = cert
        return best

    return search([ranking[key] for key in init], len(ranking))


def _next_vertex(state: _State) -> int:
    """The vertex to complete: a deficient one of largest positive degree."""
    deg = state.deg
    anchored = [u for u in range(len(deg)) if 0 < deg[u] < 3]
    return max(anchored, key=deg.__getitem__) if anchored else deg.index(0)


def _completions(state: _State, v: int) -> Iterator[_State]:
    """Children of ``state`` completing ``v``, isolated partners restricted.

    ``v`` must be a vertex that :func:`_next_vertex` picks: a deficient
    vertex of largest degree, so every partner has room for the whole
    deficit.  Only the first ``deficit`` isolated vertices are offered,
    and their multiplicities must not increase along them.  The loop at
    ``v``, when it fits, is offered first; then the partner multisets
    follow in the lexicographic order of their positions in ``partners``.
    """
    deg = state.deg
    n = len(deg)
    deficit = 3 - deg[v]
    isolated = [u for u in range(n) if deg[u] == 0 and u != v][:deficit]
    partners = [u for u in range(n) if u != v and 0 < deg[u] < 3] + isolated
    # deg[v] <= 1 when deficit >= 2, so v has no loop yet
    for add_loop in (True, False) if deficit >= 2 else (False,):
        for chosen in itertools.combinations_with_replacement(
            partners, deficit - 2 * add_loop
        ):
            counts = Counter(chosen)
            if all(counts[a] >= counts[b] for a, b in zip(isolated, isolated[1:])):
                yield state.with_completion(v, add_loop, counts)


@functools.lru_cache(maxsize=None)
def generate_connected_cubic(n: int) -> tuple[Web, ...]:
    """All connected cubic multigraphs on n vertices, up to isomorphism.

    Loops and parallel edges are allowed.  ``n`` must be even (the sum
    of valences is 3n).  Graphs are returned as webs with deterministic
    vertex and edge names, in the order of their canonical certificates.
    """
    if n <= 0 or n % 2:
        raise ValueError("a cubic multigraph needs a positive even vertex count")
    queue = [_State((0,) * n, ({},) * n)]
    seen: set[tuple] = set()
    finals: dict[tuple, _State] = {}
    while queue:
        state = queue.pop()
        for child in _completions(state, _next_vertex(state)):
            if _dead_end(child):
                continue
            cert = _canonical_certificate(child)
            if cert in seen:
                continue
            seen.add(cert)
            if min(child.deg) == 3:
                finals[cert] = child
            else:
                queue.append(child)

    vertices = tuple(f"v{i}" for i in range(n))
    webs = []
    for idx, (_, state) in enumerate(sorted(finals.items())):
        ends = [(f"v{i}",) for i in range(n) if state.loops[i]]
        for i in range(n):
            for j, c in sorted(state.adj[i].items()):
                if j > i:
                    ends.extend([(f"v{i}", f"v{j}")] * c)
        edges = tuple(Edge(f"e{k}", e) for k, e in enumerate(ends))
        webs.append(Web(f"cubic{n}-{idx}", vertices, edges))
    return tuple(webs)
