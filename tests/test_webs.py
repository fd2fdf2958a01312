"""Web validation, 1-sets, cycles, Tait counts, JSON I/O, and generation."""

import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import networkx as nx
import pytest

from webfoam.errors import InputError, ValidationError
from webfoam import webs
from webfoam.webs import (
    Edge,
    NonPlanarPredictionWarning,
    Web,
    complement_cycles,
    corpus_names,
    corpus_web,
    count_tait_backtracking,
    count_tait_matching_formula,
    disjoint_union,
    generate_connected_cubic,
    is_abstract_planar,
    is_even,
    load_web,
    one_set_census,
    one_sets,
    predict_planar_rank,
    web_from_dict,
    web_to_dict,
)

UNKNOT = Web("unknot", (), (Edge("e", ()),), True)
THETA = Web(
    "theta",
    ("a", "b"),
    (Edge("e1", ("a", "b")), Edge("e2", ("a", "b")), Edge("e3", ("a", "b"))),
    True,
)
HANDCUFFS = Web(
    "handcuffs",
    ("a", "b"),
    (Edge("l1", ("a",)), Edge("c", ("a", "b")), Edge("l2", ("b",))),
    True,
)
EMPTY = Web("empty", (), (), True)


class TestValidation:
    def test_valid_webs(self):
        assert THETA.validate() is THETA
        assert UNKNOT.validate() is UNKNOT
        assert HANDCUFFS.validate() is HANDCUFFS

    def test_single_loop_vertex_reports_the_vertex(self):
        bad = Web("bad", ("v",), (Edge("l", ("v",)),))
        with pytest.raises(ValidationError, match="'v' has valence 2"):
            bad.validate()

    def test_all_offenders_reported(self):
        bad = Web("bad", ("v", "w"), (Edge("e", ("v", "w")),))
        with pytest.raises(ValidationError, match="'v'.*'w'"):
            bad.validate()

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge ids: e$"):
            Web("bad", ("a", "b"), (Edge("e", ("a", "b")), Edge("e", ("a", "b"))))
        edges = [Edge(i, ()) for i in ("z", "a", "z", "m", "a", "z")]
        with pytest.raises(ValidationError, match="duplicate edge ids: a, z$"):
            Web("bad", (), tuple(edges))

    def test_duplicate_vertex_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate vertex names: a, z$"):
            Web("bad", ("z", "a", "z", "m", "a"), ())

    def test_compiled_incidences_leave_value_semantics_alone(self):
        again = Web(THETA.name, THETA.vertices, THETA.edges, THETA.planar)
        assert again == THETA and hash(again) == hash(THETA)
        assert repr(again) == repr(THETA)
        assert "_incidences" not in repr(THETA)

    def test_compiled_fields_leave_value_semantics_alone(self):
        compiled = {f.name for f in dataclasses.fields(Web) if f.name.startswith("_")}
        assert compiled == {
            "_incidences", "_components", "_loops", "_circles", "_valence_error"
        }
        for f in dataclasses.fields(Web):
            if f.name in compiled:
                assert (f.init, f.repr, f.compare) == (False, False, False)
        for web in [corpus_web(name) for name in corpus_names()] + [interleaved_web()]:
            again = Web(web.name, web.vertices, web.edges, web.planar)
            assert again == web and hash(again) == hash(web)
            assert repr(again) == repr(web)
            assert not any(name in repr(web) for name in compiled)
            assert web.loops == tuple(e for e in web.edges if e.kind == "loop")
            assert web.circles == tuple(e for e in web.edges if e.kind == "circle")

    def test_non_trivalent_web_constructs_and_fails_validation(self):
        edges = (
            Edge("l1", ("p",)), Edge("e", ("q", "r")), Edge("c", ()), Edge("l2", ("p",))
        )
        bad = Web("bad", ("p", "q", "r", "s"), edges)
        assert [e.id for e in bad.loops] == ["l1", "l2"]
        assert [e.id for e in bad.circles] == ["c"]
        with pytest.raises(ValidationError) as caught:
            bad.validate()
        assert str(caught.value) == (
            "vertex 'p' has valence 4; vertex 'q' has valence 1; "
            "vertex 'r' has valence 1; vertex 's' has valence 0"
        )

    def test_compiled_incidences_are_tuples_with_a_loop_twice(self):
        # vertex a: loop l1 (edge 0) twice, then c (edge 1) to b; a tuple
        # never equals a list, so this also checks the nesting is all tuples
        assert HANDCUFFS._incidences == (
            ((0, 0), (0, 0), (1, 1)),
            ((1, 0), (2, 1), (2, 1)),
        )

    def test_regular_edge_needs_distinct_ends(self):
        with pytest.raises(ValidationError, match="loop form"):
            Web("bad", ("a",), (Edge("e", ("a", "a")),))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="unknown vertex"):
            Web("bad", ("a",), (Edge("e", ("a", "z")),))

    def test_edge_with_more_than_two_ends_rejected(self):
        edges = (Edge("x", ("a", "b", "c")), Edge("y", ("c", "d")))
        with pytest.raises(ValidationError, match="edge 'x' has more than two ends"):
            Web("bad", ("a", "b", "c", "d"), edges)

    def test_every_checker_reports_the_same_offenders(self):
        # offenders in two components: a path u-v and a loop at w, with a
        # theta between them in vertex order
        bad = Web(
            "bad",
            ("u", "a", "v", "b", "w"),
            (
                Edge("e", ("u", "v")),
                *(Edge(f"t{i}", ("a", "b")) for i in range(3)),
                Edge("l", ("w",)),
            ),
        )
        message = (
            "vertex 'u' has valence 1; vertex 'v' has valence 1; "
            "vertex 'w' has valence 2"
        )
        checkers = [
            bad.validate,
            lambda: one_sets(bad),
            lambda: complement_cycles(bad, ()),
            lambda: one_set_census(bad),
            lambda: count_tait_backtracking(bad),
            lambda: count_tait_matching_formula(bad),
        ]
        for check in checkers:
            with pytest.raises(ValidationError) as caught:
                check()
            assert str(caught.value) == message
        # planarity reads only the structure
        assert is_abstract_planar(bad)


def incidences(e: Edge) -> list[str]:
    """Endpoint vertices with multiplicity: a loop lists its vertex twice."""
    return [e.ends[0], e.ends[-1]] if e.ends else []


def incidence_counts(web: Web, edge_ids) -> dict[str, int]:
    """Incidences of the given edges at each vertex, a loop counting twice."""
    count = {v: 0 for v in web.vertices}
    for e in web.edges:
        if e.id in edge_ids:
            for v in incidences(e):
                count[v] += 1
    return count


def brute_force_one_sets(web: Web) -> set[frozenset]:
    """Oracle: filter all edge subsets of the vertex part by multiplicity 1."""
    ids = [e.id for e in web.edges if e.kind != "circle"]
    found = set()
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            if all(c == 1 for c in incidence_counts(web, combo).values()):
                found.add(frozenset(combo))
    return found


class TestOneSets:
    def test_unknot_has_only_the_empty_set(self):
        assert one_sets(UNKNOT) == [frozenset()]

    def test_theta_singletons(self):
        got = set(one_sets(THETA))
        assert got == {frozenset({"e1"}), frozenset({"e2"}), frozenset({"e3"})}

    def test_handcuffs_unique(self):
        assert one_sets(HANDCUFFS) == [frozenset({"c"})]

    def test_matches_brute_force_on_corpus(self):
        for name in ("theta", "handcuffs", "k4", "two_theta", "unknot"):
            web = corpus_web(name)
            assert set(one_sets(web)) == brute_force_one_sets(web)

    def test_matches_brute_force_on_generated(self):
        for web in generate_connected_cubic(6):
            assert set(one_sets(web)) == brute_force_one_sets(web)

    def test_loops_never_in_one_sets(self):
        for n in (2, 4, 6):
            for web in generate_connected_cubic(n):
                loop_ids = {e.id for e in web.loops}
                for s in one_sets(web):
                    assert not (s & loop_ids)

    def test_circles_never_appear(self):
        with_circle = disjoint_union(THETA, UNKNOT)
        got = one_sets(with_circle)
        assert sorted(map(sorted, got)) == [["0:e1"], ["0:e2"], ["0:e3"]]

    def test_complement_is_two_set(self):
        for web in generate_connected_cubic(6):
            for s in one_sets(web):
                complement = {e.id for e in web.edges} - s
                assert set(incidence_counts(web, complement).values()) == {2}


def complement_graph(web: Web, s: frozenset) -> nx.MultiGraph:
    """The complement of ``s`` in the vertex part, as a networkx multigraph."""
    g = nx.MultiGraph()
    g.add_nodes_from(web.vertices)
    g.add_edges_from(incidences(e) for e in web.edges if e.ends and e.id not in s)
    return g


class TestComplementCycles:
    def test_theta_single_two_cycle(self):
        assert complement_cycles(THETA, frozenset({"e1"})) == [2]

    def test_unknot_cases(self):
        assert complement_cycles(UNKNOT, frozenset()) == []
        assert complement_cycles(UNKNOT, frozenset({"e"})) == []

    def test_handcuffs_loop_cycles(self):
        assert complement_cycles(HANDCUFFS, frozenset({"c"})) == [1, 1]

    def test_rejects_non_one_sets(self):
        with pytest.raises(ValidationError, match="not a 1-set"):
            complement_cycles(THETA, frozenset({"e1", "e2"}))
        with pytest.raises(ValidationError, match=r"unknown edge ids: \['x'\]"):
            complement_cycles(THETA, frozenset({"e1", "x"}))
        # the walk needs two complement edges at every vertex
        path = Web("path", ("v", "w"), (Edge("e", ("v", "w")),))
        with pytest.raises(ValidationError, match="'v' has valence 1"):
            complement_cycles(path, frozenset({"e"}))

    def test_components_partition_complement(self):
        # every graph up to 6 vertices brings in loops and parallel edges;
        # the cycles come in the order of their first vertex
        graphs = [web for n in (2, 4, 6) for web in generate_connected_cubic(n)]
        for web in graphs + list(generate_connected_cubic(8)[::7]):
            first = {v: i for i, v in enumerate(web.vertices)}.__getitem__
            for s in one_sets(web):
                parts = nx.connected_components(complement_graph(web, s))
                parts = sorted(parts, key=lambda c: min(map(first, c)))
                assert complement_cycles(web, s) == [len(c) for c in parts]


class TestEvenness:
    def test_theta_even(self):
        assert is_even(complement_cycles(THETA, frozenset({"e1"})))

    def test_handcuffs_odd(self):
        assert not is_even(complement_cycles(HANDCUFFS, frozenset({"c"})))

    def test_unknot_empty_even(self):
        assert is_even(complement_cycles(UNKNOT, frozenset()))
        assert is_even([])

    def test_matches_vertex_parity(self):
        # even means an even number of s-endpoints on every complementary cycle
        for web in generate_connected_cubic(6):
            for s in one_sets(web):
                ends = incidence_counts(web, s)
                cycles = nx.connected_components(complement_graph(web, s))
                expected = all(sum(ends[v] for v in c) % 2 == 0 for c in cycles)
                assert is_even(complement_cycles(web, s)) == expected


def brute_force_census(web: Web) -> tuple[int, int, int]:
    """Oracle: each 1-set of the vertex part with each subset of the circles.

    A circle outside the subset is one more complementary cycle, with no
    vertices.
    """
    circles = [e.id for e in web.circles]
    ones = even = weighted = 0
    for s in brute_force_one_sets(web):
        cycles = complement_cycles(web, s)
        for k in range(len(circles) + 1):
            for _ in itertools.combinations(circles, k):
                counts = cycles + [0] * (len(circles) - k)
                ones += 1
                if is_even(counts):
                    even += 1
                    weighted += 2 ** len(counts)
    return ones, even, weighted


def circles(n: int) -> Web:
    return Web("circles", (), tuple(Edge(f"c{i}", ()) for i in range(n)), True)


class TestOneSetCensus:
    def test_matches_brute_force(self):
        # the dodecahedron's 2^30 edge subsets are out of reach (see below)
        webs_ = [web for n in (2, 4, 6, 8) for web in generate_connected_cubic(n)]
        webs_ += [corpus_web(name) for name in corpus_names() if name != "dodecahedron"]
        webs_ += [
            disjoint_union(THETA, circles(2)),
            disjoint_union(HANDCUFFS, circles(3)),
            disjoint_union(disjoint_union(THETA, THETA), UNKNOT),
        ]
        for web in webs_:
            census = one_set_census(web)
            assert census == brute_force_census(web), web.name
            assert census[2] == count_tait_backtracking(web), web.name

    def test_dodecahedron(self):
        # 36 perfect matchings; each of the 30 Hamiltonian cycles is the
        # complement of an even one, with 2 colorings each, and 30 * 2 = 60
        # Tait colorings leave no room for other even 1-sets
        web = corpus_web("dodecahedron")
        assert one_set_census(web) == (36, 30, 60)
        assert count_tait_backtracking(web) == 60

    def test_unions_beyond_brute_force(self):
        # the circle and theta unions of the CLI's adversarial inputs
        thetas = THETA
        for _ in range(11):
            thetas = disjoint_union(thetas, THETA)
        cases = [
            (circles(40), (2**40, 2**40, 3**40)),
            (disjoint_union(THETA, circles(30)), (3 * 2**30, 3 * 2**30, 6 * 3**30)),
            (thetas, (3**12, 3**12, 6**12)),
        ]
        for web, expected in cases:
            assert one_set_census(web) == expected
            assert count_tait_backtracking(web) == expected[2]

    def test_matching_formula_is_the_third_count(self):
        for name in corpus_names():
            web = corpus_web(name)
            assert count_tait_matching_formula(web) == one_set_census(web)[2]


def brute_force_colorings(web: Web) -> int:
    """Oracle: filter all 3^m edge colorings by distinct colors at every vertex."""
    at = {v: [] for v in web.vertices}
    for i, e in enumerate(web.edges):
        for v in incidences(e):
            at[v].append(i)
    return sum(
        all(len({c[i] for i in ids}) == 3 for ids in at.values())
        for c in itertools.product(range(3), repeat=len(web.edges))
    )


CORPUS_COUNTS = {
    "unknot": 3,
    "theta": 6,
    "handcuffs": 0,
    "k4": 6,
    "cube": 24,
    "petersen": 0,
    "dodecahedron": 60,
    "two_theta": 36,
}


class TestTaitCounts:
    def test_corpus_values(self):
        assert set(corpus_names()) == set(CORPUS_COUNTS)
        for name, expected in CORPUS_COUNTS.items():
            web = corpus_web(name)
            assert count_tait_backtracking(web) == expected, name
            assert count_tait_matching_formula(web) == expected, name

    def test_backtracking_matches_brute_force(self):
        # no 1-sets involved; the union with a circle needs the factor 6 per
        # component and the factor 3 per circle
        webs_ = [
            w for n in (2, 4, 6) for w in generate_connected_cubic(n) if not w.loops
        ]
        names = ("theta", "k4", "two_theta", "unknot", "handcuffs")
        webs_ += [corpus_web(name) for name in names]
        webs_.append(disjoint_union(disjoint_union(THETA, THETA), UNKNOT))
        for web in webs_:
            assert count_tait_backtracking(web) == brute_force_colorings(web), web.name

    def test_identity_on_generated_graphs(self):
        for n in (2, 4, 6, 8):
            for web in generate_connected_cubic(n):
                assert count_tait_backtracking(web) == count_tait_matching_formula(
                    web
                ), web.name

    def test_identity_up_to_twelve_vertices(self):
        # the 10-vertex layer runs in the verification suite; this covers 12
        for web in generate_connected_cubic(12):
            assert count_tait_backtracking(web) == count_tait_matching_formula(
                web
            ), web.name

    def test_empty_web_counts_one(self):
        assert count_tait_backtracking(EMPTY) == 1
        assert count_tait_matching_formula(EMPTY) == 1

    def test_multiplicative_under_disjoint_union(self):
        pairs = [(UNKNOT, UNKNOT, 9), (THETA, UNKNOT, 18), (THETA, THETA, 36)]
        for a, b, expected in pairs:
            union = disjoint_union(a, b)
            assert count_tait_backtracking(union) == expected
            assert count_tait_matching_formula(union) == expected

    def test_interleaved_components(self):
        # vertices of a theta (b), K4 (a) and handcuffs (h) interleaved, edges
        # out of vertex order, circles between them
        web = interleaved_web()
        assert [[web.vertices[v] for v in part] for part in web._components] == [
            ["b1", "b2"], ["a1", "a2", "a3", "a4"], ["h1", "h2"]
        ]
        k4 = [{"k1", "k6"}, {"k5", "k4"}, {"k2", "k3"}]
        assert one_sets(web) == [
            frozenset({t, *k, "h"}) for t in ("t1", "t2", "t3") for k in k4
        ]
        # cycles by first vertex: b1, a1, then the two loops at h1 and h2
        assert complement_cycles(web, one_sets(web)[4]) == [2, 4, 1, 1]
        assert one_set_census(web) == brute_force_census(web) == (36, 0, 0)
        assert count_tait_backtracking(web) == count_tait_matching_formula(web) == 0
        loop_free = Web(
            web.name,
            tuple(v for v in web.vertices if v[0] != "h"),
            tuple(e for e in web.edges if not e.ends or e.ends[0][0] != "h"),
        )
        assert one_set_census(loop_free) == brute_force_census(loop_free)
        assert one_set_census(loop_free) == (36, 36, 324)
        assert brute_force_colorings(loop_free) == 324
        assert count_tait_backtracking(loop_free) == 324
        assert count_tait_matching_formula(loop_free) == 324

    def test_union_with_empty_is_neutral(self):
        union = disjoint_union(THETA, EMPTY)
        assert count_tait_backtracking(union) == 6
        assert count_tait_matching_formula(union) == 6


def interleaved_web() -> Web:
    """A theta, a K4 and handcuffs with interleaved vertices, and two circles."""
    ends = {
        "k6": ("a4", "a3"),
        "t1": ("b2", "b1"),
        "c1": (),
        "k1": ("a2", "a1"),
        "l2": ("h2",),
        "k5": ("a3", "a1"),
        "t2": ("b1", "b2"),
        "h": ("h2", "h1"),
        "k4": ("a4", "a2"),
        "c2": (),
        "k2": ("a1", "a4"),
        "t3": ("b2", "b1"),
        "l1": ("h1",),
        "k3": ("a3", "a2"),
    }
    vertices = ("b1", "a1", "h1", "a2", "b2", "a3", "h2", "a4")
    return Web("interleaved", vertices, tuple(Edge(i, e) for i, e in ends.items()))


#: The 1-set census of each corpus web: 1-sets, even 1-sets, Tait count.
CORPUS_CENSUS = {
    "cube": (9, 9, 24),
    "dodecahedron": (36, 30, 60),
    "handcuffs": (1, 0, 0),
    "k4": (3, 3, 6),
    "petersen": (6, 0, 0),
    "theta": (3, 3, 6),
    "two_theta": (9, 9, 36),
    "unknot": (2, 2, 3),
}


def test_counters_read_the_compiled_web(monkeypatch):
    # components, loops, circles and the valence verdict are compiled in the
    # constructor, so the counters answer with every way to re-derive them gone
    built = {name: corpus_web(name) for name in corpus_names()}

    def rederived(*args):
        raise AssertionError("re-derived after construction")

    monkeypatch.setattr(webs, "_parts", rederived)
    monkeypatch.setattr(Edge, "kind", property(rederived))
    assert count_tait_backtracking(built["dodecahedron"]) == 60
    assert count_tait_matching_formula(built["dodecahedron"]) == 60
    assert count_tait_backtracking(built["petersen"]) == 0
    assert count_tait_matching_formula(built["petersen"]) == 0
    assert {name: one_set_census(web) for name, web in built.items()} == CORPUS_CENSUS
    for name, web in built.items():
        ones, _, tait = CORPUS_CENSUS[name]
        assert count_tait_backtracking(web) == count_tait_matching_formula(web) == tait
        assert len(one_sets(web)) * 2 ** len(web.circles) == ones


def test_nothing_is_cached():
    # the benchmark empties only functools caches between passes
    web = interleaved_web()
    before = (dict(vars(web)), [dict(vars(e)) for e in web.edges])
    web.validate()
    one_sets(web)
    complement_cycles(web, one_sets(web)[0])
    one_set_census(web)
    count_tait_backtracking(web)
    count_tait_matching_formula(web)
    is_abstract_planar(web)
    with pytest.warns(NonPlanarPredictionWarning):
        predict_planar_rank(web)
    web_from_dict(web_to_dict(web))
    disjoint_union(web, web)
    assert (dict(vars(web)), [dict(vars(e)) for e in web.edges]) == before
    cached = []
    for name, obj in vars(webs).items():
        members = [obj]
        if isinstance(obj, type) and obj.__module__ == webs.__name__:
            members = list(vars(obj).values())
        for member in members:
            if hasattr(member, "cache_info") or isinstance(member, cached_property):
                cached.append(name)
    assert cached == ["generate_connected_cubic"]


class TestPlanarPrediction:
    def test_planar_webs_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert predict_planar_rank(corpus_web("theta")) == 6
            assert predict_planar_rank(corpus_web("handcuffs")) == 0
            assert predict_planar_rank(corpus_web("dodecahedron")) == 60

    def test_nonplanar_warns(self):
        with pytest.warns(NonPlanarPredictionWarning, match="no planar backing"):
            assert predict_planar_rank(corpus_web("petersen")) == 0

    def test_false_declaration_warns(self):
        data = web_to_dict(corpus_web("petersen"))
        data["planar"] = True
        liar = web_from_dict(data)
        with pytest.warns(NonPlanarPredictionWarning, match="cannot be honored"):
            predict_planar_rank(liar)

    def test_undeclared_planarity_warns(self):
        data = web_to_dict(corpus_web("theta"))
        del data["planar"]
        modest = web_from_dict(data)
        with pytest.warns(NonPlanarPredictionWarning):
            assert predict_planar_rank(modest) == 6

    def test_abstract_planarity(self):
        assert is_abstract_planar(corpus_web("k4"))
        assert is_abstract_planar(corpus_web("dodecahedron"))
        assert not is_abstract_planar(corpus_web("petersen"))


class TestJson:
    def test_round_trip_corpus(self):
        for name in corpus_names():
            web = corpus_web(name)
            assert web_from_dict(web_to_dict(web)) == web

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d.update(vertices=3), "vertices"),
            (lambda d: d["edges"].append({"id": "x"}), r"edges\[3\]"),
            (
                lambda d: d["edges"].append({"id": "x", "ends": ["a", "a"]}),
                "loop form",
            ),
            (
                lambda d: d["edges"].append({"id": "x", "ends": ["a"]}),
                "list of two",
            ),
            (lambda d: d["edges"].append({"id": "x", "circle": 1}), "circle"),
            (
                lambda d: d["edges"].append({"id": "e1", "ends": ["a", "b"]}),
                "duplicate edge ids",
            ),
            (lambda d: d.update(planar="yes"), "planar"),
        ],
    )
    def test_error_paths(self, mutate, path_fragment):
        data = web_to_dict(THETA)
        mutate(data)
        with pytest.raises(InputError, match=path_fragment):
            web_from_dict(data)

    def test_load_reports_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", ')
        with pytest.raises(InputError, match="line 1"):
            load_web(bad)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_web(tmp_path / "nope.json")


def to_nx(web: Web) -> nx.Graph:
    g = nx.Graph()
    for i, v in enumerate(web.vertices):
        g.add_node(v, loops=sum(1 for e in web.loops if e.ends[0] == v))
    mult: dict[tuple[str, str], int] = {}
    for e in web.edges:
        if e.kind == "edge":
            key = tuple(sorted(e.ends))
            mult[key] = mult.get(key, 0) + 1
    for (a, b), m in mult.items():
        g.add_edge(a, b, m=m)
    return g


def web_isomorphic(w1: Web, w2: Web) -> bool:
    return nx.is_isomorphic(
        to_nx(w1),
        to_nx(w2),
        node_match=lambda a, b: a["loops"] == b["loops"],
        edge_match=lambda a, b: a["m"] == b["m"],
    )


def web_matrix(web: Web) -> tuple[list[int], list[list[int]]]:
    """Loop counts and the multiplicity matrix of a web, in vertex order."""
    n = len(web.vertices)
    index = {v: i for i, v in enumerate(web.vertices)}
    loops = [0] * n
    mult = [[0] * n for _ in range(n)]
    for e in web.edges:
        if e.kind == "loop":
            loops[index[e.ends[0]]] += 1
        else:
            i, j = index[e.ends[0]], index[e.ends[1]]
            mult[i][j] += 1
            mult[j][i] += 1
    return loops, mult


def make_state(loops, mult) -> "webs._State":
    n = len(loops)
    adj = tuple({j: mult[i][j] for j in range(n) if mult[i][j]} for i in range(n))
    return webs._State(tuple(loops), adj)


def random_partial_state(rng: random.Random, n: int):
    """Random loops and edges with every degree at most 3."""
    loops = [0] * n
    mult = [[0] * n for _ in range(n)]
    deg = [0] * n
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b and deg[a] <= 1:
            loops[a] += 1
            deg[a] += 2
        elif a != b and deg[a] < 3 and deg[b] < 3:
            mult[a][b] += 1
            mult[b][a] += 1
            deg[a] += 1
            deg[b] += 1
    return loops, mult


def state_nx(loops, mult) -> nx.Graph:
    g = nx.Graph()
    for i, k in enumerate(loops):
        g.add_node(i, loops=k)
    for i, row in enumerate(mult):
        for j, m in enumerate(row):
            if j > i and m:
                g.add_edge(i, j, m=m)
    return g


def partial_shape(loops, mult) -> tuple[int, int, bool]:
    """Isolated vertices, components with an edge or loop, and any loop."""
    g = state_nx(loops, mult)
    comps = [c for c in nx.connected_components(g)
             if len(c) > 1 or loops[next(iter(c))]]
    isolated = sum(1 for v in g if g.degree(v) == 0 and not loops[v])
    return isolated, len(comps), any(loops)


def expanded_states(n: int):
    """Every state the generator expands, found by the same search."""
    queue = [webs._State((0,) * n, ({},) * n)]
    seen = set()
    while queue:
        state = queue.pop()
        yield state
        for child in webs._completions(state, webs._next_vertex(state)):
            if webs._dead_end(child) or min(child.deg) == 3:
                continue
            cert = webs._canonical_certificate(child)
            if cert not in seen:
                seen.add(cert)
                queue.append(child)


def all_completions(state: "webs._State", v: int):
    """Every way to bring ``v`` to valence 3, with no symmetry breaking."""
    deg = state.deg
    partners = [u for u in range(len(deg)) if u != v and deg[u] < 3]
    deficit = 3 - deg[v]
    loop_options = [False, True] if deficit >= 2 and not state.loops[v] else [False]
    for add_loop in loop_options:
        ends = deficit - 2 * add_loop
        for combo in itertools.combinations_with_replacement(partners, ends):
            counts = Counter(combo)
            if all(c <= 3 - deg[u] for u, c in counts.items()):
                yield state.with_completion(v, add_loop, dict(counts))


class TestGeneration:
    def test_known_counts(self):
        # connected cubic multigraphs with loops on 2..12 vertices (OEIS
        # A005967); n = 10 and 12 are usually cached by earlier tests
        counts = [len(generate_connected_cubic(n)) for n in (2, 4, 6, 8, 10, 12)]
        assert counts == [2, 5, 17, 71, 388, 2592]

    def test_two_vertex_graphs_are_theta_and_handcuffs(self):
        pair = generate_connected_cubic(2)
        assert any(web_isomorphic(w, THETA) for w in pair)
        assert any(web_isomorphic(w, HANDCUFFS) for w in pair)

    def test_rejects_odd_or_nonpositive(self):
        with pytest.raises(ValueError):
            generate_connected_cubic(3)
        with pytest.raises(ValueError):
            generate_connected_cubic(0)

    def test_all_outputs_are_valid_connected_cubic(self):
        for web in generate_connected_cubic(6):
            web.validate()
            g = to_nx(web)
            assert nx.is_connected(g)

    def test_pairwise_non_isomorphic(self):
        for n in (6, 8):
            graphs = generate_connected_cubic(n)
            for w1, w2 in itertools.combinations(graphs, 2):
                assert not web_isomorphic(w1, w2)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_outputs_in_certificate_order(self, n):
        # the docstring's promise: cubic{n}-{idx}, ordered by certificate
        graphs = generate_connected_cubic(n)
        certs = [
            webs._canonical_certificate(make_state(*web_matrix(web)))
            for web in graphs
        ]
        assert all(a < b for a, b in zip(certs, certs[1:]))
        assert [web.name for web in graphs] == [
            f"cubic{n}-{idx}" for idx in range(len(graphs))
        ]

    def test_certificate_invariant_under_relabeling(self):
        # relabel generated graphs and random partial states (isolated
        # vertices, loops, several components) at random; the canonical
        # certificate must not change
        rng = random.Random(7)
        samples = [web_matrix(web) for web in generate_connected_cubic(8)[::5]]
        samples += [random_partial_state(rng, rng.randint(1, 10)) for _ in range(60)]
        shapes = [partial_shape(loops, mult) for loops, mult in samples]
        assert any(iso >= 3 for iso, _, _ in shapes)
        assert any(comps >= 2 for _, comps, _ in shapes)
        assert any(has_loop for _, _, has_loop in shapes)
        for loops, mult in samples:
            reference = webs._canonical_certificate(make_state(loops, mult))
            n = len(loops)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                ploops = [loops[perm[i]] for i in range(n)]
                pmult = [[mult[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
                permuted = make_state(ploops, pmult)
                assert webs._canonical_certificate(permuted) == reference

    def test_certificate_separates_non_isomorphic_states(self):
        # on small random partial states, equal certificates exactly when
        # networkx finds an isomorphism preserving loops and multiplicities
        rng = random.Random(11)
        samples = [random_partial_state(rng, 5) for _ in range(50)]
        certs = [webs._canonical_certificate(make_state(*s)) for s in samples]
        graphs = [state_nx(*s) for s in samples]
        for i, j in itertools.combinations(range(len(samples)), 2):
            iso = nx.is_isomorphic(
                graphs[i], graphs[j],
                node_match=lambda a, b: a["loops"] == b["loops"],
                edge_match=lambda a, b: a["m"] == b["m"],
            )
            assert (certs[i] == certs[j]) == iso

    @pytest.mark.parametrize("n", [6, 8])
    def test_isolated_partner_rule_is_exact(self, n):
        # on every state the search expands, the restricted completions
        # reach the same isomorphism classes as all completions
        isolated_counts = set()
        for state in expanded_states(n):
            isolated_counts.add(state.deg.count(0))
            v = webs._next_vertex(state)
            restricted = {
                webs._canonical_certificate(child)
                for child in webs._completions(state, v)
            }
            unrestricted = {
                webs._canonical_certificate(child)
                for child in all_completions(state, v)
            }
            assert restricted == unrestricted
        # the empty state, and others with three or more isolated vertices
        assert n in isolated_counts
        assert any(3 <= k < n for k in isolated_counts)

    def test_same_output_under_any_hash_seed(self):
        src = str(Path(webs.__file__).resolve().parents[1])
        script = (
            "import json\n"
            "from webfoam.webs import generate_connected_cubic, web_to_dict\n"
            "print(json.dumps([web_to_dict(w) for w in generate_connected_cubic(8)]))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])) == 71

    def test_output_digests(self):
        # first 16 hex digits of the sha256 of every graph's JSON, in order
        digests = {
            n: hashlib.sha256(
                json.dumps([web_to_dict(w) for w in generate_connected_cubic(n)]).encode()
            ).hexdigest()[:16]
            for n in (8, 10)
        }
        assert digests == {8: "f26b26c51c9d7308", 10: "b69e2478333fc5d2"}

    def test_includes_simple_cubic_graphs(self):
        # the 6-vertex layer must contain K4 minus... i.e. K_{3,3} and the
        # 3-prism, the only simple connected cubic graphs on 6 vertices
        simple = [
            w for w in generate_connected_cubic(6) if not w.loops and to_nx(w).size() == 9
            and all(d["m"] == 1 for _, _, d in to_nx(w).edges(data=True))
        ]
        assert len(simple) == 2
        k33 = nx.complete_bipartite_graph(3, 3)
        prism = nx.circular_ladder_graph(3)
        matched = {
            name: any(
                nx.is_isomorphic(to_nx(w), target) for w in simple
            )
            for name, target in (("k33", k33), ("prism", prism))
        }
        assert all(matched.values())
