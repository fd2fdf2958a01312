"""In-package planarity against networkx as an independent oracle."""

import random
import time

import pytest

from webfoam.webs import (
    Edge,
    Web,
    corpus_names,
    corpus_web,
    disjoint_union,
    generate_connected_cubic,
    is_abstract_planar,
)

nx = pytest.importorskip("networkx")


def oracle(web: Web) -> bool:
    g = nx.Graph()
    g.add_nodes_from(web.vertices)
    g.add_edges_from(e.ends for e in web.edges if e.kind == "edge")
    return nx.check_planarity(g)[0]


def graph_web(g, name: str = "g") -> Web:
    """A (not necessarily trivalent) web with the edges of a networkx graph."""
    ends = [(str(a), str(b)) for a, b in g.edges]
    return Web(
        name,
        tuple(str(v) for v in g.nodes),
        tuple(Edge(f"e{i}", e) for i, e in enumerate(ends)),
    )


def subdivided(g, parts: int = 2):
    """``g`` with every edge cut into ``parts`` edges."""
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    for a, b in g.edges:
        path = [a, *((a, b, k) for k in range(1, parts)), b]
        nx.add_path(h, path)
    return h


def test_every_cubic_graph_up_to_ten_vertices():
    graphs = [w for n in range(2, 11, 2) for w in generate_connected_cubic(n)]
    assert len(graphs) == 483
    planar = [is_abstract_planar(w) for w in graphs]
    assert planar == [oracle(w) for w in graphs]
    assert 0 < sum(planar) < len(graphs)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus(name):
    web = corpus_web(name)
    assert is_abstract_planar(web) == oracle(web) == (name != "petersen")


@pytest.mark.parametrize(
    "g, planar",
    [
        (nx.complete_bipartite_graph(3, 3), False),
        (nx.complete_graph(5), False),
        (nx.petersen_graph(), False),
        (subdivided(nx.complete_graph(5)), False),
        (subdivided(nx.complete_bipartite_graph(3, 3), 3), False),
        (nx.complete_graph(4), True),
        (nx.dodecahedral_graph(), True),
        (nx.icosahedral_graph(), True),
        (nx.grid_2d_graph(6, 7), True),
        *((nx.circular_ladder_graph(k), True) for k in (3, 4, 5, 8, 13)),
        (nx.moebius_kantor_graph(), False),
        (nx.heawood_graph(), False),
    ],
)
def test_named_graphs(g, planar):
    web = graph_web(g)
    assert is_abstract_planar(web) == oracle(web) == planar


def test_disjoint_unions():
    theta, petersen, cube = (corpus_web(n) for n in ("theta", "petersen", "cube"))
    assert is_abstract_planar(disjoint_union(theta, cube))
    assert not is_abstract_planar(disjoint_union(cube, petersen))
    assert not is_abstract_planar(disjoint_union(petersen, theta))


def bridged(g, h):
    """Disjoint copies of ``g`` and ``h`` joined by one bridge."""
    joined = nx.disjoint_union(g, h)
    joined.add_edge(0, len(g))
    return joined


@pytest.mark.parametrize(
    "g, planar",
    [
        # two K5 sharing a cut vertex, two K3,3 joined by a bridge
        (nx.compose(nx.complete_graph(5), nx.complete_graph(range(4, 9))), False),
        (bridged(*[nx.complete_bipartite_graph(3, 3)] * 2), False),
        (bridged(nx.cycle_graph(5), nx.petersen_graph()), False),
        # planar blocks hung on bridges and cut vertices
        (nx.compose(nx.complete_graph(4), nx.cycle_graph(range(3, 9))), True),
        (bridged(nx.complete_graph(4), nx.dodecahedral_graph()), True),
        (nx.barbell_graph(4, 3), True),
        (nx.lollipop_graph(4, 5), True),
        (nx.barbell_graph(5, 2), False),
    ],
)
def test_bridges_and_cut_vertices(g, planar):
    web = graph_web(g)
    assert is_abstract_planar(web) == oracle(web) == planar


def test_random_graphs_agree():
    rng = random.Random(11)
    graphs = [
        nx.gnp_random_graph(rng.randint(5, 13), rng.uniform(0.15, 0.6), seed=k)
        for k in range(400)
    ]
    # sparse and larger, near the planarity threshold
    graphs += [
        nx.gnm_random_graph(n, rng.randint(n, 2 * n), seed=k)
        for k, n in enumerate(rng.choices(range(10, 31), k=200))
    ]
    for g in graphs:
        web = graph_web(g)
        assert is_abstract_planar(web) == oracle(web), sorted(g.edges)


def test_thirty_prism_is_fast():
    web = graph_web(nx.circular_ladder_graph(30), "prism30")
    start = time.perf_counter()
    assert is_abstract_planar(web)
    assert time.perf_counter() - start < 0.5
