"""Property tests of the planarity layer on random small graphs."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as naive
from domchrom import planarity
from domchrom.graphs import complete_bipartite, from_edge_list
from domchrom.planarity import (
    _holds_k33,
    _smoothed,
    kuratowski_witness,
    lr_is_planar,
    verify_kuratowski,
)


@st.composite
def graphs(draw, max_n=9, densities=(0.3, 0.5, 0.7, 0.9)):
    # order, density and edges come from one seeded generator: Hypothesis
    # leans its own draws towards the least order and its floats towards 0,
    # which would keep nearly every pair at any density
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(0, max_n)
    density = rng.choice(densities)
    return from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )


def networkx_planar(g) -> bool:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.check_planarity(G)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_lr_matches_networkx_and_witness_matches_oracle(g):
    planar = lr_is_planar(g)
    assert planar == networkx_planar(g)
    if not planar:
        witness = kuratowski_witness(g)
        assert witness == naive.kuratowski_by_deletion(g)
        assert verify_kuratowski(g, witness)


@st.composite
def graphs_sharing_cores(draw):
    """A random graph H on k <= 8 vertices, drawn from 32 seeds so that
    examples repeat it, and up to 12 - k more vertices, each hung on one vertex
    or put inside one edge; smoothing deletes or bypasses each of them, so
    graphs of one order often share H's smoothed rows."""
    rng = random.Random(draw(st.integers(0, 31)))
    k = rng.randint(5, 8)
    density = rng.choice((0.4, 0.5, 0.6, 0.7))
    edges = {(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < density}
    n = k + draw(st.integers(0, 12 - k))
    for w in range(k, n):
        if edges and draw(st.booleans()):
            u, v = draw(st.sampled_from(sorted(edges)))
            edges -= {(u, v)}
            edges |= {(u, w), (v, w)}
        else:
            edges.add((draw(st.integers(0, w - 1)), w))
    return from_edge_list(n, sorted(edges))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graphs_sharing_cores())
def test_remembered_verdicts_agree_with_networkx(g):
    # no example empties the memo of smoothed-core verdicts, so examples
    # meet the cores of earlier ones, of every order, in the drawn order
    assert lr_is_planar(g) == networkx_planar(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs(max_n=14, densities=(0.15, 0.25, 0.35, 0.5)))
def test_screens_on_the_smoothed_rows_agree_with_networkx(g):
    # a K_{3,3} the search finds, with its budget or with none, is non-planar
    planar = networkx_planar(g)
    rows = _smoothed(g.adj)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(planarity, "_K33_WORK_PER_EDGE", 10**9)
        unbounded = _holds_k33(rows)
    assert unbounded is not None
    assert _holds_k33(rows) in (unbounded, None)
    assert not (unbounded and planar)


@st.composite
def subdivided_nonplanar_graphs(draw):
    """A K_5 or K_{3,3} on some of n <= 9 vertices plus random extra edges,
    each edge subdivided 0-5 times, so the 2-core has degree-2 chains of
    unequal length; then a cycle through one vertex, a cycle component, and
    a random relabelling, so the chains' edges fall anywhere in sorted order."""
    n = draw(st.integers(min_value=6, max_value=9))
    base = draw(st.sampled_from((
        [(a, b) for a in range(5) for b in range(a + 1, 5)],
        sorted(complete_bipartite(3, 3)[0].edges()),
    )))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=5))
    edges = []
    for u, v in sorted(set(base) | set(extra)):
        times = draw(st.integers(min_value=0, max_value=5))
        path = [u, *range(n, n + times), v]
        n += times
        edges += zip(path, path[1:])
    w = draw(st.integers(min_value=0, max_value=5))
    loop = draw(st.integers(min_value=2, max_value=5))
    cycle = draw(st.integers(min_value=3, max_value=6))
    path = [w, *range(n, n + loop), w]
    edges += zip(path, path[1:])
    n += loop
    edges += [(n + i, n + (i + 1) % cycle) for i in range(cycle)]
    n += cycle
    return from_edge_list(n, edges).permuted(draw(st.permutations(range(n))))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(subdivided_nonplanar_graphs())
def test_witness_of_a_subdivided_graph_matches_oracle(g):
    witness = kuratowski_witness(g)
    assert witness == naive.kuratowski_by_deletion(g)
    assert verify_kuratowski(g, witness)
