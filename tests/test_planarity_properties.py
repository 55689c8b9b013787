"""Property tests of the planarity layer on random small graphs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as naive
from domchrom.graphs import complete_bipartite, from_edge_list
from domchrom.planarity import kuratowski_witness, lr_is_planar, verify_kuratowski


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from((0.3, 0.5, 0.7, 0.9)))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [p for p, x in zip(pairs, keep) if x < density])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_lr_matches_networkx_and_witness_matches_oracle(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    planar = lr_is_planar(g)
    assert planar == nx.check_planarity(G)[0]
    if not planar:
        witness = kuratowski_witness(g)
        assert witness == naive.kuratowski_by_deletion(g)
        assert verify_kuratowski(g, witness)


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
