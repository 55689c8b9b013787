"""Property tests of the planarity layer on random small graphs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as naive
from domchrom.graphs import from_edge_list
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
