import random

import pytest

from domchrom.graphs import (
    Graph,
    GraphError,
    VertexLabeling,
    bipartition,
    complete_bipartite,
    complete_bipartite_parts,
    connected_component_masks,
    from_edge_list,
    is_connected,
    iter_bits,
    to_dot,
)


def test_from_edge_list_k3():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.edge_count() == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_from_edge_list_isolated_vertices():
    g = from_edge_list(2, [])
    assert g.n == 2
    assert g.edge_count() == 0


def test_from_edge_list_c4_degrees():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]


def test_from_edge_list_duplicates_collapse():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        from_edge_list(3, [(0, 5)])
    with pytest.raises(GraphError, match="vertex count"):
        from_edge_list(-1, [])


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(GraphError, match=r"\(2, 2\)"):
        from_edge_list(3, [(2, 2)])


def test_symmetry_and_irreflexivity_hold():
    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        for u in g.neighbors(v):
            assert g.has_edge(u, v)


def test_graph_is_immutable_and_hashable():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
    assert hash(g) == hash(from_edge_list(2, [(0, 1)]))


def test_graph_constructor_validates():
    with pytest.raises(GraphError, match="asymmetric"):
        Graph(2, (2, 0))
    with pytest.raises(GraphError, match="self-loop"):
        Graph(1, (1,))
    with pytest.raises(GraphError, match="vertex count"):
        Graph(-1, ())
    with pytest.raises(GraphError, match="1 rows for 2 vertices"):
        Graph(2, (0,))
    with pytest.raises(GraphError, match="row 0 references vertices >= 2"):
        Graph(2, (4, 0))


def test_is_connected():
    k23, _ = complete_bipartite(2, 3)
    assert is_connected(k23)
    assert not is_connected(from_edge_list(2, []))
    assert is_connected(from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    with pytest.raises(GraphError):
        is_connected(from_edge_list(0, []))


def test_bipartition_none_when_disconnected_or_odd():
    two_edges = from_edge_list(4, [(0, 1), (2, 3)])
    assert bipartition(two_edges, 0b1111) is None
    assert bipartition(two_edges, 0b0011) == (0b0001, 0b0010)
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert bipartition(c5, 0b11111) is None
    # deleting a vertex of C5 leaves a path, which splits
    assert bipartition(c5, 0b11110) == (0b01010, 0b10100)


def test_bipartition_puts_the_least_vertex_side_first():
    path = from_edge_list(5, [(3, 1), (1, 4), (4, 0), (0, 2)])
    assert bipartition(path, 0b11111) == (0b00011, 0b11100)
    # on the path 3-1-4 the least vertex, 1, is the middle one
    assert bipartition(path, 0b11010) == (0b00010, 0b11000)
    k23, _ = complete_bipartite(2, 3)
    assert bipartition(k23, 0b11111) == (0b00011, 0b11100)
    swapped = k23.permuted([2, 3, 0, 1, 4])
    assert bipartition(swapped, 0b11111) == (0b10011, 0b01100)


def test_connected_component_masks_three_components():
    g = from_edge_list(7, [(0, 4), (4, 6), (1, 5), (2, 5)])
    assert connected_component_masks(g, (1 << g.n) - 1) == [0b1010001, 0b0100110, 0b0001000]


def test_complete_bipartite_shapes():
    g, _ = complete_bipartite(2, 2)
    assert g.edge_count() == 4  # C_4
    g, lab = complete_bipartite(1, 3)
    (center,) = lab.group("A")
    assert g.degree(center) == 3
    g, _ = complete_bipartite(3, 3)
    assert g.edge_count() == 9
    assert all(g.degree(v) == 3 for v in range(6))


def test_complete_bipartite_degree_sequence():
    for p, q in [(1, 1), (2, 3), (3, 5), (4, 4)]:
        g, _ = complete_bipartite(p, q)
        assert sorted(g.degree(v) for v in range(g.n)) == sorted([q] * p + [p] * q)


def test_complete_bipartite_rejects_zero_part():
    with pytest.raises(GraphError):
        complete_bipartite(0, 3)


def test_complete_bipartite_recognition():
    k23, _ = complete_bipartite(2, 3)
    assert complete_bipartite_parts(k23) == (2, 3)
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert complete_bipartite_parts(c4) == (2, 2)
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert complete_bipartite_parts(p4) is None
    k4 = from_edge_list(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert complete_bipartite_parts(k4) is None
    assert complete_bipartite_parts(from_edge_list(2, [])) is None


def test_labeling_validation():
    with pytest.raises(GraphError, match="references vertex 9"):
        VertexLabeling({"x": 9}, n=3)
    lab = VertexLabeling({"A": [0, 1], "B": [1, 2]})
    with pytest.raises(GraphError, match="overlaps"):
        lab.assert_disjoint(["A", "B"])
    assert lab.group("A") == frozenset({0, 1})
    with pytest.raises(KeyError):
        lab.vertex("A")


def test_to_dot_uses_labels():
    g, lab = complete_bipartite(1, 2)
    lab2 = VertexLabeling({"hub": 0})
    dot = to_dot(g, lab2)
    assert 'label="hub"' in dot
    assert "0 -- 1;" in dot


def test_subgraph_and_permuted():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    h = g.subgraph([1, 2, 3])
    assert h.n == 3 and h.edge_count() == 2
    p = g.permuted([3, 2, 1, 0])
    assert p.edge_count() == g.edge_count()
    assert p.has_edge(3, 2) and p.has_edge(1, 0)


def _path3() -> Graph:
    return from_edge_list(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [0, 1, -1], [0, 1], [0, 1, 2, 3]])
def test_permuted_refuses_a_list_that_is_not_a_permutation(perm):
    with pytest.raises(GraphError, match="not a permutation"):
        _path3().permuted(perm)


def test_subgraph_refuses_a_negative_vertex():
    with pytest.raises(GraphError, match="must lie in 0..2"):
        _path3().subgraph([-1, 0])


def test_subgraph_refuses_a_vertex_past_the_last():
    with pytest.raises(GraphError, match="must lie in 0..2"):
        _path3().subgraph([5])


def _set_bits(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_iter_bits_lists_the_set_bits_ascending_as_a_tuple():
    # every mask below 2^17 covers both byte tables, the 255/256 and
    # 65535/65536 boundaries and the first masks of the wide loop
    for mask in range(1 << 17):
        bits = iter_bits(mask)
        assert type(bits) is tuple and bits == _set_bits(mask), mask
    rng = random.Random(39)
    for i in range(1000):
        if i % 2:
            mask = rng.getrandbits(rng.randint(1, 300))
        else:
            mask = sum(1 << rng.randrange(300) for _ in range(rng.randint(1, 6)))
        bits = iter_bits(mask)
        assert type(bits) is tuple and bits == _set_bits(mask), mask
