import hashlib
import random
import time
from itertools import combinations, permutations

import pytest

import oracles as naive
from domchrom import enumeration
from domchrom.enumeration import (
    _CLASS_COUNTS,
    CONNECTED_COUNTS,
    _children,
    _deletion_screen,
    _distinct_parents,
    _labelled_search,
    _orbit_representatives,
    _parent_tables,
    _refined_cells,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    enumerate_connected,
    extend_connected,
)
from domchrom.graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    from_edge_list,
    is_connected,
    iter_bits,
)


def test_connected_counts():
    for n, expected in CONNECTED_COUNTS.items():
        assert len(enumerate_connected(n)) == expected
    assert len(enumerate_connected(4)) == 6
    assert len(enumerate_connected(6)) == 112
    assert len(enumerate_connected(1)) == 1


def test_order_limits():
    with pytest.raises(GraphError, match="stream external graph6"):
        enumerate_connected(8)
    with pytest.raises(GraphError):
        enumerate_connected(0)


def test_enumeration_is_connected_and_pairwise_non_isomorphic():
    for n in range(1, 7):
        graphs = enumerate_connected(n)
        assert all(is_connected(g) for g in graphs)
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(graphs)
        # a canonical code holds one bit per edge, so extend_connected's sort
        # by (code.bit_count(), code) is the order (edge count, code)
        assert all(code.bit_count() == g.edge_count() for code, g in zip(forms, graphs))
        keys = [(g.edge_count(), code) for code, g in zip(forms, graphs)]
        assert keys == sorted(keys)


def test_enumeration_deterministic():
    a = [g.adj for g in enumerate_connected(6)]
    b = [g.adj for g in enumerate_connected(6)]
    assert a == b


def test_matches_naive_enumeration_small():
    # judge both generators with the naive full-permutation canonical form
    for n in range(1, 6):
        fast = sorted(naive.canonical_form(g) for g in enumerate_connected(n))
        slow = naive.connected_graphs(n)
        assert fast == slow


def test_canonical_form_is_isomorphism_invariant():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for perm in [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]:
        assert canonical_form(g.permuted(perm)) == canonical_form(g)
    assert canonical_graph(g).n == 5


def test_are_isomorphic():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k22, _ = complete_bipartite(2, 2)
    assert are_isomorphic(c4, k22)
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    star, _ = complete_bipartite(1, 3)
    assert not are_isomorphic(p4, star)
    assert not are_isomorphic(p4, c4)


def test_extend_connected_reproduces_next_order():
    got = extend_connected(enumerate_connected(3))
    want = enumerate_connected(4)
    assert [g.adj for g in got] == [g.adj for g in want]


def _labelled_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _relabelled_connected(max_n, seeds=(0, 1, 2)):
    for seed in seeds:
        rng = random.Random(seed)
        for n in range(1, max_n + 1):
            for g in enumerate_connected(n):
                perm = list(range(n))
                rng.shuffle(perm)
                yield g.permuted(perm)


def _extension_candidates(parents):
    """Every graph extend_connected canonicalizes for these parents."""
    for g in parents:
        n = g.n
        for nbhd in range(1, 1 << n):
            rows = list(g.adj) + [nbhd]
            for v in iter_bits(nbhd):
                rows[v] |= 1 << n
            yield Graph(n + 1, rows)


def _random_graphs(count, max_n, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        pairs = combinations(range(n), 2)
        yield from_edge_list(n, [e for e in pairs if rng.random() < p])


@pytest.mark.parametrize(
    "graphs, count",
    [
        pytest.param(
            lambda: _labelled_graphs(5),
            sum(2 ** (n * (n - 1) // 2) for n in range(6)),
            id="labelled-n<=5",
        ),
        pytest.param(
            lambda: _relabelled_connected(7),
            3 * sum(CONNECTED_COUNTS.values()),
            id="relabelled-connected-n<=7",
        ),
        pytest.param(lambda: _random_graphs(2000, 16, seed=12), 2000, id="random-n<=16"),
    ],
)
def test_refined_cells_equal_reference_refinement(graphs, count):
    checked = 0
    for g in graphs():
        assert _refined_cells(g) == naive.refined_cells(g), (g.n, g.adj)
        checked += 1
    assert checked == count


def test_search_output_is_pinned():
    # sha256 of repr((code, automorphisms)) for every graph extend_connected
    # could canonicalize from the order-6 parents and every 10th order-7
    # parent, recorded before the splitter refinement replaced full recounts
    digest = hashlib.sha256()
    checked = 0
    parents = enumerate_connected(6) + enumerate_connected(7)[::10]
    for h in _extension_candidates(parents):
        digest.update(repr(_labelled_search(h)[:2]).encode() + b"\n")
        checked += 1
    assert checked == 112 * 63 + 86 * 127
    assert digest.hexdigest() == (
        "1ed0426f746fe7df4cebfd653bf5c4c5f46968a8954cdfdaae3565ef680a4cbc"
    )


@pytest.mark.parametrize(
    "graphs, count",
    [
        pytest.param(
            lambda: _labelled_graphs(5),
            sum(2 ** (n * (n - 1) // 2) for n in range(6)),
            id="labelled-n<=5",
        ),
        pytest.param(
            lambda: _relabelled_connected(6),
            3 * sum(CONNECTED_COUNTS[n] for n in range(1, 7)),
            id="relabelled-connected-n<=6",
        ),
        pytest.param(
            lambda: _extension_candidates(enumerate_connected(7)[::20]),
            43 * 127,
            id="order-7-extensions",
        ),
    ],
)
def test_canonical_form_equals_refined_brute_force(graphs, count):
    checked = 0
    for g in graphs():
        assert canonical_form(g) == naive.refined_canonical_form(g), (g.n, g.adj)
        checked += 1
    assert checked == count


def _complete(n):
    return Graph(n, [((1 << n) - 1) ^ 1 << v for v in range(n)])


def _circulant(n, steps):
    return from_edge_list(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(_complete(40), id="K40"),
        pytest.param(
            from_edge_list(48, [(i + a, i + b) for i in range(0, 48, 3) for a, b in ((0, 1), (1, 2), (0, 2))]),
            id="16K3",
        ),
    ],
)
def test_canonical_form_refuses_large_search_space(g):
    # one refinement cell of 40 or 48 vertices: the search stops, always at
    # the same node, once it has taken the bound on stack pops (K40 needs
    # 20,580 of them, 16K3 16,808)
    start = time.perf_counter()
    with pytest.raises(GraphError, match="canonical form search space too large"):
        canonical_form(g)
    assert time.perf_counter() - start < 2.0


def test_extend_connected_rejects_disconnected_parent():
    k2_plus_k1 = from_edge_list(3, [(0, 1)])
    with pytest.raises(GraphError, match="requires connected graphs"):
        extend_connected([k2_plus_k1])


def test_extend_connected_rejects_parents_of_two_orders():
    with pytest.raises(GraphError, match="single order"):
        extend_connected([from_edge_list(2, [(0, 1)]), from_edge_list(3, [(0, 1), (1, 2)])])


def test_extend_connected_rejects_empty_input():
    with pytest.raises(GraphError, match="needs at least one input graph"):
        extend_connected([])


@pytest.mark.parametrize(
    "g, form",
    [
        pytest.param(_complete(10), (1 << 45) - 1, id="K10"),
        pytest.param(Graph(10, [0] * 10), 0, id="edgeless-10"),
        pytest.param(_complete(11), (1 << 55) - 1, id="K11"),
        pytest.param(Graph(11, [0] * 11), 0, id="edgeless-11"),
    ],
)
def test_canonical_form_of_one_large_cell_is_fast(g, form):
    # one refinement cell of 10 or 11 vertices, n! orders; the automorphisms
    # found at equal leaves prune all but one branch per level (K11 takes 396
    # stack pops)
    start = time.perf_counter()
    assert canonical_form(g) == form
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(
            from_edge_list(
                10,
                [(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)],
            ),
            id="Petersen",
        ),
        pytest.param(complete_bipartite(5, 5)[0], id="K5,5"),
        pytest.param(from_edge_list(10, [(i, (i + 1) % 10) for i in range(10)]), id="C10"),
    ],
)
def test_canonical_form_is_relabelling_invariant_on_symmetric_order_10(g):
    assert len(_forms_under_relabelling(g)) == 1


def _forms_under_relabelling(g):
    rng = random.Random(10)
    forms = {canonical_form(g)}
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        forms.add(canonical_form(g.permuted(perm)))
    return forms


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(_circulant(11, [1]), id="C11"),
        pytest.param(_circulant(11, [1, 2]), id="C11(1,2)"),
    ],
)
def test_canonical_form_is_relabelling_invariant_on_one_cell_of_order_11(g):
    # vertex-transitive, so refinement leaves one cell of 11 vertices
    assert len(_refined_cells(g)) == 1
    assert len(_forms_under_relabelling(g)) == 1


def _group_order(n, generators):
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for gen in generators:
            q = tuple(gen[v] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


@pytest.mark.parametrize(
    "graphs, count",
    [
        pytest.param(
            lambda: _labelled_graphs(5),
            sum(2 ** (n * (n - 1) // 2) for n in range(6)),
            id="labelled-n<=5",
        ),
        pytest.param(
            lambda: _relabelled_connected(6, seeds=(3,)),
            sum(CONNECTED_COUNTS[n] for n in range(1, 7)),
            id="relabelled-connected-n<=6",
        ),
    ],
)
def test_search_automorphisms_generate_the_automorphism_group(graphs, count):
    checked = 0
    for g in graphs():
        generators = _labelled_search(g)[1]
        for p in generators:
            assert g.permuted(p).adj == g.adj, (g.n, g.adj, p)
        brute = sum(g.permuted(p).adj == g.adj for p in permutations(range(g.n)))
        assert _group_order(g.n, generators) == brute, (g.n, g.adj)
        checked += 1
    assert checked == count


def _extension_reference(parents):
    """extend_connected with every neighbourhood canonicalized."""
    seen = {}
    for h in _extension_candidates(parents):
        seen.setdefault(canonical_form(h), h.edge_count())
    return sorted(seen, key=lambda bits: (seen[bits], bits))


@pytest.mark.parametrize(
    "parents",
    [
        pytest.param(lambda: [g for n in range(1, 7) for g in enumerate_connected(n)], id="n<=6"),
        pytest.param(lambda: enumerate_connected(7)[::20], id="every-20th-order-7"),
    ],
)
def test_orbit_pruned_extension_equals_canonicalizing_every_neighbourhood(parents):
    for g in parents():
        got = [canonical_form(h) for h in extend_connected([g])]
        assert got == _extension_reference([g]), (g.n, g.adj)


def _relabelled_and_shuffled(graphs, rng):
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.permuted(perm))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_extension_of_every_class_is_independent_of_labels_order_and_repeats(n):
    want = [g.adj for g in enumerate_connected(n + 1)]
    parents = _relabelled_and_shuffled(enumerate_connected(n), random.Random(7))
    twice = [g for g in parents for _ in range(2)]
    assert [g.adj for g in extend_connected(parents)] == want
    assert [g.adj for g in extend_connected(twice)] == want
    # one copy of a parent dropped: every class is still there
    assert [g.adj for g in extend_connected(twice[1:])] == want


@pytest.mark.parametrize("n", range(3, 7))
def test_extension_of_all_but_one_class_canonicalizes_every_child(n):
    rest = _relabelled_and_shuffled(enumerate_connected(n), random.Random(7))[1:]
    got = [canonical_form(h) for h in extend_connected(rest)]
    assert got == _extension_reference(rest)


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_augmentation_accepts_each_class_exactly_once(n):
    codes = list(_children(*_distinct_parents(enumerate_connected(n))))
    assert len(set(codes)) == len(codes) == _CLASS_COUNTS[n + 1]
    if n + 1 in CONNECTED_COUNTS:
        assert set(codes) == {canonical_form(g) for g in enumerate_connected(n + 1)}


def _child(g, nbhd):
    rows = list(g.adj) + [nbhd]
    for v in iter_bits(nbhd):
        rows[v] |= 1 << g.n
    return Graph(g.n + 1, rows)


def _deletion_outcome(g, nbhd):
    """The deletion-vertex test from the child's own rows: None when a
    non-cut vertex has a larger (degree, neighbour-degree sum) than the new
    vertex n, else the non-cut vertices whose key equals n's."""
    h = _child(g, nbhd)
    n = g.n
    key = [(h.degree(v), sum(h.degree(u) for u in h.neighbors(v))) for v in range(n + 1)]
    non_cut = [
        v for v in range(n + 1) if is_connected(h.subgraph(u for u in range(n + 1) if u != v))
    ]
    if any(key[v] > key[n] for v in non_cut):
        return None
    return [v for v in non_cut if key[v] == key[n]]


@pytest.mark.parametrize(
    "parents, count",
    [
        pytest.param(
            lambda: [g for n in range(1, 7) for g in enumerate_connected(n)], 4159, id="n<=6"
        ),
        pytest.param(lambda: enumerate_connected(7)[::10], 6908, id="every-10th-order-7"),
    ],
)
def test_deletion_screen_equals_the_childs_own_keys_and_cut_vertices(parents, count):
    outcomes = []
    for g in parents():
        tables = _parent_tables(g)
        for nbhd in _orbit_representatives(g.n, _labelled_search(g)[1]):
            got = _deletion_screen(g.adj, tables, nbhd)
            assert got == _deletion_outcome(g, nbhd), (g.adj, nbhd)
            outcomes.append(got)
    assert len(outcomes) == count
    assert None in outcomes and any(len(tied) > 1 for tied in outcomes if tied)


@pytest.mark.parametrize(
    "g, nbhd, cut, tied",
    [
        # K2: each vertex is a non-cut vertex of key (1, 1)
        pytest.param(Graph(1, [0]), 0b1, None, [0, 1], id="K1-parent"),
        # the new vertex 4 joins the centre and leaf 1 of K1,3; the centre has
        # the largest degree but leaves 2 and 3 hanging from it
        pytest.param(
            from_edge_list(4, [(0, 1), (0, 2), (0, 3)]), 0b0011, 0, [1, 4], id="star-centre"
        ),
        # 4 hangs from vertex 1 of the path 0-1-2-3; 1 and 2 have larger degree
        # than 4, but each separates the rest
        pytest.param(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 0b0010, 2, [0, 4], id="path"),
    ],
)
def test_deletion_screen_named_cases(g, nbhd, cut, tied):
    tables = _parent_tables(g)
    assert _deletion_screen(g.adj, tables, nbhd) == _deletion_outcome(g, nbhd) == tied
    if cut is not None:
        # nbhd misses a component of g - cut, so cut is a cut vertex of the child
        assert any(not c & nbhd for c in tables[2][cut])
        h = _child(g, nbhd)
        assert h.degree(cut) > h.degree(g.n)
        assert not is_connected(h.subgraph(v for v in range(g.n + 1) if v != cut))


def test_extension_of_order_7_canonicalizes_only_kept_and_tied_children(monkeypatch):
    parents = enumerate_connected(7)
    orders = []
    search = enumeration._labelled_search
    monkeypatch.setattr(
        enumeration, "_labelled_search", lambda g: orders.append(g.n) or search(g)
    )
    assert len(extend_connected(parents)) == _CLASS_COUNTS[8]
    # the 853 parents, then 12,106 children: 11,117 kept, 989 tied and rejected
    assert len(orders) == 12959
    assert orders.count(7) == 853 and orders.count(8) == 12106


def test_extension_of_all_but_one_order_6_class_canonicalizes_every_child(monkeypatch):
    parents = enumerate_connected(6)[1:]
    orders = []
    search = enumeration._labelled_search
    monkeypatch.setattr(
        enumeration, "_labelled_search", lambda g: orders.append(g.n) or search(g)
    )
    assert len(extend_connected(parents)) == 852
    # the 111 parents, then every one of their 3,760 orbit-representative children
    assert len(orders) == 3871
    assert orders.count(6) == 111 and orders.count(7) == 3760
