import random

import pytest

import oracles as naive
from domchrom.constructions import DEvenSpec, DOddSpec, build_d_even, build_d_odd
from domchrom.enumeration import enumerate_connected
from domchrom.graphs import Graph, GraphError, complete_bipartite, from_edge_list, is_connected
from domchrom.invariants import (
    Coloring,
    DisconnectedError,
    DominatingWitness,
    UndefinedInvariantError,
    chromatic_number,
    compute_report,
    dominated_chromatic_number,
    dominates_class,
    dominator_chromatic_number,
    domination_number,
    enumerate_optimal_dominator_colorings,
    invariant_values,
    is_dominated_coloring,
    is_dominating_set,
    is_dominator_coloring,
    is_partition,
    is_proper_coloring,
    is_total_dominating_set,
    max_clique,
    total_domination_number,
)

P4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
C4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def _path(n):
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def _cycle(n):
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def test_dominates_class_examples():
    k23, lab = complete_bipartite(2, 3)
    col = Coloring.from_classes([lab.group("A"), lab.group("B")])
    a_vertex = min(lab.group("A"))
    assert dominates_class(k23, a_vertex, col, col.class_of(min(lab.group("B"))))
    col = Coloring.from_classes([[0, 2], [1, 3]])
    assert dominates_class(C4, 0, col, 1)
    assert not dominates_class(P4, 0, col, 1)  # 0 not adjacent to 3


def test_dominates_class_own_singleton_convention():
    col = Coloring.from_classes([[0, 2], [1], [3]])
    assert dominates_class(P4, 3, col, 2)  # own singleton
    assert not dominates_class(P4, 0, col, 0)  # own non-singleton class


def test_dominates_class_index_errors():
    col = Coloring.from_classes([[0, 1, 2, 3]])
    with pytest.raises(GraphError):
        dominates_class(P4, 9, col, 0)
    with pytest.raises(GraphError):
        dominates_class(P4, 0, col, 4)


@pytest.mark.parametrize("v", [-1, 3, 7])
def test_predicates_refuse_vertices_outside_the_graph(v):
    k12, _ = complete_bipartite(1, 2)
    outside = Coloring.from_classes([[0], [1, 2], [v]])
    checks = [
        lambda: dominates_class(k12, 0, Coloring.from_classes([[v]]), 0),
        lambda: dominates_class(k12, v, Coloring.from_classes([[0], [1, 2]]), 0),
        lambda: is_dominating_set(k12, [v]),
        lambda: is_total_dominating_set(k12, [0, v]),
        lambda: is_proper_coloring(k12, outside),
        lambda: is_dominator_coloring(k12, outside),
        lambda: is_dominated_coloring(k12, outside),
    ]
    for check in checks:
        with pytest.raises(GraphError, match=f"vertex {v} out of range for n=3"):
            check()


def test_coloring_predicates_refuse_overlapping_classes_and_a_class_with_an_edge():
    predicates = (is_partition, is_proper_coloring, is_dominator_coloring, is_dominated_coloring)
    # C4's bipartition passes all four; adding the class {3} again passes
    # every test but disjointness
    assert all(p(C4, Coloring.from_classes([{0, 2}, {1, 3}])) for p in predicates)
    overlapping = Coloring.from_classes([{0, 2}, {1, 3}, {3}])
    assert not any(p(C4, overlapping) for p in predicates)
    # on K4, the class {0, 1} holds an edge, though each class is dominated
    # from outside it and {2} is dominated by every vertex
    k4 = from_edge_list(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert all(p(k4, Coloring.from_classes([{0}, {1}, {2}, {3}])) for p in predicates)
    with_an_edge = Coloring.from_classes([{0, 1}, {2}, {3}])
    assert is_partition(k4, with_an_edge)
    assert not any(p(k4, with_an_edge) for p in predicates[1:])


def test_domination_number_examples():
    for q in (2, 3, 4, 5):
        g, _ = complete_bipartite(2, q)
        assert domination_number(g)[0] == 2
    assert domination_number(from_edge_list(1, []))[0] == 1
    gamma, witness = domination_number(P4)
    assert gamma == 2 == naive.min_dominating_set(P4)[0]
    assert witness.sorted_vertices() == naive.min_dominating_set(P4)[1]


def test_total_domination_examples():
    g, _ = complete_bipartite(2, 2)
    assert total_domination_number(g)[0] == 2
    star, _ = complete_bipartite(1, 4)
    assert total_domination_number(star)[0] == 2 == naive.min_total_dominating_set(star)[0]
    godd, _ = build_d_odd(DOddSpec(3, 9))
    assert total_domination_number(godd)[0] == 3


def test_total_domination_isolated_vertex_error():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(UndefinedInvariantError, match="vertex 2"):
        total_domination_number(g)


def test_chromatic_examples():
    assert chromatic_number(C5)[0] == 3
    k33, _ = complete_bipartite(3, 3)
    assert chromatic_number(k33)[0] == 2
    geven, _ = build_d_even(DEvenSpec(4, 12))
    assert chromatic_number(geven)[0] == 4


def test_dominator_chromatic_examples():
    for a, b in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (2, 5)]:
        g, _ = complete_bipartite(a, b)
        assert dominator_chromatic_number(g)[0] == 2
    chi_d, _ = dominator_chromatic_number(P4)
    assert chi_d == 3 == naive.dominator_chromatic_number(P4)
    godd, lab = build_d_odd(DOddSpec(3, 9))
    chi_d, witness = dominator_chromatic_number(godd)
    assert chi_d == 3
    # the witness is exactly the construction's class partition
    expected = Coloring.from_classes([lab.group("P1"), lab.group("P2"), lab.group("P3")])
    assert witness == expected


def test_dominator_chromatic_number_of_paths_and_cycles_has_closed_forms():
    # Chellali & Maffray, "Dominator colorings in some classes of graphs" (2012)
    for n in range(2, 13):
        expected = -(-n // 3) + (1 if n in (2, 3, 4, 5, 7) else 2)
        assert dominator_chromatic_number(_path(n))[0] == expected, f"P{n}"
    for n in range(3, 13):
        expected = {4: 2, 5: 3}.get(n, -(-n // 3) + 2)
        assert dominator_chromatic_number(_cycle(n))[0] == expected, f"C{n}"


def test_dominated_chromatic_examples():
    k23, _ = complete_bipartite(2, 3)
    assert dominated_chromatic_number(k23)[0] == 2 == naive.dominated_chromatic_number(k23)
    assert dominated_chromatic_number(C4)[0] == 2
    geven, _ = build_d_even(DEvenSpec(4, 12))
    assert dominated_chromatic_number(geven)[0] == 4


def test_dominated_chromatic_single_vertex_error():
    with pytest.raises(UndefinedInvariantError):
        dominated_chromatic_number(from_edge_list(1, []))


def test_disconnected_rejections():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        dominator_chromatic_number(g)
    with pytest.raises(DisconnectedError):
        dominated_chromatic_number(g)
    with pytest.raises(DisconnectedError):
        compute_report(g)
    # gamma and chi stay defined on disconnected input
    assert domination_number(g)[0] == 2
    assert chromatic_number(g)[0] == 2


@pytest.mark.parametrize(
    "call, what",
    [
        (domination_number, "domination number"),
        (total_domination_number, "total domination number"),
        (chromatic_number, "chromatic number"),
        (dominator_chromatic_number, "dominator chromatic number"),
        (dominated_chromatic_number, "dominated chromatic number"),
        (compute_report, "an invariant report"),
        (invariant_values, "the invariants"),
    ],
)
def test_empty_graph_is_refused(call, what):
    with pytest.raises(GraphError, match=f"^{what} (is|are) undefined for the empty graph$"):
        call(Graph(0, ()))


def test_classify_examples():
    g, _ = complete_bipartite(2, 2)
    assert compute_report(g).dk == 2
    star, _ = complete_bipartite(1, 3)
    report = compute_report(star)
    assert report.dk is None and report.gamma == 1 and report.chi == 2
    godd, _ = build_d_odd(DOddSpec(3, 10))
    assert compute_report(godd).dk == 3


def test_report_fields_and_k1():
    report = compute_report(from_edge_list(1, []))
    assert (report.gamma, report.gamma_t, report.chi, report.chi_d, report.chi_dom) == (
        1,
        None,
        1,
        1,
        None,
    )
    assert report.dk == 1
    record = report.record("@")
    assert list(record) == [
        "n",
        "edge_count",
        "gamma",
        "gamma_t",
        "chi",
        "chi_d",
        "chi_dom",
        "dk",
        "graph6",
    ]


def test_sandwich_and_witness_validity_on_sample():
    rng = random.Random(5)
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    graphs += [
        g
        for g in (
            from_edge_list(
                6,
                [
                    (u, v)
                    for u in range(6)
                    for v in range(u + 1, 6)
                    if rng.random() < 0.5
                ],
            )
            for _ in range(30)
        )
        if is_connected(g)
    ]
    for g in graphs:
        r = compute_report(g)
        assert r.gamma <= (r.gamma_t if r.gamma_t is not None else r.gamma)
        assert r.chi <= r.chi_d
        if r.chi_dom is not None:
            assert r.chi <= r.chi_dom
        # witnesses re-verified through the predicates, never trusted
        assert is_dominating_set(g, r.gamma_witness.vertices)
        assert len(r.gamma_witness.vertices) == r.gamma
        if r.gamma_t_witness is not None:
            assert is_total_dominating_set(g, r.gamma_t_witness.vertices)
            assert len(r.gamma_t_witness.vertices) == r.gamma_t
        assert is_proper_coloring(g, r.chi_witness) and r.chi_witness.k == r.chi
        assert is_dominator_coloring(g, r.chi_d_witness) and r.chi_d_witness.k == r.chi_d
        if r.chi_dom_witness is not None:
            assert is_dominated_coloring(g, r.chi_dom_witness)
            assert r.chi_dom_witness.k == r.chi_dom


def test_deterministic_witnesses():
    godd, _ = build_d_odd(DOddSpec(3, 9))
    assert compute_report(godd) == compute_report(godd)


def test_lex_least_witnesses_match_naive():
    # paths and cycles up to 18 vertices cover every residue mod 3 and mod 4
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [_path(n) for n in range(1, 19)] + [_cycle(n) for n in range(3, 19)]
    for g in graphs:
        gamma, witness = domination_number(g)
        assert (gamma, witness.sorted_vertices()) == naive.min_dominating_set(g)
        expected = naive.min_total_dominating_set(g)
        if expected is None:
            with pytest.raises(UndefinedInvariantError):
                total_domination_number(g)
        else:
            gamma_t, witness = total_domination_number(g)
            assert (gamma_t, witness.sorted_vertices()) == expected
    # the closed forms the oracle shows for small n, on long paths
    assert total_domination_number(_path(802))[1].sorted_vertices() == (0, 1) + tuple(
        v for j in range(200) for v in (4 * j + 3, 4 * j + 4)
    )
    assert domination_number(_path(1550))[1].sorted_vertices() == tuple(range(0, 1550, 3))


def test_enumerate_optimal_dominator_colorings():
    k2 = from_edge_list(2, [(0, 1)])
    cols = list(enumerate_optimal_dominator_colorings(k2, 2))
    assert cols == [Coloring.from_classes([[0], [1]])]

    cols = list(enumerate_optimal_dominator_colorings(C4, 2))
    assert cols == [Coloring.from_classes([[0, 2], [1, 3]])]

    cols = list(enumerate_optimal_dominator_colorings(P4, 3))
    expected = {
        tuple(sorted(tuple(sorted(c)) for c in blocks_to_sets(b)))
        for b in naive.dominator_colorings(P4, 3)
    }
    got = {tuple(sorted(tuple(sorted(c)) for c in col.classes)) for col in cols}
    assert got == expected
    # each exactly once
    assert len(cols) == len(got)

    with pytest.raises(GraphError, match="chi_d"):
        list(enumerate_optimal_dominator_colorings(P4, 2))


def test_coloring_witnesses_are_lex_first_naive_partitions():
    # naive.set_partitions lists partitions in lexicographic order of their
    # assignment sequences, so the first one accepted is the lex-least witness
    def lex_first(g, k, accept):
        return Coloring.from_masks(
            next(p for p in naive.set_partitions(g.n) if len(p) == k and accept(g, p))
        )

    def dominator(g, p):
        return naive.blocks_are_independent(g, p) and naive.blocks_form_dominator_coloring(g, p)

    def dominated(g, p):
        return naive.blocks_are_independent(g, p) and naive.blocks_form_dominated_coloring(g, p)

    for n in range(1, 7):
        for g in enumerate_connected(n):
            chi, witness = chromatic_number(g)
            assert witness == lex_first(g, chi, naive.blocks_are_independent)
            chi_d, witness = dominator_chromatic_number(g)
            assert witness == lex_first(g, chi_d, dominator)
            if n > 1:
                chi_dom, witness = dominated_chromatic_number(g)
                assert witness == lex_first(g, chi_dom, dominated)


def test_optimal_colorings_come_in_strictly_increasing_order():
    from domchrom.invariants import invariant_values

    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [build_d_odd(DOddSpec(3, 10))[0], build_d_even(DEvenSpec(4, 13))[0]]
    for g in graphs:
        k = invariant_values(g)["chi_d"]
        sequences = [
            col.assignment(g.n) for col in enumerate_optimal_dominator_colorings(g, k)
        ]
        assert sequences
        assert all(a < b for a, b in zip(sequences, sequences[1:]))


def blocks_to_sets(blocks):
    out = []
    for mask in blocks:
        cls = []
        v = 0
        while mask:
            if mask & 1:
                cls.append(v)
            mask >>= 1
            v += 1
        out.append(cls)
    return out


def test_optimal_coloring_enumeration_complete_through_n7():
    # the backtracking enumerator yields exactly the partitions the naive
    # all-set-partitions filter accepts, graph by graph
    from domchrom.invariants import invariant_values

    for n in range(2, 8):
        for g in enumerate_connected(n):
            k = invariant_values(g, early_exit_k=None)["chi_d"]
            mine = {
                tuple(sorted(tuple(sorted(c)) for c in col.classes))
                for col in enumerate_optimal_dominator_colorings(g, k)
            }
            theirs = {
                tuple(sorted(tuple(b for b in range(g.n) if m >> b & 1) for m in blocks))
                for blocks in naive.dominator_colorings(g, k)
            }
            assert mine == theirs


def test_fast_path_agrees_with_witness_path():
    from domchrom.invariants import invariant_values

    for n in range(1, 8):
        for g in enumerate_connected(n):
            v = invariant_values(g)
            r = compute_report(g)
            assert (v["gamma"], v["gamma_t"], v["chi"], v["chi_d"], v["chi_dom"]) == (
                r.gamma,
                r.gamma_t,
                r.chi,
                r.chi_d,
                r.chi_dom,
            )
            assert v["dk"] == r.dk
            # early exit: cut at the first of gamma, chi that rules D(k) out,
            # or else after the verdict
            cut = ["gamma", "chi", "chi_d", "dk"]
            for k in (2, 3, 4):
                stop = next((name for name in ("gamma", "chi") if v[name] != k), "dk")
                expected = {name: v[name] for name in cut[: cut.index(stop) + 1]}
                assert invariant_values(g, early_exit_k=k) == expected


def test_coloring_canonical_order_and_assignment():
    col = Coloring.from_classes([[3, 1], [0, 2]])
    assert col.classes == (frozenset({0, 2}), frozenset({1, 3}))
    assert col.assignment(4) == (0, 1, 0, 1)
    with pytest.raises(GraphError):
        Coloring.from_classes([[0], []])
    with pytest.raises(GraphError):
        col.assignment(3)
    with pytest.raises(GraphError, match="do not cover"):
        Coloring.from_classes([[0], [1]]).assignment(3)
    with pytest.raises(GraphError, match="in no class"):
        Coloring.from_classes([[0], [1]]).class_of(2)


def test_chromatic_number_of_long_path_needs_no_recursion():
    path = from_edge_list(2000, [(v, v + 1) for v in range(1999)])
    chi, witness = chromatic_number(path)
    assert chi == 2
    assert witness == Coloring.from_classes([range(0, 2000, 2), range(1, 2000, 2)])


def test_report_of_k2_1100_is_d2_with_the_bipartition_as_witness():
    # the paper's planar D(2) family at scale: the dominator rule is read on
    # a state of 1,102 vertices
    g, _ = complete_bipartite(2, 1100)
    report = compute_report(g)
    assert report.dk == 2
    assert report.chi_d_witness == Coloring.from_classes([range(2), range(2, 1102)])


def test_max_clique_of_k1100_needs_no_recursion():
    n = 1100
    k = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    assert max_clique(k) == (n, (1 << n) - 1)


def test_domination_number_of_edgeless_1100_needs_no_recursion():
    n = 1100
    assert domination_number(from_edge_list(n, [])) == (
        n, DominatingWitness(frozenset(range(n)), "plain")
    )


def test_total_domination_number_of_1100_disjoint_k2_needs_no_recursion():
    n = 2200
    g = from_edge_list(n, [(v, v + 1) for v in range(0, n, 2)])
    assert total_domination_number(g) == (n, DominatingWitness(frozenset(range(n)), "total"))


def _sparse_random_graph(n, p, seed, connected):
    """G(n, p) from random.Random(seed); when `connected`, redrawn with the
    same generator until it is connected."""
    rng = random.Random(seed)
    while True:
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if not connected or is_connected(g):
            return g


def test_domination_witnesses_of_sparse_random_graphs_are_pinned():
    g = _sparse_random_graph(45, 0.1, 17, connected=True)
    gamma, witness = domination_number(g)
    assert (gamma, witness.sorted_vertices()) == (12, (0, 3, 4, 9, 10, 13, 14, 17, 18, 24, 34, 41))
    gamma_t, witness = total_domination_number(g)
    assert (gamma_t, witness.sorted_vertices()) == (
        12, (3, 8, 9, 11, 13, 18, 19, 34, 35, 37, 39, 41)
    )
    g = _sparse_random_graph(50, 0.08, 2, connected=False)
    assert g.adj[49] == 0
    gamma, witness = domination_number(g)
    assert (gamma, witness.sorted_vertices()) == (
        15, (0, 1, 4, 5, 8, 10, 14, 16, 26, 28, 37, 38, 39, 46, 49)
    )


def test_check_theorem1_runs_the_proper_stage_once(monkeypatch):
    from domchrom import invariants
    from domchrom.structure import check_theorem1

    calls = []
    proper_stage = invariants._proper_stage

    def counted(g):
        calls.append(g)
        return proper_stage(g)

    monkeypatch.setattr(invariants, "_proper_stage", counted)
    g, _ = build_d_odd(DOddSpec(3, 9))
    result = check_theorem1(g)
    assert len(calls) == 1
    assert result.colorings_checked == len(
        list(enumerate_optimal_dominator_colorings(g, result.report.chi_d))
    )


def test_check_theorem1_oracle_calls_are_pinned(monkeypatch):
    # the restart from the remembered lex-least chi_d witness asks the oracle
    # nothing along that witness's own prefixes: 14 and 32 calls before
    from domchrom import invariants
    from domchrom.structure import check_theorem1

    calls = []
    complete = invariants._ColoringState.complete

    def counted(state, *args):
        calls.append(args)
        return complete(state, *args)

    monkeypatch.setattr(invariants._ColoringState, "complete", counted)
    g, _ = build_d_odd(DOddSpec(3, 9))
    cold = check_theorem1(g)
    assert len(calls) == 27
    calls.clear()
    assert check_theorem1(g) == cold
    assert len(calls) == 9


def test_complete_leaves_the_state_as_it_found_it():
    # on an empty state, and after the order's first vertex is placed in
    # class 0, whether or not a completion exists
    from domchrom.invariants import _ColoringState, _search_order

    def snapshot(state):
        return list(state.members), list(state.common), state.used, len(state.trail)

    outcomes = set()
    for n in range(1, 7):
        for g in enumerate_connected(n):
            size, order = _search_order(g)
            for mode in range(3):
                for k in range(size, n + 1):
                    state = _ColoringState(g, k, mode)
                    before = snapshot(state)
                    outcomes.add(state.complete(order, 0, 1) is None)
                    assert snapshot(state) == before
                    state.push(order[0], 0)
                    before = snapshot(state)
                    outcomes.add(state.complete(order[1:], 0, min(2, k)) is None)
                    assert snapshot(state) == before
    assert outcomes == {True, False}


def test_search_order_is_the_clique_then_degree_descending():
    from domchrom.graphs import iter_bits
    from domchrom.invariants import _search_order

    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 996
    for g in graphs:
        size, mask = max_clique(g)
        rest = [v for v in range(g.n) if not mask >> v & 1]
        order = sorted(iter_bits(mask)) + sorted(rest, key=lambda v: (-g.degree(v), v))
        assert _search_order(g) == (size, tuple(order))
