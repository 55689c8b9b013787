import hashlib
import random
from itertools import islice, permutations
from pathlib import Path

import pytest

from domchrom.constructions import (
    DEvenSpec,
    DOddSpec,
    build_d3,
    build_d_even,
    build_d_odd,
    enumerate_d3_blueprints,
    validate_blueprint,
)
from domchrom.enumeration import are_isomorphic, canonical_form, enumerate_connected
from domchrom.graph6 import parse_graph6
from domchrom.graphs import (
    Graph,
    GraphError,
    bipartition,
    complete_bipartite,
    from_edge_list,
    is_connected,
)
from domchrom import invariants, structure
from domchrom.invariants import (
    Coloring,
    DisconnectedError,
    compute_report,
    enumerate_optimal_dominator_colorings,
    is_total_dominating_set,
)
from oracles import (
    blocks_are_independent,
    set_partitions,
    vertex_dominates_block,
)
from domchrom.structure import (
    _odd_cycle_meet,
    _theorem1_tally,
    check_theorem1,
    find_chain,
    find_total_dominating_transversal,
    is_in_class_d3,
)

ORDER8 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "order8.g6"
TRIANGLE_PENDANT = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
TWO_TRIANGLES = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
BRIDGED_TRIANGLES = from_edge_list(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
)


def test_find_chain_triangle_with_pendant():
    coloring = Coloring.from_classes([[0], [1], [2], [3]])
    witness = find_chain(TRIANGLE_PENDANT, coloring)
    assert witness is not None
    assert witness.classes == (0, 1, 2)
    assert witness.vertices == (0, 1, 2)


def test_find_chain_requires_three_classes():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(GraphError, match="k="):
        find_chain(c4, Coloring.from_classes([[0, 2], [1, 3]]))
    with pytest.raises(GraphError, match="proper"):
        find_chain(c4, Coloring.from_classes([[0, 1], [2], [3]]))


def test_find_chain_matches_the_definition_on_every_proper_coloring_through_n6():
    found = 0
    for g in (g for n in range(3, 7) for g in enumerate_connected(n)):
        for blocks in set_partitions(g.n):
            if len(blocks) < 3 or not blocks_are_independent(g, blocks):
                continue
            coloring = Coloring.from_masks(blocks)
            masks = coloring.masks()
            # the least x of class i that dominates class j, per ordered pair
            least = {}
            for i, j in permutations(range(coloring.k), 2):
                xs = [v for v in coloring.classes[i] if vertex_dominates_block(g, v, masks[j])]
                if xs:
                    least[i, j] = min(xs)
            expected = next(
                (
                    ((i, j, l), (least[i, j], least[j, l], least[l, i]))
                    for i, j, l in permutations(range(coloring.k), 3)
                    if {(i, j), (j, l), (l, i)} <= least.keys()
                ),
                None,
            )
            witness = find_chain(g, coloring)
            assert (witness and (witness.classes, witness.vertices)) == expected
            found += expected is not None
    assert found > 0


def test_find_chain_none_on_d4_construction():
    # a chain in an all-classes->=2 optimal 4-coloring would force dk != 4,
    # so the D(4) constructions' class colorings must be chain-free
    for n in (12, 16):
        g, lab = build_d_even(DEvenSpec(4, n))
        coloring = Coloring.from_classes([lab.group(f"P{i}") for i in range(1, 5)])
        assert all(len(c) >= 2 for c in coloring.classes)
        assert find_chain(g, coloring) is None


def test_check_theorem1_on_known_dk_graphs():
    godd, _ = build_d_odd(DOddSpec(3, 9))
    result = check_theorem1(godd)
    assert result.colorings_checked >= 1
    assert result.all_classes_dominated
    assert result.every_vertex_dominates_exactly_one
    assert result.counterexamples == ()

    k23, _ = complete_bipartite(2, 3)
    result = check_theorem1(k23)
    assert result.all_classes_dominated and result.every_vertex_dominates_exactly_one


def test_check_theorem1_records_auditable_counts():
    godd, lab = build_d_odd(DOddSpec(3, 9))
    result = check_theorem1(godd)
    x3 = lab.vertex("x3")
    # the apex dominates only its own singleton class: auditable as (0, 1)
    for counts in result.domination_counts:
        assert counts[x3] == (0, 1)
        assert all(cross + own == 1 for cross, own in counts)


def test_theorem1_tally_reports_counterexamples_in_order():
    # every proper coloring of P5 and C6, most of them far from optimal, so
    # that both kinds of counterexample occur
    p5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    c6 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    kinds = set()
    for g in (p5, c6):
        for blocks in set_partitions(g.n):
            if not blocks_are_independent(g, blocks):
                continue
            coloring = Coloring.from_masks(blocks)
            masks = coloring.masks()
            counts = []
            expected = []
            for v in range(g.n):
                own = 1 if masks[coloring.class_of(v)] == 1 << v else 0
                cross = sum(
                    vertex_dominates_block(g, v, m) for c, m in enumerate(masks)
                    if c != coloring.class_of(v)
                )
                counts.append((cross, own))
                if cross + own != 1:
                    expected.append((5, f"vertex-dominates-{cross + own}", v))
            for c, m in enumerate(masks):
                if not any(vertex_dominates_block(g, v, m) for v in range(g.n)):
                    expected.append((5, "class-not-dominated", c))
            assert _theorem1_tally(g, 5, coloring) == (tuple(counts), expected)
            kinds.update(kind for _, kind, _ in expected)
    assert kinds == {
        "vertex-dominates-0", "vertex-dominates-2", "vertex-dominates-3", "class-not-dominated"
    }


def test_check_theorem1_rejects_non_dk():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError, match="not a D\\(k\\) graph"):
        check_theorem1(p4)


def test_transversal_on_constructions():
    godd, lab = build_d_odd(DOddSpec(3, 9))
    coloring = Coloring.from_classes([lab.group(f"P{i}") for i in range(1, 4)])
    picked = find_total_dominating_transversal(godd, coloring)
    assert picked is not None
    assert is_total_dominating_set(godd, picked)
    # one vertex per class
    for v, cls in zip(picked, coloring.classes):
        assert v in cls
    # the construction's own transversal {x1, x2, x3} qualifies too
    xs = [lab.vertex("x1"), lab.vertex("x2"), lab.vertex("x3")]
    assert is_total_dominating_set(godd, xs)


def test_transversal_c4():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    picked = find_total_dominating_transversal(c4, Coloring.from_classes([[0, 2], [1, 3]]))
    assert picked == (0, 1)


def test_transversal_none_on_disjoint_triangles():
    # size-3 transversal leaves one triangle with <= 1 chosen vertex
    coloring = Coloring.from_classes([[0, 3], [1, 4], [2, 5]])
    assert find_total_dominating_transversal(TWO_TRIANGLES, coloring) is None


def test_bridged_triangles_always_have_transversal():
    # With the bridge, {2, 3} is an adjacent total dominating pair, so every
    # proper coloring admits a transversal: the literal "joined by one edge"
    # variant of the None example is unsatisfiable (see decisions ledger).
    found_any = False
    for blocks in set_partitions(6):
        if not blocks_are_independent(BRIDGED_TRIANGLES, blocks):
            continue
        found_any = True
        coloring = Coloring.from_masks(blocks)
        assert find_total_dominating_transversal(BRIDGED_TRIANGLES, coloring) is not None
    assert found_any


def test_transversal_of_k1100_needs_no_recursion():
    n = 1100
    k = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    coloring = Coloring.from_classes([[v] for v in range(n)])
    assert find_total_dominating_transversal(k, coloring) == tuple(range(n))


def test_transversal_requires_proper_coloring():
    with pytest.raises(GraphError, match="proper"):
        find_total_dominating_transversal(
            TWO_TRIANGLES, Coloring.from_classes([[0, 1, 2], [3, 4, 5]])
        )


# ---------------------------------------------------------------------------
# Three-class membership


def test_membership_round_trip_through_the_class():
    for a, b in [(3, 4), (4, 3), (4, 4)]:
        for bp in islice(enumerate_d3_blueprints(a, b), 2):
            g, _ = build_d3(bp)
            extracted = is_in_class_d3(g)
            assert extracted is not None
            assert validate_blueprint(extracted).ok
            g2, _ = build_d3(extracted)
            assert are_isomorphic(g, g2)


def test_membership_is_exactly_the_class_through_order_8():
    # the class up to isomorphism: canonical forms of every valid blueprint
    # with a + b + 1 = n
    forms = {n: set() for n in range(1, 9)}
    for n in (7, 8):
        for a in range(3, n - 3):
            for bp in enumerate_d3_blueprints(a, n - 1 - a):
                forms[n].add(canonical_form(build_d3(bp)[0]))
    assert len(forms[7]) == 0 and len(forms[8]) == 1
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [parse_graph6(line) for line in ORDER8.read_text().split()]
    assert len(graphs) == 996 + 11117
    members = 0
    for g in graphs:
        member = is_in_class_d3(g) is not None
        assert member == (canonical_form(g) in forms[g.n])
        members += member
    assert members == 1


def test_membership_recognises_relabelled_blueprints():
    pool = [
        bp
        for a in (3, 4, 5)
        for b in (3, 4, 5)
        for bp in enumerate_d3_blueprints(a, b)
    ]
    assert len(pool) == 3268
    rng = random.Random(7)
    for bp in pool[::8]:
        g, _ = build_d3(bp)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = g.permuted(perm)
        extracted = is_in_class_d3(relabelled)
        assert extracted is not None
        assert are_isomorphic(build_d3(extracted)[0], relabelled)


def test_membership_of_relabelled_and_toggled_pool_graphs_is_pinned():
    # every 2nd pool blueprint, relabelled, as is and with one seeded vertex
    # pair toggled: the blueprint read off each connected graph, or None
    pool = [bp for a in (3, 4, 5) for b in (3, 4, 5) for bp in enumerate_d3_blueprints(a, b)]
    rng = random.Random(14)
    digest = hashlib.sha256()
    graphs = members = 0
    for bp in pool[::2]:
        g, _ = build_d3(bp)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.permuted(perm)
        u, v = rng.sample(range(g.n), 2)
        rows = list(g.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        for h in (g, Graph(g.n, rows)):
            if is_connected(h):
                found = is_in_class_d3(h)
                digest.update(repr(found).encode())
                graphs += 1
                members += found is not None
    assert (graphs, members) == (3268, 1750)
    assert digest.hexdigest() == "f0cbbb871e92dc200026adbe99770fb3d4acf20a8198d8815a6a72df47c731c1"


def test_membership_rejections():
    k33, _ = complete_bipartite(3, 3)
    assert is_in_class_d3(k33) is None  # chi = 2, cannot be D(3)
    assert is_in_class_d3(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) is None
    with pytest.raises(GraphError, match="connected"):
        is_in_class_d3(from_edge_list(8, [(0, 1), (2, 3)]))


def _random_connected(rng, n, p):
    while True:
        g = from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        if is_connected(g):
            return g


def test_odd_cycle_meet_holds_every_vertex_whose_deletion_leaves_a_bipartite_graph():
    # G - x bipartite puts x on every odd cycle of a non-bipartite G
    petersen = from_edge_list(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    c7 = from_edge_list(7, [(i, (i + 1) % 7) for i in range(7)])
    joined = from_edge_list(
        8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)]
    )
    k34 = complete_bipartite(3, 4)[0]
    assert _odd_cycle_meet(petersen).bit_count() == 5  # one 5-cycle, no triangle
    assert _odd_cycle_meet(c7) == 0b1111111
    assert _odd_cycle_meet(joined) == 0 == _odd_cycle_meet(k34)
    assert _odd_cycle_meet(TRIANGLE_PENDANT) == 0b0111
    rng = random.Random(19)
    graphs = [petersen, c7, joined, k34]
    graphs += [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [parse_graph6(line) for line in ORDER8.read_text().split()]
    graphs += [
        _random_connected(rng, rng.randint(5, 16), rng.uniform(0.15, 0.6)) for _ in range(2000)
    ]
    triangle_free_odd = 0
    for g in graphs:
        full = (1 << g.n) - 1
        meet = _odd_cycle_meet(g)
        assert meet & ~full == 0
        if bipartition(g, full) is not None:
            assert meet == 0
            continue
        for x in range(g.n):
            if bipartition(g, full & ~(1 << x)) is not None:
                assert meet >> x & 1, (g.n, g.adj, x)
        triangle_free_odd += not any(g.adj[u] & g.adj[v] for u, v in g.edges())
    # the odd-cycle branch, not only the triangle one, is exercised
    assert triangle_free_odd > 50


def _count_bipartitions(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return bipartition(*args)

    monkeypatch.setattr(structure, "bipartition", counted)
    return calls


def test_membership_bipartitions_only_the_odd_cycle_meet(monkeypatch):
    # over the order-8 stream, every vertex of every graph would take 88,929
    # bipartitions of G - x3; the meet of the odd cycles leaves these
    calls = _count_bipartitions(monkeypatch)
    members = [line for line in ORDER8.read_text().split()
               if is_in_class_d3(parse_graph6(line)) is not None]
    assert members == ["Gia@xw"]
    assert calls[0] == 4323


def test_membership_of_bipartite_graphs_tries_no_split(monkeypatch):
    # a bipartite G has no candidate x3, so no G - x3 is split
    calls = _count_bipartitions(monkeypatch)
    path8 = from_edge_list(8, [(i, i + 1) for i in range(7)])
    assert is_in_class_d3(path8) is None
    assert is_in_class_d3(complete_bipartite(3, 4)[0]) is None
    assert calls[0] == 0


def test_membership_work_is_bounded_by_the_odd_cycle_meet(monkeypatch):
    # with no time budget, the work stays one bipartition per vertex on
    # every odd cycle: all 301 of C301, and on K50,50 plus an apex joined
    # to every vertex only the apex, the one vertex on every triangle
    calls = _count_bipartitions(monkeypatch)
    c301 = from_edge_list(301, [(i, (i + 1) % 301) for i in range(301)])
    assert is_in_class_d3(c301) is None
    assert calls[0] == 301
    calls[0] = 0
    apex = from_edge_list(101, [(u, v) for u, v in complete_bipartite(50, 50)[0].edges()]
                          + [(100, v) for v in range(100)])
    assert is_in_class_d3(apex) is None
    assert calls[0] == 1


def test_membership_of_d_odd_3_9():
    godd, _ = build_d_odd(DOddSpec(3, 9))
    bp = is_in_class_d3(godd)
    assert bp is not None
    g2, _ = build_d3(bp)
    assert are_isomorphic(godd, g2)


# ---------------------------------------------------------------------------
# The remembered report: a report of a graph equal to the last one reported
# is reused, and must give what a cold call gives


def _family_graphs():
    """The nine constructions the benchmark certifies."""
    odd = [build_d_odd(DOddSpec(k, n))[0] for k, n in ((3, 9), (3, 10), (3, 13), (5, 17), (5, 19))]
    even = [build_d_even(DEvenSpec(k, n))[0] for k, n in ((4, 12), (4, 13), (4, 16), (6, 18))]
    return odd + even


def _small_and_family_graphs():
    return [g for n in range(1, 7) for g in enumerate_connected(n)] + _family_graphs()


def _outcome(call, *args):
    try:
        return call(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def _unreachable(*args):
    raise AssertionError("the remembered report was not used")


def test_theorem1_after_a_report_equals_a_cold_check(monkeypatch):
    # also when the second call gets an equal but distinct Graph object; the
    # stages, stubbed out, must not run again
    stages = invariants._stages
    for g in _small_and_family_graphs():
        monkeypatch.setattr(invariants, "_stages", stages)
        monkeypatch.setattr(invariants, "_last_report", None)
        cold = _outcome(check_theorem1, g)
        for same in (g, Graph(g.n, g.adj)):
            monkeypatch.setattr(invariants, "_stages", stages)
            monkeypatch.setattr(invariants, "_last_report", None)
            report = compute_report(g)
            monkeypatch.setattr(invariants, "_stages", _unreachable)
            warm = _outcome(check_theorem1, same)
            assert warm == cold
            assert type(warm) is tuple or warm.report is report


def test_alternating_graphs_each_get_their_own_report(monkeypatch):
    # two graphs of order 13, and two of order 6
    families = _family_graphs()
    path6 = from_edge_list(6, [(v, v + 1) for v in range(5)])
    graphs = [families[2], families[6], BRIDGED_TRIANGLES, path6]
    reports, checks = {}, {}
    for g in graphs:
        monkeypatch.setattr(invariants, "_last_report", None)
        reports[g] = compute_report(g)
        monkeypatch.setattr(invariants, "_last_report", None)
        checks[g] = _outcome(check_theorem1, g)
    for g in graphs * 2 + graphs[::-1]:
        assert compute_report(g) == reports[g]
        assert _outcome(check_theorem1, g) == checks[g]
    assert len({reports[g] for g in graphs}) == len(graphs)


def test_enumeration_after_a_report_equals_a_cold_enumeration(monkeypatch):
    proper_stage = invariants._proper_stage
    for g in _small_and_family_graphs():
        monkeypatch.setattr(invariants, "_last_report", None)
        chi_d = compute_report(g).chi_d
        monkeypatch.setattr(invariants, "_proper_stage", _unreachable)
        warm = list(enumerate_optimal_dominator_colorings(g, chi_d))
        with pytest.raises(GraphError, match="does not equal"):
            next(enumerate_optimal_dominator_colorings(g, chi_d + 1))
        monkeypatch.setattr(invariants, "_proper_stage", proper_stage)
        monkeypatch.setattr(invariants, "_last_report", None)
        assert warm == list(enumerate_optimal_dominator_colorings(g, chi_d))


def test_theorem1_counts_the_colorings_of_the_public_enumeration(monkeypatch):
    # the benchmark tracer sees the enumeration only as the public generator
    # that structure binds, both cold and after compute_report
    yielded = [0]

    def counted(g, k):
        for coloring in enumerate_optimal_dominator_colorings(g, k):
            yielded[0] += 1
            yield coloring

    monkeypatch.setattr(structure, "enumerate_optimal_dominator_colorings", counted)
    g = _family_graphs()[0]
    for warm in (False, True):
        monkeypatch.setattr(invariants, "_last_report", None)
        if warm:
            compute_report(g)
        yielded[0] = 0
        assert check_theorem1(g).colorings_checked == yielded[0] > 0


def test_a_disconnected_graph_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(DisconnectedError):
            compute_report(TWO_TRIANGLES)
        with pytest.raises(DisconnectedError):
            check_theorem1(TWO_TRIANGLES)
        with pytest.raises(DisconnectedError):
            next(enumerate_optimal_dominator_colorings(TWO_TRIANGLES, 2))
