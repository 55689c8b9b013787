import hashlib
import json
from itertools import islice, product
from types import MappingProxyType

import pytest

from domchrom.constructions import (
    OPPOSITE,
    SINGLETON,
    D3Blueprint,
    DEvenSpec,
    DOddSpec,
    build_d3,
    build_d_even,
    build_d_odd,
    enumerate_d3_blueprints,
    validate_blueprint,
)
from domchrom.graph6 import to_graph6
from domchrom.graphs import GraphError, from_edge_list, to_dot
from domchrom.invariants import compute_report, is_dominating_set


def test_d_odd_3_9_matches_hand_expansion():
    g, lab = build_d_odd(DOddSpec(3, 9))
    assert g.n == 9 and g.edge_count() == 17
    # rules (a)-(c) expanded by hand with the canonical vertex order
    # P1 = x1,y1,z1,w1 = 0..3; P2 = x2,y2,z2,w2 = 4..7; P3 = x3 = 8
    expected = from_edge_list(
        9,
        [
            (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2), (6, 0), (6, 1), (6, 2),
            (3, 5), (3, 6), (7, 1), (7, 2),
            (0, 4), (0, 8), (4, 8),
            (8, 3), (8, 7),
        ],
    )
    assert g == expected
    assert lab.vertex("x3") == 8 and lab.group("P1") == frozenset({0, 1, 2, 3})


def test_d_odd_3_10_tail_vertex():
    g, lab = build_d_odd(DOddSpec(3, 10))
    assert g.n == 10 and g.edge_count() == 20
    u1 = lab.vertex("u1")
    assert set(g.neighbors(u1)) == {lab.vertex("x3"), lab.vertex("y2"), lab.vertex("z2")}


def test_d_odd_spec_errors_cite_bounds():
    with pytest.raises(GraphError, match="odd"):
        DOddSpec(4, 16)
    with pytest.raises(GraphError, match=">= 3"):
        DOddSpec(1, 1)
    with pytest.raises(GraphError, match="4k-3 = 9"):
        DOddSpec(3, 8)


def test_d_odd_structure_posts():
    for k, n in [(3, 9), (3, 12), (5, 17), (5, 18)]:
        g, lab = build_d_odd(DOddSpec(k, n))
        assert g.n == n
        t = n - (4 * k - 3)
        assert n == 4 * (k - 1) + 1 + t  # order identity
        # classes are independent sets
        for i in range(1, k + 1):
            members = sorted(lab.group(f"P{i}"))
            for a_i, a in enumerate(members):
                for b in members[a_i + 1:]:
                    assert not g.has_edge(a, b)
        # X + x_k induces a k-clique
        clique = sorted(lab.group("X") | {lab.vertex(f"x{k}")})
        assert all(g.has_edge(a, b) for a in clique for b in clique if a < b)
        # x_k adjacent to exactly X, W, U outside its class
        xk = lab.vertex(f"x{k}")
        assert set(g.neighbors(xk)) == set(lab.group("X") | lab.group("W") | lab.group("U"))
        # x/y/z triples of paired blocks induce K_{3,3}
        for i in range(1, (k - 1) // 2 + 1):
            lo = [lab.vertex(f"{s}{2 * i - 1}") for s in "xyz"]
            hi = [lab.vertex(f"{s}{2 * i}") for s in "xyz"]
            assert all(g.has_edge(a, b) for a in lo for b in hi)
        # {x_1..x_k} is a dominating set
        assert is_dominating_set(g, clique)


def test_d_even_counts_and_posts():
    g, lab = build_d_even(DEvenSpec(4, 12))
    assert g.n == 12 and g.edge_count() == 22
    g13, lab13 = build_d_even(DEvenSpec(4, 13))
    assert g13.n == 13 and g13.edge_count() == 25
    u1 = lab13.vertex("u1")
    assert set(g13.neighbors(u1)) == set(lab13.group("P2"))
    for k, n in [(4, 12), (4, 14), (6, 18)]:
        g, lab = build_d_even(DEvenSpec(k, n))
        assert n == 3 * k + (n - 3 * k)
        xs = sorted(lab.group("X"))
        assert all(g.has_edge(a, b) for a in xs for b in xs if a < b)
        for i in range(1, k // 2 + 1):
            lo = sorted(lab.group(f"P{2 * i - 1}"))
            hi = sorted(lab.group(f"P{2 * i}"))
            assert all(g.has_edge(a, b) for a in lo for b in hi)
        assert is_dominating_set(g, xs)


def test_d_even_spec_errors():
    with pytest.raises(GraphError, match="even"):
        DEvenSpec(3, 9)
    with pytest.raises(GraphError, match=">= 4"):
        DEvenSpec(2, 6)
    with pytest.raises(GraphError, match="3k = 12"):
        DEvenSpec(4, 11)


def test_family_outputs_are_pinned():
    # graph6, labeling JSON and DOT of 48 family members, in this order
    specs = [(build_d_odd, DOddSpec(k, n)) for k in (3, 5, 7, 9) for n in range(4 * k - 3, 4 * k + 3)]
    specs += [(build_d_even, DEvenSpec(k, n)) for k in (4, 6, 8, 10) for n in range(3 * k, 3 * k + 6)]
    digest = hashlib.sha256()
    for build, spec in specs:
        g, lab = build(spec)
        text = to_graph6(g) + json.dumps(lab.to_dict(), sort_keys=True) + to_dot(g, lab)
        digest.update(text.encode("utf-8"))
    assert len(specs) == 48
    assert digest.hexdigest() == "9d2ab4e312ad1490d0e939467f738814d90cf87ea7c34fce5de159e209925421"


def test_constructions_classify_as_dk():
    for k, n in [(3, 9), (3, 11), (5, 17)]:
        g, _ = build_d_odd(DOddSpec(k, n))
        assert compute_report(g).dk == k
    for k, n in [(4, 12), (4, 13)]:
        g, _ = build_d_even(DEvenSpec(k, n))
        assert compute_report(g).dk == k


# ---------------------------------------------------------------------------
# Three-class blueprints


def minimal_33_blueprint() -> D3Blueprint:
    return D3Blueprint(3, 3, frozenset(), frozenset(), {2: OPPOSITE, 5: OPPOSITE})


def test_minimal_33_blueprint_verdict_is_decided_by_validator():
    verdict = validate_blueprint(minimal_33_blueprint())
    # all-opposite (3,3): the validator decides; here rule 5 fails on (x1, y3)
    assert not verdict.ok
    assert all(name.startswith("rule5") for name, _ in verdict.violations)
    with pytest.raises(GraphError, match="rule5"):
        build_d3(minimal_33_blueprint())


def test_blueprint_size_errors():
    verdict = validate_blueprint(D3Blueprint(2, 3, frozenset(), frozenset(), {}))
    assert not verdict.ok and bool(verdict) is False
    assert any("a >= 3" in name for name, _ in verdict.violations)
    with pytest.raises(GraphError, match="a >= 3"):
        build_d3(D3Blueprint(2, 3, frozenset(), frozenset(), {}))


def test_rule3_set_outside_v1_less_x1_is_rejected():
    # x1 = 0 lies in V1 but is excluded; 4 is y3, in V2
    for rule3 in ({0}, {4}):
        bp = D3Blueprint(3, 3, frozenset(), frozenset(rule3), {2: OPPOSITE, 5: OPPOSITE})
        with pytest.raises(GraphError, match="rule3_set must be a subset"):
            validate_blueprint(bp)
        with pytest.raises(GraphError, match="rule3_set must be a subset"):
            build_d3(bp)


def test_all_v3_assignment_violates_rule4_tail():
    assign = {2: SINGLETON, 3: SINGLETON, 6: SINGLETON, 7: SINGLETON}
    verdict = validate_blueprint(D3Blueprint(4, 4, frozenset(), frozenset(), assign))
    assert not verdict.ok
    assert any("rule4-tail" in name for name, _ in verdict.violations)


def test_full_rule2_set_is_not_rejected_for_fullness():
    # rule 2 allows "some (or all)"; validity hinges on rules 4-5 only
    a, b = 4, 4
    full_rule2 = frozenset(range(a + 2, a + b))
    found = [
        bp
        for bp in enumerate_d3_blueprints(a, b)
        if bp.rule2_set == full_rule2
    ]
    assert found, "some valid blueprint uses the full rule-2 set"


def candidate_blueprints(a: int, b: int):
    """Every blueprint of sizes (a, b) over the normalized choice space."""
    v1_free = list(range(2, a))
    v2_free = list(range(a + 2, a + b))
    for r2_bits in range(1 << len(v2_free)):
        rule2 = frozenset(v for i, v in enumerate(v2_free) if r2_bits >> i & 1)
        for r3_bits in range(1 << len(v1_free)):
            rule3 = frozenset(v for i, v in enumerate(v1_free) if r3_bits >> i & 1)
            for combo in product((OPPOSITE, SINGLETON), repeat=len(v1_free) + len(v2_free)):
                yield D3Blueprint(a, b, rule2, rule3, dict(zip(v1_free + v2_free, combo)))


def pool_order(bp: D3Blueprint) -> tuple[int, int, int]:
    """The documented pool order: rule-2 bits, then rule-3 bits, then rule-4
    bits, where bit j stands for the j-th free vertex (for rule 4, joined to x3)."""
    free1, free2 = range(2, bp.a), range(bp.a + 2, bp.a + bp.b)
    joined_to_x3 = {v for v, target in bp.rule4_assign.items() if target == SINGLETON}
    choices = ((bp.rule2_set, free2), (bp.rule3_set, free1), (joined_to_x3, [*free1, *free2]))
    return tuple(sum(1 << j for j, v in enumerate(free) if v in chosen) for chosen, free in choices)


def test_enumerate_blueprints_counts_and_oracle():
    assert sum(1 for _ in enumerate_d3_blueprints(3, 3)) == 0
    pool = []
    for a in (3, 4, 5):
        for b in (3, 4, 5):
            mine = [repr(bp) for bp in enumerate_d3_blueprints(a, b)]
            # independent brute force over the full choice space, put in the
            # documented order
            oracle = sorted((bp for bp in candidate_blueprints(a, b) if validate_blueprint(bp).ok),
                            key=pool_order)
            assert mine == [repr(bp) for bp in oracle], (a, b)
            assert len(set(mine)) == len(mine)  # distinct
            pool += mine
    # the order that `construct d3 --index` and the benchmark's per-index
    # golden read, pinned by the reprs' sha256
    assert len(pool) == 3268
    digest = hashlib.sha256("".join(pool).encode()).hexdigest()
    assert digest == "45133e35dce37a467334e24354b6442ebae3d9ed8455c609941c170940d1c022"
    with pytest.raises(GraphError):
        next(enumerate_d3_blueprints(2, 3))


def test_validate_blueprint_verdicts_are_pinned_for_sizes_2_to_5():
    # every candidate with a, b in 2..5: the size, rule-4, tail and rule-5
    # violations with their witnesses, in order
    digest = hashlib.sha256()
    verdicts = [validate_blueprint(bp) for a in range(2, 6) for b in range(2, 6)
                for bp in candidate_blueprints(a, b)]
    for verdict in verdicts:
        digest.update(repr(verdict).encode())
    assert len(verdicts) == 7225 and sum(not v.ok for v in verdicts) == 3957
    assert digest.hexdigest() == "b26244254eb4f9f30d6d3317690dbd0dc9113475893a55e33d0dac800ee559ec"


def test_enumerate_blueprints_limit_and_determinism():
    first = list(islice(enumerate_d3_blueprints(3, 4), 3))
    again = list(islice(enumerate_d3_blueprints(3, 4), 3))
    assert first == again and len(first) == 3
    assert all(validate_blueprint(bp).ok for bp in first)
    assert all(bool(validate_blueprint(bp)) is True for bp in first)


def test_blueprint_equality_and_hash_follow_the_normalized_fields():
    assign = {2: OPPOSITE, 3: SINGLETON, 6: OPPOSITE, 7: OPPOSITE}
    base = D3Blueprint(4, 4, frozenset({6}), frozenset({2}), assign)
    for same in (
        D3Blueprint(4, 4, {6}, {2}, dict(reversed(assign.items()))),
        D3Blueprint(4, 4, [6], (2,), MappingProxyType(assign)),
    ):
        assert same == base and hash(same) == hash(base)
        assert type(same.rule2_set) is frozenset and type(same.rule4_assign) is dict
    copies = {D3Blueprint(4, 4, {6}, {2}, m) for m in (assign, MappingProxyType(assign))}
    assert copies == {base}
    for other in (
        D3Blueprint(5, 4, base.rule2_set, base.rule3_set, assign),
        D3Blueprint(4, 5, base.rule2_set, base.rule3_set, assign),
        D3Blueprint(4, 4, frozenset(), base.rule3_set, assign),
        D3Blueprint(4, 4, base.rule2_set, frozenset(), assign),
        D3Blueprint(4, 4, base.rule2_set, base.rule3_set, {**assign, 7: SINGLETON}),
    ):
        assert other != base
    assert base != (4, 4) and base.__eq__((4, 4)) is NotImplemented


def test_build_d3_outputs_classify_and_contain_5_cycle():
    for bp in islice(enumerate_d3_blueprints(3, 4), 4):
        g, lab = build_d3(bp)
        assert g.n == bp.a + bp.b + 1
        assert compute_report(g).dk == 3
        y2, y1, x1 = lab.vertex("y2"), lab.vertex("y1"), lab.vertex("x1")
        x3, y3 = lab.vertex("x3"), lab.vertex("y3")
        cycle = [(y2, y1), (y1, x1), (x1, x3), (x3, y3), (y3, y2)]
        assert all(g.has_edge(u, v) for u, v in cycle)


def test_blueprint_shape_validation():
    with pytest.raises(GraphError, match="rule2_set"):
        validate_blueprint(D3Blueprint(3, 3, frozenset({4}), frozenset(), {2: OPPOSITE, 5: OPPOSITE}))
    with pytest.raises(GraphError, match="rule4_assign"):
        validate_blueprint(D3Blueprint(3, 3, frozenset(), frozenset(), {2: OPPOSITE}))
    with pytest.raises(GraphError, match="rule4_assign"):
        validate_blueprint(D3Blueprint(3, 3, frozenset(), frozenset(), {2: "elsewhere", 5: OPPOSITE}))
