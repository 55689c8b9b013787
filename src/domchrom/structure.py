"""Mechanical checkers for the structural facts about D(k) graphs.

Covers: the two-part optimal-coloring property (every class dominated,
every vertex dominates exactly one class), total dominating transversals,
domination chains between color classes, and membership in the rule-based
three-class family. Membership tries as x3 only the vertices on every odd
cycle it finds, since G - x3 must be bipartite. It fixes y1 and y2 once per
split of G - x3 and tries each (x1, y3) pair; it accepts the blueprint read
off the roles when its edge rules rebuild G and G passes `_rule_violations`,
the class-rule reader that `validate_blueprint` and `enumerate_d3_blueprints`
also call, in constructions.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .constructions import (
    OPPOSITE,
    SINGLETON,
    D3Blueprint,
    _blueprint_graph,
    _rule_violations,
)
from .graphs import Graph, GraphError, _bfs_layers, bipartition, is_connected, iter_bits
from .invariants import (
    Coloring,
    InvariantReport,
    _dominators,
    compute_report,
    enumerate_optimal_dominator_colorings,
    is_proper_coloring,
)


@dataclass(frozen=True)
class ChainWitness:
    """Classes (i, j, l) with vertices (x_i, x_j, x_l): x_i dominates V_j,
    x_j dominates V_l, x_l dominates V_i."""

    classes: tuple[int, int, int]
    vertices: tuple[int, int, int]


@dataclass(frozen=True)
class Theorem1Report:
    colorings_checked: int
    all_classes_dominated: bool
    every_vertex_dominates_exactly_one: bool
    counterexamples: tuple[tuple[int, str, int], ...]
    # per checked coloring, per vertex: (cross-class dominations, own-singleton)
    domination_counts: tuple[tuple[tuple[int, int], ...], ...]
    report: InvariantReport


def find_chain(g: Graph, coloring: Coloring) -> ChainWitness | None:
    """Lexicographically first chain triple over the coloring, or None."""
    if not is_proper_coloring(g, coloring):
        raise GraphError("chain search requires a proper coloring of G")
    k = coloring.k
    if k < 3:
        raise GraphError(f"chain requires at least 3 classes, got k={k}")
    masks = coloring.masks()
    dominators = _dominators(g.adj, masks)
    for i, j, l in permutations(range(k), 3):
        # the members of V_i that dominate V_j, of V_j that dominate V_l,
        # and of V_l that dominate V_i; each link's least member is its x
        links = (masks[i] & dominators[j], masks[j] & dominators[l], masks[l] & dominators[i])
        if all(links):
            return ChainWitness((i, j, l), tuple((m & -m).bit_length() - 1 for m in links))
    return None


def _theorem1_tally(
    g: Graph, index: int, coloring: Coloring
) -> tuple[tuple[tuple[int, int], ...], list[tuple[int, str, int]]]:
    """Per vertex, its (cross-class dominations, own-singleton) counts, and the
    coloring's Theorem-1 counterexamples: vertices in order, then classes."""
    masks = coloring.masks()
    dominators = _dominators(g.adj, masks)
    counts = []
    failures = []
    for v in range(g.n):
        own = 1 if 1 << v in masks else 0
        total = sum(d >> v & 1 for d in dominators)
        counts.append((total - own, own))
        if total != 1:
            failures.append((index, f"vertex-dominates-{total}", v))
    failures += [(index, "class-not-dominated", c) for c, d in enumerate(dominators) if not d]
    return tuple(counts), failures


def check_theorem1(g: Graph) -> Theorem1Report:
    """Verify, over every optimal dominator coloring of a D(k) graph, that
    each class is dominated and each vertex dominates exactly one class.

    Class domination and the per-vertex tally both follow the own-singleton
    convention; the raw (cross, own-singleton) counts are recorded per
    coloring so the stricter reading can be audited. The report comes from
    `compute_report(g)`, which reuses the last report computed when it is of
    a graph equal to G, and the colorings restart from the report's chi_d
    witness instead of searching for chi and chi_d again.
    """
    report = compute_report(g)
    if report.dk is None:
        raise GraphError(
            "not a D(k) graph: "
            f"gamma={report.gamma}, chi={report.chi}, chi_d={report.chi_d}"
        )
    counterexamples: list[tuple[int, str, int]] = []
    all_counts: list[tuple[tuple[int, int], ...]] = []
    colorings = enumerate_optimal_dominator_colorings(g, report.chi_d)
    for index, coloring in enumerate(colorings):
        counts, failures = _theorem1_tally(g, index, coloring)
        all_counts.append(counts)
        counterexamples += failures
    class_failures = any(kind == "class-not-dominated" for _, kind, _ in counterexamples)
    vertex_failures = any(kind.startswith("vertex-") for _, kind, _ in counterexamples)
    return Theorem1Report(
        colorings_checked=len(all_counts),
        all_classes_dominated=not class_failures,
        every_vertex_dominates_exactly_one=not vertex_failures,
        counterexamples=tuple(counterexamples),
        domination_counts=tuple(all_counts),
        report=report,
    )


def find_total_dominating_transversal(
    g: Graph, coloring: Coloring
) -> tuple[int, ...] | None:
    """One vertex per class forming a total dominating set, or None.

    Returns the lexicographically first transversal (classes in canonical
    order, least choices first).
    """
    if not is_proper_coloring(g, coloring):
        raise GraphError("transversal search requires a proper coloring of G")
    classes = [sorted(c) for c in coloring.classes]
    class_cover = [0] * len(classes)
    for i, cls in enumerate(classes):
        for v in cls:
            class_cover[i] |= g.adj[v]
    full = (1 << g.n) - 1
    suffix_cover = [0] * (len(classes) + 1)
    for i in range(len(classes) - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | class_cover[i]

    # depth-first over the classes in order, on one stack; members are
    # pushed in reverse, so the least is popped first
    stack = [(0, 0, ())]  # (class index, covered, picked)
    while stack:
        i, covered, picked = stack.pop()
        if covered | suffix_cover[i] != full:
            continue
        if i == len(classes):
            return picked
        stack.extend((i + 1, covered | g.adj[v], picked + (v,)) for v in reversed(classes[i]))
    return None


# ---------------------------------------------------------------------------
# Membership in the rule-based three-class family.


def is_in_class_d3(g: Graph) -> D3Blueprint | None:
    """Search all role assignments for one under which G matches the
    three-class construction rules; returns the extracted blueprint or None.

    Candidate singleton-class vertices x3 are the vertices on every odd
    cycle `_odd_cycle_meet` finds, since G - x3 must be bipartite; they are
    tried in increasing degree order. A bipartite G has none, and no member
    is bipartite: x3, x1 in V1, y3 in V2 and the odd path from x1 to y3 in
    G - x3 would close an odd cycle. Only a connected G - x3 can match (y1
    and y2 join V1 and V2), so its unique bipartition is tried in both
    orders."""
    if g.n == 0 or not is_connected(g):
        raise GraphError("membership search requires a connected graph")
    if g.n < 7:
        return None
    full = (1 << g.n) - 1
    for x3 in sorted(iter_bits(_odd_cycle_meet(g)), key=lambda v: (g.degree(v), v)):
        sides = bipartition(g, full & ~(1 << x3))
        if sides is None:
            continue
        for v1_mask, v2_mask in (sides, sides[::-1]):
            if v1_mask.bit_count() < 3 or v2_mask.bit_count() < 3:
                continue
            bp = _match_roles(g, x3, v1_mask, v2_mask)
            if bp is not None:
                return bp
    return None


def _odd_cycle_meet(g: Graph) -> int:
    """A mask holding every vertex x of the connected G with G - x bipartite:
    the vertices common to all triangles, else those of one odd cycle; 0 when
    G is bipartite. Each such x lies on every odd cycle."""
    adj = g.adj
    meet = -1  # every vertex, until the first triangle
    for u in range(g.n):
        for v in iter_bits(adj[u] & -(2 << u)):
            for w in iter_bits(adj[u] & adj[v] & -(2 << v)):  # triangles u < v < w
                meet &= 1 << u | 1 << v | 1 << w
                if not meet:
                    return 0
    if meet != -1:
        return meet
    # no triangle: an edge inside a BFS layer closes an odd cycle through the
    # two endpoints' paths up to where they meet
    layers = _bfs_layers(g, (1 << g.n) - 1)
    for depth, layer in enumerate(layers):
        for a in iter_bits(layer):
            inside = adj[a] & layer
            if inside:
                b = (inside & -inside).bit_length() - 1
                cycle = 1 << a | 1 << b
                while a != b:
                    depth -= 1
                    ups = adj[a] & layers[depth], adj[b] & layers[depth]
                    a, b = ((m & -m).bit_length() - 1 for m in ups)
                    cycle |= 1 << a | 1 << b
                return cycle
    return 0


def _match_roles(g: Graph, x3: int, v1_mask: int, v2_mask: int) -> D3Blueprint | None:
    """The first blueprint read off roles on this split: x1 in V1 and y3 in V2
    meet x3 but not each other; y1 (y2) is the least vertex of V2 (V1) that
    dominates the other side and misses x3. Any other y1 candidate is a free,
    rule-4 OPPOSITE vertex of V2, so its neighbourhood is exactly V1, as is
    y1's; swapping the two is an automorphism keeping every other role, so a
    read succeeds with one exactly when it does with the other. The same
    holds for y2: trying every candidate finds nothing the least ones miss."""
    adj = g.adj
    dominators = _dominators(adj, (v1_mask, v2_mask))
    y1s = v2_mask & dominators[0] & ~adj[x3]
    y2s = v1_mask & dominators[1] & ~adj[x3]
    if not y1s or not y2s:
        return None
    y1 = (y1s & -y1s).bit_length() - 1
    y2 = (y2s & -y2s).bit_length() - 1
    for x1 in iter_bits(v1_mask & adj[x3]):
        for y3 in iter_bits(v2_mask & adj[x3] & ~adj[x1]):
            bp = _read_blueprint(g, x3, v1_mask, v2_mask, dominators, x1, y1, y2, y3)
            if bp is not None:
                return bp
    return None


def _read_blueprint(
    g: Graph, x3: int, v1_mask: int, v2_mask: int, dominators: list[int],
    x1: int, y1: int, y2: int, y3: int,
) -> D3Blueprint | None:
    """The blueprint the roles spell out, or None unless its edge rules
    rebuild G under the role relabelling and G keeps the class rules.
    dominators holds the dominator masks of V1 and V2."""
    adj = g.adj
    free1 = v1_mask & ~(1 << x1 | 1 << y2)
    free2 = v2_mask & ~(1 << y1 | 1 << y3)
    a, b = 2 + free1.bit_count(), 2 + free2.bit_count()
    shape = D3Blueprint(a, b)
    # order[i] is the vertex of G at canonical blueprint index i
    order = [x1, y2, *iter_bits(free1), y1, y3, *iter_bits(free2), x3]
    # rule 4 read off: a free vertex that dominates the opposite class
    # (dominators[1] for V1, dominators[0] for V2) is OPPOSITE, any other is
    # joined to x3; the rebuild rejects a misreading
    rule4 = {
        i: OPPOSITE if dominators[i < a] >> order[i] & 1 else SINGLETON
        for i in (*shape.v1_free(), *shape.v2_free())
    }
    rule2 = frozenset(i for i in shape.v2_free() if adj[x1] >> order[i] & 1)
    rule3 = frozenset(i for i in shape.v1_free() if adj[y3] >> order[i] & 1)
    bp = D3Blueprint(a, b, rule2, rule3, rule4)
    if (_blueprint_graph(bp, order) != g
            or next(_rule_violations(adj, v1_mask, v2_mask, x3, free1, free2), None) is not None):
        return None
    return bp
