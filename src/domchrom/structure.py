"""Mechanical checkers for the structural facts about D(k) graphs.

Covers: the two-part optimal-coloring property (every class dominated,
every vertex dominates exactly one class), total dominating transversals,
domination chains between color classes, and membership in the rule-based
three-class family via exhaustive role-assignment search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from .constructions import OPPOSITE, SINGLETON, D3Blueprint, validate_blueprint
from .graphs import Graph, GraphError, is_connected, iter_bits, mask_of
from .invariants import (
    Coloring,
    InvariantReport,
    compute_report,
    enumerate_optimal_dominator_colorings,
    is_proper_coloring,
)


class DeadlineExceeded(RuntimeError):
    """Cooperative cancellation of a long-running membership search."""


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
    # least vertex of class i fully adjacent to class j, per ordered pair
    least_dominator: dict[tuple[int, int], int] = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for v in sorted(iter_bits(masks[i])):
                if masks[j] & ~g.adj[v] == 0:
                    least_dominator[(i, j)] = v
                    break
    for i in range(k):
        for j in range(k):
            if j == i or (i, j) not in least_dominator:
                continue
            for l in range(k):
                if l in (i, j):
                    continue
                if (j, l) in least_dominator and (l, i) in least_dominator:
                    return ChainWitness(
                        (i, j, l),
                        (
                            least_dominator[(i, j)],
                            least_dominator[(j, l)],
                            least_dominator[(l, i)],
                        ),
                    )
    return None


def check_theorem1(g: Graph) -> Theorem1Report:
    """Verify, over every optimal dominator coloring of a D(k) graph, that
    each class is dominated and each vertex dominates exactly one class.

    Class domination and the per-vertex tally both follow the own-singleton
    convention; the raw (cross, own-singleton) counts are recorded per
    coloring so the stricter reading can be audited.
    """
    report = compute_report(g)
    if report.dk is None:
        raise GraphError(
            "not a D(k) graph: "
            f"gamma={report.gamma}, chi={report.chi}, chi_d={report.chi_d}"
        )
    k = report.chi_d
    counterexamples: list[tuple[int, str, int]] = []
    all_counts: list[tuple[tuple[int, int], ...]] = []
    checked = 0
    for index, coloring in enumerate(enumerate_optimal_dominator_colorings(g, k)):
        checked += 1
        masks = coloring.masks()
        assignment = coloring.assignment(g.n)
        counts = []
        for v in range(g.n):
            cross = sum(
                1
                for c in range(k)
                if c != assignment[v] and masks[c] & ~g.adj[v] == 0
            )
            own = 1 if masks[assignment[v]] == 1 << v else 0
            counts.append((cross, own))
            if cross + own != 1:
                counterexamples.append((index, f"vertex-dominates-{cross + own}", v))
        for c in range(k):
            dominated = masks[c].bit_count() == 1 or any(
                masks[c] & ~g.adj[v] == 0 for v in range(g.n)
            )
            if not dominated:
                counterexamples.append((index, "class-not-dominated", c))
        all_counts.append(tuple(counts))
    class_failures = any(kind == "class-not-dominated" for _, kind, _ in counterexamples)
    vertex_failures = any(kind.startswith("vertex-") for _, kind, _ in counterexamples)
    return Theorem1Report(
        colorings_checked=checked,
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

    def dfs(i: int, picked: list[int], covered: int):
        if covered | suffix_cover[i] != full:
            return None
        if i == len(classes):
            return tuple(picked)
        for v in classes[i]:
            result = dfs(i + 1, picked + [v], covered | g.adj[v])
            if result is not None:
                return result
        return None

    return dfs(0, [], 0)


# ---------------------------------------------------------------------------
# Membership in the rule-based three-class family.


def _bipartitions(g: Graph, vertices_mask: int):
    """All splits of the induced subgraph into two independent sets, as
    (mask1, mask2) pairs; both orders are produced (the sides play
    different roles)."""
    verts = list(iter_bits(vertices_mask))
    color: dict[int, int] = {}
    comps: list[tuple[list[int], list[int]]] = []
    for start in verts:
        if start in color:
            continue
        color[start] = 0
        side = ([start], [])
        queue = [start]
        ok = True
        while queue:
            v = queue.pop()
            for u in iter_bits(g.adj[v] & vertices_mask):
                if u not in color:
                    color[u] = 1 - color[v]
                    side[color[u]].append(u)
                    queue.append(u)
                elif color[u] == color[v]:
                    ok = False
        if not ok:
            return  # an odd cycle: no independent bipartition at all
        comps.append(side)
    for flips in product((0, 1), repeat=len(comps)):
        m1 = 0
        m2 = 0
        for flip, (side0, side1) in zip(flips, comps):
            a, b = (side0, side1) if flip == 0 else (side1, side0)
            m1 |= mask_of(a)
            m2 |= mask_of(b)
        yield m1, m2


def is_in_class_d3(g: Graph, deadline_secs: float | None = None) -> D3Blueprint | None:
    """Search all role assignments for one under which G matches the
    three-class construction rules; returns the extracted blueprint or None.

    Candidate singleton-class vertices are tried in increasing degree order;
    raises DeadlineExceeded once the optional budget runs out, checked per split.
    """
    if g.n == 0 or not is_connected(g):
        raise GraphError("membership search requires a connected graph")
    if g.n < 7:
        return None
    deadline = None if deadline_secs is None else time.monotonic() + deadline_secs
    full = (1 << g.n) - 1
    for x3 in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        rest = full & ~(1 << x3)
        for v1_mask, v2_mask in _bipartitions(g, rest):
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlineExceeded("membership search exceeded its deadline")
            if v1_mask.bit_count() < 3 or v2_mask.bit_count() < 3:
                continue
            bp = _match_roles(g, x3, v1_mask, v2_mask)
            if bp is not None:
                return bp
    return None


def _match_roles(g: Graph, x3: int, v1_mask: int, v2_mask: int) -> D3Blueprint | None:
    adj = g.adj
    y1_candidates = [v for v in iter_bits(v2_mask) if v1_mask & ~adj[v] == 0]
    if not y1_candidates:
        return None
    y2_candidates = [v for v in iter_bits(v1_mask) if v2_mask & ~adj[v] == 0]
    if not y2_candidates:
        return None
    x1_candidates = [v for v in iter_bits(v1_mask & adj[x3])]
    y3_candidates = [v for v in iter_bits(v2_mask & adj[x3])]
    for x1 in x1_candidates:
        for y3 in y3_candidates:
            if adj[x1] >> y3 & 1:
                continue  # x1 must not meet y3
            for y1 in y1_candidates:
                if y1 == y3 or adj[x3] >> y1 & 1:
                    continue
                for y2 in y2_candidates:
                    if y2 == x1 or adj[x3] >> y2 & 1:
                        continue
                    bp = _check_rules(g, x3, v1_mask, v2_mask, x1, y1, y2, y3)
                    if bp is not None:
                        return bp
    return None


def _check_rules(
    g: Graph, x3: int, v1_mask: int, v2_mask: int, x1: int, y1: int, y2: int, y3: int
) -> D3Blueprint | None:
    adj = g.adj
    v1_free = [v for v in iter_bits(v1_mask) if v not in (x1, y2)]
    v2_free = [v for v in iter_bits(v2_mask) if v not in (y1, y3)]
    assign: dict[int, str] = {}
    for v in v1_free:
        dominates_v2 = v2_mask & ~adj[v] == 0
        meets_x3 = bool(adj[v] >> x3 & 1)
        if dominates_v2 == meets_x3:
            return None  # rule 4 requires exactly one
        assign[v] = OPPOSITE if dominates_v2 else SINGLETON
    for v in v2_free:
        dominates_v1 = v1_mask & ~adj[v] == 0
        meets_x3 = bool(adj[v] >> x3 & 1)
        if dominates_v1 == meets_x3:
            return None
        assign[v] = OPPOSITE if dominates_v1 else SINGLETON
    # rule 4 tail
    if (v1_mask & ~adj[x3]).bit_count() < 2 or (v2_mask & ~adj[x3]).bit_count() < 2:
        return None
    # every cross edge must be producible by some rule: an edge between two
    # "joined to x3" free vertices has no generating rule
    for v in v1_free:
        if assign[v] == SINGLETON:
            for u in iter_bits(adj[v] & v2_mask):
                if assign.get(u) == SINGLETON:
                    return None
    # x1's cross neighbors must avoid y3 (checked) -- any subset of the rest
    # is rule 2; y3's neighbors in V1 avoid x1 (checked) -- rule 3; nothing
    # else to constrain beyond rule 5:
    for v in iter_bits(v1_mask):
        v_non = v2_mask & ~adj[v]
        for u in iter_bits(v_non):
            x_other = v_non & ~(1 << u)
            y_other = v1_mask & ~adj[u] & ~(1 << v)
            if x_other == 0 and y_other == 0:
                return None  # rule 5 violated
    return _extract_blueprint(g, x3, v1_mask, v2_mask, x1, y1, y2, y3, assign)


def _extract_blueprint(
    g: Graph,
    x3: int,
    v1_mask: int,
    v2_mask: int,
    x1: int,
    y1: int,
    y2: int,
    y3: int,
    assign: dict[int, str],
) -> D3Blueprint:
    """Map the matched roles onto the canonical blueprint index space."""
    v1_rest = sorted(v for v in iter_bits(v1_mask) if v not in (x1, y2))
    v2_rest = sorted(v for v in iter_bits(v2_mask) if v not in (y1, y3))
    a = 2 + len(v1_rest)
    b = 2 + len(v2_rest)
    index_of = {x1: 0, y2: 1}
    for i, v in enumerate(v1_rest):
        index_of[v] = 2 + i
    index_of[y1] = a
    index_of[y3] = a + 1
    for i, v in enumerate(v2_rest):
        index_of[v] = a + 2 + i
    index_of[x3] = a + b
    rule2 = frozenset(
        index_of[u] for u in iter_bits(g.adj[x1] & v2_mask) if u not in (y1, y3)
    )
    rule3 = frozenset(
        index_of[u] for u in iter_bits(g.adj[y3] & v1_mask) if u not in (x1, y2)
    )
    rule4 = {index_of[v]: target for v, target in assign.items()}
    bp = D3Blueprint(a, b, rule2, rule3, rule4)
    verdict = validate_blueprint(bp)
    if not verdict.ok:
        raise AssertionError(f"extracted blueprint failed validation: {verdict.violations}")
    return bp
