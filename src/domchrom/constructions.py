"""Builders for the named graph families, with role labelings preserved.

Families: the odd-parity family (order 4k-3+t), the even-parity family
(order 3k+t), complete bipartite graphs (in graphs.py), and the rule-based
class of candidate D(3) graphs described by a blueprint of free choices.

Vertex order is class by class in name order, so the emitted graph6 strings
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import Graph, GraphError, VertexLabeling, from_edge_list, iter_bits
from .invariants import _dominators

OPPOSITE = "opposite"
SINGLETON = "v3"


@dataclass(frozen=True)
class DOddSpec:
    """Parameters of the odd-parity family: odd k >= 3, order n >= 4k-3."""

    k: int
    n: int

    def __post_init__(self):
        if self.k % 2 == 0:
            raise GraphError(f"k must be odd, got {self.k}")
        if self.k < 3:
            raise GraphError(f"k must be >= 3, got {self.k}")
        if self.n < 4 * self.k - 3:
            raise GraphError(f"n must be >= 4k-3 = {4 * self.k - 3}, got {self.n}")

    @property
    def t(self) -> int:
        return self.n - (4 * self.k - 3)


@dataclass(frozen=True)
class DEvenSpec:
    """Parameters of the even-parity family: even k >= 4, order n >= 3k."""

    k: int
    n: int

    def __post_init__(self):
        if self.k % 2 == 1:
            raise GraphError(f"k must be even, got {self.k}")
        if self.k < 4:
            raise GraphError(f"k must be >= 4, got {self.k}")
        if self.n < 3 * self.k:
            raise GraphError(f"n must be >= 3k = {3 * self.k}, got {self.n}")

    @property
    def t(self) -> int:
        return self.n - 3 * self.k


def _number_classes(
    spec: DOddSpec | DEvenSpec, letters: str, last_letters: str
) -> tuple[dict[str, int], list[list[int]]]:
    """Number the roles of P_1..P_k class by class: P_i holds one vertex per
    letter in letter order (P_k per letter of last_letters), and P_1 holds
    the tail u_1..u_t right after its own letters. Returns role -> vertex and
    the member lists of P_1..P_k."""
    roles: dict[str, int] = {}
    classes = []
    for i in range(1, spec.k + 1):
        names = [f"{c}{i}" for c in (letters if i < spec.k else last_letters)]
        if i == 1:
            names += [f"u{j}" for j in range(1, spec.t + 1)]
        classes.append(list(range(len(roles), len(roles) + len(names))))
        roles.update(zip(names, classes[-1]))
    assert len(roles) == spec.n
    return roles, classes


def build_d_odd(spec: DOddSpec) -> tuple[Graph, VertexLabeling]:
    """Odd-parity family member on classes P_1..P_k.

    P_i = {x_i, y_i, z_i, w_i} for i < k (P_1 additionally holds the tail
    vertices u_1..u_t), P_k = {x_k}. Blocks P_{2i-1}, P_{2i} are joined
    K_{3,3}-style on their x/y/z triples with w-vertices attached to the
    opposite y/z pair; x_1..x_k form a clique; x_k picks up all w and u
    vertices; each u is also joined to y_2 and z_2.
    """
    k, n, t = spec.k, spec.n, spec.t
    roles, classes = _number_classes(spec, "xyzw", "x")
    x = {i: roles[f"x{i}"] for i in range(1, k + 1)}
    y = {i: roles[f"y{i}"] for i in range(1, k)}
    z = {i: roles[f"z{i}"] for i in range(1, k)}
    w = {i: roles[f"w{i}"] for i in range(1, k)}
    u = [roles[f"u{j}"] for j in range(1, t + 1)]

    edges = []
    for i in range(1, (k - 1) // 2 + 1):
        lo, hi = 2 * i - 1, 2 * i
        edges += product((x[hi], y[hi], z[hi]), (x[lo], y[lo], z[lo]))
        edges += [(w[lo], y[hi]), (w[lo], z[hi]), (w[hi], y[lo]), (w[hi], z[lo])]
    edges += combinations([x[i] for i in range(1, k + 1)], 2)
    edges += [(x[k], v) for v in [*w.values(), *u]]
    edges += product(u, (y[2], z[2]))

    g = from_edge_list(n, edges)
    groups = {
        "X": [x[i] for i in range(1, k)],
        "Y": list(y.values()),
        "Z": list(z.values()),
        "W": list(w.values()),
        "U": u,
        **{f"P{i}": members for i, members in enumerate(classes, 1)},
    }
    labeling = VertexLabeling({**roles, **groups}, n=n)
    labeling.assert_disjoint(f"P{i}" for i in range(1, k + 1))
    return g, labeling


def build_d_even(spec: DEvenSpec) -> tuple[Graph, VertexLabeling]:
    """Even-parity family member: P_i = {x_i, y_i, z_i} (P_1 holds the tail),
    blocks P_{2i-1} x P_{2i} joined completely, x_1..x_k a clique."""
    k, n, t = spec.k, spec.n, spec.t
    roles, classes = _number_classes(spec, "xyz", "xyz")

    edges = []
    for lo, hi in zip(classes[::2], classes[1::2]):
        edges += product(hi, lo)
    xs = [roles[f"x{i}"] for i in range(1, k + 1)]
    edges += combinations(xs, 2)

    g = from_edge_list(n, edges)
    groups = {
        "X": xs,
        "Y": [roles[f"y{i}"] for i in range(1, k + 1)],
        "Z": [roles[f"z{i}"] for i in range(1, k + 1)],
        "U": [roles[f"u{j}"] for j in range(1, t + 1)],
        **{f"P{i}": members for i, members in enumerate(classes, 1)},
    }
    labeling = VertexLabeling({**roles, **groups}, n=n)
    labeling.assert_disjoint(f"P{i}" for i in range(1, k + 1))
    return g, labeling


# ---------------------------------------------------------------------------
# The rule-based class of candidate D(3) graphs.


@dataclass(frozen=True)
class D3Blueprint:
    """Free choices of the three-class construction.

    Canonical vertex indices: V1 = {x1=0, y2=1, 2..a-1}, V2 = {y1=a,
    y3=a+1, a+2..a+b-1}, V3 = {x3=a+b}. rule2_set are the extra neighbors
    of x1 in V2 (y3 excluded; listing y1 is a harmless no-op since rule 1
    already joins it); rule3_set are the extra neighbors of y3 in V1 (x1
    excluded; y2 likewise a no-op). rule4_assign maps every remaining
    vertex to "opposite" (joined to all of the opposite class) or "v3"
    (joined to x3).
    """

    a: int
    b: int
    rule2_set: frozenset[int] = frozenset()
    rule3_set: frozenset[int] = frozenset()
    rule4_assign: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rule2_set", frozenset(self.rule2_set))
        object.__setattr__(self, "rule3_set", frozenset(self.rule3_set))
        object.__setattr__(self, "rule4_assign", dict(self.rule4_assign))

    def __hash__(self):
        return hash(
            (self.a, self.b, self.rule2_set, self.rule3_set,
             tuple(sorted(self.rule4_assign.items())))
        )

    # Named indices in the canonical layout.
    @property
    def x1(self) -> int:
        return 0

    @property
    def y2(self) -> int:
        return 1

    @property
    def y1(self) -> int:
        return self.a

    @property
    def y3(self) -> int:
        return self.a + 1

    @property
    def x3(self) -> int:
        return self.a + self.b

    def v1_vertices(self) -> range:
        return range(0, self.a)

    def v2_vertices(self) -> range:
        return range(self.a, self.a + self.b)

    def v1_free(self) -> range:
        return range(2, self.a)

    def v2_free(self) -> range:
        return range(self.a + 2, self.a + self.b)


@dataclass(frozen=True)
class BlueprintVerdict:
    ok: bool
    violations: tuple[tuple[str, tuple | None], ...]

    def __bool__(self):
        return self.ok


def _fixed_joins(
    shape: D3Blueprint, at: Sequence[int], rule2: Iterable[int], rule3: Iterable[int]
) -> list[tuple[int, int]]:
    """The joins (i, mask) of rules 1-3 for the sizes of shape and the given
    rule-2 and rule-3 sets: the vertex at canonical index i is joined to
    each vertex of mask, with index j at vertex at[j]."""
    bit = [1 << v for v in at]
    x3_bit = bit[shape.x3]
    return [
        # rule 1: y1 joined to all of V1, y2 joined to all of V2
        (shape.y1, sum(bit[i] for i in shape.v1_vertices())),
        (shape.y2, sum(bit[i] for i in shape.v2_vertices())),
        # rule 2: x1-x3 plus chosen extras in V2 - {y3}
        (shape.x1, x3_bit | sum(bit[i] for i in rule2)),
        # rule 3: y3-x3 plus chosen extras in V1 - {x1}
        (shape.y3, x3_bit | sum(bit[i] for i in rule3)),
    ]


def _free_joins(shape: D3Blueprint, at: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Rule 4 for the sizes of shape: each remaining (free) index i, in
    index order, mapped to its two join masks, to the opposite class and
    to x3, laid out as in _fixed_joins."""
    bit = [1 << v for v in at]
    v1_mask = sum(bit[i] for i in shape.v1_vertices())
    v2_mask = sum(bit[i] for i in shape.v2_vertices())
    free = {i: (v2_mask, bit[shape.x3]) for i in shape.v1_free()}
    free.update((i, (v1_mask, bit[shape.x3])) for i in shape.v2_free())
    return free


def _joined(
    rows: Sequence[int], at: Sequence[int], joins: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """rows with the vertex at[i] of each join (i, mask) joined to mask."""
    rows = list(rows)
    for i, mask in joins:
        v = at[i]
        rows[v] |= mask
        for u in iter_bits(mask):
            rows[u] |= 1 << v
    return tuple(rows)


def _blueprint_graph(bp: D3Blueprint, labels: Sequence[int] | None = None) -> Graph:
    """The graph the blueprint's edge rules give, with canonical index i at
    vertex labels[i] (by default at vertex i)."""
    n = bp.a + bp.b + 1
    at = range(n) if labels is None else labels
    fixed = _fixed_joins(bp, at, bp.rule2_set, bp.rule3_set)
    chosen = [(i, choices[bp.rule4_assign[i] != OPPOSITE])
              for i, choices in _free_joins(bp, at).items()]
    return Graph(n, _joined([0] * n, at, fixed + chosen), _checked=True)


def _check_shape(bp: D3Blueprint) -> None:
    """Reject structurally malformed blueprints (bad indices), not rule breaks."""
    if not bp.rule2_set <= set(bp.v2_vertices()) - {bp.y3}:
        raise GraphError("rule2_set must be a subset of V2 - {y3}")
    if not bp.rule3_set <= set(bp.v1_vertices()) - {bp.x1}:
        raise GraphError("rule3_set must be a subset of V1 - {x1}")
    if set(bp.rule4_assign) != {*bp.v1_free(), *bp.v2_free()}:
        raise GraphError("rule4_assign must cover exactly (V1 - {x1, y2}) and (V2 - {y1, y3})")
    for v, target in bp.rule4_assign.items():
        if target not in (OPPOSITE, SINGLETON):
            raise GraphError(f"rule4_assign[{v}] must be {OPPOSITE!r} or {SINGLETON!r}")


def _class_masks(shape: D3Blueprint) -> tuple[int, int, int, int]:
    """The canonical masks of V1 and V2, and of their rule-4 (free)
    vertices: V1 less x1 and y2, V2 less y1 and y3."""
    return tuple(sum(1 << v for v in vertices) for vertices in (
        shape.v1_vertices(), shape.v2_vertices(), shape.v1_free(), shape.v2_free()))


def _rule_violations(
    adj: Sequence[int], v1_mask: int, v2_mask: int, x3: int, free1: int, free2: int
) -> Iterator[tuple[str, tuple | None]]:
    """The class rules the graph with rows adj breaks, read off the dominator
    masks of V1 and V2 and yielded one by one, so a caller that needs only a
    verdict stops at the first; free1 and free2 mask the rule-4 vertices of
    V1 and V2. Rule 4 joins each to the opposite class or to x3, so only
    dominating both can fail."""
    dominators = _dominators(adj, (v1_mask, v2_mask))
    # rule 4, exclusivity: no free vertex dominates the opposite class and x3
    for free, opposite, name in ((free1, dominators[1], "V2"), (free2, dominators[0], "V1")):
        for v in iter_bits(free & opposite & adj[x3]):
            yield (f"rule4: dominates both {name} and V3", (v,))
    # rule 4, tail: x3 keeps at least two non-neighbors in each of V1, V2
    for mask, name in ((v1_mask, "V1"), (v2_mask, "V2")):
        if (mask & ~adj[x3]).bit_count() < 2:
            yield (f"rule4-tail: x3 needs >= 2 non-neighbors in {name}", None)
    # rule 5: no cross pair that is each other's only non-neighbor
    for v in iter_bits(v1_mask):
        non_nbrs = v2_mask & ~adj[v]
        u = non_nbrs.bit_length() - 1
        if non_nbrs.bit_count() == 1 and v1_mask & ~adj[u] == 1 << v:
            yield ("rule5: mutually unique non-neighbors", (v, u))


def _graph_and_violations(
    bp: D3Blueprint,
) -> tuple[Graph | None, tuple[tuple[str, tuple | None], ...]]:
    """The blueprint's graph (None when a class is too small) and every
    class rule it breaks, in the reader's order."""
    violations = tuple((f"size: {name} >= 3 required", (size,))
                       for name, size in (("a", bp.a), ("b", bp.b)) if size < 3)
    if violations:
        return None, violations
    _check_shape(bp)
    g = _blueprint_graph(bp)
    v1_mask, v2_mask, free1, free2 = _class_masks(bp)
    return g, tuple(_rule_violations(g.adj, v1_mask, v2_mask, bp.x3, free1, free2))


def validate_blueprint(bp: D3Blueprint) -> BlueprintVerdict:
    """Check the built graph against the class rules; list violations."""
    _, violations = _graph_and_violations(bp)
    return BlueprintVerdict(not violations, violations)


def build_d3(bp: D3Blueprint) -> tuple[Graph, VertexLabeling]:
    """Build the blueprint's graph; raises when any class rule is violated."""
    g, violations = _graph_and_violations(bp)
    if violations:
        details = "; ".join(
            name + (f" witness {w}" if w else "") for name, w in violations
        )
        raise GraphError(f"blueprint violates the class rules: {details}")
    n = g.n
    labeling = VertexLabeling(
        {
            "x1": bp.x1,
            "y2": bp.y2,
            "y1": bp.y1,
            "y3": bp.y3,
            "x3": bp.x3,
            "V1": bp.v1_vertices(),
            "V2": bp.v2_vertices(),
            "V3": [bp.x3],
        },
        n=n,
    )
    labeling.assert_disjoint(("V1", "V2", "V3"))
    return g, labeling


def _subsets(vertices: Sequence[int]) -> Iterator[frozenset[int]]:
    """Every subset of vertices, where bit j of the position counts
    vertices[j] in."""
    for bits in range(1 << len(vertices)):
        yield frozenset(v for j, v in enumerate(vertices) if bits >> j & 1)


def enumerate_d3_blueprints(a: int, b: int) -> Iterator[D3Blueprint]:
    """Valid blueprints for class sizes (a, b) in a fixed deterministic order.

    The choice space is normalized: rule2/rule3 subsets range over the free
    vertices only (adding y1 or y2 never changes the built graph). The order
    is rule-2 bits outermost, then rule-3 bits, then the rule-4 bits, where
    bit j of each counts the j-th free vertex as chosen (for rule 4, joined
    to x3). The walk shares rows: the rule-4 joins of every choice are
    OR-ed into leaf rows once per (a, b), in rule-4 bit order, and each
    leaf is OR-ed into one base row set per (rule2, rule3). Each
    candidate's rows go to `_rule_violations`, the one reader of the class
    rules, which stops at the first break; only a valid candidate becomes a
    `D3Blueprint`.
    """
    if a < 3 or b < 3:
        raise GraphError(f"class sizes must be >= 3, got ({a}, {b})")
    shape = D3Blueprint(a, b)
    at = range(a + b + 1)
    v1_mask, v2_mask, free1, free2 = _class_masks(shape)
    zero = (0,) * len(at)
    free = _free_joins(shape, at)
    # product runs the highest free vertex outermost, so leaf number
    # assign_bits joins the i-th free vertex to x3 when its bit i is set
    steps = [[_joined(zero, at, [(i, mask)]) for mask in free[i]] for i in reversed(free)]
    leaves = [tuple(reduce(or_, rows) for rows in zip(*combo)) for combo in product(*steps)]
    for rule2 in _subsets(shape.v2_free()):
        for rule3 in _subsets(shape.v1_free()):
            base = _joined(zero, at, _fixed_joins(shape, at, rule2, rule3))
            for assign_bits, leaf in enumerate(leaves):
                rows = tuple(map(or_, base, leaf))
                violations = _rule_violations(rows, v1_mask, v2_mask, shape.x3, free1, free2)
                if next(violations, None) is None:
                    assign = {v: SINGLETON if assign_bits >> i & 1 else OPPOSITE
                              for i, v in enumerate(free)}
                    yield D3Blueprint(a, b, rule2, rule3, assign)
