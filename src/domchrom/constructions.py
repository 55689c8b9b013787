"""Builders for the named graph families, with role labelings preserved.

Families: the odd-parity family (order 4k-3+t), the even-parity family
(order 3k+t), complete bipartite graphs (in graphs.py), and the rule-based
class of candidate D(3) graphs described by a blueprint of free choices.

Vertex order is class by class in name order, so the emitted graph6 strings
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

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


def _blueprint_graph(bp: D3Blueprint, labels: Sequence[int] | None = None) -> Graph:
    """The graph the blueprint's edge rules give, with canonical index i at
    vertex labels[i] (by default at vertex i)."""
    n = bp.a + bp.b + 1
    at = range(n) if labels is None else labels
    bit = [1 << v for v in at]
    rows = [0] * n
    v1_mask = sum(bit[: bp.a])
    v2_mask = sum(bit[bp.a : bp.x3])
    x3_bit = bit[bp.x3]

    def join(i: int, mask: int) -> None:
        rows[at[i]] |= mask
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] |= bit[i]
            mask ^= low

    # rule 1: y1 joined to all of V1, y2 joined to all of V2
    join(bp.y1, v1_mask)
    join(bp.y2, v2_mask)
    # rule 2: x1-x3 plus chosen extras in V2 - {y3}
    join(bp.x1, x3_bit | sum(bit[i] for i in bp.rule2_set))
    # rule 3: y3-x3 plus chosen extras in V1 - {x1}
    join(bp.y3, x3_bit | sum(bit[i] for i in bp.rule3_set))
    # rule 4: every remaining vertex joined to the opposite class or to x3
    for free, opposite in ((bp.v1_free(), v2_mask), (bp.v2_free(), v1_mask)):
        for i in free:
            join(i, opposite if bp.rule4_assign[i] == OPPOSITE else x3_bit)
    return Graph(n, rows, _checked=True)


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


def _rule_violations(
    g: Graph, v1_mask: int, v2_mask: int, x3: int, free1: int, free2: int
) -> list[tuple[str, tuple | None]]:
    """The class rules G breaks, read off the dominator masks of V1 and V2;
    free1 and free2 mask the rule-4 vertices of V1 and V2. Rule 4 joins each
    to the opposite class or to x3, so only dominating both can fail."""
    adj = g.adj
    dominators = _dominators(adj, (v1_mask, v2_mask))
    violations: list[tuple[str, tuple | None]] = []
    # rule 4, exclusivity: no free vertex dominates the opposite class and x3
    for free, opposite, name in ((free1, dominators[1], "V2"), (free2, dominators[0], "V1")):
        for v in iter_bits(free & opposite & adj[x3]):
            violations.append((f"rule4: dominates both {name} and V3", (v,)))
    # rule 4, tail: x3 keeps at least two non-neighbors in each of V1, V2
    for mask, name in ((v1_mask, "V1"), (v2_mask, "V2")):
        if (mask & ~adj[x3]).bit_count() < 2:
            violations.append((f"rule4-tail: x3 needs >= 2 non-neighbors in {name}", None))
    # rule 5: no cross pair that is each other's only non-neighbor
    for v in iter_bits(v1_mask):
        non_nbrs = v2_mask & ~adj[v]
        u = non_nbrs.bit_length() - 1
        if non_nbrs.bit_count() == 1 and v1_mask & ~adj[u] == 1 << v:
            violations.append(("rule5: mutually unique non-neighbors", (v, u)))
    return violations


def validate_blueprint(bp: D3Blueprint) -> BlueprintVerdict:
    """Check the built graph against the class rules; list violations."""
    violations = [(f"size: {name} >= 3 required", (size,))
                  for name, size in (("a", bp.a), ("b", bp.b)) if size < 3]
    if violations:
        return BlueprintVerdict(False, tuple(violations))
    _check_shape(bp)
    v1_mask = (1 << bp.a) - 1
    v2_mask = (1 << bp.x3) - 1 & ~v1_mask
    # the free vertices: V1 less x1 and y2, V2 less y1 and y3
    free1, free2 = v1_mask & ~0b11, v2_mask & ~(0b11 << bp.a)
    violations = _rule_violations(_blueprint_graph(bp), v1_mask, v2_mask, bp.x3, free1, free2)
    return BlueprintVerdict(not violations, tuple(violations))


def build_d3(bp: D3Blueprint) -> tuple[Graph, VertexLabeling]:
    """Build the blueprint's graph; raises when any class rule is violated."""
    verdict = validate_blueprint(bp)
    if not verdict.ok:
        details = "; ".join(
            name + (f" witness {w}" if w else "") for name, w in verdict.violations
        )
        raise GraphError(f"blueprint violates the class rules: {details}")
    g = _blueprint_graph(bp)
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


def enumerate_d3_blueprints(a: int, b: int) -> Iterator[D3Blueprint]:
    """Valid blueprints for class sizes (a, b) in a fixed deterministic order.

    The choice space is normalized: rule2/rule3 subsets range over the free
    vertices only (adding y1 or y2 never changes the built graph).
    """
    if a < 3 or b < 3:
        raise GraphError(f"class sizes must be >= 3, got ({a}, {b})")
    v1_free = list(range(2, a))
    v2_free = list(range(a + 2, a + b))
    n_free = len(v1_free) + len(v2_free)
    for r2_bits in range(1 << len(v2_free)):
        rule2 = frozenset(v for i, v in enumerate(v2_free) if r2_bits >> i & 1)
        for r3_bits in range(1 << len(v1_free)):
            rule3 = frozenset(v for i, v in enumerate(v1_free) if r3_bits >> i & 1)
            for assign_bits in range(1 << n_free):
                assign = {v: SINGLETON if assign_bits >> i & 1 else OPPOSITE
                          for i, v in enumerate(v1_free + v2_free)}
                bp = D3Blueprint(a, b, rule2, rule3, assign)
                if validate_blueprint(bp).ok:
                    yield bp
