"""Core graph representation: immutable bitset-adjacency graphs and role labelings.

Vertices are dense indices 0..n-1. Adjacency is stored as one Python int
bitmask per vertex, which gives the 64-vertex fast path and the unbounded
fallback in a single representation (Python ints are arbitrary precision).
Graphs are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class GraphError(ValueError):
    """Malformed graph input (bad index, self-loop, empty-graph misuse)."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Invariants enforced at construction time: symmetry (u in adj[v] iff
    v in adj[u]), irreflexivity (no self-loops), set semantics (no
    multi-edges, which bitmasks cannot represent anyway).
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: Iterable[int], _checked: bool = False):
        adj = tuple(adj)
        if not _checked:
            if n < 0:
                raise GraphError(f"vertex count must be >= 0, got {n}")
            if len(adj) != n:
                raise GraphError(f"adjacency has {len(adj)} rows for {n} vertices")
            full = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~full:
                    raise GraphError(f"adjacency row {v} references vertices >= {n}")
                if row >> v & 1:
                    raise GraphError(f"self-loop at vertex {v}")
            for v, row in enumerate(adj):
                w = row
                while w:
                    u = (w & -w).bit_length() - 1
                    if not adj[u] >> v & 1:
                        raise GraphError(f"asymmetric adjacency between {v} and {u}")
                    w &= w - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_hash", hash((n, adj)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            w = self.adj[v] >> (v + 1) << (v + 1)
            while w:
                u = (w & -w).bit_length() - 1
                yield (v, u)
                w &= w - 1

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, vertices reindexed in the given (sorted) order."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        rows = []
        for v in vs:
            row = 0
            for u in iter_bits(self.adj[v]):
                if u in pos:
                    row |= 1 << pos[u]
            rows.append(row)
        return Graph(len(vs), rows, _checked=True)

    def permuted(self, perm: Iterable[int]) -> "Graph":
        """Relabeled copy: vertex v of self becomes perm[v]."""
        p = tuple(perm)
        rows = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in iter_bits(self.adj[v]):
                row |= 1 << p[u]
            rows[p[v]] = row
        return Graph(self.n, rows, _checked=True)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse to one edge."""
    if n < 0:
        raise GraphError(f"vertex count must be >= 0, got {n}")
    rows = [0] * n
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {pair!r} out of range for {n} vertices")
        if u == v:
            raise GraphError(f"self-loop pair {pair!r} rejected")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, _checked=True)


def _bfs_layers(g: Graph, mask: int) -> list[int]:
    """Breadth-first layers of G[mask] from mask's least vertex, as disjoint
    bitmasks; their union is that vertex's component in G[mask]."""
    frontier = mask & -mask
    seen = frontier
    layers = []
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return layers


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches all vertices. Rejects n=0."""
    if g.n == 0:
        raise GraphError("connectivity is undefined for the empty graph")
    full = (1 << g.n) - 1
    return sum(_bfs_layers(g, full)) == full


def connected_component_masks(g: Graph, mask: int) -> list[int]:
    """The vertex masks of the components of G[mask], in order of their least
    vertices."""
    remaining = mask
    comps = []
    while remaining:
        comp = sum(_bfs_layers(g, remaining))
        comps.append(comp)
        remaining &= ~comp
    return comps


def bipartition(g: Graph, mask: int) -> tuple[int, int] | None:
    """The two colour classes of G[mask], the side holding mask's least vertex
    first; None when G[mask] is empty, disconnected or not bipartite."""
    sides = [0, 0]
    for depth, layer in enumerate(_bfs_layers(g, mask)):
        sides[depth & 1] |= layer
    if not mask or sides[0] | sides[1] != mask:
        return None
    for side in sides:
        for v in iter_bits(side):
            if g.adj[v] & side:
                return None  # an edge inside a layer closes an odd cycle
    return sides[0], sides[1]


class VertexLabeling:
    """Map from role names to a vertex index or an index set.

    Roles with a single vertex (e.g. "x3") map to an int; grouped roles
    (e.g. "P1", "X") map to a frozenset of indices.
    """

    def __init__(self, roles: Mapping[str, int | Iterable[int]], n: int | None = None):
        normalized: dict[str, int | frozenset[int]] = {}
        for name, value in roles.items():
            if isinstance(value, int):
                normalized[name] = value
            else:
                normalized[name] = frozenset(value)
        self.roles = normalized
        if n is not None:
            self.validate(n)

    def vertex(self, name: str) -> int:
        value = self.roles[name]
        if not isinstance(value, int):
            raise KeyError(f"role {name!r} is a vertex set, not a single vertex")
        return value

    def group(self, name: str) -> frozenset[int]:
        value = self.roles[name]
        if isinstance(value, int):
            return frozenset((value,))
        return value

    def validate(self, n: int) -> None:
        for name, value in self.roles.items():
            indices = (value,) if isinstance(value, int) else value
            for v in indices:
                if not (0 <= v < n):
                    raise GraphError(f"labeling role {name!r} references vertex {v} outside 0..{n - 1}")

    def assert_disjoint(self, names: Iterable[str]) -> None:
        seen: set[int] = set()
        for name in names:
            grp = self.group(name)
            overlap = seen & grp
            if overlap:
                raise GraphError(f"role {name!r} overlaps earlier roles on vertices {sorted(overlap)}")
            seen |= grp

    def to_dict(self) -> dict[str, object]:
        return {
            name: value if isinstance(value, int) else sorted(value)
            for name, value in sorted(self.roles.items())
        }

    def __contains__(self, name: str) -> bool:
        return name in self.roles

    def __repr__(self):
        return f"VertexLabeling({self.to_dict()!r})"


def complete_bipartite(p: int, q: int) -> tuple[Graph, VertexLabeling]:
    """K_{p,q}: part A = 0..p-1, part B = p..p+q-1, exactly the cross pairs."""
    if p < 1 or q < 1:
        raise GraphError(f"complete bipartite parts must be >= 1, got ({p}, {q})")
    a_mask = (1 << p) - 1
    b_mask = ((1 << q) - 1) << p
    rows = [b_mask] * p + [a_mask] * q
    g = Graph(p + q, rows, _checked=True)
    labeling = VertexLabeling({"A": range(p), "B": range(p, p + q)}, n=g.n)
    return g, labeling


def complete_bipartite_parts(g: Graph) -> tuple[int, int] | None:
    """(p, q) with p <= q when the graph is a complete bipartite K_{p,q},
    else None (in particular for disconnected or single-vertex input)."""
    parts = bipartition(g, (1 << g.n) - 1)
    if g.n < 2 or parts is None:
        return None
    p, q = sorted(side.bit_count() for side in parts)
    if g.edge_count() != p * q:
        return None
    return p, q


def to_dot(g: Graph, labeling: VertexLabeling | None = None) -> str:
    """DOT text for visualization; role names become node labels when given."""
    node_label: dict[int, str] = {}
    if labeling is not None:
        for role, value in sorted(labeling.roles.items()):
            if isinstance(value, int):
                node_label.setdefault(value, role)
    lines = ["graph G {"]
    for v in range(g.n):
        if v in node_label:
            lines.append(f'  {v} [label="{node_label[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
