"""Brute-force reference implementations of every invariant and predicate.

Everything here is written straight from the definitions: subsets by
increasing size, all set partitions, all vertex permutations, minors by
recursive contraction. These routines double-check the optimized solvers
and stay deliberately independent of them: they use only public `domchrom`
names, and `kuratowski_by_deletion` decides planarity with networkx. They
are only meant for small orders (roughly n <= 8).
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator, Sequence

from domchrom.graphs import Graph, GraphError, is_connected
from domchrom.planarity import KuratowskiWitness


# ---------------------------------------------------------------------------
# Predicates, straight from the definitions.


def _members(g: Graph, mask: int) -> list[int]:
    """The vertices of g whose bits are set in mask, read one by one."""
    return [v for v in range(g.n) if mask >> v & 1]


def dominates(g: Graph, d_mask: int) -> bool:
    """Every vertex is in the set or adjacent to it."""
    covered = d_mask
    for v in _members(g, d_mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def totally_dominates(g: Graph, d_mask: int) -> bool:
    """Every vertex (members included) has a neighbor in the set."""
    covered = 0
    for v in _members(g, d_mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def blocks_are_independent(g: Graph, blocks: tuple[int, ...]) -> bool:
    for block in blocks:
        for v in _members(g, block):
            if g.adj[v] & block:
                return False
    return True


def vertex_dominates_block(g: Graph, v: int, block: int) -> bool:
    """Adjacent to all of the block, or the block is exactly {v}."""
    if block == 1 << v:
        return True
    return block & ~g.adj[v] == 0


def blocks_form_dominator_coloring(g: Graph, blocks: tuple[int, ...]) -> bool:
    for v in range(g.n):
        if not any(vertex_dominates_block(g, v, b) for b in blocks):
            return False
    return True


def blocks_form_dominated_coloring(g: Graph, blocks: tuple[int, ...]) -> bool:
    for block in blocks:
        if not any(block & ~g.adj[v] == 0 for v in range(g.n)):
            return False
    return True


# ---------------------------------------------------------------------------
# Invariants by exhaustive search.


def min_dominating_set(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(gamma, lexicographically least witness) by subsets of increasing size."""
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if dominates(g, mask):
                return size, subset
    raise AssertionError("unreachable: V(G) always dominates")


def min_total_dominating_set(g: Graph) -> tuple[int, tuple[int, ...]] | None:
    """None when some vertex is isolated (no total dominating set exists)."""
    if any(row == 0 for row in g.adj):
        return None
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if totally_dominates(g, mask):
                return size, subset
    return None


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of {0..n-1} as bitmask blocks ordered by minimum element."""
    if n == 0:
        yield ()
        return

    def extend(v: int, blocks: list[int]) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(blocks)
            return
        bit = 1 << v
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from extend(v + 1, blocks)
            blocks[i] &= ~bit
        blocks.append(bit)
        yield from extend(v + 1, blocks)
        blocks.pop()

    yield from extend(0, [])


def chromatic_number(g: Graph) -> int:
    best = g.n if g.n else 0
    for blocks in set_partitions(g.n):
        if len(blocks) < best and blocks_are_independent(g, blocks):
            best = len(blocks)
    return best if g.n else 0


def dominator_chromatic_number(g: Graph) -> int:
    best = g.n
    for blocks in set_partitions(g.n):
        if (
            len(blocks) < best
            and blocks_are_independent(g, blocks)
            and blocks_form_dominator_coloring(g, blocks)
        ):
            best = len(blocks)
    return best


def dominated_chromatic_number(g: Graph) -> int | None:
    """None when no dominated coloring exists (the single-vertex graph)."""
    best: int | None = None
    for blocks in set_partitions(g.n):
        if (
            (best is None or len(blocks) < best)
            and blocks_are_independent(g, blocks)
            and blocks_form_dominated_coloring(g, blocks)
        ):
            best = len(blocks)
    return best


def dominator_colorings(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All proper dominator colorings with exactly k blocks (canonical order)."""
    found = []
    for blocks in set_partitions(g.n):
        if (
            len(blocks) == k
            and blocks_are_independent(g, blocks)
            and blocks_form_dominator_coloring(g, blocks)
        ):
            found.append(blocks)
    return found


# ---------------------------------------------------------------------------
# Isomorphism-class machinery by full permutation search.


def _order_bits(g: Graph, order: Sequence[int]) -> int:
    """Upper-triangle adjacency of g with its vertices listed in `order`."""
    bits = 0
    for i in range(g.n):
        row = g.adj[order[i]]
        for j in range(i + 1, g.n):
            bits = bits << 1 | (row >> order[j] & 1)
    return bits


def canonical_form(g: Graph) -> int:
    """Minimum adjacency encoding over all vertex permutations."""
    return min(_order_bits(g, perm) for perm in permutations(range(g.n)))


def _refine_colors(g: Graph) -> list[int]:
    """Stable 1-dimensional color refinement with invariant class ids."""
    colors = [g.degree(v) for v in range(g.n)]
    ids = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [ids[c] for c in colors]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in _members(g, g.adj[v]))))
            for v in range(g.n)
        ]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [ids[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def refined_cells(g: Graph) -> list[int]:
    """The stable color-refinement classes as vertex bitmasks, in class-id order."""
    colors = _refine_colors(g)
    cells = [0] * len(set(colors))
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    return cells


def refined_canonical_form(g: Graph) -> int:
    """Minimum adjacency encoding over the vertex orders that list the stable
    color-refinement classes in class-id order, each class permuted freely."""
    colors = _refine_colors(g)
    classes = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
    return min(
        _order_bits(g, sum(parts, ()))
        for parts in product(*(permutations(cls) for cls in classes))
    )


def connected_graphs(n: int) -> list[int]:
    """Canonical forms of all connected graphs on n vertices (filter + dedupe)."""
    pairs = list(combinations(range(n), 2))
    forms = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(n, rows)
        if is_connected(g):
            forms.add(canonical_form(g))
    return sorted(forms)


# ---------------------------------------------------------------------------
# Planarity oracles: Kuratowski minors by recursive edge contraction, and
# Kuratowski witnesses by edge deletion decided with networkx.


def _has_k5_subgraph(g: Graph) -> bool:
    if g.n < 5:
        return False
    for subset in combinations(range(g.n), 5):
        if all(g.adj[u] >> v & 1 for u, v in combinations(subset, 2)):
            return True
    return False


def _has_k33_subgraph(g: Graph) -> bool:
    if g.n < 6:
        return False
    for subset in combinations(range(g.n), 6):
        for left in combinations(subset, 3):
            if subset[0] not in left:
                continue  # fix one side to halve the work
            right = tuple(v for v in subset if v not in left)
            if all(g.adj[u] >> v & 1 for u in left for v in right):
                return True
    return False


def _contract(g: Graph, u: int, v: int) -> Graph:
    """Contract edge uv; v merges into u, vertices reindexed densely."""
    keep = [w for w in range(g.n) if w != v]
    pos = {w: i for i, w in enumerate(keep)}
    rows = [0] * (g.n - 1)
    for w in keep:
        merged = g.adj[w]
        if w == u:
            merged |= g.adj[v]
        for x in _members(g, merged):
            if x == v:
                x = u
            if x != w:
                rows[pos[w]] |= 1 << pos[x]
    return Graph(g.n - 1, rows)


_minor_cache: dict[tuple[int, tuple[int, ...]], bool] = {}


def has_kuratowski_minor(g: Graph) -> bool:
    """True iff G has a K_5 or K_{3,3} minor (so, iff G is non-planar)."""
    key = (g.n, g.adj)
    cached = _minor_cache.get(key)
    if cached is not None:
        return cached
    if _has_k5_subgraph(g) or _has_k33_subgraph(g):
        _minor_cache[key] = True
        return True
    result = False
    if g.n > 5:
        for u, v in g.edges():
            if has_kuratowski_minor(_contract(g, u, v)):
                result = True
                break
    elif g.n == 5:
        result = False  # K5 subgraph already checked; contractions only shrink
    _minor_cache[key] = result
    return result


def is_planar(g: Graph) -> bool:
    return not has_kuratowski_minor(g)


def kuratowski_by_deletion(g: Graph) -> KuratowskiWitness:
    """Kuratowski witness by one networkx planarity test per edge: delete each
    edge in sorted order unless that makes the kept graph planar. No 2-core
    screen. networkx is imported here, so the other oracles run without it."""
    import networkx as nx

    kept = nx.Graph(g.edges())
    if nx.check_planarity(kept)[0]:
        raise GraphError("graph is planar; no Kuratowski witness exists")
    for e in sorted(g.edges()):
        kept.remove_edge(*e)
        if nx.check_planarity(kept)[0]:
            kept.add_edge(*e)
    return _classify_subdivision(list(kept.edges()))


def _classify_subdivision(edges: list[tuple[int, int]]) -> KuratowskiWitness:
    """Branch vertices and branch-to-branch paths of a K_5 or K_{3,3}
    subdivision given by its edge list."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    branch = sorted(v for v, d in degree.items() if d > 2)
    if all(degree[v] == 4 for v in branch) and len(branch) == 5:
        kind = "K5"
    elif all(degree[v] == 3 for v in branch) and len(branch) == 6:
        kind = "K33"
    else:
        raise AssertionError(
            f"minimal non-planar subgraph is not a Kuratowski subdivision: "
            f"branch degrees {[degree[v] for v in branch]}"
        )
    paths = []
    walked: set[frozenset[int]] = set()
    for b in branch:
        for first in sorted(adj[b]):
            step = frozenset((b, first))
            if step in walked:
                continue
            path = [b, first]
            walked.add(step)
            while path[-1] not in branch:
                prev, cur = path[-2], path[-1]
                nxt = [x for x in adj[cur] if x != prev]
                if len(nxt) != 1:
                    raise AssertionError("interior vertex of subdivision has degree != 2")
                path.append(nxt[0])
                walked.add(frozenset((cur, nxt[0])))
            paths.append(tuple(path))
    return KuratowskiWitness(kind, tuple(branch), tuple(sorted(paths)))
