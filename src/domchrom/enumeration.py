"""Canonical forms and exhaustive enumeration of small connected graphs.

Canonical form = the minimum upper-triangle adjacency encoding over all
vertex orderings that respect the stable color-refinement partition (classes
ordered by their isomorphism-invariant signatures). Equal forms therefore
mean isomorphic graphs, and each isomorphism class has one representative.
Refinement counts only in the parts split off last round, less each cell's
last part; the other counts agree wherever those do, so the order stands.

The form is found by branch and bound, not by trying every such order. The
encoding is row-major, and row i depends only on the vertex at position i
and on which vertices fill each later cell. The search keeps the unplaced
positions as an ordered list of cells and places a vertex v of the first
cell. Row i is smallest when every later cell lists its non-neighbours of v
before its neighbours, so the cells split that way and the row follows from
popcounts. Only the vertices with the smallest row are explored, a branch
whose code prefix is already above the best complete code is cut, and a
discrete list of cells is encoded directly. A leaf whose code equals the
best gives an automorphism, which maps the best leaf's order onto the
leaf's and fixes their common prefix of length j. The branch that puts the
leaf's vertex at position j is then that automorphism's image of the
explored branch that put the best leaf's vertex there, so the search drops
what is left of it (first-path pruning; McKay and Piperno, "Practical graph
isomorphism II", 2014). The automorphisms so found generate the
automorphism group. `refined_canonical_form` in `tests/oracles.py` computes
the same value by trying every order.

The built-in generator covers 1 <= n <= 7 by attaching one new vertex to
every smaller connected graph (each has a non-cut vertex, so this is
complete), with one neighbourhood per orbit of the parent's automorphism
group. When the parents cover every connected class of their order (their
distinct codes number A001349(n)), a child is kept only if its new vertex
lies in the orbit of its canonical deletion vertex, the non-cut vertex of
largest (degree, sum of neighbour degrees), ties going to the one placed
first in the canonical order (canonical augmentation; McKay,
"Isomorph-free exhaustive generation", 1998). The keys and the cut-vertex
test of every child follow from tables made once per parent (its degrees,
neighbour-degree sums and the components left by deleting each vertex) and
the new neighbourhood alone, so a child is built only when its new vertex
survives them, and only the kept ones and a few ties are canonicalized.
Every child takes that one path: on fewer classes the screen is skipped and
the new vertex is each child's only deletion candidate, so every child is
built, canonicalized and kept. Larger orders stream external graph6 input,
which `extend_connected` can make one order at a time.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import Graph, GraphError, connected_component_masks, is_connected, iter_bits

MAX_BUILTIN_ORDER = 7

# connected graphs on 1..7 vertices; used as a completeness self-check
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# the same counts (OEIS A001349) on to 10 vertices, against which
# extend_connected tells a complete parent set
_CLASS_COUNTS = {**CONNECTED_COUNTS, 8: 11117, 9: 261080, 10: 11716571}

# Search nodes (stack pops) one canonical form may take; no order-8 graph takes
# more than 148.
_SEARCH_NODES = 1 << 14


def _refined_cells(g: Graph) -> list[int]:
    """Stable 1-dimensional color refinement, as ordered vertex bitmask cells.

    The cells start as the degree classes, by increasing degree. Each round
    splits every cell by neighbour counts, parts by descending counts, until
    a round splits nothing. It counts only in the parts the last round split
    off, less each split cell's last part (first, all degree classes but the
    last): within a cell the count in an unsplit cell is the same for every
    vertex, and so is the sum over a split cell's parts, so the full count
    vectors first differ at a counted part and are ordered as the keys. A
    key packs the counts, n.bit_length() bits per part, the first highest.
    """
    adj = g.adj
    width = g.n.bit_length()
    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    splitters = cells[:-1]
    while splitters:
        split = []
        splitters_next = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[int, int] = {}
            x = cell
            while x:
                low = x & -x
                x ^= low
                row = adj[low.bit_length() - 1]
                key = 0
                for s in splitters:
                    key = key << width | (row & s).bit_count()
                parts[key] = parts.get(key, 0) | low
            if len(parts) == 1:
                split.append(cell)
                continue
            ordered = [parts[key] for key in sorted(parts, reverse=True)]
            split += ordered
            splitters_next += ordered[:-1]
        cells = split
        splitters = splitters_next
    return cells


def _labelled_search(g: Graph) -> tuple[int, list[list[int]], list[int]]:
    """The canonical code of g, the automorphisms its search met, and the
    canonical order: the vertex placed at each position of the best leaf.

    Each automorphism is a list p with p[v] the image of vertex v. Together
    they generate the whole automorphism group of g.
    """
    n = g.n
    adj = g.adj
    best = -1
    best_order: list[int] = []
    automorphisms: list[list[int]] = []
    path = [0] * n  # path[i] is the vertex placed at position i on this branch
    # (cells of the unplaced positions, their vertex count, code of the placed
    # rows, the vertex placed last); the entry's depth is n - count
    stack = [(_refined_cells(g), n, 0, -1)]
    for _ in range(_SEARCH_NODES):
        if not stack:
            break
        cells, m, code, v = stack.pop()
        depth = n - m
        if depth:
            path[depth - 1] = v
        if len(cells) == m:  # discrete: one order is left
            tail = [cell.bit_length() - 1 for cell in cells]
            for i, u in enumerate(tail, 1):
                row = adj[u]
                for w in tail[i:]:
                    code = code << 1 | row >> w & 1
            if 0 <= best < code:
                continue
            order = path[:depth] + tail
            if code != best:
                best = code
                best_order = order
                continue
            # equal codes: best_order[i] -> order[i] is an automorphism that fixes
            # the common prefix of length j, so the subtree of order[j] below that
            # prefix is its image of the explored subtree of best_order[j]
            gamma = [0] * n
            for a, b in zip(best_order, order):
                gamma[a] = b
            automorphisms.append(gamma)
            j = 0
            while best_order[j] == order[j]:
                j += 1
            while stack and n - stack[-1][1] > j + 1:
                stack.pop()
            continue
        first = cells[0]
        rest = cells[1:]
        top = -1
        tied: list[int] = []
        x = first
        while x:
            low = x & -x
            x ^= low
            v = low.bit_length() - 1
            # v's row when each later cell lists its non-neighbours of v first;
            # v is not its own neighbour, so first & a lies in the rest of its cell
            a = adj[v]
            row = (1 << (first & a).bit_count()) - 1
            for c in rest:
                row = row << c.bit_count() | (1 << (c & a).bit_count()) - 1
            if row < top or top < 0:
                top = row
                tied = [v]
            elif row == top:
                tied.append(v)
        m -= 1
        code = code << m | top
        if best >= 0 and code > best >> (m * (m - 1) // 2):
            continue
        for v in tied:
            a = adj[v]
            na = ~a
            split = []
            for c in (first ^ 1 << v, *rest):
                if c & na:
                    split.append(c & na)
                if c & a:
                    split.append(c & a)
            stack.append((split, m, code, v))
    if stack:
        raise GraphError(f"canonical form search space too large (over {_SEARCH_NODES} nodes)")
    return best, automorphisms, best_order


def canonical_form(g: Graph) -> int:
    """Minimum refinement-respecting adjacency encoding (an isomorphism key)."""
    return _labelled_search(g)[0]


def _orbit_representatives(n: int, automorphisms: list[list[int]]) -> list[int]:
    """The least mask of each orbit of the group the automorphisms generate
    on the nonempty subsets of range(n), as bitmasks."""
    images = []
    for p in automorphisms:
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << p[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(1 << n)
    reps = []
    for mask in range(1, 1 << n):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        todo = [mask]
        while todo:
            x = todo.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    todo.append(y)
    return reps


def _bits_to_graph(n: int, bits: int) -> Graph:
    rows = [0] * n
    pos = n * (n - 1) // 2
    for i in range(n - 1):
        width = n - 1 - i
        pos -= width
        # row i's slice; its bit k is the pair (i, n - 1 - k)
        row = bits >> pos & (1 << width) - 1
        while row:
            low = row & -row
            row ^= low
            j = n - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, rows, _checked=True)


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return _bits_to_graph(g.n, canonical_form(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return (g.degree_sequence() == h.degree_sequence()
            and canonical_form(g) == canonical_form(h))


_Tables = tuple[list[int], list[int], list[list[int]], list[int]]


def _parent_tables(g: Graph) -> _Tables:
    """Per vertex v of the connected parent g: its degree, the sum of its
    neighbours' degrees and the vertex masks of the components of g - v;
    then per d in 0..n+1 the mask of the vertices of degree at least d."""
    n = g.n
    deg = [row.bit_count() for row in g.adj]
    nsum = [sum(deg[u] for u in iter_bits(row)) for row in g.adj]
    full = (1 << n) - 1
    comps = [connected_component_masks(g, full ^ 1 << v) for v in range(n)]
    at_least = [sum(1 << v for v, dv in enumerate(deg) if dv >= d) for d in range(n + 2)]
    return deg, nsum, comps, at_least


def _deletion_screen(adj: Sequence[int], tables: _Tables, nbhd: int) -> list[int] | None:
    """The deletion-vertex test for the child of the parent with rows adj
    whose new vertex n = len(adj) is joined to nbhd, read from the parent's
    `_parent_tables` and nbhd alone.

    The canonical deletion vertex is the non-cut vertex with the largest key
    (degree, sum of neighbour degrees), ties going to the one placed first
    in the canonical order. Gives None when a non-cut vertex of the child
    has a larger key than n, else the non-cut vertices whose key equals n's,
    by increasing label and n last. In the child, v < n has degree deg[v]
    plus [v in nbhd] and neighbour-degree sum nsum[v] + |adj[v] & nbhd| plus
    |nbhd| if v is in nbhd; n has degree |nbhd| and sum the degrees of nbhd
    plus |nbhd|. v is a non-cut vertex exactly when nbhd meets every
    component of the parent less v, and n never is a cut vertex.
    """
    deg, nsum, comps, at_least = tables
    top = nbhd.bit_count()
    above = at_least[top + 1] | nbhd & at_least[top]
    level = (at_least[top] | nbhd & at_least[top - 1]) & ~above
    x = above
    while x:
        low = x & -x
        x ^= low
        for c in comps[low.bit_length() - 1]:
            if not c & nbhd:
                break
        else:
            return None
    tied = []
    if level:
        top_sum = top + sum(deg[u] for u in iter_bits(nbhd))
        while level:
            low = level & -level
            level ^= low
            v = low.bit_length() - 1
            total = nsum[v] + (adj[v] & nbhd).bit_count() + (top if nbhd & low else 0)
            if total < top_sum:
                continue
            for c in comps[v]:
                if not c & nbhd:
                    break
            else:
                if total > top_sum:
                    return None
                tied.append(v)
    tied.append(len(adj))
    return tied


def _augmentation_code(h: Graph, tied: list[int]) -> int:
    """h's canonical code if its last vertex lies in the Aut(h) orbit of
    the tied vertex placed first in the canonical order, else -1."""
    if len(tied) == 1:
        return canonical_form(h)
    code, automorphisms, order = _labelled_search(h)
    first = min(tied, key=order.index)
    orbit = 1 << first
    todo = [first]
    while todo:
        v = todo.pop()
        for p in automorphisms:
            w = p[v]
            if not orbit >> w & 1:
                orbit |= 1 << w
                todo.append(w)
    return code if orbit >> h.n - 1 & 1 else -1


def _distinct_parents(
    graphs: Iterable[Graph],
) -> tuple[int, list[tuple[Graph, list[list[int]]]]]:
    """The common order n of the given connected graphs, and the first graph
    of each isomorphism class among them with its automorphisms."""
    searched: dict[int, tuple[Graph, list[list[int]]]] = {}
    n = None
    for g in graphs:
        if n is None:
            n = g.n
        elif g.n != n:
            raise GraphError("extend_connected requires graphs of a single order")
        if not is_connected(g):
            raise GraphError("extend_connected requires connected graphs")
        code, automorphisms, _ = _labelled_search(g)
        searched.setdefault(code, (g, automorphisms))
    if n is None:
        raise GraphError("extend_connected needs at least one input graph")
    return n, list(searched.values())


def _children(n: int, parents: list[tuple[Graph, list[list[int]]]]) -> Iterator[int]:
    """Canonical codes of the children of pairwise non-isomorphic connected
    parents on n vertices: a parent plus a new vertex n joined to one
    neighbourhood per orbit of Aut(parent), since neighbourhoods in one
    orbit give isomorphic children.

    A child is kept only if n lies in the orbit of its canonical deletion
    vertex (canonical augmentation; McKay, "Isomorph-free exhaustive
    generation", 1998). When the parents cover every connected class on n
    vertices, the deletion-vertex keys and cut test come from
    `_parent_tables`, made once per parent, and the child is built only when
    `_deletion_screen` leaves n among the tied vertices; each class on n+1
    vertices then comes out once. On fewer classes the test would drop the
    children whose canonical parent is missing, so the screen is skipped and
    n is each child's only candidate: every child is built and kept.
    """
    complete = len(parents) == _CLASS_COUNTS.get(n)
    for g, automorphisms in parents:
        tables = _parent_tables(g) if complete else None
        for nbhd in _orbit_representatives(n, automorphisms):
            tied = _deletion_screen(g.adj, tables, nbhd) if complete else [n]
            if tied is None:
                continue
            rows = list(g.adj) + [nbhd]
            for v in iter_bits(nbhd):
                rows[v] |= 1 << n
            code = _augmentation_code(Graph(n + 1, rows, _checked=True), tied)
            if code >= 0:
                yield code


def extend_connected(graphs: Sequence[Graph]) -> list[Graph]:
    """All connected graphs (canonical, deduplicated) on n+1 vertices
    obtainable from the given connected graphs on n vertices."""
    n, parents = _distinct_parents(graphs)
    # a canonical code holds one bit per edge: the order is (edge count, code)
    codes = sorted(set(_children(n, parents)), key=lambda b: (b.bit_count(), b))
    return [_bits_to_graph(n + 1, b) for b in codes]


_builtin_cache: dict[int, list[Graph]] = {}


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n <= 7 vertices, one canonical representative
    per isomorphism class, in a fixed order (edge count, then encoding)."""
    if n < 1:
        raise GraphError(f"order must be >= 1, got {n}")
    if n > MAX_BUILTIN_ORDER:
        raise GraphError(
            f"built-in enumeration stops at n = {MAX_BUILTIN_ORDER}; "
            "stream external graph6 input for larger orders"
        )
    if n not in _builtin_cache:
        if n == 1:
            _builtin_cache[n] = [Graph(1, (0,), _checked=True)]
        else:
            _builtin_cache[n] = extend_connected(enumerate_connected(n - 1))
        count = len(_builtin_cache[n])
        if count != CONNECTED_COUNTS[n]:
            raise AssertionError(
                f"enumeration produced {count} graphs at n={n}, "
                f"expected {CONNECTED_COUNTS[n]}"
            )
    return list(_builtin_cache[n])
