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
complete), canonicalizing one neighbourhood per orbit of the parent's
automorphism group. Larger orders stream external graph6 input, which
`extend_connected` can make one order at a time.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, GraphError, is_connected, iter_bits

MAX_BUILTIN_ORDER = 7

# connected graphs on 1..7 vertices; used as a completeness self-check
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

_CANDIDATE_CAP = 1 << 22


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


def _search(g: Graph) -> tuple[int, list[list[int]]]:
    """The canonical code of g, and the automorphisms its search met.

    Each automorphism is a list p with p[v] the image of vertex v. Together
    they generate the whole automorphism group of g.
    """
    n = g.n
    adj = g.adj
    cells = _refined_cells(g)
    total = 1
    for cell in cells:
        for i in range(2, cell.bit_count() + 1):
            total *= i
        if total > _CANDIDATE_CAP:
            raise GraphError(
                f"canonical form search space too large ({total}+ orderings)"
            )
    best = -1
    best_order: list[int] = []
    automorphisms: list[list[int]] = []
    path = [0] * n  # path[i] is the vertex placed at position i on this branch
    # (cells of the unplaced positions, their vertex count, code of the placed
    # rows, the vertex placed last); the entry's depth is n - count
    stack = [(cells, n, 0, -1)]
    while stack:
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
    return best, automorphisms


def canonical_form(g: Graph) -> int:
    """Minimum refinement-respecting adjacency encoding (an isomorphism key)."""
    return _search(g)[0]


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
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows, _checked=True)


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return _bits_to_graph(g.n, canonical_form(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return (g.degree_sequence() == h.degree_sequence()
            and canonical_form(g) == canonical_form(h))


def extend_connected(graphs: Sequence[Graph]) -> list[Graph]:
    """All connected graphs (canonical, deduplicated) on n+1 vertices
    obtainable from the given connected graphs on n vertices."""
    seen: dict[int, int] = {}  # canonical bits -> edge count
    out_n = None
    for g in graphs:
        n = g.n
        if out_n is None:
            out_n = n + 1
        elif out_n != n + 1:
            raise GraphError("extend_connected requires graphs of a single order")
        if not is_connected(g):
            raise GraphError("extend_connected requires connected graphs")
        # neighbourhoods in one orbit of Aut(g) give isomorphic extensions
        for nbhd in _orbit_representatives(n, _search(g)[1]):
            rows = list(g.adj) + [nbhd]
            for v in iter_bits(nbhd):
                rows[v] |= 1 << n
            h = Graph(n + 1, rows, _checked=True)
            bits = canonical_form(h)
            if bits not in seen:
                seen[bits] = h.edge_count()
    if out_n is None:
        raise GraphError("extend_connected needs at least one input graph")
    return [_bits_to_graph(out_n, b) for b in sorted(seen, key=lambda b: (seen[b], b))]


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
