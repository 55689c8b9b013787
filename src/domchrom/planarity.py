"""Planarity testing with independently checkable certificates.

The decision procedure is the left-right (LR) planarity criterion over a
DFS orientation: back edges are partitioned into two sides subject to the
T-alike/T-opposite constraints tracked on a stack of conflict pairs. A
planar verdict carries a combinatorial embedding (rotation system) obtained
from the side assignment; a non-planar verdict carries a Kuratowski
subdivision found by deleting edges while non-planarity persists (an
edge-minimal non-planar subgraph is a subdivision of K_5 or K_{3,3}). All
three phases walk the DFS on explicit stacks, so deep graphs need no
recursion. The LR code numbers each oriented edge in the order the DFS
orients it and keeps every per-edge value (endpoints, lowpoints, nesting
depth, side, ref) in a flat list indexed by that number; a conflict pair is
a list of four edge numbers, with -1 for none.

`lr_is_planar` decides rows by one count, one bounded search and one LR run.
Rows with fewer than 6 vertices of degree >= 3 and fewer than 5 of degree
>= 4 are planar: a K_{3,3} or K_5 subdivision needs that many branch vertices.
Other rows are smoothed: vertices of degree 1 are deleted, and each vertex
of degree 2 is bypassed by an edge between its two neighbours, or deleted
with its path when they are adjacent already, until every vertex left has
degree >= 3 (the series-parallel reduction). A graph is planar exactly when
its smoothed copy is: a bypass undoes a subdivision, a path beside an edge
can be drawn along it, and a Kuratowski subdivision has minimum degree 2.
The smoothed copy is non-planar when three vertices have three common
neighbours, a K_{3,3} subgraph. That search counts, bit-parallel over each
vertex a's neighbours' rows, the vertices sharing three neighbours with a,
and pairs them up; it stops after a number of row operations proportional to
the edge count. One LR run on the smoothed rows decides what the search
leaves, and the verdict is remembered under the smoothed rows packed into
one int behind a leading 1 bit (n^2 + 1 bits, so no two orders collide): it
is a function of those rows, so deletion trials and scan lines that smooth
to one core share one exact decision. Rows of more than 64 vertices are not
remembered; the memo is emptied at 4,096. Every public entry point asks
`lr_is_planar`, then embeds a planar graph by one LR run on its own rows.

The deletion keeps only the kept graph's 2-core H, unsmoothed: an edge
outside it is a bridge into a pendant tree and goes untested, and each trial
decides the rows the peel leaves as `lr_is_planar` does. The edges kept, and
so the witness, are those of deleting one edge at a time in sorted order,
but far fewer trials reach them. A supergraph of a non-planar graph is
non-planar, so deleting ever longer runs of the next edges stays non-planar
up to the first edge that must be kept: runs are deleted whole in blocks
that double, and the block that turns planar is bisected. Deleting any edge
of a kept edge's path through degree-2 vertices peels the same core, so the
whole path is kept with no further trial. Once the core is one subdivision
plus disjoint cycles, the witness is read off its rows: branch vertices are
the rows with more than two bits set, and each path is walked bit by bit
between them. The tests check it against
`tests/oracles.py`, which deletes edges one networkx planarity test at a
time and classifies its own edge list.

Certificates are verified by re-walking, not trusted: embeddings by one
Euler sum over the components with an edge, witnesses by tracing their
paths and matching the branch graph (one edge per path) to K_5 or K_{3,3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, GraphError, complete_bipartite_parts, connected_component_masks, iter_bits


@dataclass(frozen=True)
class KuratowskiWitness:
    kind: str  # "K5" or "K33"
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]  # branch-to-branch, endpoints included

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for path in self.paths:
            for a, b in zip(path, path[1:]):
                out.add((min(a, b), max(a, b)))
        return frozenset(out)


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    embedding: tuple[tuple[int, ...], ...] | None
    witness: KuratowskiWitness | None


# ---------------------------------------------------------------------------
# The LR criterion (orientation, testing, embedding).


class _LRPlanarity:
    """One run of the LR test; `run` decides, `embed` extracts the rotations.
    A conflict pair on the stack `S` is [L.low, L.high, R.low, R.high]; an
    interval is empty when its low is -1."""

    def __init__(self, adj: Sequence[int]):
        self.adj = adj
        self.n = n = len(adj)
        self.height = [-1] * n  # -1: not reached yet
        self.parent_edge = [-1] * n  # -1: a DFS root
        self.roots: list[int] = []
        self.orient_adjs: list[list[int]] = [[] for _ in range(n)]
        self.src: list[int] = []
        self.dst: list[int] = []
        self.lowpt: list[int] = []
        self.lowpt2: list[int] = []
        self.nesting_depth: list[int] = []
        # sized by _test, once phase 1 has numbered the edges
        self.ref: list[int] = []
        self.side: list[int] = []
        self.lowpt_edge: list[int] = []
        self.stack_bottom: list[int] = []
        self.S: list[list[int]] = []
        self.ordered_adjs: list[list[int]] = []

    # -- phase 1: DFS orientation ------------------------------------------

    def _orient(self) -> None:
        adj = [list(iter_bits(row)) for row in self.adj]
        height, parent_edge, orient_adjs = self.height, self.parent_edge, self.orient_adjs
        src, dst, lowpt, lowpt2 = self.src, self.dst, self.lowpt, self.lowpt2
        for root in range(self.n):
            if height[root] != -1:
                continue
            height[root] = 0
            self.roots.append(root)
            stack = [(root, iter(adj[root]))]
            while stack:
                v, it = stack[-1]
                hv = height[v]
                for w in it:
                    hw = height[w]
                    # a reached w at height >= hv - 1 is v's parent or a
                    # finished descendant, whose edge to v is oriented already
                    if hw != -1 and hw >= hv - 1:
                        continue
                    e = len(src)
                    src.append(v)
                    dst.append(w)
                    orient_adjs[v].append(e)
                    lowpt2.append(hv)
                    self.nesting_depth.append(0)
                    if hw == -1:  # tree edge
                        lowpt.append(hv)
                        parent_edge[w] = e
                        height[w] = hv + 1
                        stack.append((w, iter(adj[w])))
                        break
                    lowpt.append(hw)  # back edge
                    self._finish_edge(e)
                else:
                    stack.pop()
                    if parent_edge[v] != -1:
                        self._finish_edge(parent_edge[v])

    def _finish_edge(self, e: int) -> None:
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        v = self.src[e]
        low = lowpt[e]
        self.nesting_depth[e] = 2 * low + (lowpt2[e] < self.height[v])  # +1: chordal
        p = self.parent_edge[v]
        if p != -1:
            if low < lowpt[p]:
                lowpt2[p] = min(lowpt[p], lowpt2[e])
                lowpt[p] = low
            elif low > lowpt[p]:
                lowpt2[p] = min(lowpt2[p], low)
            else:
                lowpt2[p] = min(lowpt2[p], lowpt2[e])

    # -- phase 2: testing -----------------------------------------------------

    def _test(self) -> bool:
        m = len(self.src)
        # a stable sort: edge ids follow orientation order, which breaks ties
        self.ordered_adjs = [
            sorted(edges, key=self.nesting_depth.__getitem__) for edges in self.orient_adjs
        ]
        self.side = [1] * m
        self.ref = [-1] * m
        self.lowpt_edge = [-1] * m
        self.stack_bottom = [0] * m
        return all(self._test_dfs(root) for root in self.roots)

    def _test_dfs(self, root: int) -> bool:
        dst, lowpt, height, parent_edge = self.dst, self.lowpt, self.height, self.parent_edge
        lowpt_edge, S = self.lowpt_edge, self.S
        # explicit stack of (vertex, edge index, whether that tree edge's
        # subtree is finished), so deep graphs do not hit the recursion limit
        stack = [(root, 0, False)]
        while stack:
            v, idx, child_done = stack.pop()
            e = parent_edge[v]
            adjs = self.ordered_adjs[v]
            while idx < len(adjs):
                ei = adjs[idx]
                if not child_done:
                    self.stack_bottom[ei] = len(S)
                    w = dst[ei]
                    if ei == parent_edge[w]:  # tree edge: finish w first
                        stack.append((v, idx, True))
                        stack.append((w, 0, False))
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([-1, -1, ei, ei])
                child_done = False
                if lowpt[ei] < height[v]:  # ei has a return edge
                    if idx == 0:
                        if e != -1:
                            lowpt_edge[e] = lowpt_edge[ei]
                    elif not self._add_constraints(ei, e):
                        return False
                idx += 1
            else:
                if e != -1:
                    self._trim_back_edges(e)
        return True

    def _add_constraints(self, ei: int, e: int) -> bool:
        S, lowpt, ref = self.S, self.lowpt, self.ref
        pl_low = pl_high = pr_low = pr_high = -1
        # merge return edges of ei into P.R
        low_e = lowpt[e]
        bottom = self.stack_bottom[ei]
        while True:
            ql_low, ql_high, qr_low, qr_high = S.pop()
            if ql_low != -1:  # swap Q, unless both sides are non-empty
                if qr_low != -1:
                    return False  # not planar
                qr_low, qr_high = ql_low, ql_high
            if lowpt[qr_low] > low_e:
                if pr_low == -1:
                    pr_high = qr_high
                else:
                    ref[pr_low] = qr_high
                pr_low = qr_low
            else:  # align
                ref[qr_low] = self.lowpt_edge[e]
            if len(S) == bottom:
                break
        # merge conflicting return edges of earlier siblings into P.L; an
        # interval conflicts with ei when its high returns above ei's lowpt
        low_ei = lowpt[ei]
        while S:
            top = S[-1]
            if not (
                top[1] != -1 and lowpt[top[1]] > low_ei
                or top[3] != -1 and lowpt[top[3]] > low_ei
            ):
                break
            ql_low, ql_high, qr_low, qr_high = S.pop()
            if qr_high != -1 and lowpt[qr_high] > low_ei:
                ql_low, ql_high, qr_low, qr_high = qr_low, qr_high, ql_low, ql_high
                if qr_high != -1 and lowpt[qr_high] > low_ei:
                    return False  # not planar
            if pr_low != -1:
                ref[pr_low] = qr_high
            if qr_low != -1:
                pr_low = qr_low
            if pl_low == -1:
                pl_high = ql_high
            else:
                ref[pl_low] = ql_high
            pl_low = ql_low
        if pl_low != -1 or pr_low != -1:
            S.append([pl_low, pl_high, pr_low, pr_high])
        return True

    def _trim_back_edges(self, e: int) -> None:
        S, lowpt, ref, side, dst = self.S, self.lowpt, self.ref, self.side, self.dst
        u = self.src[e]
        hu = self.height[u]
        # drop entire conflict pairs that return to the parent u
        while S:
            l_low, _, r_low, _ = S[-1]
            if l_low == -1:
                lowest = lowpt[r_low]
            elif r_low == -1:
                lowest = lowpt[l_low]
            else:
                lowest = min(lowpt[l_low], lowpt[r_low])
            if lowest != hu:
                break
            S.pop()
            if l_low != -1:
                side[l_low] = -1
        if S:
            P = S[-1]
            high = P[1]
            while high != -1 and dst[high] == u:
                high = ref[high]
            P[1] = high
            if high == -1 and P[0] != -1:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            high = P[3]
            while high != -1 and dst[high] == u:
                high = ref[high]
            P[3] = high
            if high == -1 and P[2] != -1:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
        # side of e is the side of a highest return edge
        if lowpt[e] < hu:
            _, hl, _, hr = S[-1]
            if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    # -- phase 3: embedding ----------------------------------------------------

    def _sign(self, e: int) -> int:
        # iterative resolution of the ref chain
        ref, side = self.ref, self.side
        chain = []
        while ref[e] != -1:
            chain.append(e)
            e = ref[e]
        result = side[e]
        for prev in reversed(chain):
            side[prev] *= result
            ref[prev] = -1
            result = side[prev]
        return result

    def embed(self) -> tuple[tuple[int, ...], ...]:
        dst, side, parent_edge = self.dst, self.side, self.parent_edge
        depth = self.nesting_depth
        for e in range(len(depth)):
            depth[e] *= self._sign(e)
        self.ordered_adjs = [sorted(edges, key=depth.__getitem__) for edges in self.orient_adjs]
        rotation = [[dst[e] for e in edges] for edges in self.ordered_adjs]
        left_ref = [-1] * self.n
        right_ref = [-1] * self.n
        for root in self.roots:
            stack = [(root, 0)]
            while stack:
                v, idx = stack.pop()
                adjs = self.ordered_adjs[v]
                while idx < len(adjs):
                    ei = adjs[idx]
                    idx += 1
                    w = dst[ei]
                    if ei == parent_edge[w]:  # tree edge
                        rotation[w].insert(0, v)
                        left_ref[v] = w
                        right_ref[v] = w
                        stack.append((v, idx))
                        stack.append((w, 0))
                        break
                    # back edge: insert v next to the reference in w's rotation
                    if side[ei] == 1:
                        rotation[w].insert(rotation[w].index(right_ref[w]) + 1, v)
                    else:
                        rotation[w].insert(rotation[w].index(left_ref[w]), v)
                        left_ref[w] = v
        return tuple(tuple(r) for r in rotation)

    def run(self) -> bool:
        self._orient()
        return self._test()


def _peel(rows: list[int], queue: list[int]) -> None:
    """Shrink `rows` in place to the 2-core by deleting vertices of degree 1,
    starting from the vertices in `queue` (any others must have degree != 1)."""
    while queue:
        v = queue.pop()
        row = rows[v]
        if row and not row & (row - 1):  # degree exactly 1
            u = row.bit_length() - 1
            rows[v] = 0
            rows[u] &= ~(1 << v)
            queue.append(u)


def _two_core(g: Graph) -> list[int]:
    rows = list(g.adj)
    _peel(rows, [v for v, row in enumerate(rows) if row and not row & (row - 1)])
    return rows


def _smoothed(rows: Sequence[int]) -> list[int]:
    """A copy of `rows` with no vertex of degree 1 or 2 left: one of degree 1
    is deleted, and one of degree 2 is bypassed by an edge between its two
    neighbours, or deleted with its two edges when they are adjacent already,
    until no such vertex remains. Each step keeps planarity both ways."""
    rows = list(rows)
    queue = [v for v, row in enumerate(rows) if row and row.bit_count() <= 2]
    while queue:
        v = queue.pop()
        row = rows[v]
        if not row or row.bit_count() > 2:
            continue
        rows[v] = 0
        a = row.bit_length() - 1
        b = (row & -row).bit_length() - 1  # a again when v has degree 1
        rows[a] &= ~(1 << v)
        rows[b] &= ~(1 << v)
        if a != b and not rows[a] >> b & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        else:
            queue += (a, b)
    return rows


# Row operations the K_{3,3} search may spend per edge of its rows before it
# leaves the decision to an LR run. The passes over neighbour rows take 2 per
# edge in all; the rest pays for pairing. No search in deciding and
# certifying the order-8 graphs, or in certifying the D(3) pool, runs out.
# The most is 4.06 per edge (65 on 16 edges): degree sums after the last check.
_K33_WORK_PER_EDGE = 4


def _holds_k33(rows: list[int]) -> bool | None:
    """True when three vertices a < w < z have three common neighbours, a
    K_{3,3} subgraph; False when none do; None when the search spent more
    than _K33_WORK_PER_EDGE row operations per edge first. For each a, one
    pass over its neighbours' rows counts, bit-parallel up to three, how many
    of them each vertex is adjacent to; the vertices w > a that reach three
    share three neighbours with a, and are paired up among themselves."""
    budget = _K33_WORK_PER_EDGE * sum(row.bit_count() for row in rows) // 2
    work = 0
    for a, row_a in enumerate(rows):
        one = two = three = 0
        for x in iter_bits(row_a):
            row = rows[x]
            three |= two & row
            two |= one & row
            one |= row
        work += row_a.bit_count()
        rich: list[int] = []
        for w in iter_bits(three & ~0 << a + 1):
            work += len(rich) + 1
            if work > budget:
                return None
            common = row_a & rows[w]
            if any((common & other).bit_count() >= 3 for other in rich):
                return True
            rich.append(common)
    return False


def _branch_degrees(rows: Sequence[int]) -> list[int]:
    """The degrees above 2 in `rows`, those of possible branch vertices."""
    return [d for row in rows if (d := row.bit_count()) > 2]


def _too_few_branches(degrees: list[int]) -> bool:
    """Fewer than 6 branch `degrees` and fewer than 5 >= 4: no K_5 or K_{3,3} fits."""
    return len(degrees) < 6 and sum(d >= 4 for d in degrees) < 5


# Verdicts of smoothed rows of at most _MEMO_ORDER vertices, so a large graph
# neither builds an O(n^2)-bit key nor stays pinned; emptied at _MEMO_ENTRIES,
# above the 3,844 smoothed cores of the order-8 stream's verdicts and the 1,676
# of certifying the D(3) pool; certifying the order-8 stream empties it once.
_MEMO_ORDER, _MEMO_ENTRIES = 64, 4096
_verdicts: dict[int, bool] = {}


def _core_is_planar(core: list[int]) -> bool:
    """Planarity of a graph given as rows, such as a deletion trial's 2-core:
    planar with too few branch vertices, which smoothing never adds; else the
    verdict remembered for its smoothed rows, exact as it depends on them
    alone, or the K_{3,3} search on them and one LR run when it finds none."""
    if _too_few_branches(_branch_degrees(core)):
        return True
    rows, key = _smoothed(core), None
    if len(rows) <= _MEMO_ORDER:  # n rows behind a 1 bit: no two orders collide
        key = 1
        for row in rows:
            key = key << len(rows) | row
    if (verdict := _verdicts.get(key)) is None:
        verdict = not _holds_k33(rows) and _LRPlanarity(rows).run()
        if key is not None:
            if len(_verdicts) >= _MEMO_ENTRIES:
                _verdicts.clear()
            _verdicts[key] = verdict
    return verdict


def lr_is_planar(g: Graph) -> bool:
    """Bare planarity decision, no certificate."""
    return _core_is_planar(g.adj)


def _rotation(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Rotation system of g, planar by `lr_is_planar`, by one LR run on its rows."""
    lr = _LRPlanarity(g.adj)
    if not lr.run():
        raise AssertionError("LR run on the rows contradicts the planar verdict; solver bug")
    return lr.embed()


def planar_embedding(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Rotation system of a planar graph (raises if non-planar)."""
    if not lr_is_planar(g):
        raise GraphError("graph is not planar; no embedding exists")
    return _rotation(g)


# ---------------------------------------------------------------------------
# Certificate verification


def verify_embedding(g: Graph, rotation: tuple[tuple[int, ...], ...]) -> bool:
    """Check the rotation system is a planar embedding. On a connected graph
    with an edge, V - E + F = 2 - 2 * genus, so summed over the c components
    with an edge, V - E + F = 2c exactly when every one of them is planar."""
    if len(rotation) != g.n:
        return False
    for v in range(g.n):
        if sorted(rotation[v]) != list(iter_bits(g.adj[v])):
            return False
    position = [
        {u: i for i, u in enumerate(rotation[v])} for v in range(g.n)
    ]
    # trace faces: successor of dart (u, v) is (v, w) with w cyclically after
    # u in the rotation at v
    seen: set[tuple[int, int]] = set()
    faces = 0
    for v in range(g.n):
        for u in rotation[v]:
            cur = (v, u)
            if cur in seen:
                continue
            faces += 1
            while cur not in seen:
                seen.add(cur)
                a, b = cur
                idx = position[b][a]
                nxt = rotation[b][(idx + 1) % len(rotation[b])]
                cur = (b, nxt)
    with_edges = [mask for mask in connected_component_masks(g, (1 << g.n) - 1) if mask & (mask - 1)]
    vertices = sum(mask.bit_count() for mask in with_edges)
    return vertices - g.edge_count() + faces == 2 * len(with_edges)


def verify_kuratowski(g: Graph, witness: KuratowskiWitness) -> bool:
    """Re-walk the witness: its vertices are g's, each path runs along edges
    of g between two branch vertices, the paths are internally disjoint, and
    the branch graph (one edge per path) is K_5 or K_{3,3}."""
    order = {"K5": 5, "K33": 6}.get(witness.kind)
    used = set(witness.branch_vertices)  # and, as they are walked, path interiors
    if not len(used) == len(witness.branch_vertices) == order:
        return False  # too few or too many branch vertices, or one listed twice
    vertices = used.union(*witness.paths)
    if min(vertices) < 0 or max(vertices) >= g.n:
        return False  # a negative vertex would index the rows from the end
    index = {v: i for i, v in enumerate(sorted(used))}
    rows = [0] * order
    for path in witness.paths:
        if len(path) < 2 or path[0] not in index or path[-1] not in index:
            return False
        if not all(g.has_edge(a, b) for a, b in zip(path, path[1:])):
            return False
        interior = set(path[1:-1])
        if len(interior) != len(path) - 2 or interior & used:
            return False  # paths must be internally disjoint
        used |= interior
        a, b = index[path[0]], index[path[-1]]
        if a == b or rows[a] >> b & 1:
            return False  # a loop or a second path between the same pair
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    if witness.kind == "K5":
        return len(witness.paths) == 10  # 10 distinct pairs of 5 vertices
    return complete_bipartite_parts(Graph(order, rows, _checked=True)) == (3, 3)


# ---------------------------------------------------------------------------
# Kuratowski extraction by deletion


def kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """Edge-minimal non-planar subgraph, classified as a K_5 / K_{3,3}
    subdivision (raises if the graph is planar)."""
    if lr_is_planar(g):
        raise GraphError("graph is planar; no Kuratowski witness exists")
    return _witness_by_deletion(g)


def _witness_by_deletion(g: Graph) -> KuratowskiWitness:
    """Delete each edge of the non-planar g in sorted order unless that makes
    the kept graph planar, with far fewer trials than one per edge. Only the
    kept graph's 2-core H is stored: a graph is planar exactly when its
    2-core is, so an edge outside H is dropped untested.

    Three exact rules give the same decisions. Deleting a longer prefix of
    the undecided edges leaves a subgraph, so whether the prefix's core is
    planar is monotone in its length: the greedy deletes every edge before
    the first prefix that turns planar and keeps that prefix's last edge.
    Blocks of undecided edges are deleted whole, doubling after each block
    that stays non-planar, and the block that turns planar is bisected. A
    kept edge's path through degree-2 vertices of H, or its cycle component,
    peels away whole whichever of its edges is deleted, leaving the same
    planar core; H only shrinks afterwards, so the whole path is kept with no
    trial. When H changes, its vertices of degree > 2 are checked: if they
    are six of degree 3 or five of degree 4, all are branch vertices of the
    subdivision H holds, so the rest of H is disjoint cycles, whose edges
    alone the greedy would delete and `_classify_subdivision` never reads."""
    core = _two_core(g)
    kept = [0] * g.n
    edges = sorted(g.edges())
    size, changed = 1, True  # whether the core changed since it was checked
    while not changed or _branch_degrees(core) not in ([3] * 6, [4] * 5):
        # the undecided edges: every edge passed is off the core or kept
        block = [e for e in edges if (core[e[0]] & ~kept[e[0]]) >> e[1] & 1][:size]
        # deleting block[:lo] leaves a non-planar core and block[:hi] a planar
        # one; hi starts past the block, as the whole block is tried first
        lo, hi, mid = 0, len(block) + 1, len(block)
        while hi - lo > 1:
            trial = list(core)
            for u, v in block[lo:mid]:
                trial[u] &= ~(1 << v)
                trial[v] &= ~(1 << u)
                _peel(trial, [u, v])
            if _core_is_planar(trial):
                hi = mid
            else:
                core, lo = trial, mid
            mid = (lo + hi) // 2
        changed = lo > 0
        if lo == len(block):
            size *= 2
            continue
        # keep block[lo] and its path through degree-2 vertices, walked from
        # both ends (all the way round when it lies on a cycle component)
        size = 1
        for start, b in (block[lo], block[lo][::-1]):
            a = start
            while True:
                kept[a] |= 1 << b
                kept[b] |= 1 << a
                if b == start or core[b].bit_count() != 2:
                    break
                a, b = b, (core[b] & ~(1 << a)).bit_length() - 1
    return _classify_subdivision(core)


def _classify_subdivision(core: list[int]) -> KuratowskiWitness:
    """Read the K_5 or K_{3,3} subdivision off the rows of a non-planar
    2-core with six branch vertices of degree 3 or five of degree 4, the rows
    with more than two bits set. Each branch-to-branch path is walked bit by
    bit from both ends and kept from its smaller end; no walk reaches a
    disjoint cycle."""
    branch = tuple(v for v, row in enumerate(core) if row.bit_count() > 2)
    kind = "K5" if len(branch) == 5 else "K33"
    paths = []
    for b in branch:
        for first in iter_bits(core[b]):
            path = [b, first]
            while core[path[-1]].bit_count() == 2:
                path.append((core[path[-1]] & ~(1 << path[-2])).bit_length() - 1)
            if b < path[-1]:
                paths.append(tuple(path))
    return KuratowskiWitness(kind, branch, tuple(sorted(paths)))


# ---------------------------------------------------------------------------
# Public verdict


def is_planar(g: Graph) -> PlanarityVerdict:
    """Planarity verdict with a self-checking certificate either way."""
    if lr_is_planar(g):
        rotation = _rotation(g)
        if not verify_embedding(g, rotation):
            raise AssertionError("embedding failed Euler verification; solver bug")
        return PlanarityVerdict(True, rotation, None)
    witness = _witness_by_deletion(g)
    if not verify_kuratowski(g, witness):
        raise AssertionError("Kuratowski witness failed verification; solver bug")
    return PlanarityVerdict(False, None, witness)
