"""Planarity testing with independently checkable certificates.

The decision procedure is the left-right (LR) planarity criterion over a
DFS orientation: back edges are partitioned into two sides subject to the
T-alike/T-opposite constraints tracked on a stack of conflict pairs. A
planar verdict carries a combinatorial embedding (rotation system) obtained
from the side assignment; a non-planar verdict carries a Kuratowski
subdivision found by deleting edges while non-planarity persists (an
edge-minimal non-planar subgraph is a subdivision of K_5 or K_{3,3}). All
three phases walk the DFS on explicit stacks, so deep graphs need no
recursion.

Two exact screens spare most LR runs. Both look at the 2-core, what is left
after repeatedly deleting vertices of degree <= 1; a graph is planar exactly
when its 2-core is, because a Kuratowski subdivision has minimum degree 2.
`lr_is_planar` calls a graph planar without an LR run when its 2-core has
fewer than 6 vertices of degree >= 3 and fewer than 5 of degree >= 4, the
branch vertices a K_{3,3} or K_5 subdivision needs. The deletion keeps only
the 2-core of the kept graph: an edge outside it is a bridge into a pendant
tree and goes untested, and an edge inside it is tested on the re-peeled
core. The edges kept, and so the witness, are those of one LR run per edge.

Certificates are verified by re-walking, not trusted: embeddings via
Euler's formula per connected component, witnesses by tracing their
branch-vertex paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, connected_component_masks, iter_bits


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


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self):
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("L", "R")

    def __init__(self, left=None, right=None):
        self.L = left if left is not None else _Interval()
        self.R = right if right is not None else _Interval()

    def swap(self):
        self.L, self.R = self.R, self.L


class _LRPlanarity:
    """One run of the LR test; `run` decides, `embed` extracts the rotations."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.adj = [list(iter_bits(row)) for row in g.adj]
        self.height: list[int | None] = [None] * g.n
        self.parent_edge: list[tuple[int, int] | None] = [None] * g.n
        self.roots: list[int] = []
        self.orient_adjs: list[list[int]] = [[] for _ in range(g.n)]
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting_depth: dict[tuple[int, int], int] = {}
        self.ref: dict[tuple[int, int], tuple[int, int] | None] = {}
        self.side: dict[tuple[int, int], int] = {}
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple[int, int], int] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
        self.ordered_adjs: list[list[int]] = [[] for _ in range(g.n)]

    # -- phase 1: DFS orientation ------------------------------------------

    def _orient(self) -> None:
        oriented = [0] * self.n  # bit w of row v: edge vw already oriented
        for root in range(self.n):
            if self.height[root] is not None:
                continue
            self.height[root] = 0
            self.roots.append(root)
            stack = [(root, iter(self.adj[root]))]
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if oriented[v] >> w & 1:
                        continue
                    oriented[v] |= 1 << w
                    oriented[w] |= 1 << v
                    vw = (v, w)
                    self.orient_adjs[v].append(w)
                    self.lowpt[vw] = self.height[v]
                    self.lowpt2[vw] = self.height[v]
                    if self.height[w] is None:  # tree edge
                        self.parent_edge[w] = vw
                        self.height[w] = self.height[v] + 1
                        stack.append((w, iter(self.adj[w])))
                        advanced = True
                        break
                    self.lowpt[vw] = self.height[w]  # back edge
                    self._finish_edge(vw)
                if not advanced:
                    stack.pop()
                    e = self.parent_edge[v]
                    if e is not None:
                        self._finish_edge(e)

    def _finish_edge(self, vw: tuple[int, int]) -> None:
        v = vw[0]
        self.nesting_depth[vw] = 2 * self.lowpt[vw]
        if self.lowpt2[vw] < self.height[v]:
            self.nesting_depth[vw] += 1  # chordal
        e = self.parent_edge[v]
        if e is not None:
            if self.lowpt[vw] < self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                self.lowpt[e] = self.lowpt[vw]
            elif self.lowpt[vw] > self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
            else:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])

    # -- phase 2: testing -----------------------------------------------------

    def _conflicting(self, interval: _Interval, b: tuple[int, int]) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _lowest(self, pair: _ConflictPair) -> int:
        if pair.L.empty():
            return self.lowpt[pair.R.low]
        if pair.R.empty():
            return self.lowpt[pair.L.low]
        return min(self.lowpt[pair.L.low], self.lowpt[pair.R.low])

    def _test(self) -> bool:
        for v in range(self.n):
            self.ordered_adjs[v] = sorted(
                self.orient_adjs[v], key=lambda w: self.nesting_depth[(v, w)]
            )
        for e in self.lowpt:
            self.side[e] = 1
            self.ref[e] = None
        for root in self.roots:
            if not self._test_dfs(root):
                return False
        return True

    def _test_dfs(self, root: int) -> bool:
        # explicit stack of (vertex, edge index, whether that tree edge's
        # subtree is finished), so deep graphs do not hit the recursion limit
        stack = [(root, 0, False)]
        while stack:
            v, idx, child_done = stack.pop()
            e = self.parent_edge[v]
            adjs = self.ordered_adjs[v]
            while idx < len(adjs):
                w = adjs[idx]
                ei = (v, w)
                if not child_done:
                    self.stack_bottom[ei] = len(self.S)
                    if ei == self.parent_edge[w]:  # tree edge: finish w first
                        stack.append((v, idx, True))
                        stack.append((w, 0, False))
                        break
                    self.lowpt_edge[ei] = ei  # back edge
                    self.S.append(_ConflictPair(right=_Interval(ei, ei)))
                child_done = False
                if self.lowpt[ei] < self.height[v]:  # ei has a return edge
                    if idx == 0:
                        if e is not None:
                            self.lowpt_edge[e] = self.lowpt_edge[ei]
                    elif not self._add_constraints(ei, e):
                        return False
                idx += 1
            else:
                if e is not None:
                    self._trim_back_edges(e)
        return True

    def _add_constraints(self, ei: tuple[int, int], e: tuple[int, int]) -> bool:
        P = _ConflictPair()
        # merge return edges of ei into P.R
        while True:
            Q = self.S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                return False  # not planar
            if self.lowpt[Q.R.low] > self.lowpt[e]:
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:  # align
                self.ref[Q.R.low] = self.lowpt_edge[e]
            if len(self.S) == self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into P.L
        while self.S and (
            self._conflicting(self.S[-1].L, ei) or self._conflicting(self.S[-1].R, ei)
        ):
            Q = self.S.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                return False  # not planar
            if P.R.low is not None:
                self.ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.S.append(P)
        return True

    def _trim_back_edges(self, e: tuple[int, int]) -> None:
        u = e[0]
        # drop entire conflict pairs that return to the parent u
        while self.S and self._lowest(self.S[-1]) == self.height[u]:
            P = self.S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if self.S:
            P = self.S.pop()
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref[P.L.high]
            if P.L.high is None and P.L.low is not None:
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref[P.R.high]
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            self.S.append(P)
        # side of e is the side of a highest return edge
        if self.lowpt[e] < self.height[u]:
            hl = self.S[-1].L.high
            hr = self.S[-1].R.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    # -- phase 3: embedding ----------------------------------------------------

    def _sign(self, e: tuple[int, int]) -> int:
        # iterative resolution of the ref chain
        chain = []
        while self.ref.get(e) is not None:
            chain.append(e)
            e = self.ref[e]
        result = self.side[e]
        for prev in reversed(chain):
            self.side[prev] *= result
            self.ref[prev] = None
            result = self.side[prev]
        return result

    def embed(self) -> tuple[tuple[int, ...], ...]:
        for e in list(self.nesting_depth):
            self.nesting_depth[e] *= self._sign(e)
        rotation: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            self.ordered_adjs[v] = sorted(
                self.orient_adjs[v], key=lambda w: self.nesting_depth[(v, w)]
            )
            rotation[v] = list(self.ordered_adjs[v])
        left_ref: list[int | None] = [None] * self.n
        right_ref: list[int | None] = [None] * self.n
        for root in self.roots:
            stack = [(root, 0)]
            while stack:
                v, idx = stack.pop()
                advanced = False
                while idx < len(self.ordered_adjs[v]):
                    w = self.ordered_adjs[v][idx]
                    idx += 1
                    ei = (v, w)
                    if ei == self.parent_edge[w]:  # tree edge
                        rotation[w].insert(0, v)
                        left_ref[v] = w
                        right_ref[v] = w
                        stack.append((v, idx))
                        stack.append((w, 0))
                        advanced = True
                        break
                    # back edge: insert v next to the reference in w's rotation
                    if self.side[ei] == 1:
                        pos = rotation[w].index(right_ref[w])
                        rotation[w].insert(pos + 1, v)
                    else:
                        pos = rotation[w].index(left_ref[w])
                        rotation[w].insert(pos, v)
                        left_ref[w] = v
                if not advanced:
                    continue
        return tuple(tuple(r) for r in rotation)

    def run(self) -> bool:
        if self.n > 2 and self.g.edge_count() > 3 * self.n - 6:
            return False
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


def _too_few_branch_vertices(core: list[int]) -> bool:
    """True when a 2-core cannot hold a K_5 or K_{3,3} subdivision: one needs
    6 vertices of degree >= 3 or 5 of degree >= 4, and lies in the 2-core."""
    deg3 = deg4 = 0
    for row in core:
        d = row.bit_count()
        if d >= 3:
            deg3 += 1
            if d >= 4:
                deg4 += 1
    return deg3 < 6 and deg4 < 5


def lr_is_planar(g: Graph) -> bool:
    """Bare LR planarity decision, no certificate. Graphs whose 2-core has
    too few branch vertices for a Kuratowski subdivision are planar with no
    LR run."""
    if _too_few_branch_vertices(_two_core(g)):
        return True
    return _LRPlanarity(g).run()


def planar_embedding(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Rotation system of a planar graph (raises if non-planar)."""
    lr = _LRPlanarity(g)
    if not lr.run():
        raise GraphError("graph is not planar; no embedding exists")
    return lr.embed()


# ---------------------------------------------------------------------------
# Certificate verification


def verify_embedding(g: Graph, rotation: tuple[tuple[int, ...], ...]) -> bool:
    """Check the rotation system is a planar embedding via Euler's formula,
    applied to every connected component."""
    if len(rotation) != g.n:
        return False
    for v in range(g.n):
        if sorted(rotation[v]) != sorted(iter_bits(g.adj[v])):
            return False
    position = [
        {u: i for i, u in enumerate(rotation[v])} for v in range(g.n)
    ]
    # trace faces: successor of dart (u, v) is (v, w) with w cyclically after
    # u in the rotation at v
    seen: set[tuple[int, int]] = set()
    faces_in_component: dict[int, int] = {}
    comps = connected_component_masks(g)
    comp_of: dict[int, int] = {}
    for i, mask in enumerate(comps):
        for v in iter_bits(mask):
            comp_of[v] = i
    for v in range(g.n):
        for u in rotation[v]:
            dart = (v, u)
            if dart in seen:
                continue
            cur = dart
            while cur not in seen:
                seen.add(cur)
                a, b = cur
                idx = position[b][a]
                nxt = rotation[b][(idx + 1) % len(rotation[b])]
                cur = (b, nxt)
            faces_in_component[comp_of[v]] = faces_in_component.get(comp_of[v], 0) + 1
    for i, mask in enumerate(comps):
        vcount = mask.bit_count()
        ecount = sum(g.adj[v].bit_count() for v in iter_bits(mask)) // 2
        if ecount == 0:
            continue  # a single vertex bounds one face trivially
        if vcount - ecount + faces_in_component.get(i, 0) != 2:
            return False
    return True


def verify_kuratowski(g: Graph, witness: KuratowskiWitness) -> bool:
    """Re-walk the witness: edges exist, paths are internally disjoint, and
    the branch structure is K_5 or K_{3,3}."""
    branch = set(witness.branch_vertices)
    if witness.kind == "K5":
        if len(branch) != 5 or len(witness.paths) != 10:
            return False
        expected_pairs = {frozenset(p) for p in combinations(sorted(branch), 2)}
    elif witness.kind == "K33":
        if len(branch) != 6 or len(witness.paths) != 9:
            return False
        expected_pairs = None  # checked after bipartition is derived
    else:
        return False

    internal_seen: set[int] = set()
    pair_set: set[frozenset[int]] = set()
    for path in witness.paths:
        if len(path) < 2 or path[0] not in branch or path[-1] not in branch:
            return False
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return False
        interior = path[1:-1]
        for w in interior:
            if w in branch or w in internal_seen:
                return False  # paths must be internally disjoint
            internal_seen.add(w)
        if len(set(path)) != len(path):
            return False
        pair = frozenset((path[0], path[-1]))
        if len(pair) != 2 or pair in pair_set:
            return False
        pair_set.add(pair)

    if witness.kind == "K5":
        return pair_set == expected_pairs
    # K33: the branch graph (one edge per path) must be complete bipartite 3+3
    by_vertex: dict[int, set[int]] = {v: set() for v in branch}
    for pair in pair_set:
        a, b = tuple(pair)
        by_vertex[a].add(b)
        by_vertex[b].add(a)
    if any(len(nbrs) != 3 for nbrs in by_vertex.values()):
        return False
    start = min(branch)
    side_a = {start} | set()
    side_b = set(by_vertex[start])
    side_a |= branch - side_b - {start}
    if len(side_a) != 3 or len(side_b) != 3:
        return False
    for a in side_a:
        if by_vertex[a] != side_b:
            return False
    return True


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
    the kept graph planar. Only the kept graph's 2-core is stored: a graph is
    planar exactly when its 2-core is, so an edge outside the core is dropped
    untested, and an edge inside is tested on the re-peeled trial core."""
    core = _two_core(g)
    for u, v in sorted(g.edges()):
        if not core[u] >> v & 1:
            continue  # a tree edge off the core: deleting it leaves the core
        trial = list(core)
        trial[u] &= ~(1 << v)
        trial[v] &= ~(1 << u)
        _peel(trial, [u, v])
        if not lr_is_planar(Graph(g.n, trial, _checked=True)):
            core = trial
    return _classify_subdivision(g.n, list(Graph(g.n, core, _checked=True).edges()))


def _classify_subdivision(n: int, edges: list[tuple[int, int]]) -> KuratowskiWitness:
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
    witness = KuratowskiWitness(kind, tuple(branch), tuple(sorted(paths)))
    return witness


# ---------------------------------------------------------------------------
# Public verdict


def is_planar(g: Graph) -> PlanarityVerdict:
    """Planarity verdict with a self-checking certificate either way."""
    lr = _LRPlanarity(g)
    if lr.run():
        rotation = lr.embed()
        if not verify_embedding(g, rotation):
            raise AssertionError("embedding failed Euler verification; solver bug")
        return PlanarityVerdict(True, rotation, None)
    witness = _witness_by_deletion(g)
    if not verify_kuratowski(g, witness):
        raise AssertionError("Kuratowski witness failed verification; solver bug")
    return PlanarityVerdict(False, None, witness)
