"""Exact computation of the five invariants: gamma, gamma_t, chi, chi_d, chi_dom.

Values and reports run one stage sequence, gamma, chi, chi_d, the D(k)
verdict, chi_dom, gamma_t: each search runs when the consumer reaches its
stage, and each witness only when the consumer asks for it, so the scan's
values-only path and the full report share every rule.

Solver strategy: both domination numbers use one bounded cover search. It
finds some set of at most a given number of vertices that covers the
vertices still undominated, branching on the one with the fewest
neighbours; the size is the first cover found, lowered while a smaller one
exists. The lex-least witness walks the vertices in index order and takes
each one that the same search can complete to a smallest cover with
vertices above it. The chromatic numbers share one iterative coloring
search on an explicit stack, clique vertices first and then by degree. It
runs on one state per k: each class's members and the vertices adjacent to
all of them, and a trail that undoes a placement by restoring two integers.
The class scan skips classes that break the proper or dominated rule; the
dominator rule is read on the placed state. Iterative deepening on k from
the clique bound finds each number. Lex-least witnesses and the enumeration
of all optimal colorings walk prefixes in identity order on the same state:
the placed prefix stays placed, and the search, given the prefix, is an
oracle that decides whether a branch completes, searching only the unplaced
vertices. Witnesses are the lexicographically least optimal ones (dominating
sets compared as sorted vertex tuples, colorings by their vertex-to-class
assignment sequence, classes numbered by first use).

`compute_report` keeps the last report it computed, with its graph, in a
one-slot memo, and a report of an equal graph reuses it. A report of any
other graph replaces it; a graph whose report raises is never kept. The
enumeration of all optimal dominator colorings is the one source of them,
for Theorem 1 or on its own: for a graph equal to the remembered one it
restarts from the report's chi_d witness instead of running chi and chi_d
again. `check_theorem1` computes the report first, so it always restarts.

Convention: a vertex dominates its own color class only when that class is
exactly the singleton {v}. Cross-class domination always means "adjacent to
every vertex of the class".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, GraphError, is_connected, iter_bits, mask_of


class DisconnectedError(GraphError):
    """Operation defined only for connected graphs."""


class UndefinedInvariantError(GraphError):
    """The requested invariant does not exist for this graph."""


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class Coloring:
    """Ordered partition into independent color classes.

    Classes are stored canonically: each class as a frozenset, classes
    ordered by their minimum vertex.
    """

    classes: tuple[frozenset[int], ...]

    @staticmethod
    def from_classes(classes: Iterable[Iterable[int]]) -> "Coloring":
        normalized = [frozenset(c) for c in classes]
        if any(not c for c in normalized):
            raise GraphError("color classes must be non-empty")
        normalized.sort(key=min)
        return Coloring(tuple(normalized))

    @staticmethod
    def from_masks(masks: Iterable[int]) -> "Coloring":
        return Coloring.from_classes(tuple(iter_bits(m)) for m in masks if m)

    @property
    def k(self) -> int:
        return len(self.classes)

    def masks(self) -> tuple[int, ...]:
        return tuple(mask_of(c) for c in self.classes)

    def assignment(self, n: int) -> tuple[int, ...]:
        assign = [-1] * n
        for i, cls in enumerate(self.classes):
            for v in cls:
                if not (0 <= v < n) or assign[v] != -1:
                    raise GraphError("classes do not partition 0..n-1")
                assign[v] = i
        if any(a == -1 for a in assign):
            raise GraphError("classes do not cover 0..n-1")
        return tuple(assign)

    def class_of(self, v: int) -> int:
        for i, cls in enumerate(self.classes):
            if v in cls:
                return i
        raise GraphError(f"vertex {v} is in no class")


@dataclass(frozen=True)
class DominatingWitness:
    vertices: frozenset[int]
    kind: str  # "plain" or "total"

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


@dataclass(frozen=True)
class InvariantReport:
    """The five exact invariants with optimal witnesses.

    gamma_t and chi_dom are None exactly for the single-vertex graph, where
    no total dominating set and no dominated coloring exist.
    """

    n: int
    edge_count: int
    gamma: int
    gamma_t: int | None
    chi: int
    chi_d: int
    chi_dom: int | None
    dk: int | None
    gamma_witness: DominatingWitness
    gamma_t_witness: DominatingWitness | None
    chi_witness: Coloring
    chi_d_witness: Coloring
    chi_dom_witness: Coloring | None

    def record(self, graph6: str) -> dict[str, object]:
        """Flat key-value record (one CSV row / one JSON object)."""
        return {
            "n": self.n,
            "edge_count": self.edge_count,
            "gamma": self.gamma,
            "gamma_t": self.gamma_t,
            "chi": self.chi,
            "chi_d": self.chi_d,
            "chi_dom": self.chi_dom,
            "dk": self.dk,
            "graph6": graph6,
        }


# ---------------------------------------------------------------------------
# Predicates


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The mask of the vertices; GraphError unless each is a vertex of G."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def is_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    mask = _vertex_mask(g, vertices)
    covered = mask
    for v in iter_bits(mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def is_total_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    mask = _vertex_mask(g, vertices)
    covered = 0
    for v in iter_bits(mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def is_partition(g: Graph, coloring: Coloring) -> bool:
    total = 0
    for cls in coloring.classes:
        m = _vertex_mask(g, cls)
        if m & total:
            return False
        total |= m
    return total == (1 << g.n) - 1


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    if not is_partition(g, coloring):
        return False
    for m in coloring.masks():
        for v in iter_bits(m):
            if g.adj[v] & m:
                return False
    return True


def _dominators(adj: tuple[int, ...], masks: Iterable[int]) -> list[int]:
    """For each non-empty class mask, the mask of the vertices that dominate
    the class: those adjacent to all of its members, and v itself when the
    class is exactly {v}."""
    dominators = []
    for m in masks:
        common = -1
        for v in iter_bits(m):
            common &= adj[v]
        dominators.append(common | m if m.bit_count() == 1 else common)
    return dominators


def dominates_class(g: Graph, v: int, coloring: Coloring, i: int) -> bool:
    """True iff v is adjacent to all of class i, or class i is exactly {v}."""
    bit = _vertex_mask(g, (v,))
    if not (0 <= i < coloring.k):
        raise GraphError(f"class index {i} out of range for k={coloring.k}")
    return _dominators(g.adj, (_vertex_mask(g, coloring.classes[i]),))[0] & bit != 0


def is_dominator_coloring(g: Graph, coloring: Coloring) -> bool:
    if not is_proper_coloring(g, coloring):
        return False
    covered = 0
    for d in _dominators(g.adj, coloring.masks()):
        covered |= d
    return covered == (1 << g.n) - 1


def is_dominated_coloring(g: Graph, coloring: Coloring) -> bool:
    """Every class has a dominator outside it (no own-singleton clause)."""
    if not is_proper_coloring(g, coloring):
        return False
    masks = coloring.masks()
    return all(d & ~m for d, m in zip(_dominators(g.adj, masks), masks))


# ---------------------------------------------------------------------------
# Domination numbers


def _cover_tables(adj: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Closed neighbourhoods, the vertex masks grouped by degree (least first;
    closed and open neighbourhoods group alike), and the largest degree."""
    closed = []
    by_degree = [0] * len(adj)
    for v, row in enumerate(adj):
        bit = 1 << v
        closed.append(row | bit)
        by_degree[row.bit_count()] |= bit
    classes = [m for m in by_degree if m]
    return closed, classes, adj[classes[-1].bit_length() - 1].bit_count()


def _cover_within(
    covers: Sequence[int], classes: list[int], top: int, uncovered: int, allowed: int, budget: int
) -> int:
    """The mask of the first set found of at most `budget` vertices of
    `allowed` whose covers cover `uncovered`; -1 if there is none.

    covers must be symmetric, so covers[u] lists the coverers of u;
    `classes` groups the vertices by cover size, smallest first, and `top`
    is the largest size. Depth-first on an explicit stack, with no
    incumbent: a node branches on its uncovered vertex with the fewest
    covers, the least on ties, and a child is never made when `top` per
    vertex left cannot cover what it leaves. The coverer leaving the fewest
    uncovered, the least on ties, is moved to the top of the stack.
    """
    count = uncovered.bit_count()
    if top * budget < count:
        return -1
    stack = [(uncovered, count, 0, budget)]
    while stack:
        uncovered, count, chosen, left = stack.pop()
        if not count:
            return chosen
        for cls in classes:
            u = uncovered & cls
            if u:
                break
        left -= 1
        best = -1
        coverers = covers[(u & -u).bit_length() - 1] & allowed
        while coverers:
            w = coverers & -coverers
            coverers ^= w
            rest = uncovered & ~covers[w.bit_length() - 1]
            rest_count = rest.bit_count()
            if rest_count <= top * left:
                if rest_count < count:
                    count = rest_count
                    best = len(stack)
                stack.append((rest, rest_count, chosen | w, left))
        if best >= 0:
            stack.append(stack.pop(best))
    return -1


def _cover(
    covers: Sequence[int], classes: list[int], top: int, kind: str
) -> tuple[int, Iterator[DominatingWitness]]:
    """Size of a smallest covering set, and a lazy iterator over the lex-least one.

    The size: from the cover of all n vertices, each smaller cover found in
    turn, down to the counting bound n / top. The witness walks v in index
    order and takes v when a smallest cover holds the vertices taken, v and
    only vertices above v: at once when the cover in hand does, else when
    the search finds the rest, and that cover is the new one in hand.
    """
    n = len(covers)
    full = (1 << n) - 1
    found = full
    while (size := found.bit_count()) > -(-n // top):
        smaller = _cover_within(covers, classes, top, full, full, size - 1)
        if smaller < 0:
            break
        found = smaller

    def witnesses() -> Iterator[DominatingWitness]:
        hand = found
        chosen = 0
        uncovered = full
        for v in range(n):
            if not uncovered:
                break
            bit = 1 << v
            if not hand & bit:
                left = size - chosen.bit_count()
                above = full ^ ((bit << 1) - 1)
                rest = _cover_within(covers, classes, top, uncovered & ~covers[v], above, left - 1)
                if rest < 0:
                    continue
                hand = chosen | bit | rest
            chosen |= bit
            uncovered &= ~covers[v]
        yield DominatingWitness(frozenset(iter_bits(chosen)), kind)

    return size, witnesses()


def domination_number(g: Graph) -> tuple[int, DominatingWitness]:
    if g.n == 0:
        raise GraphError("domination number is undefined for the empty graph")
    closed, classes, top = _cover_tables(g.adj)
    gamma, witnesses = _cover(closed, classes, top + 1, "plain")
    return gamma, next(witnesses)


def total_domination_number(g: Graph) -> tuple[int, DominatingWitness]:
    if g.n == 0:
        raise GraphError("total domination number is undefined for the empty graph")
    for v in range(g.n):
        if g.adj[v] == 0:
            raise UndefinedInvariantError(
                f"total domination is undefined: vertex {v} is isolated"
            )
    _, classes, top = _cover_tables(g.adj)
    gamma_t, witnesses = _cover(g.adj, classes, top, "total")
    return gamma_t, next(witnesses)


# ---------------------------------------------------------------------------
# Clique lower bound


def max_clique(g: Graph) -> tuple[int, int]:
    """(size, mask) of a maximum clique; deterministic branch order.

    Depth-first on an explicit stack of (size, mask, candidates) frames: a
    frame branches on its lowest candidate, and the frame's other candidates
    wait beneath that branch until it is exhausted.
    """
    adj = g.adj
    best_size = 0
    best_mask = 0
    stack = [(0, 0, (1 << g.n) - 1)]
    while stack:
        size, mask, cand = stack.pop()
        if cand == 0:
            if size > best_size:
                best_size = size
                best_mask = mask
            continue
        if size + cand.bit_count() <= best_size:
            continue
        low = cand & -cand
        cand ^= low
        if cand:
            stack.append((size, mask, cand))
        stack.append((size + 1, mask | low, cand & adj[low.bit_length() - 1]))
    return best_size, best_mask


# ---------------------------------------------------------------------------
# Coloring search: one state and one prefix oracle for feasibility,
# witnesses and enumeration

_MODE_PROPER = 0
_MODE_DOMINATOR = 1
_MODE_DOMINATED = 2


class _ColoringState:
    """Vertices placed into k classes numbered by first use, with an undo trail.

    members[c] is class c's vertex mask and common[c] the mask of vertices
    adjacent to every member (all vertices while the class is empty). That
    is all the rules need, because commons only shrink and classes grow:
    - proper and dominated, read in the class scan: v may join class c iff
      members[c] & adj[v] == 0 and, when dominated, common[c] & adj[v] != 0;
    - dominator, read on the placed state once all k classes are used:
      every vertex must lie in some common[c] or be the sole member of its
      class; an unplaced vertex, finding no class empty, is never alone.
    A trail entry (v, c, old common[c], old used) undoes one placement.
    """

    __slots__ = ("adj", "full", "k", "mode", "members", "common", "cls", "used", "trail")

    def __init__(self, g: Graph, k: int, mode: int):
        self.adj = g.adj
        self.full = (1 << g.n) - 1
        self.k = k
        self.mode = mode
        self.members = [0] * k
        self.common = [self.full] * k
        self.cls = [-1] * g.n  # read only for placed vertices
        self.used = 0
        self.trail: list[tuple[int, int, int, int]] = []

    def push(self, v: int, c: int) -> None:
        """Place v into class c, known to keep a completion possible."""
        self.trail.append((v, c, self.common[c], self.used))
        self.members[c] |= 1 << v
        self.common[c] &= self.adj[v]
        self.cls[v] = c
        if c == self.used:
            self.used += 1

    def pop(self) -> None:
        v, c, old, used = self.trail.pop()
        self.members[c] ^= 1 << v
        self.common[c] = old
        self.used = used

    def complete(self, rest: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...] | None:
        """The first coloring with exactly k classes that keeps the placed
        vertices and places `rest` (every unplaced vertex) in that order, with
        rest[0] in a class of [lo, hi); None if there is none.

        The result is the class-per-vertex assignment, new classes numbered
        by first use along `rest`. The search runs on an explicit stack over
        this state and unwinds it to where it started before returning.
        """
        adj = self.adj
        members = self.members
        common = self.common
        cls = self.cls
        trail = self.trail
        k = self.k
        full = self.full
        dominator = self.mode == _MODE_DOMINATOR
        dominated = self.mode == _MODE_DOMINATED
        used = self.used
        mark = len(trail)
        m = len(rest)
        tries = [0] * (m + 1)  # tries[pos]: the next class for rest[pos]
        tries[0] = lo
        pos = 0
        result = None
        while True:
            if used + m - pos >= k:
                if pos == m:
                    result = tuple(cls)
                    break
                v = rest[pos]
                a = adj[v]
                c = tries[pos]
                limit = hi if pos == 0 else used + 1 if used < k else k
                while c < limit:
                    if not members[c] & a and (not dominated or common[c] & a):
                        old = common[c]
                        trail.append((v, c, old, used))
                        members[c] |= 1 << v
                        common[c] = old & a
                        cls[v] = c
                        if c == used:
                            used += 1
                        if not dominator or used < k:
                            break
                        # on the placed state: fail when a vertex lies
                        # outside every common and is not alone in its class
                        cover = 0
                        for x in common:
                            cover |= x
                        bad = full & ~cover
                        while bad:
                            low = bad & -bad
                            if low not in members:
                                break
                            bad ^= low
                        if not bad:
                            break
                        used = trail.pop()[3]
                        members[c] ^= 1 << v
                        common[c] = old
                    c += 1
                if c < limit:
                    tries[pos] = c + 1
                    pos += 1
                    tries[pos] = 0
                    continue
            if pos == 0:
                break
            pos -= 1
            v, c, old, used = trail.pop()
            members[c] ^= 1 << v
            common[c] = old
        while len(trail) > mark:
            self.pop()
        return result


def _renumbered(assignment: tuple[int, ...]) -> tuple[int, ...]:
    """The assignment with classes numbered by first appearance."""
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in assignment)


def _lex_colorings(
    state: _ColoringState, order: tuple[int, ...], first: tuple[int, ...], least: bool = False
) -> Iterator[Coloring]:
    """Every coloring with exactly k classes, in lexicographic order of
    assignment sequences; `first` is any one of them, in any numbering, the
    least when `least` is set, and `state` is empty.

    Depth-first over prefixes in identity order, on `state` and an explicit
    stack: the prefix 0..v-1 stays placed, and comps[v] is a completion of
    it. Vertex v takes comps[v][v] with no search; for the classes below or
    above that one, the oracle finds the least class that completes. Along
    the least coloring's own prefixes no lower class completes, so until
    the first backtrack that oracle call is skipped.
    """
    n = len(state.cls)
    comps: list[tuple[int, ...]] = [_renumbered(first)] * (n + 1)
    tries = [0] * (n + 1)  # tries[v]: the least class v may take next
    v = 0
    while True:
        if v == n:
            yield Coloring.from_masks(state.members)
        else:
            comp: tuple[int, ...] | None = comps[v]
            lo = tries[v]
            if lo != comp[v] and not least:
                hi = comp[v] if lo < comp[v] else min(state.used + 1, state.k)
                found = state.complete((v, *(u for u in order if u > v)), lo, hi)
                if found is not None:
                    comp = _renumbered(found)
                elif lo > comp[v]:
                    comp = None
            if comp is not None:
                state.push(v, comp[v])
                comps[v + 1] = comp
                tries[v] = comp[v] + 1
                v += 1
                tries[v] = 0
                continue
        if v == 0:
            return
        v -= 1
        least = False
        state.pop()


def _search_order(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The clique bound, and the search order shared by all three modes: a
    maximum clique's vertices first, then the rest by degree descending."""
    size, clique_mask = max_clique(g)
    clique = sorted(iter_bits(clique_mask))
    rest = sorted(
        (v for v in range(g.n) if not clique_mask >> v & 1),
        key=lambda v: (-g.degree(v), v),
    )
    return size, tuple(clique + rest)


def _proper_stage(g: Graph) -> tuple[tuple[int, ...], int, Iterator[Coloring]]:
    """The search order, chi, and the chi-colorings."""
    size, order = _search_order(g)
    return (order, *_optimal_colorings(g, _MODE_PROPER, order, size))


def _optimal_colorings(
    g: Graph, mode: int, order: tuple[int, ...], k: int
) -> tuple[int, Iterator[Coloring]]:
    """Least k' >= k with a coloring of the mode, and a lazy iterator over all
    such colorings in lexicographic order, the lex-least witness first."""
    while True:
        state = _ColoringState(g, k, mode)
        first = state.complete(order, 0, 1)
        if first is not None:
            return k, _lex_colorings(state, order, first)
        k += 1


def _require_connected(g: Graph, what: str) -> None:
    if g.n == 0:
        raise GraphError(f"{what} is undefined for the empty graph")
    if not is_connected(g):
        raise DisconnectedError(f"{what} requires a connected graph")


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    if g.n == 0:
        raise GraphError("chromatic number is undefined for the empty graph")
    _, chi, colorings = _proper_stage(g)
    return chi, next(colorings)


def _dominator_colorings(g: Graph) -> tuple[int, Iterator[Coloring]]:
    """chi_d, and a lazy iterator over all chi_d-colorings in lexicographic
    order. When the last report computed is of a graph equal to G (so G is
    connected), the walk restarts from that report's chi_d witness."""
    last = _last_report  # read once: another thread may replace it
    if last is not None and last[0] == g:
        report = last[1]
        _, order = _search_order(g)
        state = _ColoringState(g, report.chi_d, _MODE_DOMINATOR)
        first = report.chi_d_witness.assignment(g.n)
        return report.chi_d, _lex_colorings(state, order, first, least=True)
    _require_connected(g, "dominator chromatic number")
    order, chi, _ = _proper_stage(g)  # chi(G) is a lower bound
    return _optimal_colorings(g, _MODE_DOMINATOR, order, chi)


def dominator_chromatic_number(g: Graph) -> tuple[int, Coloring]:
    chi_d, colorings = _dominator_colorings(g)
    return chi_d, next(colorings)


def dominated_chromatic_number(g: Graph) -> tuple[int, Coloring]:
    if g.n == 1:
        raise UndefinedInvariantError(
            "dominated chromatic number is undefined for the single-vertex graph"
        )
    _require_connected(g, "dominated chromatic number")
    order, chi, _ = _proper_stage(g)
    chi_dom, colorings = _optimal_colorings(g, _MODE_DOMINATED, order, chi)
    return chi_dom, next(colorings)


def enumerate_optimal_dominator_colorings(g: Graph, k: int) -> Iterator[Coloring]:
    """All dominator colorings with exactly k = chi_d(G) classes.

    Each coloring is produced exactly once, classes canonically ordered by
    minimum vertex, in lexicographic order of assignment sequences.
    """
    chi_d, colorings = _dominator_colorings(g)
    if k != chi_d:
        raise GraphError(f"k={k} does not equal chi_d={chi_d}")
    yield from colorings


# ---------------------------------------------------------------------------
# Classification


def _stages(g: Graph) -> Iterator[tuple[str, int | None, Iterator[object] | None]]:
    """The invariants in their fixed order, each as (name, value, witnesses).

    A stage's search runs when the consumer advances to it. Its witnesses
    are a lazy iterator over the optimal witnesses in lexicographic order
    (for the domination stages, the least one only), so the first item is
    the stage's witness. The D(k) verdict follows chi_d as ("dk", k or None,
    None). chi_dom and gamma_t are None, with no witnesses, when some vertex
    is isolated (K1 included): then no dominated coloring and no total
    dominating set exist.
    """
    if g.n == 0:
        raise GraphError("the invariants are undefined for the empty graph")
    closed, classes, top = _cover_tables(g.adj)
    gamma, witnesses = _cover(closed, classes, top + 1, "plain")
    yield "gamma", gamma, witnesses
    order, chi, colorings = _proper_stage(g)
    yield "chi", chi, colorings
    chi_d, colorings = _optimal_colorings(g, _MODE_DOMINATOR, order, chi)
    yield "chi_d", chi_d, colorings
    yield "dk", gamma if gamma == chi == chi_d else None, None
    if not all(g.adj):
        yield "chi_dom", None, None
        yield "gamma_t", None, None
        return
    yield "chi_dom", *_optimal_colorings(g, _MODE_DOMINATED, order, chi)
    yield "gamma_t", *_cover(g.adj, classes, top, "total")


def invariant_values(g: Graph, early_exit_k: int | None = None) -> dict[str, int | None]:
    """The five values and the D(k) verdict "dk" (no witnesses). With
    early_exit_k, return a partial dict as soon as gamma or chi rules out
    D(early_exit_k), or else once "dk" is known."""
    values: dict[str, int | None] = {}
    for name, value, _ in _stages(g):
        values[name] = value
        if early_exit_k is not None and (
            name == "dk" or name in ("gamma", "chi") and value != early_exit_k
        ):
            break
    return values


# The last report `compute_report` computed, with its graph. One slot: it
# cannot grow, and a report of any other graph is computed afresh.
_last_report: tuple[Graph, InvariantReport] | None = None


def compute_report(g: Graph) -> InvariantReport:
    """Full report with witnesses; requires a connected graph. A graph equal
    to the last one reported reuses that report."""
    global _last_report
    last = _last_report  # read once: another thread may replace it
    if last is not None and last[0] == g:
        return last[1]
    _require_connected(g, "an invariant report")
    fields: dict[str, object] = {}
    for name, value, witnesses in _stages(g):
        fields[name] = value
        if name != "dk":
            fields[f"{name}_witness"] = next(witnesses) if witnesses else None
    assert fields["gamma_t"] is None or fields["gamma"] <= fields["gamma_t"]
    assert fields["chi"] <= fields["chi_d"]
    assert fields["chi_dom"] is None or fields["chi"] <= fields["chi_dom"]
    report = InvariantReport(n=g.n, edge_count=g.edge_count(), **fields)
    _last_report = (g, report)
    return report
