"""Exact computation of the five invariants: gamma, gamma_t, chi, chi_d, chi_dom.

Values and reports run one stage sequence, gamma, chi, chi_d, the D(k)
verdict, chi_dom, gamma_t: each search runs when the consumer reaches its
stage, and each witness only when the consumer asks for it, so the scan's
values-only path and the full report share every rule.

Solver strategy: domination numbers by branch-and-bound on the set of
undominated vertices. The chromatic numbers share one coloring search,
clique vertices first and then by degree, with the dominator/dominated side
constraint propagated incrementally; given a forced prefix (vertices 0..v in
fixed classes) it is a prefix oracle. Iterative deepening on k from the
clique bound finds each number. Lex-least witnesses and the enumeration of
all optimal colorings walk prefixes in identity order, entering a branch
only when the oracle completes it. Witnesses are the lexicographically least
optimal ones (dominating sets compared as sorted vertex tuples, colorings by
their vertex-to-class assignment sequence, classes numbered by first use).

Convention: a vertex dominates its own color class only when that class is
exactly the singleton {v}. Cross-class domination always means "adjacent to
every vertex of the class".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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

    def record(self, graph6: str | None = None) -> dict[str, object]:
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


def is_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    mask = mask_of(vertices)
    covered = mask
    for v in iter_bits(mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def is_total_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    mask = mask_of(vertices)
    covered = 0
    for v in iter_bits(mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def is_partition(g: Graph, coloring: Coloring) -> bool:
    total = 0
    for cls in coloring.classes:
        m = mask_of(cls)
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


def dominates_class(g: Graph, v: int, coloring: Coloring, i: int) -> bool:
    """True iff v is adjacent to all of class i, or class i is exactly {v}."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if not (0 <= i < coloring.k):
        raise GraphError(f"class index {i} out of range for k={coloring.k}")
    m = mask_of(coloring.classes[i])
    if m == 1 << v:
        return True
    return m & ~g.adj[v] == 0


def is_dominator_coloring(g: Graph, coloring: Coloring) -> bool:
    if not is_proper_coloring(g, coloring):
        return False
    masks = coloring.masks()
    for v in range(g.n):
        bit = 1 << v
        if not any(m == bit or m & ~g.adj[v] == 0 for m in masks):
            return False
    return True


def is_dominated_coloring(g: Graph, coloring: Coloring) -> bool:
    if not is_proper_coloring(g, coloring):
        return False
    for m in coloring.masks():
        if not any(m & ~g.adj[v] == 0 for v in range(g.n)):
            return False
    return True


# ---------------------------------------------------------------------------
# Domination numbers


def _greedy_cover_size(n: int, covers: tuple[int, ...]) -> int:
    full = (1 << n) - 1
    covered = 0
    count = 0
    while covered != full:
        best_gain = -1
        best_v = -1
        for v in range(n):
            gain = (covers[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        if best_gain <= 0:
            raise UndefinedInvariantError("no cover exists")
        covered |= covers[best_v]
        count += 1
    return count


def _min_cover_size(n: int, covers: tuple[int, ...]) -> int:
    """Smallest set S with union(covers[v] for v in S) == all vertices.

    covers must be symmetric (u in covers[v] iff v in covers[u]), so that
    covers[u] lists the branching candidates when u is the chosen
    undominated vertex.
    """
    full = (1 << n) - 1
    if full == 0:
        return 0
    best = _greedy_cover_size(n, covers)

    def search(count: int, covered: int) -> None:
        nonlocal best
        if covered == full:
            if count < best:
                best = count
            return
        if count + 1 >= best:
            return
        uncovered = full & ~covered
        max_gain = 0
        for v in range(n):
            gain = (covers[v] & uncovered).bit_count()
            if gain > max_gain:
                max_gain = gain
        need = (uncovered.bit_count() + max_gain - 1) // max_gain
        if count + need >= best:
            return
        # branch on the undominated vertex with fewest coverers
        branch_u = -1
        branch_size = n + 1
        for u in iter_bits(uncovered):
            size = covers[u].bit_count()
            if size < branch_size:
                branch_size = size
                branch_u = u
        candidates = sorted(
            iter_bits(covers[branch_u]),
            key=lambda w: (-(covers[w] & uncovered).bit_count(), w),
        )
        for w in candidates:
            search(count + 1, covered | covers[w])

    search(0, 0)
    return best


def _lex_min_cover(n: int, covers: tuple[int, ...], size: int) -> tuple[int, ...]:
    """Lexicographically least covering set of exactly the given size."""
    full = (1 << n) - 1
    latest_cover = [0] * n  # highest-index vertex covering u
    for u in range(n):
        for v in range(n):
            if covers[v] >> u & 1:
                latest_cover[u] = v

    def dfs(start: int, chosen: list[int], covered: int) -> tuple[int, ...] | None:
        if len(chosen) == size:
            return tuple(chosen) if covered == full else None
        remaining = size - len(chosen)
        uncovered = full & ~covered
        if uncovered:
            max_gain = 0
            for v in range(start, n):
                gain = (covers[v] & uncovered).bit_count()
                if gain > max_gain:
                    max_gain = gain
            if max_gain * remaining < uncovered.bit_count():
                return None
            for u in iter_bits(uncovered):
                if latest_cover[u] < start:
                    return None
        for v in range(start, n - remaining + 1):
            result = dfs(v + 1, chosen + [v], covered | covers[v])
            if result is not None:
                return result
        return None

    result = dfs(0, [], 0)
    if result is None:
        raise AssertionError("no witness at the optimal size; solver bug")
    return result


def _cover(
    n: int, covers: tuple[int, ...], kind: str
) -> tuple[int, Callable[[], DominatingWitness]]:
    """Size of a smallest covering set, and a thunk for the lex-least one."""
    size = _min_cover_size(n, covers)
    return size, lambda: DominatingWitness(frozenset(_lex_min_cover(n, covers, size)), kind)


def domination_number(g: Graph) -> tuple[int, DominatingWitness]:
    if g.n == 0:
        raise GraphError("domination number is undefined for the empty graph")
    gamma, witness = _cover(g.n, tuple(row | 1 << v for v, row in enumerate(g.adj)), "plain")
    return gamma, witness()


def total_domination_number(g: Graph) -> tuple[int, DominatingWitness]:
    if g.n == 0:
        raise GraphError("total domination number is undefined for the empty graph")
    for v in range(g.n):
        if g.adj[v] == 0:
            raise UndefinedInvariantError(
                f"total domination is undefined: vertex {v} is isolated"
            )
    gamma_t, witness = _cover(g.n, g.adj, "total")
    return gamma_t, witness()


# ---------------------------------------------------------------------------
# Clique lower bound


def max_clique(g: Graph) -> tuple[int, int]:
    """(size, mask) of a maximum clique; deterministic branch order."""
    best_size = 0
    best_mask = 0

    def expand(r_size: int, r_mask: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if cand == 0:
            if r_size > best_size:
                best_size = r_size
                best_mask = r_mask
            return
        while cand:
            if r_size + cand.bit_count() <= best_size:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(r_size + 1, r_mask | 1 << v, cand & g.adj[v])

    expand(0, 0, (1 << g.n) - 1)
    return best_size, best_mask


# ---------------------------------------------------------------------------
# Coloring search: one prefix oracle for feasibility, witnesses and enumeration

_MODE_PROPER = 0
_MODE_DOMINATOR = 1
_MODE_DOMINATED = 2


def _solve_coloring(
    g: Graph,
    k: int,
    mode: int,
    order: tuple[int, ...],
    prefix: tuple[int, ...] = (),
) -> tuple[int, ...] | None:
    """First coloring with exactly k classes that extends `prefix`, or None.

    Vertices 0..len(prefix)-1 take the classes given in `prefix`, numbered by
    first use; the other vertices are searched in `order`. The solution is
    its class-per-vertex assignment, with the prefix's classes as given and
    the others numbered by first use along `order`.
    """
    n = g.n
    if k <= 0 or k > n:
        return None
    full = (1 << n) - 1
    adj = g.adj
    members = [0] * k
    cls = [-1] * n
    # dominator mode: classes v could still fully dominate
    pot = [(1 << k) - 1] * n
    # dominated mode: vertices still adjacent to all of the class
    dominators = [full] * k

    def place(v: int, c: int) -> tuple[bool, list[tuple[list[int], int, int]]]:
        """Apply the assignment, returning (ok, undo log of overwritten entries)."""
        undo: list[tuple[list[int], int, int]] = []
        prev = members[c]
        members[c] |= 1 << v
        cls[v] = c
        ok = True
        if mode == _MODE_DOMINATOR:
            cbit = 1 << c
            for u in iter_bits(full & ~adj[v]):
                if pot[u] & cbit:
                    undo.append((pot, u, pot[u]))
                    pot[u] &= ~cbit
                    # u can dominate no class now; only being a singleton saves it
                    if pot[u] == 0 and (cls[u] == -1 or members[cls[u]] != 1 << u):
                        ok = False
            if ok and prev and prev.bit_count() == 1:
                # the class's earlier sole member is no longer a singleton
                ok = pot[prev.bit_length() - 1] != 0
        elif mode == _MODE_DOMINATED:
            undo.append((dominators, c, dominators[c]))
            dominators[c] &= adj[v]
            ok = dominators[c] != 0
        return ok, undo

    def unplace(v: int, c: int, undo: list[tuple[list[int], int, int]]) -> None:
        members[c] &= ~(1 << v)
        cls[v] = -1
        for state, i, old in undo:
            state[i] = old

    for v, c in enumerate(prefix):
        if members[c] & adj[v] or not place(v, c)[0]:
            return None
    rest = tuple(v for v in order if v >= len(prefix)) if prefix else order
    m = len(rest)

    def backtrack(pos: int, used: int) -> bool:
        if pos == m:
            return used == k
        if used + (m - pos) < k:
            return False
        v = rest[pos]
        for c in range(min(used + 1, k)):
            if members[c] & adj[v]:
                continue
            ok, undo = place(v, c)
            if ok and backtrack(pos + 1, max(used, c + 1)):
                return True
            unplace(v, c, undo)
        return False

    return tuple(cls) if backtrack(0, max(prefix, default=-1) + 1) else None


def _renumbered(assignment: tuple[int, ...]) -> tuple[int, ...]:
    """The assignment with classes numbered by first appearance."""
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in assignment)


def _lex_colorings(
    g: Graph, k: int, mode: int, order: tuple[int, ...], first: tuple[int, ...]
) -> Iterator[Coloring]:
    """Every coloring with exactly k classes, in lexicographic order of
    assignment sequences; `first` is any one of them, in any numbering.

    Depth-first over prefixes: vertex v tries each class no earlier neighbour
    holds, entering the branch when `_solve_coloring` completes the prefix.
    The completion in hand serves its own branch without a call.
    """
    n = g.n
    prefix: list[int] = []

    def extend(v: int, completion: tuple[int, ...], used: int) -> Iterator[Coloring]:
        if v == n:
            yield Coloring.from_classes(
                [u for u, c in enumerate(prefix) if c == i] for i in range(k)
            )
            return
        taken = {prefix[u] for u in iter_bits(g.adj[v] & ((1 << v) - 1))}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            found = completion
            if c != completion[v]:
                found = _solve_coloring(g, k, mode, order, tuple(prefix) + (c,))
                if found is None:
                    continue
                found = _renumbered(found)
            prefix.append(c)
            yield from extend(v + 1, found, max(used, c + 1))
            prefix.pop()

    yield from extend(0, _renumbered(first), 0)


def _proper_stage(g: Graph) -> tuple[tuple[int, ...], int, Iterator[Coloring]]:
    """The search order shared by all three modes (a maximum clique's vertices
    first, then the rest by degree descending), chi, and the chi-colorings."""
    size, clique_mask = max_clique(g)
    clique = sorted(iter_bits(clique_mask))
    rest = sorted(
        (v for v in range(g.n) if not clique_mask >> v & 1),
        key=lambda v: (-g.degree(v), v),
    )
    order = tuple(clique + rest)
    return (order, *_optimal_colorings(g, _MODE_PROPER, order, size))


def _optimal_colorings(
    g: Graph, mode: int, order: tuple[int, ...], k: int
) -> tuple[int, Iterator[Coloring]]:
    """Least k' >= k with a coloring of the mode, and a lazy iterator over all
    such colorings in lexicographic order, the lex-least witness first."""
    while (first := _solve_coloring(g, k, mode, order)) is None:
        k += 1
    return k, _lex_colorings(g, k, mode, order, first)


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


def _stages(g: Graph) -> Iterator[tuple[str, int | None, Callable[[], object] | None]]:
    """The invariants in their fixed order, each as (name, value, witness thunk).

    A stage's search runs when the consumer advances to it; its witness is
    computed when the thunk is called (once). The D(k) verdict follows chi_d
    as ("dk", k or None, None). chi_dom and gamma_t are None, with no thunk,
    when some vertex is isolated (K1 included): then no dominated coloring
    and no total dominating set exist.
    """
    if g.n == 0:
        raise GraphError("the invariants are undefined for the empty graph")
    gamma, witness = _cover(g.n, tuple(row | 1 << v for v, row in enumerate(g.adj)), "plain")
    yield "gamma", gamma, witness
    order, chi, colorings = _proper_stage(g)
    yield "chi", chi, colorings.__next__
    chi_d, colorings = _optimal_colorings(g, _MODE_DOMINATOR, order, chi)
    yield "chi_d", chi_d, colorings.__next__
    yield "dk", gamma if gamma == chi == chi_d else None, None
    if not all(g.adj):
        yield "chi_dom", None, None
        yield "gamma_t", None, None
        return
    chi_dom, colorings = _optimal_colorings(g, _MODE_DOMINATED, order, chi)
    yield "chi_dom", chi_dom, colorings.__next__
    yield "gamma_t", *_cover(g.n, g.adj, "total")


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


def compute_report(g: Graph) -> InvariantReport:
    """Full report with witnesses; requires a connected graph."""
    _require_connected(g, "an invariant report")
    fields: dict[str, object] = {}
    for name, value, witness in _stages(g):
        fields[name] = value
        if name != "dk":
            fields[f"{name}_witness"] = witness() if witness else None
    assert fields["gamma_t"] is None or fields["gamma"] <= fields["gamma_t"]
    assert fields["chi"] <= fields["chi_d"]
    assert fields["chi_dom"] is None or fields["chi"] <= fields["chi_dom"]
    return InvariantReport(n=g.n, edge_count=g.edge_count(), **fields)
