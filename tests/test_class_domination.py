"""Everything that reads the class-domination relation, pinned by one digest.

A vertex v dominates a color class when v is adjacent to every vertex of
the class, or when the class is exactly {v}. Theorem 1's report, chains
and the three class-domination predicates all read that relation; the
digest below fixes what they return on every D(k) graph of order at most
8, the nine constructions with k <= 6 and every 4th D(3) blueprint with
a, b <= 5. A second digest fixes the domination witnesses on the same
graphs.
"""

import functools
import hashlib
from pathlib import Path

from domchrom.constructions import (
    DEvenSpec,
    DOddSpec,
    build_d3,
    build_d_even,
    build_d_odd,
    enumerate_d3_blueprints,
)
from domchrom.enumeration import enumerate_connected
from domchrom.graph6 import parse_graph6
from domchrom.invariants import (
    compute_report,
    dominates_class,
    enumerate_optimal_dominator_colorings,
    invariant_values,
    is_dominated_coloring,
    is_dominator_coloring,
)
from domchrom.structure import check_theorem1, find_chain, find_total_dominating_transversal

ORDER8 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "order8.g6"
FAMILIES = (
    (build_d_odd, DOddSpec, 3, 9), (build_d_odd, DOddSpec, 3, 10),
    (build_d_odd, DOddSpec, 3, 13), (build_d_odd, DOddSpec, 5, 17),
    (build_d_odd, DOddSpec, 5, 19), (build_d_even, DEvenSpec, 4, 12),
    (build_d_even, DEvenSpec, 4, 13), (build_d_even, DEvenSpec, 4, 16),
    (build_d_even, DEvenSpec, 6, 18),
)


@functools.cache
def _digest_graphs():
    small = [g for n in range(1, 8) for g in enumerate_connected(n)]
    small += [parse_graph6(line) for line in ORDER8.read_text().split()]
    graphs = [g for g in small if invariant_values(g)["dk"] is not None]
    graphs += [build(spec(k, n))[0] for build, spec, k, n in FAMILIES]
    pool = [bp for a in (3, 4, 5) for b in (3, 4, 5) for bp in enumerate_d3_blueprints(a, b)]
    graphs += [build_d3(bp)[0] for bp in pool[::4]]
    return tuple(graphs)


def _readings(g, coloring):
    """The three predicates on the coloring, and its chain when k >= 3."""
    dominated_by = [
        [v for v in range(g.n) if dominates_class(g, v, coloring, i)] for i in range(coloring.k)
    ]
    chain = find_chain(g, coloring) if coloring.k >= 3 else None
    return (
        dominated_by,
        is_dominator_coloring(g, coloring),
        is_dominated_coloring(g, coloring),
        chain and (chain.classes, chain.vertices),
    )


def test_class_domination_readers_are_pinned():
    graphs = _digest_graphs()
    assert len(graphs) == 837
    digest = hashlib.sha256()
    for g in graphs:
        result = check_theorem1(g)
        report = result.report
        lines = [
            result.colorings_checked,
            result.all_classes_dominated,
            result.every_vertex_dominates_exactly_one,
            result.counterexamples,
            result.domination_counts,
            _readings(g, report.chi_witness),
            report.chi_dom_witness and _readings(g, report.chi_dom_witness),
        ]
        lines += (_readings(g, c) for c in enumerate_optimal_dominator_colorings(g, report.chi_d))
        digest.update(repr(lines).encode("utf-8"))
    assert digest.hexdigest() == (
        "f35156ff8b672ac9990eb8a5e369e472bb5ff5dc44a1d6c42e134db58cc369de"
    )


def test_domination_witnesses_are_pinned():
    # the gamma and gamma_t witnesses, and the total dominating transversal
    # of every optimal dominator coloring, in the order they are enumerated
    digest = hashlib.sha256()
    for g in _digest_graphs():
        report = compute_report(g)
        line = [report.gamma_witness, report.gamma_t_witness]
        line += (
            find_total_dominating_transversal(g, c)
            for c in enumerate_optimal_dominator_colorings(g, report.chi_d)
        )
        digest.update(repr(line).encode("utf-8"))
    assert digest.hexdigest() == (
        "23fa7a349c7b8b556f701539d6fa096cdba4e044e62372047fb40f28d923bb78"
    )
