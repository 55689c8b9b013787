"""Property tests of the invariant solvers against the naive oracles on
random connected graphs, and of the cover searches on sparse ones."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as naive
from domchrom.graphs import from_edge_list
from domchrom.invariants import (
    Coloring,
    UndefinedInvariantError,
    chromatic_number,
    compute_report,
    domination_number,
    enumerate_optimal_dominator_colorings,
    total_domination_number,
)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    # a random spanning tree keeps the graph connected; the rest is random
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.8)))
    # the other edges come from one seeded generator: Hypothesis leans its
    # own floats towards 0, which would keep nearly every pair at any density
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return from_edge_list(n, sorted(edges) + [p for p in pairs if rng.random() < density])


@st.composite
def sparse_graphs(draw):
    """Graphs of 1-14 vertices at density 0.05-0.3, connected or not,
    isolated vertices allowed."""
    # order, density and edges come from one seeded generator: Hypothesis
    # leans its own draws towards the least order and towards keeping every
    # edge, which would leave few sparse graphs among the examples
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(1, 14)
    density = rng.uniform(0.05, 0.3)
    return from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )


def lex_first(g, accept):
    """The least-block-count partition the predicate accepts, lex-first
    among those (set_partitions runs in lex order of assignment sequences)."""
    accepted = [p for p in naive.set_partitions(g.n) if accept(p)]
    k = min(map(len, accepted))
    return Coloring.from_masks(next(p for p in accepted if len(p) == k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs())
def test_solvers_match_naive_oracles(g):
    r = compute_report(g)
    assert (r.gamma, r.gamma_witness.sorted_vertices()) == naive.min_dominating_set(g)
    total = naive.min_total_dominating_set(g)
    if total is None:
        assert r.gamma_t is None and r.gamma_t_witness is None
    else:
        assert (r.gamma_t, r.gamma_t_witness.sorted_vertices()) == total
    assert r.chi == naive.chromatic_number(g) == chromatic_number(g)[0]
    assert r.chi_d == naive.dominator_chromatic_number(g)
    assert r.chi_dom == naive.dominated_chromatic_number(g)

    def proper(p):
        return naive.blocks_are_independent(g, p)

    assert r.chi_witness == lex_first(g, proper)
    assert r.chi_d_witness == lex_first(
        g, lambda p: proper(p) and naive.blocks_form_dominator_coloring(g, p)
    )
    if g.n > 1:
        assert r.chi_dom_witness == lex_first(
            g, lambda p: proper(p) and naive.blocks_form_dominated_coloring(g, p)
        )
    assert [c.masks() for c in enumerate_optimal_dominator_colorings(g, r.chi_d)] == list(
        naive.dominator_colorings(g, r.chi_d)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_graphs())
def test_cover_searches_match_naive_oracles_on_sparse_graphs(g):
    gamma, witness = domination_number(g)
    assert (gamma, witness.sorted_vertices()) == naive.min_dominating_set(g)
    total = naive.min_total_dominating_set(g)
    if total is None:
        with pytest.raises(UndefinedInvariantError):
            total_domination_number(g)
    else:
        gamma_t, witness = total_domination_number(g)
        assert (gamma_t, witness.sorted_vertices()) == total
