#!/usr/bin/env python3
"""The rule-based class characterizing D(3) graphs.

A blueprint fixes all free choices: the class sizes a, b, the optional
rule-2/rule-3 neighbor subsets, and the rule-4 assignment of every
remaining vertex (joined to all of the opposite class, or to the singleton
class vertex x3). A graph is D(3) exactly when some role assignment matches
these rules, so membership is decidable by search.
"""

from itertools import islice

from domchrom import (
    D3Blueprint,
    build_d3,
    compute_report,
    enumerate_d3_blueprints,
    is_in_class_d3,
    to_graph6,
    validate_blueprint,
)
from domchrom.constructions import OPPOSITE, SINGLETON

print("== the smallest conceivable sizes: a = b = 3 (order 7) ==")
bp = D3Blueprint(3, 3, frozenset(), frozenset(), {2: OPPOSITE, 5: OPPOSITE})
verdict = validate_blueprint(bp)
print("all-opposite blueprint valid?", verdict.ok)
for name, witness in verdict.violations:
    print("  violation:", name, witness)
print("valid blueprints at (3,3):", sum(1 for _ in enumerate_d3_blueprints(3, 3)))
print("-> the class has NO member of order 7.")

print()
print("== order 8 exists: (a, b) = (3, 4) ==")
total = 0
first = None
for bp in enumerate_d3_blueprints(3, 4):
    total += 1
    first = first or bp
print("valid blueprints at (3,4):", total)
g, lab = build_d3(first)
print("first one builds:", to_graph6(g), "-> D(%s)" % compute_report(g).dk)

print()
print("== every built member is D(3) ==")
for a, b in [(3, 4), (4, 4), (5, 3)]:
    for bp in islice(enumerate_d3_blueprints(a, b), 2):
        g, _ = build_d3(bp)
        r = compute_report(g)
        assert r.dk == 3
        print(f"  (a={a}, b={b}) order {g.n}: D(3) with gamma_t={r.gamma_t}, chi_dom={r.chi_dom}")

print()
print("== membership search recovers a blueprint from a bare graph ==")
g, _ = build_d3(first)
extracted = is_in_class_d3(g)
print("extracted blueprint:", extracted)
g2, _ = build_d3(extracted)
from domchrom import are_isomorphic

print("rebuild is isomorphic to the original:", are_isomorphic(g, g2))

print()
print("== graphs outside the class ==")
from domchrom import complete_bipartite, from_edge_list

print("K_{3,3}:", is_in_class_d3(complete_bipartite(3, 3)[0]))
print("P_5:", is_in_class_d3(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])))
