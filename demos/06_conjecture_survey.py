#!/usr/bin/env python3
"""The minimum-order survey, and a surprise at k = 3.

The named families give D(k) graphs of every order n >= 4k-3 (odd k) and
n >= 3k (even k), and the natural conjecture reads these as the smallest
possible D(k) orders. The survey checks that reading exhaustively: for
each order it scans a complete list of connected graphs and stops at the
first D(k) hit, re-verifying the witness through the full solvers.

Building the order-8 stream takes a few seconds; the rest is fast.
"""

from domchrom import (
    compute_report,
    enumerate_connected,
    extend_connected,
    is_in_class_d3,
    lr_is_planar,
    min_order_scan,
    parse_graph6,
    to_graph6,
)

print("== k = 2: the minimum order is 4 (that is K_{2,2}) ==")
survey = min_order_scan(2, 6)
print({key: survey[key] for key in ("smallest_order", "witness_graph6", "complete")})

print()
print("== k = 3: the conjectured minimum is 4k-3 = 9 ==")
print("building the complete n=8 stream (11117 graphs)...")
stream8 = [to_graph6(g) for g in extend_connected(enumerate_connected(7))]
print("scanning orders 1..8 ...")
survey = min_order_scan(3, 8, sources={8: stream8})
print("reading:", survey["reading"])
print("orders scanned:", survey["orders_scanned"])
print("smallest order found:", survey["smallest_order"])
print("witness:", survey["witness_graph6"])

w = parse_graph6(survey["witness_graph6"])
report = compute_report(w)
print()
print("the witness re-verified: gamma=%d chi=%d chi_d=%d -> D(%d)"
      % (report.gamma, report.chi, report.chi_d, report.dk))
print("it belongs to the rule-based D(3) class:", is_in_class_d3(w) is not None)
print("and it is non-planar (as every D(3) graph must be):", not lr_is_planar(w))
print()
print("Conclusion: a D(3) graph of order 8 exists, one order below the")
print("conjectured minimum 9. The rule-based class itself supplies it")
print("(sizes a=3, b=4), so the characterization and the conjecture cannot")
print("both hold -- the exhaustive scan sides with the characterization.")
