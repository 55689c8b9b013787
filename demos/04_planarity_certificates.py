#!/usr/bin/env python3
"""Planarity verdicts that carry their own proof.

Planar graphs get a combinatorial embedding (a rotation system) that is
re-verified through Euler's formula; non-planar graphs get a Kuratowski
subdivision found by deleting edges while non-planarity persists, verified
by re-walking its branch paths.
"""

from itertools import islice

from domchrom import (
    build_d3,
    complete_bipartite,
    enumerate_d3_blueprints,
    from_edge_list,
    is_planar,
    verify_embedding,
    verify_kuratowski,
)

print("== K_4 is planar ==")
k4 = from_edge_list(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
verdict = is_planar(k4)
print("planar:", verdict.planar)
print("rotation system:", [list(r) for r in verdict.embedding])
print("independently verified (Euler):", verify_embedding(k4, verdict.embedding))

print()
print("== K_5 and K_{3,3} are the minimal obstructions ==")
k5 = from_edge_list(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
verdict = is_planar(k5)
print("K_5 witness:", verdict.witness.kind, "paths:", verdict.witness.paths)
print("verified by re-walking:", verify_kuratowski(k5, verdict.witness))

k33, _ = complete_bipartite(3, 3)
verdict = is_planar(k33)
print("K_{3,3} witness:", verdict.witness.kind,
      "branch vertices:", verdict.witness.branch_vertices)

print()
print("== a subdivision hides the obstruction on a path ==")
edges = [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 1)]
edges += [(0, 5), (5, 1)]  # edge 0-1 replaced by the path 0-5-1
g = from_edge_list(6, edges)
verdict = is_planar(g)
print("kind:", verdict.witness.kind)
print("the subdivided path shows up:", [p for p in verdict.witness.paths if len(p) > 2])

print()
print("== every member of the D(3) class is non-planar ==")
for bp in islice(enumerate_d3_blueprints(3, 4), 3):
    g, lab = build_d3(bp)
    verdict = is_planar(g)
    assert not verdict.planar and verify_kuratowski(g, verdict.witness)
    x3 = lab.vertex("x3")
    non_nbrs_v1 = [v for v in sorted(lab.group("V1")) if not g.has_edge(v, x3)]
    non_nbrs_v2 = [v for v in sorted(lab.group("V2")) if not g.has_edge(v, x3)]
    print(f"order {g.n}: witness {verdict.witness.kind}; x3 keeps "
          f">=2 non-neighbors per side ({non_nbrs_v1}, {non_nbrs_v2}) "
          "-> the K_{3,3} minor of the planarity argument exists")
