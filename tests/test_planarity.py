import collections
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import oracles as naive
from domchrom.constructions import DOddSpec, build_d_odd, build_d3, enumerate_d3_blueprints
from domchrom.enumeration import enumerate_connected
from domchrom import planarity
from domchrom.graph6 import parse_graph6, to_graph6
from domchrom.graphs import Graph, GraphError, complete_bipartite, from_edge_list
from domchrom.planarity import (
    KuratowskiWitness,
    _branch_degrees,
    _core_is_planar,
    _holds_k33,
    _smoothed,
    _too_few_branches,
    is_planar,
    kuratowski_witness,
    lr_is_planar,
    planar_embedding,
    verify_embedding,
    verify_kuratowski,
)

K4 = from_edge_list(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
K5 = from_edge_list(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])


def test_k4_planar_with_verified_embedding():
    verdict = is_planar(K4)
    assert verdict.planar
    assert verify_embedding(K4, verdict.embedding)


def test_k5_and_k33_witnesses():
    verdict = is_planar(K5)
    assert not verdict.planar and verdict.witness.kind == "K5"
    assert verify_kuratowski(K5, verdict.witness)
    assert verdict.witness.edges == frozenset(K5.edges())  # 10 sorted pairs
    k33, _ = complete_bipartite(3, 3)
    verdict = is_planar(k33)
    assert not verdict.planar and verdict.witness.kind == "K33"
    assert verify_kuratowski(k33, verdict.witness)
    assert verdict.witness.edges == frozenset(k33.edges())  # 9 sorted pairs


def test_exhaustive_vs_minor_oracle_small():
    # all labeled graphs on up to 5 vertices, planar iff no Kuratowski minor
    for n in range(0, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = from_edge_list(n, edges)
            assert lr_is_planar(g) == naive.is_planar(g)


def test_connected_vs_minor_oracle_through_n7():
    for n in (6, 7):
        for g in enumerate_connected(n):
            assert lr_is_planar(g) == naive.is_planar(g)


def test_certificates_verify_on_enumeration():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            verdict = is_planar(g)  # internal assertion re-verifies both ways
            if verdict.planar:
                assert verify_embedding(g, verdict.embedding)
            else:
                assert verify_kuratowski(g, verdict.witness)


def test_edge_count_necessary_condition():
    for n in range(3, 8):
        for g in enumerate_connected(n):
            if lr_is_planar(g):
                assert g.edge_count() <= 3 * g.n - 6


def test_random_graphs_vs_networkx():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 14)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice((0.2, 0.4, 0.7))
        ]
        g = from_edge_list(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        assert lr_is_planar(g) == nx.check_planarity(G)[0]


def test_lr_matches_networkx_on_1000_graphs_of_order_10_to_14():
    rng = random.Random(9)
    verdicts = set()
    for _ in range(1000):
        n = rng.randint(10, 14)
        p = rng.uniform(0.1, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, edges)
        verdict = lr_is_planar(g)
        assert verdict == networkx_planar(g)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_embeddings_through_n7_are_pinned():
    # sha256 of the rotation systems of all 775 planar connected graphs with
    # n <= 7, in enumeration order: a change to the LR code must not move them
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            if lr_is_planar(g):
                rotation = planar_embedding(g)
                assert is_planar(g).embedding == rotation
                digest.update(repr(rotation).encode() + b"\n")
                count += 1
    assert count == 775
    assert digest.hexdigest() == (
        "d4256049301cdad279119b0819a06cf44ad4d305ff51741d27ec1cffb53a44df"
    )


def test_kuratowski_witnesses_through_n7_are_pinned():
    # sha256 of the witnesses of all 221 non-planar connected graphs with
    # n <= 7, in enumeration order: the oracle comparison alone would miss a
    # change made to the library's classifier and the oracle's at once
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            if not lr_is_planar(g):
                witness = kuratowski_witness(g)
                assert is_planar(g).witness == witness
                digest.update(repr(witness).encode() + b"\n")
                count += 1
    assert count == 221
    assert digest.hexdigest() == (
        "84e14abdeb9d7f908709aea05a53c1e8b194282e797dfc93d9fe2d4089c5c74d"
    )


def test_disconnected_graphs():
    two_k4 = from_edge_list(
        8,
        [(a, b) for a in range(4) for b in range(a + 1, 4)]
        + [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)],
    )
    verdict = is_planar(two_k4)
    assert verdict.planar and verify_embedding(two_k4, verdict.embedding)
    k5_plus_isolated = from_edge_list(6, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    verdict = is_planar(k5_plus_isolated)
    assert not verdict.planar and verify_kuratowski(k5_plus_isolated, verdict.witness)


def test_verify_embedding_rejects_tampering():
    verdict = is_planar(K4)
    rot = [list(r) for r in verdict.embedding]
    rot[0] = [rot[0][1], rot[0][0]] + rot[0][2:]  # swap two entries
    # K4's embedding is essentially unique; a swapped rotation breaks Euler
    assert not verify_embedding(K4, tuple(tuple(r) for r in rot))
    # wrong neighbor sets are rejected outright
    assert not verify_embedding(K4, ((1, 2), (0, 2, 3), (0, 1, 3), (1, 2)))
    # so is a rotation tuple with a row per vertex missing
    assert not verify_embedding(K4, verdict.embedding[:-1])


def test_verify_kuratowski_rejects_tampering():
    verdict = is_planar(K5)
    w = verdict.witness
    # claim a K33 instead
    assert not verify_kuratowski(K5, KuratowskiWitness("K33", w.branch_vertices, w.paths))
    # drop a path
    assert not verify_kuratowski(K5, KuratowskiWitness("K5", w.branch_vertices, w.paths[:-1]))
    # a path through a non-edge
    bad = w.paths[:-1] + ((w.paths[-1][0], w.paths[-1][0] or 1),)
    assert not verify_kuratowski(K5, KuratowskiWitness("K5", w.branch_vertices, bad))
    # a kind other than K5 or K33
    assert not verify_kuratowski(K5, KuratowskiWitness("K7", w.branch_vertices, w.paths))
    # one branch pair joined by two paths, another by none
    bad = w.paths[:-1] + w.paths[:1]
    assert not verify_kuratowski(K5, KuratowskiWitness("K5", w.branch_vertices, bad))
    # a path through a branch vertex
    bad = ((0, 2, 1),) + w.paths[1:]
    assert w.paths[0] == (0, 1)
    assert not verify_kuratowski(K5, KuratowskiWitness("K5", w.branch_vertices, bad))
    # a branch vertex listed twice, as the sixth entry or among eight
    for branch in ((0, 1, 2, 3, 4, 4), (0, 1, 2, 3, 4, 4, 4, 3)):
        assert not verify_kuratowski(K5, KuratowskiWitness("K5", branch, w.paths))

    # K5 with edge 0-1 subdivided by vertex 5, which is also joined to 2 and 3
    g = from_edge_list(6, list(K5.edges()) + [(0, 5), (1, 5), (2, 5), (3, 5)])
    paths = ((0, 5, 1),) + tuple(e for e in K5.edges() if e != (0, 1))
    assert verify_kuratowski(g, KuratowskiWitness("K5", tuple(range(5)), paths))
    for path in (
        (0, 5),  # ends at 5, which is not a branch vertex
        (0, 5, 0),  # repeats a vertex
    ):
        bad = (path,) + paths[1:]
        assert not verify_kuratowski(g, KuratowskiWitness("K5", tuple(range(5)), bad))
    # vertex 5 inside two paths
    bad = tuple((2, 5, 3) if p == (2, 3) else p for p in paths)
    assert not verify_kuratowski(g, KuratowskiWitness("K5", tuple(range(5)), bad))

    k33, _ = complete_bipartite(3, 3)
    k6 = from_edge_list(6, itertools.combinations(range(6), 2))
    k33_paths = tuple(k33.edges())
    assert verify_kuratowski(k6, KuratowskiWitness("K33", tuple(range(6)), k33_paths))
    # a branch graph with a vertex of degree 4 (and one of degree 2)
    bad = tuple((0, 1) if p == (2, 5) else p for p in k33_paths)
    assert not verify_kuratowski(k6, KuratowskiWitness("K33", tuple(range(6)), bad))
    # the triangular prism: 3-regular but not bipartite
    prism = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5))
    assert not verify_kuratowski(k6, KuratowskiWitness("K33", tuple(range(6)), prism))

    # vertices outside 0..n-1; a negative one would index k33's rows from the end
    hostile = (
        KuratowskiWitness(
            "K33", (-1, 3, 4, 0, 1, 2),
            ((-1, 0), (-1, 1), (-1, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)),
        ),
        KuratowskiWitness(
            "K33", (0, 1, 9, 3, 4, 5),
            ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (9, 3), (9, 4), (9, 5)),
        ),
        KuratowskiWitness(
            "K33", tuple(range(6)), tuple((0, -2, 3) if p == (0, 3) else p for p in k33_paths)
        ),
    )
    for witness in hostile:
        assert not verify_kuratowski(k33, witness)


def test_kuratowski_on_planar_raises():
    with pytest.raises(GraphError):
        kuratowski_witness(K4)
    with pytest.raises(GraphError):
        planar_embedding(K5)


def test_subdivisions_are_recognized():
    # subdivide one K5 edge: still non-planar, witness has a degree-2 path vertex
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 1)]
    edges += [(0, 5), (5, 1)]
    g = from_edge_list(6, edges)
    verdict = is_planar(g)
    assert not verdict.planar and verdict.witness.kind == "K5"
    assert any(len(p) == 3 for p in verdict.witness.paths)
    assert verify_kuratowski(g, verdict.witness)


def test_d3_members_are_nonplanar_with_k33_witnesses():
    godd, _ = build_d_odd(DOddSpec(3, 9))
    verdict = is_planar(godd)
    assert not verdict.planar and verify_kuratowski(godd, verdict.witness)
    for bp in itertools.islice(enumerate_d3_blueprints(3, 4), 2):
        g, _ = build_d3(bp)
        verdict = is_planar(g)
        assert not verdict.planar
        assert verify_kuratowski(g, verdict.witness)


def networkx_planar(g) -> bool:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.check_planarity(G)[0]


def assert_witnesses_match_oracle(graphs, monkeypatch):
    """kuratowski_witness equals the one-LR-run-per-edge oracle, and every
    verdict given without an LR run is networkx's: on the input graphs'
    2-cores and on every deletion trial's, the branch count's planar verdicts
    and each K_{3,3} the search finds in the smoothed rows."""
    cores = []

    def recording(core):
        cores.append(core)
        return _core_is_planar(core)

    monkeypatch.setattr(planarity, "_core_is_planar", recording)
    for g in graphs:
        assert kuratowski_witness(g) == naive.kuratowski_by_deletion(g)
    assert len(cores) > len(graphs)
    for core in cores:
        planar = networkx_planar(Graph(len(core), core))
        if _too_few_branches(_branch_degrees(core)):
            assert planar
        if _holds_k33(_smoothed(core)):
            assert not planar


def test_witness_matches_deletion_oracle_through_n7(monkeypatch):
    nonplanar = [
        g for n in range(5, 8) for g in enumerate_connected(n) if not lr_is_planar(g)
    ]
    assert len(nonplanar) == 221
    assert_witnesses_match_oracle(nonplanar, monkeypatch)


def d3_pool():
    """The 3,268 D(3) blueprints with a, b <= 5, in the benchmark's order."""
    pool = [
        bp
        for a in (3, 4, 5)
        for b in (3, 4, 5)
        for bp in enumerate_d3_blueprints(a, b)
    ]
    assert len(pool) == 3268
    return pool


def test_witness_matches_deletion_oracle_on_d3_blueprints(monkeypatch):
    assert_witnesses_match_oracle([build_d3(bp)[0] for bp in d3_pool()[::8]], monkeypatch)


def count_deletion_work(monkeypatch):
    """Counts, from here on, of `_core_is_planar` calls (the deletion trials
    when `_witness_by_deletion` is called directly, plus one verdict per graph
    through `lr_is_planar` when a public entry point is) and of LR runs,
    starting from an empty memo of verdicts, so they count cold work in any
    order."""
    monkeypatch.setattr(planarity, "_verdicts", {})
    counts = {"trials": 0, "lr_runs": 0}
    core_is_planar, run = _core_is_planar, planarity._LRPlanarity.run

    def trial(core):
        counts["trials"] += 1
        return core_is_planar(core)

    def lr_run(self):
        counts["lr_runs"] += 1
        return run(self)

    monkeypatch.setattr(planarity, "_core_is_planar", trial)
    monkeypatch.setattr(planarity._LRPlanarity, "run", lr_run)
    return counts


def test_deletion_trials_on_the_certify_d3_graphs_are_pinned(monkeypatch):
    graphs = [build_d3(bp)[0] for bp in d3_pool()[::4]]
    counts = count_deletion_work(monkeypatch)
    witnesses = [planarity._witness_by_deletion(g) for g in graphs]
    # one trial per core edge took 16,118 trials and 8,608 LR runs here, the
    # block search 14,761 trials (5,486 LR runs before the screens read the
    # smoothed rows) before it stopped at the subdivision, and 1,059 LR runs
    # before the verdicts of smoothed cores were remembered; 261 while a
    # branch count and an edge bound on the smoothed rows came before the search
    assert counts == {"trials": 10642, "lr_runs": 270}
    # a second pass finds every smoothed core remembered: no search, no LR
    searches = []
    holds_k33 = planarity._holds_k33
    monkeypatch.setattr(
        planarity, "_holds_k33", lambda rows: searches.append(rows) or holds_k33(rows)
    )
    counts.update(trials=0, lr_runs=0)
    assert [planarity._witness_by_deletion(g) for g in graphs] == witnesses
    assert counts == {"trials": 10642, "lr_runs": 0}
    assert searches == []
    # is_planar remembers each graph's own smoothed core with its verdict, so
    # a second is_planar pass is all memo hits too: one verdict per graph
    # and the same trials, no search and no LR run
    verdicts = [is_planar(g) for g in graphs]
    assert [v.witness for v in verdicts] == witnesses
    counts.update(trials=0, lr_runs=0)
    searches.clear()
    assert [is_planar(g) for g in graphs] == verdicts
    assert counts == {"trials": 817 + 10642, "lr_runs": 0}
    assert searches == []


ORDER8 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "order8.g6"


def test_is_planar_work_on_the_nonplanar_order8_graphs_is_pinned(monkeypatch):
    graphs = [parse_graph6(line) for line in ORDER8.read_text().split()]
    graphs = [g for g in graphs if not lr_is_planar(g)]
    assert len(graphs) == 5143
    counts = count_deletion_work(monkeypatch)
    for g in graphs:
        is_planar(g)
    # 32,314 LR runs before the screens read the smoothed rows, 82,103
    # trials before the search stopped at the subdivision, and 9,438 LR runs
    # before the verdicts of smoothed cores were remembered; 2,810 while a
    # branch count and an edge bound on the smoothed rows came before the
    # search, and 3,077 while is_planar ran its own search and an LR run on
    # each graph's rows instead of asking lr_is_planar, whose call per graph
    # the trials now count (54,386 deletion trials + 5,143)
    assert counts == {"trials": 54386 + 5143, "lr_runs": 2658}


def test_each_smoothed_core_through_n7_gets_its_own_memo_entry(monkeypatch):
    # the memo starts empty, so a key shared by two distinct smoothed cores
    # would leave fewer entries than cores, and one wrong verdict
    monkeypatch.setattr(planarity, "_verdicts", {})
    cores = set()
    for n in range(1, 8):
        for g in enumerate_connected(n):
            assert lr_is_planar(g) == networkx_planar(g)
            if not _too_few_branches(_branch_degrees(g.adj)):
                cores.add((n, tuple(_smoothed(g.adj))))
    assert len(planarity._verdicts) == len(cores) > 100


def k33_placements(n: int):
    """Rows of each K_{3,3} on n vertices with its other vertices isolated,
    every one once: the side holding the least of the six vertices is left."""
    for six in itertools.combinations(range(n), 6):
        for pair in itertools.combinations(six[1:], 2):
            left = {six[0], *pair}
            rows = [0] * n
            for u in left:
                for v in set(six) - left:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            yield rows


def test_memo_is_emptied_when_full(monkeypatch):
    monkeypatch.setattr(planarity, "_verdicts", {})
    sizes = []
    for rows in itertools.islice(k33_placements(12), 5000):
        assert not _core_is_planar(rows)
        sizes.append(len(planarity._verdicts))
    assert sizes[:4096] == list(range(1, 4097))
    assert max(sizes) == 4096 and sizes[-1] == 5000 - 4096


def test_two_core_screen_is_sound_through_n7(monkeypatch):
    # each graph's smoothed 2-core holds a K_{3,3} that the search finds only
    # when networkx calls it non-planar; no search runs out of budget here,
    # so it finds the same with no budget
    outcomes = collections.Counter()
    for n in range(1, 8):
        for g in enumerate_connected(n):
            planar = networkx_planar(g)
            rows = _smoothed(g.adj)
            found = _holds_k33(rows)
            with monkeypatch.context() as m:
                m.setattr(planarity, "_K33_WORK_PER_EDGE", 10**9)
                assert _holds_k33(rows) == found
            assert not (found and planar)
            outcomes[found, planar] += 1
    assert outcomes.keys() == {(True, False), (False, False), (False, True)}


def ladder(rungs: int):
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)]
    return from_edge_list(2 * rungs, edges)


def test_deep_ladder_gets_a_verdict():
    # smoothing from the corners removes it all, so the search finds nothing,
    # but is_planar embeds it by an LR run whose DFS is 2,000 deep
    g = ladder(1000)
    rows = _smoothed(g.adj)
    assert not any(rows) and _holds_k33(rows) is False
    assert lr_is_planar(g)
    verdict = is_planar(g)
    assert verdict.planar and verify_embedding(g, verdict.embedding)


def triangulated_grid(k: int):
    """The k x k grid with one diagonal in every square."""
    edges = [(k * i + j, k * i + j + 1) for i in range(k) for j in range(k - 1)]
    edges += [(k * i + j, k * i + k + j) for i in range(k - 1) for j in range(k)]
    edges += [(k * i + j, k * i + k + j + 1) for i in range(k - 1) for j in range(k - 1)]
    return from_edge_list(k * k, edges)


def fan_with_a_strip(k: int):
    """Planar: apex 0 on the path 1..2k+1, and k more vertices each joined to
    three path vertices 2i+1..2i+3. Each shares those three with the apex,
    and no two of them share more than one, so pairing them takes ~k^2/2
    row operations."""
    path = range(1, 2 * k + 2)
    edges = [(0, v) for v in path] + [(v, v + 1) for v in path[:-1]]
    edges += [(2 * k + 2 + i, 2 * i + 1 + d) for i in range(k) for d in range(3)]
    return from_edge_list(3 * k + 2, edges)


@pytest.mark.parametrize(
    ("build", "searches", "lr_runs"),
    [
        # the search ends with no K_{3,3} in 2m row operations, and LR
        # decides; not remembered, so is_planar decides again, then embeds
        (lambda: triangulated_grid(30), [False, False], 3),
        # too few branch vertices: no search, and one LR run embeds it
        (lambda: complete_bipartite(2, 2000)[0], [], 1),
        # the search spends its budget pairing the apex's rich vertices
        (lambda: fan_with_a_strip(1000), [None, None], 3),
    ],
    ids=["grid30", "K2_2000", "fan1000"],
)
def test_large_planar_inputs_get_a_verdict(build, searches, lr_runs, monkeypatch):
    g = build()
    outcomes = []

    def recording(rows):
        outcomes.append(holds_k33(rows))
        return outcomes[-1]

    holds_k33 = planarity._holds_k33
    monkeypatch.setattr(planarity, "_holds_k33", recording)
    counts = count_deletion_work(monkeypatch)
    assert lr_is_planar(g)
    verdict = is_planar(g)
    assert verdict.planar and verify_embedding(g, verdict.embedding)
    assert outcomes == searches
    assert counts["lr_runs"] == lr_runs
    # more than 64 vertices: no verdict is remembered
    assert planarity._verdicts == {}


def subdivided(g, times: int):
    """g with every edge replaced by a path through `times` new vertices."""
    edges, n = [], g.n
    for u, v in g.edges():
        path = [u] + list(range(n, n + times)) + [v]
        n += times
        edges += list(zip(path, path[1:]))
    return from_edge_list(n, edges)


def test_deeply_subdivided_k33_gets_a_witness():
    g = subdivided(complete_bipartite(3, 3)[0], 299)
    verdict = is_planar(g)
    assert not verdict.planar and verdict.witness.kind == "K33"
    assert verify_kuratowski(g, verdict.witness)
    assert all(len(p) == 301 for p in verdict.witness.paths)


def beside_a_cycle_with_a_tree(g):
    """g beside a disjoint 4-cycle, with a pendant tree of three edges hung
    on g's vertex 0."""
    n = g.n
    edges = list(g.edges()) + [(n + i, n + (i + 1) % 4) for i in range(4)]
    edges += [(0, n + 4), (n + 4, n + 5), (n + 4, n + 6)]
    return from_edge_list(n + 7, edges)


@pytest.mark.parametrize(
    ("g", "times", "extras"),
    [(complete_bipartite(3, 3)[0], 299, False), (K5, 299, False), (K5, 2, True)],
    ids=["K33", "K5", "K5_cycle_tree"],
)
def test_deletion_stops_at_a_subdivision_with_no_trial(g, times, extras, monkeypatch):
    sub = subdivided(g, times)
    h = beside_a_cycle_with_a_tree(sub) if extras else sub
    counts = count_deletion_work(monkeypatch)
    witness = planarity._witness_by_deletion(h)
    assert witness.edges == frozenset(sub.edges())
    # the 2-core is one subdivision, and the cycle, from the start
    assert counts == {"trials": 0, "lr_runs": 0}
    if extras:  # the oracle takes seconds on the 299-fold subdivisions
        assert witness == naive.kuratowski_by_deletion(h)


def test_scan_cli_decides_the_deep_ladder():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "domchrom", "scan", "--source", "-", "--checks", "planarity"],
        input=to_graph6(ladder(1000)) + "\n", capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total"] == 1
