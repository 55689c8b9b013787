"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the per-test PASSED/FAILED verdicts carry the same information.
"""

import json
import random
from itertools import islice, product

import pytest

import oracles as naive
from domchrom import scan
from domchrom.constructions import (
    DEvenSpec,
    DOddSpec,
    build_d3,
    build_d_even,
    build_d_odd,
    enumerate_d3_blueprints,
)
from domchrom.enumeration import are_isomorphic, enumerate_connected, extend_connected
from domchrom.graph6 import parse_graph6, to_graph6
from domchrom.graphs import complete_bipartite, complete_bipartite_parts, from_edge_list, is_connected
from domchrom.invariants import compute_report, invariant_values
from domchrom.planarity import is_planar, lr_is_planar, verify_kuratowski
from domchrom.scan import min_order_scan, scan_stream
from domchrom.structure import check_theorem1, is_in_class_d3

ODD_CASES = [(3, 9), (3, 10), (3, 13), (5, 17), (5, 19), (7, 25), (9, 33)]
EVEN_CASES = [(4, 12), (4, 13), (4, 16), (6, 18), (8, 24)]
SMALL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


class _Line:
    """Prints 'ACCEPTANCE <name>: PASS/FAIL' when the block exits."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict}")
        return False


@pytest.fixture(scope="session")
def scan7():
    """One pass over all connected n <= 7 graphs: invariants + planarity."""
    lines = [to_graph6(g) for n in range(1, 8) for g in enumerate_connected(n)]
    sink = []
    summary = scan_stream(
        lines, checks=("invariants", "planarity"), records_sink=sink, source_id="n<=7"
    )
    assert summary.total == sum(SMALL_COUNTS.values()) == 996
    return sink


@pytest.fixture(scope="session")
def stream8():
    """Complete non-isomorphic connected enumeration at n = 8 (external-stream
    stand-in, manufactured with the documented helper)."""
    graphs = extend_connected(enumerate_connected(7))
    assert len(graphs) == 11117  # published count of connected graphs on 8 nodes
    return [to_graph6(g) for g in graphs]


@pytest.fixture(scope="session")
def d3_sample():
    """100 blueprints sampled across class sizes a, b <= 5."""
    sample = []
    for a, b in product((3, 4, 5), repeat=2):
        for bp in islice(enumerate_d3_blueprints(a, b), 24):
            sample.append(bp)
    assert len(sample) >= 100
    return sample[:100]


@pytest.fixture(scope="session")
def constructed_dk_graphs():
    graphs = []
    for k, n in ODD_CASES:
        graphs.append((k, build_d_odd(DOddSpec(k, n))[0]))
    for k, n in EVEN_CASES:
        graphs.append((k, build_d_even(DEvenSpec(k, n))[0]))
    return graphs


def test_criterion_1_construction_correctness(constructed_dk_graphs):
    with _Line("criterion 1 (constructions are D(k) with all five invariants = k)"):
        for k, g in constructed_dk_graphs:
            r = compute_report(g)
            assert r.dk == k
            assert (r.gamma, r.gamma_t, r.chi, r.chi_d, r.chi_dom) == (k,) * 5


def test_criterion_2_chi_d_2_iff_complete_bipartite(scan7):
    with _Line("criterion 2 (exhaustive n<=7: chi_d = 2 iff complete bipartite)"):
        per_n = {}
        for rec in scan7:
            per_n[rec.n] = per_n.get(rec.n, 0) + 1
            g = parse_graph6(rec.graph6)
            is_kab = complete_bipartite_parts(g) is not None
            assert (rec.fields["chi_d"] == 2) == is_kab, rec.graph6
            # consequence of the D(k) property: gamma_t = chi_dom = k too
            dk = rec.fields["dk"]
            if dk is not None and rec.n >= 2:
                assert rec.fields["gamma_t"] == dk == rec.fields["chi_dom"], rec.graph6
        assert per_n == SMALL_COUNTS


def test_criterion_3_theorem3_equivalence(scan7, d3_sample):
    with _Line("criterion 3 (exhaustive n<=7: D(3) iff class member; 100 builds)"):
        for rec in scan7:
            g = parse_graph6(rec.graph6)
            member = is_in_class_d3(g) is not None
            assert (rec.fields["dk"] == 3) == member, rec.graph6
        for bp in d3_sample:
            g, _ = build_d3(bp)
            assert compute_report(g).dk == 3


def test_criterion_4_planarity_theorems(scan7, stream8, d3_sample):
    with _Line("criterion 4 (no planar D(3)/D(4); planar D(2) = K_{2,q})"):
        # n <= 7 exhaustively
        for rec in scan7:
            dk = rec.fields["dk"]
            planar = rec.fields["planar"]
            if dk in (3, 4):
                assert not planar, rec.graph6
            if dk == 2 and planar:
                parts = complete_bipartite_parts(parse_graph6(rec.graph6))
                assert parts is not None and parts[0] == 2, rec.graph6
        # n = 8 extension via the external-style stream
        for line in stream8:
            g = parse_graph6(line)
            gamma = invariant_values(g, early_exit_k=-1)["gamma"]  # gamma only
            if gamma not in (3, 4):
                continue
            vals = invariant_values(g, early_exit_k=gamma)
            if vals.get("chi") == gamma and vals.get("chi_d") == gamma:
                assert not lr_is_planar(g), line
        # explicit Kuratowski-witness checks on class members
        for bp in d3_sample[:10]:
            g, lab = build_d3(bp)
            verdict = is_planar(g)
            assert not verdict.planar
            assert verify_kuratowski(g, verdict.witness)
            _assert_explicit_k33_minor(g, lab)


def _assert_explicit_k33_minor(g, lab):
    """The argument used for the no-planar-D(3) claim: branch sets
    {u1},{v1},{x1,x3},{u2},{v2},{y3} form a K_{3,3} minor."""
    x1, x3, y3 = lab.vertex("x1"), lab.vertex("x3"), lab.vertex("y3")
    v1 = sorted(lab.group("V1"))
    v2 = sorted(lab.group("V2"))
    u1v1 = [v for v in v1 if not g.has_edge(v, x3)][:2]
    u2v2 = [v for v in v2 if not g.has_edge(v, x3)][:2]
    assert len(u1v1) == 2 and len(u2v2) == 2  # rule 4 tail
    side_a = [({u1v1[0]},), ({u1v1[1]},), ({x1, x3},)]
    side_b = [({u2v2[0]},), ({u2v2[1]},), ({y3},)]
    for (sa,), (sb,) in product(side_a, side_b):
        assert any(g.has_edge(a, b) for a in sa for b in sb), (sa, sb)
    assert g.has_edge(x1, x3)  # branch set {x1, x3} is connected


def test_criterion_5_theorem1_on_all_discovered_dk_graphs(
    scan7, stream8, d3_sample, constructed_dk_graphs
):
    with _Line("criterion 5 (Theorem 1 holds on every discovered D(k) graph)"):
        discovered = [g for _k, g in constructed_dk_graphs]
        discovered += [
            parse_graph6(rec.graph6) for rec in scan7 if rec.fields["dk"] is not None
        ]
        discovered += [build_d3(bp)[0] for bp in d3_sample]
        # the order-8 D(3) discovered by the survey in criterion 7
        survey = min_order_scan(3, 8, sources={8: stream8})
        if survey["witness_graph6"]:
            discovered.append(parse_graph6(survey["witness_graph6"]))
        assert len(discovered) >= 100
        for g in discovered:
            result = check_theorem1(g)
            assert result.all_classes_dominated, to_graph6(g)
            assert result.every_vertex_dominates_exactly_one, to_graph6(g)


def test_criterion_6_solver_oracle_equivalence():
    with _Line("criterion 6 (solver values = naive exhaustive values)"):
        graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
        rng = random.Random(20260808)
        while sum(1 for g in graphs if g.n >= 6) < 500:
            n = rng.choice((6, 7))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice((0.25, 0.4, 0.6))
            ]
            g = from_edge_list(n, edges)
            if is_connected(g):
                graphs.append(g)
        for g in graphs:
            vals = invariant_values(g)
            assert vals["gamma"] == naive.min_dominating_set(g)[0]
            naive_gt = naive.min_total_dominating_set(g)
            assert vals["gamma_t"] == (naive_gt[0] if naive_gt else None)
            assert vals["chi"] == naive.chromatic_number(g)
            assert vals["chi_d"] == naive.dominator_chromatic_number(g)
            assert vals["chi_dom"] == naive.dominated_chromatic_number(g)


def test_criterion_7_conjecture_survey(stream8):
    with _Line("criterion 7 (minimum-order survey: k=2 -> 4; k=3 decided at n<=8)"):
        survey2 = min_order_scan(2, 6)
        assert survey2["smallest_order"] == 4 and survey2["complete"]
        witness2 = parse_graph6(survey2["witness_graph6"])
        assert are_isomorphic(witness2, complete_bipartite(2, 2)[0])

        survey3 = min_order_scan(3, 8, sources={8: stream8})
        assert survey3["complete"]
        # definite answer: the run finds the (unique) order-8 D(3) graph, so
        # the conjectured bound 4k-3 = 9 is NOT the true minimum at k = 3
        assert survey3["smallest_order"] == 8
        witness3 = parse_graph6(survey3["witness_graph6"])
        report = compute_report(witness3)
        assert report.dk == 3
        assert is_in_class_d3(witness3) is not None
        assert "minimum order of any D(k) graph" in survey3["reading"]
        # reproducible
        assert survey3 == min_order_scan(3, 8, sources={8: stream8})
        print(
            "  survey: min order for D(3) is "
            f"{survey3['smallest_order']} (conjecture predicted 9), witness "
            f"{survey3['witness_graph6']}"
        )


def test_criterion_8_byte_identical_determinism(tmp_path, stream8, monkeypatch):
    with _Line("criterion 8 (byte-identical reruns, including --jobs > 1)"):
        lines = [to_graph6(g) for g in enumerate_connected(6)]
        outputs = []
        for i, jobs in enumerate((1, 2, 1)):
            out = tmp_path / f"records{i}.jsonl"
            summ = tmp_path / f"summary{i}.csv"
            scan_stream(
                lines,
                checks=("invariants", "planarity"),
                out_path=out,
                summary_path=summ,
                source_id="n6",
                jobs=jobs,
            )
            outputs.append((out.read_bytes(), summ.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

        # interrupted + resumed run reproduces the uninterrupted bytes, with
        # checkpoints saved mid-run
        monkeypatch.setattr(scan, "_CHECKPOINT_EVERY", 8)
        cp = tmp_path / "cp.json"
        out = tmp_path / "resumed.jsonl"
        summ = tmp_path / "resumed.csv"
        scan_stream(
            lines[:30],
            checks=("invariants", "planarity"),
            out_path=out,
            summary_path=summ,
            checkpoint_path=cp,
            source_id="n6",
        )
        scan_stream(
            lines,
            checks=("invariants", "planarity"),
            out_path=out,
            summary_path=summ,
            checkpoint_path=cp,
            source_id="n6",
        )
        assert out.read_bytes() == outputs[0][0]
        assert summ.read_bytes() == outputs[0][1]

        # records parse as JSON and respect the sandwich inequalities
        for line in outputs[0][0].decode().splitlines():
            rec = json.loads(line)
            assert rec["gamma"] <= rec["gamma_t"]
            assert rec["chi"] <= rec["chi_d"] and rec["chi"] <= rec["chi_dom"]
