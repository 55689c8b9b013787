import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from domchrom.enumeration import enumerate_connected
from domchrom.graph6 import parse_graph6, to_graph6
from domchrom.graphs import complete_bipartite_parts, from_edge_list
from domchrom.invariants import compute_report
from domchrom.scan import (
    KNOWN_CHECKS,
    Checkpoint,
    ScanError,
    min_order_scan,
    scan_stream,
    source_id_for_builtin,
)


def lines_for(n: int) -> list[str]:
    return [to_graph6(g) for g in enumerate_connected(n)]


def test_scan_records_in_order_with_invariants(tmp_path):
    lines = lines_for(5)
    out = tmp_path / "records.jsonl"
    summary = scan_stream(lines, checks=("invariants",), out_path=out, source_id="n5")
    assert summary.total == 21
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["index"] for r in records] == list(range(21))
    assert [r["graph6"] for r in records] == lines
    for r in records:
        g = parse_graph6(r["graph6"])
        assert r["n"] == g.n and r["edge_count"] == g.edge_count()
        assert r["gamma"] <= (r["gamma_t"] if r["gamma_t"] is not None else r["gamma"])
        assert r["chi"] <= r["chi_d"]
        # dk = 2 records are complete bipartite (Prop 1 + gamma = 2)
        if r["dk"] == 2:
            assert complete_bipartite_parts(g) is not None


def test_scan_summary_aggregates_match_records(tmp_path):
    lines = lines_for(5)
    sink = []
    summary = scan_stream(lines, checks=("invariants",), records_sink=sink, source_id="n5")
    for k, count in summary.dk_counts.items():
        assert count == sum(1 for r in sink if r.fields.get("dk") == k)
    csv_text = summary.to_csv()
    assert csv_text.splitlines()[0] == "k,count,min_n,first_graph6"
    assert csv_text.splitlines()[-1] == f"total,{summary.total},,"


def test_scan_empty_stream(tmp_path):
    summary = scan_stream([], checks=("invariants",), source_id="empty")
    assert summary.total == 0 and summary.dk_counts == {}


def test_scan_rejects_unknown_checks():
    with pytest.raises(ScanError, match="unknown checks"):
        scan_stream([], checks=("nonsense",), source_id="x")


def test_scan_parse_failures(tmp_path):
    lines = ["Bw", "!!notgraph6!!", "A?"]
    summary = scan_stream(lines, checks=("invariants",), source_id="bad")
    assert summary.total == 2
    assert summary.skipped == [[1, 2]]  # record index 1, source line 2
    with pytest.raises(ScanError, match=r"line 2 \(record 1\)"):
        scan_stream(lines, checks=("invariants",), source_id="bad", strict=True)


def test_scan_skips_empty_graph_line():
    # "?" is the 0-vertex graph. The scan runs in a subprocess so that a
    # solver that never returns on it fails at the timeout instead of
    # stalling the suite.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "domchrom", "scan", "--source", "-"],
        input="?\nBw\n", capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["total"] == 1 and payload["skipped"] == [[0, 1]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_skips_graphs_a_check_rejects(jobs):
    # C? has four isolated vertices, which d3-membership rejects
    lines = ["C?", "CF"]
    checks = ("invariants", "d3-membership")
    sink = []
    summary = scan_stream(lines, checks=checks, records_sink=sink, source_id="d3", jobs=jobs)
    assert summary.total == 1 and summary.skipped == [[0, 1]]
    assert [r.graph6 for r in sink] == ["CF"] and sink[0].fields["d3_member"] is False
    with pytest.raises(ScanError, match=r"line 1 \(record 0\)"):
        scan_stream(lines, checks=checks, source_id="d3", strict=True, jobs=jobs)


def test_scan_theorem1_in_process():
    # jobs=1 evaluates in this process, so the theorem1 check runs here too
    lines = [line for n in range(2, 6) for line in lines_for(n)]
    sink = []
    scan_stream(lines, checks=("theorem1",), records_sink=sink, source_id="n2-5", jobs=1)
    assert len(lines) == len(sink) == 30
    dk2 = [r for r in sink if r.fields["dk"] == 2]
    assert len(dk2) == 2 and all(r.fields["theorem1_ok"] is True for r in dk2)
    assert all(r.fields["theorem1_ok"] is None for r in sink if r not in dk2)


def test_scan_jobs_deterministic(tmp_path):
    lines = lines_for(6)
    outputs = []
    for i, jobs in enumerate((1, 2, 3)):
        out = tmp_path / f"out{i}.jsonl"
        summ = tmp_path / f"sum{i}.csv"
        scan_stream(
            lines,
            checks=("invariants", "planarity"),
            out_path=out,
            summary_path=summ,
            source_id="n6",
            jobs=jobs,
        )
        outputs.append((out.read_bytes(), summ.read_bytes()))
    assert all(o == outputs[0] for o in outputs)


def test_scan_pool_is_capped_at_the_cpu_count(monkeypatch):
    import domchrom.scan as scan

    class FakePool:
        """Records its size and evaluates in this process."""

        sizes = []

        def __init__(self, processes):
            self.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items, chunksize=1):
            return map(func, items)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    lines = lines_for(4)
    expected = []
    scan_stream(lines, records_sink=expected, source_id="n4")
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 2)
    sink = []
    scan_stream(lines, records_sink=sink, source_id="n4", jobs=100000)
    assert FakePool.sizes == [2] and sink == expected
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 1)
    sink = []
    scan_stream(lines, records_sink=sink, source_id="n4", jobs=2)
    assert FakePool.sizes == [2] and sink == expected


def test_checkpoint_resume_is_byte_identical(tmp_path, monkeypatch):
    lines = lines_for(6)
    full_out = tmp_path / "full.jsonl"
    full_sum = tmp_path / "full.csv"
    scan_stream(lines, checks=("invariants",), out_path=full_out, summary_path=full_sum, source_id="n6")

    part_out = tmp_path / "part.jsonl"
    part_sum = tmp_path / "part.csv"
    cp = tmp_path / "cp.json"
    # interrupt: scan a prefix with checkpoints, then resume over the full stream
    import domchrom.scan as scan

    monkeypatch.setattr(scan, "_CHECKPOINT_EVERY", 16)
    scan_stream(
        lines[:40],
        checks=("invariants",),
        out_path=part_out,
        summary_path=part_sum,
        checkpoint_path=cp,
        source_id="n6",
    )
    assert Checkpoint.load(cp).last_index == 39
    scan_stream(
        lines,
        checks=("invariants",),
        out_path=part_out,
        summary_path=part_sum,
        checkpoint_path=cp,
        source_id="n6",
    )
    assert part_out.read_bytes() == full_out.read_bytes()
    assert part_sum.read_bytes() == full_sum.read_bytes()


ORDER8 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "order8.g6"


class _Killed(Exception):
    pass


def _killed_after(lines, stop):
    """The lines of a source whose reader dies after `stop` of them."""
    yield from lines[:stop]
    raise _Killed


def test_a_resume_from_an_edited_checkpoint_refuses_or_matches(tmp_path, monkeypatch):
    # 40 order-8 lines: the file's first 35 with its four D(k) graphs spread
    # among them and one line that does not parse, so every summary field
    # holds something (the file's first 40 lines hold no D(k) graph)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import domchrom.scan as scan

    text = ORDER8.read_text().split()
    lines = text[:35]
    for at, i in zip((3, 11, 19, 27), (1898, 4170, 6216, 7785)):
        lines.insert(at, text[i])
    lines.insert(15, "!!")
    kwargs = dict(checks=("invariants",), source_id="order8-slice")
    whole_out, whole_csv = tmp_path / "whole.jsonl", tmp_path / "whole.csv"
    summary = scan_stream(lines, out_path=whole_out, summary_path=whole_csv, **kwargs)
    assert len(lines) == 40 and len(summary.dk_counts) == 2 and len(summary.skipped) == 1
    records = whole_out.read_bytes()
    monkeypatch.setattr(scan, "_CHECKPOINT_EVERY", 8)

    n = len(lines)
    # one field each, as (path, value): a checkpoint field, a summary count
    # or list, or the entry for some k <= 8 of a dk table, drawn as often
    # from the k the whole scan holds as from all k (which it may not hold)
    keys = st.one_of(st.sampled_from(sorted(summary.dk_counts)), st.integers(1, 8))

    def field(*path, values):
        return st.tuples(st.just(path), values)

    def entry(table, values):
        return st.tuples(keys.map(lambda k: ("summary_state", table, str(k))), values)

    edits = st.sampled_from([
        field("source_id", values=st.sampled_from(["order8-slice", "order8", source_id_for_builtin(8)])),
        field("checks", values=st.lists(st.sampled_from(KNOWN_CHECKS), min_size=1, unique=True)),
        field("last_index", values=st.integers(-1, n - 1)),
        field("records_bytes", values=st.integers(0, len(records))),
        field("records_sha256", values=st.integers(0, len(records)).map(
            lambda size: hashlib.sha256(records[:size]).hexdigest())),
        field("summary_state", "total", values=st.integers(0, n)),
        field("summary_state", "skipped", values=st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n)).map(list), max_size=3)),
        entry("dk_counts", st.integers(1, n)),
        entry("dk_min_n", st.integers(1, 8)),
        entry("dk_first_graph6", st.sampled_from(lines)),
    ]).flatmap(lambda edit: edit)
    outcomes = []

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(stop=st.integers(8, n - 1), edit=edits)
    def resume(stop, edit):
        part = Path(tempfile.mkdtemp(dir=tmp_path))
        out, csv, cp = part / "records.jsonl", part / "summary.csv", part / "cp.json"
        paths = dict(out_path=out, summary_path=csv, checkpoint_path=cp)
        with pytest.raises(_Killed):
            scan_stream(_killed_after(lines, stop), **paths, **kwargs)
        checkpoint = json.loads(cp.read_text())
        (*parents, name), value = edit
        table = checkpoint
        for key in parents:
            table = table[key]
        table[name] = value
        cp.write_text(json.dumps(checkpoint))
        try:
            scan_stream(lines, **paths, **kwargs)
        except ScanError:
            outcomes.append("refused")
            return
        assert out.read_bytes() == records and csv.read_bytes() == whole_csv.read_bytes(), edit
        outcomes.append("matched")

    resume()
    assert "refused" in outcomes


def test_resume_accepts_a_first_dk_graph_above_the_least_order(tmp_path):
    # an order-6 D(2) graph precedes the order-5 ones, so the checkpoint's
    # first graph6 for k = 2 has more vertices than its min_n of 5
    lines = lines_for(6) + lines_for(5)
    full_sum = tmp_path / "full.csv"
    scan_stream(lines, checks=("invariants",), summary_path=full_sum, source_id="n65")
    part_sum = tmp_path / "part.csv"
    cp = tmp_path / "cp.json"
    kwargs = dict(checks=("invariants",), summary_path=part_sum, checkpoint_path=cp, source_id="n65")
    scan_stream(lines[:-1], **kwargs)
    state = json.loads(cp.read_text())["summary_state"]
    assert state["dk_min_n"]["2"] == 5 and parse_graph6(state["dk_first_graph6"]["2"]).n == 6
    scan_stream(lines, **kwargs)
    assert part_sum.read_bytes() == full_sum.read_bytes()


def test_resume_refuses_a_record_file_edited_in_place(tmp_path):
    lines = lines_for(5)
    out = tmp_path / "records.jsonl"
    cp = tmp_path / "cp.json"
    scan_stream(lines[:10], checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n5")
    text = out.read_text()
    at = text.index('"gamma":') + len('"gamma":')
    digit = text[at]
    edited = text[:at] + str((int(digit) + 1) % 10) + text[at + 1:]
    out.write_text(edited)
    with pytest.raises(ScanError, match="differs from"):
        scan_stream(lines, checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n5")
    # refused before the record file is touched
    assert out.read_text() == edited


def test_resume_refuses_a_record_it_cannot_read(tmp_path):
    # the record file and its checkpoint forged together: the prefix digest
    # matches, but the first line is no record
    lines = lines_for(5)
    out, cp = tmp_path / "records.jsonl", tmp_path / "cp.json"
    kwargs = dict(checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n5")
    scan_stream(lines[:3], **kwargs)
    data = b"[]\n" + out.read_bytes().split(b"\n", 1)[1]
    out.write_bytes(data)
    checkpoint = json.loads(cp.read_text())
    checkpoint.update(records_bytes=len(data), records_sha256=hashlib.sha256(data).hexdigest())
    cp.write_text(json.dumps(checkpoint))
    with pytest.raises(ScanError, match="record 1 of .* cannot be read"):
        scan_stream(lines, **kwargs)
    assert out.read_bytes() == data


@pytest.mark.parametrize("cut", ["5-bytes-into-the-last-record", "no-final-newline"])
def test_resume_refuses_a_prefix_that_ends_inside_a_record(tmp_path, cut):
    # record file and checkpoint forged together: the digest, last_index and
    # summary all fit the 9 whole records of the prefix, but its last bytes
    # begin a 10th record (or are all of the 10th but its newline), which a
    # resume would glue to the record it writes next
    lines = lines_for(5)
    out, cp = tmp_path / "records.jsonl", tmp_path / "cp.json"
    kwargs = dict(checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n5")
    scan_stream(lines[:10], **kwargs)
    data = out.read_bytes()
    size = data.rindex(b"\n", 0, -1) + 1 + 5 if cut.startswith("5") else len(data) - 1
    whole = data[:size].count(b"\n")
    cp.unlink()
    scan_stream(lines[:whole], **kwargs)
    out.write_bytes(data)
    checkpoint = json.loads(cp.read_text())
    checkpoint.update(records_bytes=size, records_sha256=hashlib.sha256(data[:size]).hexdigest())
    assert checkpoint["last_index"] == whole - 1 == checkpoint["summary_state"]["total"] - 1 == 8
    forged = json.dumps(checkpoint)
    cp.write_text(forged)
    with pytest.raises(ScanError, match=f"bytes of .* end inside record {whole + 1}"):
        scan_stream(lines, **kwargs)
    assert out.read_bytes() == data and cp.read_text() == forged


def test_resume_refuses_a_deleted_record_file(tmp_path):
    lines = lines_for(5)
    out = tmp_path / "records.jsonl"
    cp = tmp_path / "cp.json"
    scan_stream(lines[:10], checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n5")
    checkpoint = cp.read_bytes()
    out.unlink()
    with pytest.raises(ScanError, match="checkpoint expects an existing record file"):
        scan_stream(lines, checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n5")
    # refused before anything is written
    assert not out.exists() and cp.read_bytes() == checkpoint


def test_resume_without_out_refuses_a_checkpoint_that_covers_records(tmp_path):
    # a killed --out scan resumed without --out would save a checkpoint whose
    # records_bytes no longer matches its records_sha256
    lines = lines_for(5)
    sid = source_id_for_builtin(5)
    out = tmp_path / "records.jsonl"
    cp = tmp_path / "cp.json"
    summ = tmp_path / "summary.csv"
    scan_stream(lines[:10], out_path=out, checkpoint_path=cp, source_id=sid)
    checkpoint = cp.read_bytes()
    with pytest.raises(ScanError, match="--out"):
        scan_stream(lines, summary_path=summ, checkpoint_path=cp, source_id=sid)
    # refused before anything is written
    assert cp.read_bytes() == checkpoint and not summ.exists()


def test_resume_refuses_a_checkpoint_without_a_records_digest(tmp_path):
    lines = lines_for(4)
    out = tmp_path / "records.jsonl"
    cp = tmp_path / "cp.json"
    scan_stream(lines[:3], checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n4")
    payload = json.loads(cp.read_text())
    del payload["records_sha256"]
    cp.write_text(json.dumps(payload))
    with pytest.raises(ScanError, match="exactly the fields"):
        scan_stream(lines, checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="n4")


def test_checkpoint_source_mismatch_aborts(tmp_path):
    lines = lines_for(4)
    out = tmp_path / "o.jsonl"
    cp = tmp_path / "cp.json"
    scan_stream(lines, checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="a")
    with pytest.raises(ScanError, match="does not match"):
        scan_stream(lines, checks=("invariants",), out_path=out, checkpoint_path=cp, source_id="b")
    with pytest.raises(ScanError, match="does not match"):
        scan_stream(
            lines,
            checks=("invariants", "planarity"),
            out_path=out,
            checkpoint_path=cp,
            source_id="a",
        )


def test_min_order_scan_k2():
    survey = min_order_scan(2, 6)
    assert survey["smallest_order"] == 4
    assert survey["complete"] is True
    witness = parse_graph6(survey["witness_graph6"])
    assert compute_report(witness).dk == 2
    assert complete_bipartite_parts(witness) == (2, 2)
    assert "minimum order of any D(k) graph" in survey["reading"]


def test_min_order_scan_k3_within_builtin_range():
    survey = min_order_scan(3, 7)
    assert survey["smallest_order"] is None
    assert survey["complete"] is True
    assert survey["orders_scanned"] == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_min_order_scan_partial_without_source():
    survey = min_order_scan(3, 8)
    assert survey["smallest_order"] is None
    assert survey["complete"] is False
    assert survey["partial_orders"] == [8]


def test_min_order_scan_rejects_small_k():
    with pytest.raises(Exception):
        min_order_scan(1, 5)


def test_min_order_scan_source_lines():
    path8 = from_edge_list(8, [(i, i + 1) for i in range(7)])
    with pytest.raises(ScanError, match="order 8 produced a graph of order 7"):
        min_order_scan(3, 8, {8: [to_graph6(path8.subgraph(range(7)))]})
    # a disconnected line is skipped and not counted
    two_paths = from_edge_list(8, [(i, i + 1) for i in range(7) if i != 3])
    survey = min_order_scan(3, 8, {8: [to_graph6(two_paths), to_graph6(path8)]})
    assert survey["orders_scanned"][8] == 1
    assert survey["complete"] is True and survey["smallest_order"] is None


def test_min_order_scan_deterministic():
    assert min_order_scan(2, 5) == min_order_scan(2, 5)


def test_builtin_source_id():
    assert source_id_for_builtin(6) == "builtin:n=6"
