import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from domchrom import scan as scanmod
from domchrom.cli import _lines, main
from domchrom.constructions import DOddSpec, build_d3, build_d_odd, enumerate_d3_blueprints
from domchrom.enumeration import enumerate_connected
from domchrom.graph6 import parse_graph6, to_graph6
from domchrom.graphs import complete_bipartite, from_edge_list

D_ODD_3_9_G6 = to_graph6(build_d_odd(DOddSpec(3, 9))[0])
K22_G6 = to_graph6(complete_bipartite(2, 2)[0])


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        # the CLI reads stdin's bytes, so stdin has a buffer, as a real one has
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8"))))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_d_odd_golden(capsys, tmp_path):
    labels = tmp_path / "labels.json"
    dot = tmp_path / "g.dot"
    code, out, _ = run_cli(
        capsys,
        ["construct", "d-odd", "--k", "3", "--n", "9",
         "--labels", str(labels), "--dot", str(dot)],
    )
    assert code == 0
    assert out.strip() == D_ODD_3_9_G6 == "H?zvbAX"
    roles = json.loads(labels.read_text())
    assert roles["x3"] == 8 and roles["P1"] == [0, 1, 2, 3]
    assert "graph G {" in dot.read_text()


def test_construct_d_even_golden(capsys):
    code, out, _ = run_cli(capsys, ["construct", "d-even", "--k", "4", "--n", "12"])
    assert code == 0 and out == "KFzc_??cwF?[\n"


def test_construct_kpq_and_d3(capsys):
    code, out, _ = run_cli(capsys, ["construct", "kpq", "--p", "2", "--q", "2"])
    assert code == 0 and parse_graph6(out.strip()).edge_count() == 4
    code, out, _ = run_cli(capsys, ["construct", "d3", "--a", "3", "--b", "4"])
    assert code == 0
    assert parse_graph6(out.strip()).n == 8
    # no valid blueprint at (3, 3)
    code, _out, err = run_cli(capsys, ["construct", "d3", "--a", "3", "--b", "3"])
    assert code == 2 and "no valid blueprint" in err


def test_construct_d3_index_picks_the_blueprint_in_enumeration_order(capsys):
    pool = list(enumerate_d3_blueprints(3, 4))
    argv = ["construct", "d3", "--a", "3", "--b", "4", "--index"]
    for index in (0, len(pool) - 1):
        code, out, _ = run_cli(capsys, argv + [str(index)])
        assert code == 0 and out.strip() == to_graph6(build_d3(pool[index])[0])
    for index in (-1, len(pool)):
        code, out, err = run_cli(capsys, argv + [str(index)])
        assert code == 2 and out == ""
        assert err == f"error: no valid blueprint at index {index} for sizes (3, 4)\n"


def test_classify_k22(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["classify"], stdin_text=K22_G6 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["dk"] == 2
    assert payload["gamma"] == 2 and payload["chi"] == 2 and payload["chi_d"] == 2
    assert payload["graph6"] == K22_G6


def test_invariants_includes_witnesses(capsys):
    code, out, _ = run_cli(capsys, ["invariants", K22_G6])
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"]["gamma"]["vertices"] == [0, 1]
    assert payload["witnesses"]["chi_d"] == [[0, 1], [2, 3]]
    # K1 has no total dominating set and no dominated coloring
    code, out, _ = run_cli(capsys, ["invariants", "@"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_t"] is None and payload["chi_dom"] is None
    assert payload["witnesses"]["gamma_t"] is None and payload["witnesses"]["chi_dom"] is None


def test_verify_theorem1_non_dk_is_usage_error(capsys):
    p4 = to_graph6(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    code, _out, err = run_cli(capsys, ["verify", "--theorem1", p4])
    assert code == 2
    assert "not a D(k) graph" in err


def test_verify_theorem1_on_dk_graph(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem1", D_ODD_3_9_G6])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["colorings_checked"] >= 1


def test_verify_theorem1_failure_exits_1_with_counterexamples(capsys, monkeypatch):
    from dataclasses import replace

    from domchrom import cli

    check_theorem1 = cli.check_theorem1

    def failing(g):
        return replace(
            check_theorem1(g),
            all_classes_dominated=False,
            every_vertex_dominates_exactly_one=False,
            counterexamples=((0, "vertex-dominates-2", 4), (1, "class-not-dominated", 2)),
        )

    monkeypatch.setattr(cli, "check_theorem1", failing)
    code, out, _ = run_cli(capsys, ["verify", "--theorem1", D_ODD_3_9_G6])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["counterexamples"] == [[0, "vertex-dominates-2", 4], [1, "class-not-dominated", 2]]


def test_verify_planar_exit_codes(capsys):
    k5 = to_graph6(
        parse_graph6("D~{")  # K5 in graph6
    )
    code, out, _ = run_cli(capsys, ["verify", "--planar", k5])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False and payload["witness"]["kind"] == "K5"
    code, _, _ = run_cli(capsys, ["verify", "--planar", K22_G6])
    assert code == 0


def test_planar_command_reports_without_asserting(capsys):
    code, out, _ = run_cli(capsys, ["planar", "D~{"])
    assert code == 0
    assert json.loads(out)["planar"] is False
    code, out, _ = run_cli(capsys, ["planar", K22_G6])
    assert code == 0
    payload = json.loads(out)
    assert payload["planar"] is True and len(payload["embedding"]) == 4


def test_verify_d3_membership(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--d3-membership", D_ODD_3_9_G6])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["blueprint"]["a"] >= 3
    k33 = to_graph6(complete_bipartite(3, 3)[0])
    code, out, _ = run_cli(capsys, ["verify", "--d3-membership", k33])
    assert code == 1


def test_verify_chain(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--chain", "3", D_ODD_3_9_G6])
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "chain" and "found" in payload
    # the paw (a triangle with a pendant) has a chain over its first three classes
    code, out, _ = run_cli(capsys, ["verify", "CN", "--chain", "3"])
    assert code == 0
    assert out == '{"check":"chain","classes":[0,1,2],"found":true,"k":3,"vertices":[1,2,3]}\n'


def test_verify_without_flags_is_usage_error(capsys):
    code, _out, err = run_cli(capsys, ["verify", K22_G6])
    assert code == 2 and "requires at least one" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_graph6_is_usage_error(capsys):
    code, _out, err = run_cli(capsys, ["classify", "!!bad!!"])
    assert code == 2 and "error" in err


def test_classify_with_empty_stdin_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["classify"], stdin_text="", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == "error: no graph6 input on stdin\n"


@pytest.mark.parametrize(
    "argv", [["classify"], ["invariants", "-"], ["planar"], ["scan", "--source", "-"]],
    ids=["classify", "invariants", "planar", "scan"],
)
def test_closed_stdin_is_usage_error(capsys, monkeypatch, argv):
    # an interpreter started with stdin closed sets sys.stdin to None
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: stdin is closed\n"


def test_scan_of_a_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["scan", "--source", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read source file {tmp_path}")
    assert list(tmp_path.iterdir()) == []


def test_scan_cli(capsys, tmp_path):
    out = tmp_path / "records.jsonl"
    summ = tmp_path / "summary.csv"
    code, stdout, _ = run_cli(
        capsys,
        ["scan", "--builtin", "5", "--checks", "invariants,planarity",
         "--out", str(out), "--summary", str(summ), "--jobs", "2"],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["total"] == 21
    assert out.exists() and summ.exists()
    first = json.loads(out.read_text().splitlines()[0])
    assert "planar" in first and "gamma" in first


def test_scan_refuses_to_resume_into_a_truncated_record_file(capsys, tmp_path):
    src = tmp_path / "n6.g6"
    src.write_text("".join(to_graph6(g) + "\n" for g in enumerate_connected(6)))
    out = tmp_path / "records.jsonl"
    argv = ["scan", "--source", str(src), "--out", str(out), "--checkpoint", str(tmp_path / "cp.json")]
    assert run_cli(capsys, argv)[0] == 0
    with open(out, "r+b") as f:
        f.truncate(1000)
    code, stdout, err = run_cli(capsys, argv)
    assert code == 2 and stdout == ""
    assert "fewer than" in err
    # refused before the record file is touched: no NUL padding
    assert out.stat().st_size == 1000 and b"\0" not in out.read_bytes()


def test_scan_refuses_to_resume_into_an_edited_record_file(capsys, tmp_path):
    src = tmp_path / "n5.g6"
    src.write_text("".join(to_graph6(g) + "\n" for g in enumerate_connected(5)))
    out = tmp_path / "records.jsonl"
    argv = ["scan", "--source", str(src), "--out", str(out), "--checkpoint", str(tmp_path / "cp.json")]
    assert run_cli(capsys, argv)[0] == 0
    text = out.read_text()
    at = text.index('"gamma":') + len('"gamma":')
    out.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])
    code, stdout, err = run_cli(capsys, argv)
    assert code == 2 and stdout == ""
    assert "differs from" in err


def test_scan_stdin_checkpoint_is_bound_to_the_stream(capsys, tmp_path, monkeypatch):
    n4 = "".join(to_graph6(g) + "\n" for g in enumerate_connected(4))
    n5 = "".join(to_graph6(g) + "\n" for g in enumerate_connected(5))
    argv = ["scan", "--source", "-", "--out", str(tmp_path / "records.jsonl"),
            "--checkpoint", str(tmp_path / "cp.json")]
    code, stdout, _ = run_cli(capsys, argv, stdin_text=n4, monkeypatch=monkeypatch)
    assert code == 0
    digest = hashlib.sha256(n4.encode("utf-8")).hexdigest()
    assert json.loads(stdout)["source_id"] == f"stdin:sha256:{digest}"
    code, stdout, _ = run_cli(capsys, argv, stdin_text=n4, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(stdout)["total"] == 6
    code, _out, err = run_cli(capsys, argv, stdin_text=n5, monkeypatch=monkeypatch)
    assert code == 2 and "checkpoint does not match" in err


def test_scan_output_bytes_are_pinned(capsys, tmp_path):
    # sha256 of every output of one scan with all four checks, so that a
    # refactor of the scan path that moves any byte fails here
    out, summ, cp = tmp_path / "r.jsonl", tmp_path / "s.csv", tmp_path / "cp.json"
    code, stdout, _ = run_cli(
        capsys,
        ["scan", "--builtin", "6", "--checks", "invariants,planarity,d3-membership,theorem1",
         "--out", str(out), "--summary", str(summ), "--checkpoint", str(cp), "--jobs", "2"],
    )
    assert code == 0
    outputs = (out.read_bytes(), summ.read_bytes(), cp.read_bytes(), stdout.encode("utf-8"))
    assert [hashlib.sha256(data).hexdigest() for data in outputs] == [
        "3294e6ba8dba6663288d0b095b8be424d524ac2b2addf1044758b93ded73354f",
        "11cc0ace669b745a4cdf17961e9f2d6dc0fefd38de4a7fb870d93b88bd941f0e",
        "8f7aab4c6980249cc6cc9e452c711027382aabaf95c1b1e2a8883bd30f7dff7c",
        "7a940db7a27095ac6054cee12306f03a317d57f8d1f0f6327054a1383fd0a1ba",
    ]


def _corrupt_text(text):
    return "{not json"


def _corrupt_drop_field(text):
    payload = json.loads(text)
    del payload["last_index"]
    return json.dumps(payload)


def _corrupt_field_type(text):
    return json.dumps(dict(json.loads(text), last_index="zero"))


def _corrupt_negative_index(text):
    return json.dumps(dict(json.loads(text), last_index=-2))


def _corrupt_summary_state(text):
    return json.dumps(dict(json.loads(text), summary_state={"total": 3}))


def _corrupt_last_index(raw):
    # JSON text Python would not write for an integer, spliced in as is
    def corrupt(text):
        return re.sub(r'"last_index": \d+', f'"last_index": {raw}', text)

    return corrupt


def _corrupt_state(**fields):
    def corrupt(text):
        payload = json.loads(text)
        payload["summary_state"].update(fields)
        return json.dumps(payload)

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_text, "cannot be read"),
        (_corrupt_drop_field, "exactly the fields"),
        (_corrupt_field_type, "last_index must be of type int"),
        # int() takes each of these; only the round trip to JSON tells them apart
        (_corrupt_last_index("Infinity"), "last_index must be of type int, not inf"),
        (_corrupt_last_index("1e999"), "last_index must be of type int, not inf"),
        (_corrupt_last_index("true"), "last_index must be of type int, not True"),
        (_corrupt_last_index("20.0"), "last_index must be of type int, not 20.0"),
        (_corrupt_negative_index, "is negative"),
        (_corrupt_summary_state, "summary state is malformed"),
        (_corrupt_state(total="21"), "summary state is malformed"),
        (_corrupt_state(dk_counts={"02": 1}), "dk_counts must be a table of int"),
        (_corrupt_state(extra=0), "summary state is malformed: it must hold exactly the fields"),
        (_corrupt_state(dk_counts={"2": "1"}), "summary state is malformed"),
        (_corrupt_state(skipped="xyz"), "[index, line] integer pairs"),
        (_corrupt_state(skipped=[[0, 1, 2]]), "[index, line] integer pairs"),
        (_corrupt_state(skipped=[[0, "1"]]), "[index, line] integer pairs"),
        (_corrupt_state(skipped=[[0, True]]), "[index, line] integer pairs"),
        (_corrupt_state(skipped=[[0, 1]]), "checkpoint covers 21 lines"),
        # the n = 5 stream has 21 lines, all recorded, one of them a D(2) graph
        (_corrupt_state(total=20, skipped=[[999, -4]]), "indices must rise strictly within 0..20"),
        (_corrupt_state(total=19, skipped=[[3, 4], [3, 5]]), "indices must rise strictly"),
        (_corrupt_state(total=19, skipped=[[3, 4], [5, 4]]), "line numbers must be >= 1"),
        (_corrupt_state(total=20, skipped=[[0, 0]]), "line numbers must be >= 1"),
        (_corrupt_state(dk_min_n={}), "dk tables must share one set of keys"),
        (_corrupt_state(dk_counts={"2": 500}), "sum to at most 21"),
        (_corrupt_state(dk_counts={"2": 0}), "dk counts must be >= 1"),
        (_corrupt_state(total=20, skipped=[[20, 21]]), "bytes and 20 records its checkpoint"),
        # well-formed, but not what the 21 records hold: resumed, it wrote the
        # summary row 2,2,5,D~{ and exited 0
        (
            _corrupt_state(dk_counts={"2": 2}, dk_first_graph6={"2": "D~{"}),
            "summary state disagrees with the 21 records",
        ),
        (_corrupt_state(dk_min_n={"2": -3}), "dk entry 2 needs 1 <= k <= min_n (-3)"),
        (_corrupt_state(dk_first_graph6={"2": "not graph6,1"}), "not 'not graph6,1'"),
        (
            _corrupt_state(dk_counts={"-7": 1}, dk_min_n={"-7": 5}, dk_first_graph6={"-7": "DFw"}),
            "dk entry -7 needs 1 <= k <= min_n (5)",
        ),
    ],
)
def test_scan_refuses_a_malformed_checkpoint(capsys, tmp_path, corrupt, message):
    src = tmp_path / "n5.g6"
    src.write_text("".join(to_graph6(g) + "\n" for g in enumerate_connected(5)))
    out, cp = tmp_path / "records.jsonl", tmp_path / "cp.json"
    argv = ["scan", "--source", str(src), "--out", str(out), "--checkpoint", str(cp)]
    assert run_cli(capsys, argv)[0] == 0
    records = out.read_bytes()
    forged = corrupt(cp.read_text())
    cp.write_text(forged)
    code, stdout, err = run_cli(capsys, argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and message in err
    assert out.read_bytes() == records and cp.read_text() == forged


def test_scan_refuses_a_source_file_that_is_not_utf8(capsys, tmp_path):
    src = tmp_path / "bad.g6"
    src.write_bytes(b"Bw\n\xff\n")
    out = tmp_path / "records.jsonl"
    code, stdout, err = run_cli(capsys, ["scan", "--source", str(src), "--out", str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "not UTF-8" in err
    assert not out.exists()


def test_source_lines_are_those_of_str_splitlines():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    breaks = ["\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    # surrogates (category Cs) have no UTF-8 encoding
    chars = st.characters(exclude_categories=("Cs",))

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(st.sampled_from(["Bw", "A", " ", *breaks]) | chars).map("".join))
    def check(text):
        assert list(_lines(io.BytesIO(text.encode("utf-8")), "text")) == text.splitlines()

    check()


def test_scan_reads_a_source_file_at_every_line_boundary(capsys, tmp_path, monkeypatch):
    lines = [to_graph6(g) for g in enumerate_connected(5)]
    mixed = ["\r\n", "\r", "\x85", "\u2028"]
    outputs = []
    # the mixed text is also read from stdin, which takes the file's path
    for name, separators, stdin in (("plain", ["\n"], False), ("mixed", mixed, False), ("stdin", mixed, True)):
        text = "".join(line + separators[i % len(separators)] for i, line in enumerate(lines))
        src = tmp_path / f"{name}.g6"
        src.write_text(text, encoding="utf-8", newline="")
        out, summ = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
        argv = ["scan", "--source", "-" if stdin else str(src), "--out", str(out), "--summary", str(summ)]
        assert run_cli(capsys, argv, stdin_text=text if stdin else None, monkeypatch=monkeypatch)[0] == 0
        outputs.append((out.read_bytes(), summ.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0][0].count(b"\n") == len(lines) == 21


# unset, a decoding that takes any byte, and the strict one of a UTF-8 locale
STDIN_ENCODINGS = (None, "latin-1", "utf-8:strict")


def _run_with_stdin(argv, data, encoding):
    # a subprocess, so that stdin is the interpreter's own under this encoding
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    return subprocess.run(
        [sys.executable, "-m", "domchrom", *argv], input=data, capture_output=True, timeout=60, env=env
    )


def test_scan_refuses_stdin_that_is_not_utf8(tmp_path):
    out = tmp_path / "records.jsonl"
    for encoding in STDIN_ENCODINGS:
        proc = _run_with_stdin(["scan", "--source", "-", "--out", str(out)], b"Bw\n\xff\n", encoding)
        assert proc.returncode == 2 and proc.stdout == b"", encoding
        assert proc.stderr.startswith(b"error:") and b"not UTF-8" in proc.stderr, encoding
        assert not out.exists()


def test_classify_refuses_stdin_that_is_not_utf8():
    for encoding in STDIN_ENCODINGS:
        proc = _run_with_stdin(["classify"], b"\xff\n", encoding)
        assert proc.returncode == 2 and proc.stdout == b"", encoding
        assert proc.stderr == b"error: source - is not UTF-8 text at byte 0\n", encoding


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--builtin", "4", "--out", "."],
        ["scan", "--builtin", "4", "--out", "out.jsonl", "--summary", "missing/x.csv"],
        ["scan", "--builtin", "4", "--out", "out.jsonl", "--checkpoint", "missing/cp.json"],
        ["construct", "kpq", "--p", "2", "--q", "3", "--labels", "missing/l.json"],
        ["construct", "kpq", "--p", "2", "--q", "3", "--dot", "missing/g.dot"],
    ],
)
def test_unwritable_output_paths_are_refused_first(capsys, tmp_path, monkeypatch, argv):
    # the last argument cannot be written: refused before any graph is
    # evaluated or any output written
    monkeypatch.chdir(tmp_path)

    def evaluate(*args):
        raise AssertionError("a graph was evaluated")

    monkeypatch.setattr(scanmod, "_evaluate", evaluate)
    code, stdout, err = run_cli(capsys, argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1 and argv[-1] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "paths",
    [
        ["--out", "x.jsonl", "--checkpoint", "x.jsonl"],
        ["--out", "y.jsonl", "--summary", "y.jsonl"],
        ["--summary", "z.csv", "--checkpoint", "z.csv"],
        ["--out", "cp.json.tmp", "--checkpoint", "cp.json"],  # save writes cp.json.tmp first
    ],
)
def test_scan_refuses_two_outputs_that_name_one_file(capsys, tmp_path, monkeypatch, paths):
    # refused before a checkpoint is read or a file is opened, whether or
    # not the files exist yet; the error names the shared file
    monkeypatch.chdir(tmp_path)
    names = sorted(set(paths[1::2]))
    for existing in ([], names):
        for name in existing:
            (tmp_path / name).write_bytes(b"kept\n")
        code, stdout, err = run_cli(capsys, ["scan", "--builtin", "5", *paths])
        assert code == 2 and stdout == "" and err.count("\n") == 1
        assert err.startswith("error:") and str(tmp_path.resolve() / paths[1]) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == existing
        assert all((tmp_path / name).read_bytes() == b"kept\n" for name in existing)


def test_scan_refuses_a_directory_at_the_checkpoint_tmp_path(capsys, tmp_path, monkeypatch):
    # save writes cp.json.tmp before renaming it onto cp.json: refused before
    # any graph is evaluated, not after the whole scan
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cp.json.tmp").mkdir()

    def evaluate(*args):
        raise AssertionError("a graph was evaluated")

    monkeypatch.setattr(scanmod, "_evaluate", evaluate)
    code, stdout, err = run_cli(
        capsys, ["scan", "--builtin", "5", "--out", "r.jsonl", "--checkpoint", "cp.json"]
    )
    assert code == 2 and stdout == "" and err.count("\n") == 1
    assert err.startswith("error:") and "cp.json.tmp" in err and "directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cp.json.tmp"]


def test_scan_rejects_jobs_below_one(capsys, tmp_path):
    out = tmp_path / "records.jsonl"
    code, stdout, err = run_cli(capsys, ["scan", "--builtin", "3", "--jobs", "0", "--out", str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "jobs" in err
    assert not out.exists()


def test_console_script_subprocess():
    import shutil
    import subprocess

    exe = shutil.which("domchrom")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run(
        [exe, "classify", K22_G6], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dk"] == 2
