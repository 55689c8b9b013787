import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _metrics(wall):
    return {
        "setup_s": {"value": 0.5, "unit": "s"},
        "calibrated_wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": 20.0, "unit": "MB"},
    }


def _fake_checkout(path: Path, correct: bool) -> Path:
    """A checkout whose perfbench/run.py prints one fixed result line."""
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
              "metrics": _metrics(1.0)}
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    return path


def test_incorrect_run_stops_the_recording_and_keeps_the_runs_before_it(tmp_path, capsys):
    good = _fake_checkout(tmp_path / "good", correct=True)
    bad = _fake_checkout(tmp_path / "bad_", correct=False)  # paths of equal length
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main([
            "--label", "t", "--side", f"parent={good}", "--side", f"change={bad}",
            "--workload", "survey8:3", "--seconds", "1", "--out", str(out),
        ])
    message = str(exit_info.value.code)
    assert exit_info.value.code not in (0, None)
    assert "side change" in message and "workload survey8" in message and "seed 3" in message
    assert "1 of 4" in message
    record = json.loads((out / "BENCH_t.json").read_text())
    assert [(r["side"], r["seed"]) for r in record["runs"]] == [("parent", 3)]
    assert record["summary"]["survey8"]["parent"]["calibrated_wall_s"]["median"] == 1.0


def test_correct_runs_are_all_recorded(tmp_path):
    a = _fake_checkout(tmp_path / "a", correct=True)
    b = _fake_checkout(tmp_path / "b", correct=True)
    assert bench_record.main([
        "--label", "t", "--side", f"parent={a}", "--side", f"change={b}",
        "--workload", "scan8:1-2", "--seconds", "1", "--out", str(tmp_path),
    ]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["side"], r["seed"]) for r in record["runs"]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
    ]


@pytest.mark.parametrize("workload, out, change, message", [
    ("scan8:1", "missing", "a", "not an existing directory"),
    ("survey8:3-1", ".", "a", "no range empty"),
    ("scan8:1", ".", "bb", "paths differ in length"),
], ids=[
    "scan8:1-missing-not an existing directory",
    "survey8:3-1-.-no range empty",
    "scan8:1-.-paths differ in length",
])
def test_bad_arguments_are_refused_before_any_run(
    tmp_path, monkeypatch, capsys, workload, out, change, message
):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_record, "_run", no_run)
    a = _fake_checkout(tmp_path / "a", correct=True)
    if change != "a":
        _fake_checkout(tmp_path / change, correct=True)
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main([
            "--label", "t", "--side", f"parent={a}", "--side", f"change={tmp_path / change}",
            "--workload", workload, "--out", str(tmp_path / out),
        ])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_summarize_quartiles_pair_wins_and_traced_medians():
    walls = {"parent": [2.0, 2.2, 1.9, 2.1], "change": [1.5, 2.3, 1.4, 1.6]}
    runs = [
        {"side": side, "workload": "survey8", "seed": seed, "trace": 0,
         "result": {"correct": True, "metrics": _metrics(wall)}}
        for side, values in walls.items() for seed, wall in enumerate(values, 1)
    ]
    runs += [
        {"side": side, "workload": "survey8", "seed": seed, "trace": 1,
         "result": {"correct": True, "metrics": {"enumeration.extend_s": {"value": value}}}}
        for side, values in {"parent": [1.4, 1.2, 1.3], "change": [0.9, 1.0, 0.8]}.items()
        for seed, value in enumerate(values, 1)
    ]
    summary = bench_record.summarize(runs, ["parent", "change"])["survey8"]
    wall = summary["parent"]["calibrated_wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"], wall["n"]) == pytest.approx(
        (1.925, 2.05, 2.175, 4)
    )
    assert summary["change"]["calibrated_wall_s"]["median"] == pytest.approx(1.55)
    # seed 2 is the one pair the change loses; ties on the other metrics win nothing
    assert summary["pairs_won_by_change"] == {
        "setup_s": "0 of 4", "calibrated_wall_s": "3 of 4", "peak_rss_mb": "0 of 4",
    }
    assert summary["traced_medians"] == {
        "parent": {"enumeration.extend_s": 1.3}, "change": {"enumeration.extend_s": 0.9},
    }
