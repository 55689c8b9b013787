"""Fast self-test of the benchmark (under a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and asserts that
its golden checks pass and that every metric named in BENCHMARK.json is
printed with its unit. It then feeds the golden checks deliberately wrong
outputs, to show that each kind of miss is counted, and checks that the
benchmark refuses to run without the package sources or with a frozen
stream that fails its sha256.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import (
    FAMILIES, HERE, ROOT, WORKLOADS, ScanGolden, d3_pool_golden, load_goldens, order8_sha256,
    order8_text, verify_d3, verify_families, verify_scan, verify_survey,
)

SCRATCH = ROOT / ".perfbench-work" / "selftest"


def run_bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_misses_are_counted() -> None:
    goldens = load_goldens()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    lines = order8_text().split()[:50]
    expected = ScanGolden(goldens).expected(lines)
    exp_lines, exp_csv, exp_stdout = expected
    records = "".join(line + "\n" for line in exp_lines)
    (SCRATCH / "records.jsonl").write_text(records, encoding="utf-8")
    (SCRATCH / "summary.csv").write_text(exp_csv, encoding="utf-8")
    checkpoint = {"last_index": len(lines) - 1, "records_bytes": len(records.encode())}
    (SCRATCH / "checkpoint.json").write_text(json.dumps(checkpoint), encoding="utf-8")
    stdout = json.dumps(exp_stdout) + "\n"
    assert verify_scan(SCRATCH, lines, expected, stdout) == (50, 0)
    wrong = records.replace('"chi":2', '"chi":3', 1)  # same length: checkpoint still fits
    (SCRATCH / "records.jsonl").write_text(wrong, encoding="utf-8")
    assert verify_scan(SCRATCH, lines, expected, stdout) == (50, 1)
    assert verify_scan(SCRATCH, lines[::-1], ScanGolden(goldens).expected(lines[::-1]), stdout)[1] > 1

    families = []
    for gold in goldens["certify_families"]:
        families.append({
            **gold, "values": [gold["k"]] * 5, "dk": gold["k"], "predicates_ok": True,
            "theorem1": [gold["colorings_checked"], True, True], "certificate_ok": True,
        })
    assert verify_families(families, goldens) == (len(FAMILIES), 0)
    families[4] = {**families[4], "witness_sha256": "0" * 64}
    assert verify_families(families, goldens) == (len(FAMILIES), 2)  # item and digest

    pool = d3_pool_golden(goldens)
    assert len(pool) == 3268
    graph6, planar, colorings, witness = pool[7]
    obs = {
        "index": 7, "valid": True, "member": True, "graph6": graph6, "values": [3] * 5,
        "dk": 3, "predicates_ok": True, "witness_sha256": witness,
        "theorem1": [colorings, True, True], "planar": planar, "certificate_ok": True,
    }
    assert verify_d3([obs], pool) == (1, 0)
    assert verify_d3([{**obs, "member": False}], pool) == (1, 1)

    survey = {
        "stream_sha256": order8_sha256(), "smallest_order": 8, "witness_graph6": "Gia@xw",
        "orders_scanned": goldens["survey8"]["orders_scanned"], "extension_size": 11117,
        "extension_not_frozen": 0,
    }
    assert verify_survey(survey, goldens) == (1, 0)
    assert verify_survey({**survey, "stream_sha256": "0" * 64}, goldens) == (1, 1)
    assert verify_survey({**survey, "extension_not_frozen": 1}, goldens) == (1, 1)
    print("ok golden checks count misses")


def check_refusals() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "scan8", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok refuses to run without src/domchrom")
    shutil.copytree(ROOT / "src", bare / "src", ignore=shutil.ignore_patterns("__pycache__"))
    stream = bare / "perfbench" / "data" / "order8.g6"
    stream.write_text(stream.read_text(encoding="utf-8").replace("G", "H", 1), encoding="utf-8")
    proc = run_bench(bare, "scan8", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok refuses a frozen stream that fails its sha256")


def main() -> int:
    try:
        check_workloads()
        check_misses_are_counted()
        check_refusals()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
