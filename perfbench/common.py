"""Shared definitions of the benchmark: paths, workloads, metric tables,
input loading and the golden checks.

This module imports nothing from the package under test, so run.py and
the self-test can check outputs without importing it. Golden data lives in
`data/` and does not depend on the seed: a seed only reorders inputs.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

WORKLOADS = ("scan8", "scan8-j2", "certify-families", "certify-d3", "survey8")
SCAN_JOBS = {"scan8": 1, "scan8-j2": 2}
SCAN_CHECKS = "invariants,planarity,d3-membership,theorem1"

# Inputs of the --tiny mode used by the self-test.
TINY_SCAN_LINES = 200
TINY_D3_BLUEPRINTS = 24
TINY_FAMILIES = (("d_odd", 3, 9), ("d_even", 4, 12))
# extend_connected from this many order-7 parents, checked against the frozen stream
TINY_SURVEY_PARENTS = 40

# The nine acceptance constructions. k >= 7 is left out on purpose: one
# compute_report on d_odd(7,25) takes minutes and would swamp every other
# effect. Labels are never permuted, for the same reason.
FAMILIES = (
    ("d_odd", 3, 9), ("d_odd", 3, 10), ("d_odd", 3, 13), ("d_odd", 5, 17),
    ("d_odd", 5, 19), ("d_even", 4, 12), ("d_even", 4, 13), ("d_even", 4, 16),
    ("d_even", 6, 18),
)
D3_CLASS_SIZES = tuple((a, b) for a in (3, 4, 5) for b in (3, 4, 5))
# certify-d3 takes every D3_STRIDE-th blueprint of the pool (817 of 3,268),
# in seeded order: a fixed set keeps cost and counts equal across seeds, and
# a short repetition lets a run take the fastest of several.
D3_STRIDE = 4

END_TO_END = {
    "setup_s": "s",
    "calibrated_wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph6.parse_us": "us",
    "graph6.encode_us": "us",
    "enumeration.canonical_form_us": "us",
    "enumeration.canonical_form.calls": "count",
    "enumeration.extend_s": "s",
    "enumeration.builtin_s": "s",
    "invariants.values_us": "us",
    "invariants.values_early_exit_us": "us",
    "invariants.values_early_exit.calls": "count",
    "invariants.report_ms": "ms",
    "invariants.witness_ms": "ms",
    "invariants.gamma_us": "us",
    "invariants.gamma_t_us": "us",
    "invariants.clique_us": "us",
    "invariants.chi_us": "us",
    "invariants.chi_d_us": "us",
    "invariants.chi_dom_us": "us",
    "invariants.enumerate_colorings_s": "s",
    "invariants.optimal_colorings.count": "count",
    "planarity.lr_us": "us",
    "planarity.certify_ms": "ms",
    "planarity.kuratowski_ms": "ms",
    "planarity.lr_runs_per_certificate": "count",
    "planarity.verify_us": "us",
    "structure.d3_member_us": "us",
    "structure.theorem1_s": "s",
    "structure.theorem1.colorings_checked": "count",
    "constructions.build_ms": "ms",
    "constructions.blueprint_pool_s": "s",
    "scan.self_us": "us",
    "scan.checkpoint_writes": "count",
    "scan.records_bytes": "bytes",
    "scan.j2_parent_wait_s": "s",
    "scan.j2_gap_us": "us",
    "scan.j2_record_latency_ms": "ms",
    "scan.j1_wall_s": "s",
    "scan.j2_wall_s": "s",
    "scan.j2_speedup": "ratio",
    "cli.startup_ms": "ms",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, bad input)."""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def shuffled(items, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def load_goldens() -> dict:
    return json.loads((DATA / "goldens.json").read_text(encoding="utf-8"))


def order8_text() -> str:
    """The frozen order-8 stream; refuses a file that fails its sha256."""
    text = (DATA / "order8.g6").read_text(encoding="utf-8")
    expected = (DATA / "order8.g6.sha256").read_text(encoding="utf-8").split()[0]
    if sha256_text(text) != expected:
        raise BenchError("data/order8.g6 does not match data/order8.g6.sha256")
    return text


def order8_sha256() -> str:
    return (DATA / "order8.g6.sha256").read_text(encoding="utf-8").split()[0]


def _gz_lines(name: str, expected_sha256: str) -> list[str]:
    text = gzip.decompress((DATA / name).read_bytes()).decode("utf-8")
    if sha256_text(text) != expected_sha256:
        raise BenchError(f"data/{name} does not match its digest in goldens.json")
    return text.splitlines()


def write_gz_lines(name: str, lines: list[str]) -> str:
    """Write golden lines reproducibly; returns the digest of the text."""
    text = "".join(line + "\n" for line in lines)
    (DATA / name).write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    return sha256_text(text)


# ---------------------------------------------------------------------------
# Scans: the expected output is rebuilt from the per-graph golden records in
# the order of the (seeded) input, so --jobs 1 and --jobs 2 are held to the
# same bytes.


def scan_cli_args(workdir: Path, jobs: int) -> list[str]:
    return [
        "scan", "--source", str(workdir / "stream.g6"), "--checks", SCAN_CHECKS,
        "--out", str(workdir / "records.jsonl"), "--summary", str(workdir / "summary.csv"),
        "--checkpoint", str(workdir / "checkpoint.json"), "--jobs", str(jobs),
    ]


def clear_scan_outputs(workdir: Path) -> None:
    for name in ("records.jsonl", "summary.csv", "checkpoint.json"):
        (workdir / name).unlink(missing_ok=True)


class ScanGolden:
    def __init__(self, goldens: dict):
        g = goldens["scan"]
        self.records = {}
        for line in _gz_lines(g["records_file"], g["records_sha256"]):
            self.records[json.loads(line)["graph6"]] = line

    def expected(self, lines: list[str]) -> tuple[list[str], str, dict]:
        """(JSONL lines, summary CSV, CLI stdout fields) for this input order."""
        out = []
        counts: dict[int, int] = {}
        min_n: dict[int, int] = {}
        first: dict[int, str] = {}
        for index, g6 in enumerate(lines):
            rec = json.loads(self.records[g6])
            rec["index"] = index
            out.append(canonical_json(rec))
            if rec["dk"] is not None:
                dk = rec["dk"]
                counts[dk] = counts.get(dk, 0) + 1
                min_n[dk] = min(min_n.get(dk, rec["n"]), rec["n"])
                first.setdefault(dk, g6)
        csv = ["k,count,min_n,first_graph6"]
        csv += [f"{k},{counts[k]},{min_n[k]},{first[k]}" for k in sorted(counts)]
        csv.append(f"total,{len(lines)},,")
        stdout = {
            "total": len(lines),
            "skipped": [],
            "dk_counts": {str(k): v for k, v in sorted(counts.items())},
        }
        return out, "\n".join(csv) + "\n", stdout


def verify_scan(workdir: Path, lines: list[str], expected, stdout: str) -> tuple[int, int]:
    """(attempted, failed): one operation per graph; every mismatching or
    missing record is a failure, and so is a wrong summary, CLI report or
    final checkpoint."""
    exp_lines, exp_csv, exp_stdout = expected
    records_path = workdir / "records.jsonl"
    got = records_path.read_text(encoding="utf-8").splitlines() if records_path.exists() else []
    failed = sum(1 for i, line in enumerate(exp_lines) if i >= len(got) or got[i] != line)
    failed += max(0, len(got) - len(exp_lines))
    summary_path = workdir / "summary.csv"
    if not summary_path.exists() or summary_path.read_text(encoding="utf-8") != exp_csv:
        failed += 1
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {}
    if any(report.get(key) != value for key, value in exp_stdout.items()):
        failed += 1
    try:
        cp = json.loads((workdir / "checkpoint.json").read_text(encoding="utf-8"))
        cp_ok = (
            cp["last_index"] == len(exp_lines) - 1
            and cp["records_bytes"] == records_path.stat().st_size
        )
    except (OSError, ValueError, KeyError):
        cp_ok = False
    if not cp_ok:
        failed += 1
    return len(exp_lines), failed


# ---------------------------------------------------------------------------
# Certifications and the survey: the worker reports observations, checked
# here against the goldens.


def _certification_ok(obs: dict, k: int) -> bool:
    return (
        obs["values"] == [k] * 5
        and obs["dk"] == k
        and obs["predicates_ok"]
        and obs["theorem1"][1:] == [True, True]
        and obs["certificate_ok"]
    )


def verify_families(observations: list[dict], goldens: dict) -> tuple[int, int]:
    expected = {(c["family"], c["k"], c["n"]): c for c in goldens["certify_families"]}
    failed = 0
    for obs in observations:
        gold = expected.get((obs["family"], obs["k"], obs["n"]))
        ok = (
            gold is not None
            and _certification_ok(obs, obs["k"])
            and obs["graph6"] == gold["graph6"]
            and obs["witness_sha256"] == gold["witness_sha256"]
            and obs["theorem1"][0] == gold["colorings_checked"]
            and obs["planar"] == gold["planar"]
        )
        failed += not ok
    if len(observations) == len(FAMILIES):
        digest = sha256_text("".join(o["witness_sha256"] for o in observations))
        failed += digest != goldens["families_witness_sha256"]
    return len(observations), failed


def d3_pool_golden(goldens: dict) -> list[list]:
    g = goldens["certify_d3"]
    return [json.loads(line) for line in _gz_lines(g["pool_file"], g["pool_sha256"])]


def verify_d3(observations: list[dict], pool: list[list]) -> tuple[int, int]:
    """Pool rows are [graph6, planar, colorings_checked, witness_sha256]."""
    failed = 0
    for obs in observations:
        graph6, planar, colorings, witness = pool[obs["index"]]
        ok = (
            obs["valid"]
            and obs["member"]
            and _certification_ok(obs, 3)
            and obs["graph6"] == graph6
            and obs["planar"] == planar
            and obs["theorem1"][0] == colorings
            and obs["witness_sha256"] == witness
        )
        failed += not ok
    return len(observations), failed


def verify_survey(obs: dict, goldens: dict) -> tuple[int, int]:
    gold = goldens["survey8"]
    ok = (
        obs["smallest_order"] == gold["smallest_order"]
        and obs["witness_graph6"] == gold["witness_graph6"]
        and obs["orders_scanned"] == gold["orders_scanned"]
        and obs["stream_sha256"] == order8_sha256()
        and obs["extension_size"] > 0
        and obs["extension_not_frozen"] == 0
    )
    return 1, int(not ok)
