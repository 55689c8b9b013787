"""Regenerate the benchmark's frozen input and goldens in perfbench/data/.

    python3 perfbench/make_goldens.py

Run only when the benchmark itself changes (for example, a new workload),
never to make a failing run pass: the goldens pin the outputs of the code
at the commit that made them. It asserts the paper's published facts
(11,117 connected graphs of order 8, one D(3) graph of order 8, `Gia@xw`),
so output from broken code is not frozen silently.
"""

from __future__ import annotations

import json

from common import (
    DATA, FAMILIES, SCAN_CHECKS, canonical_json, sha256_text, write_gz_lines,
)
from work import _certify, _d3_pool, _observe, run_families
from domchrom import build_d3, enumerate_connected, extend_connected, min_order_scan, to_graph6
from domchrom.scan import scan_stream


def main() -> None:
    DATA.mkdir(exist_ok=True)
    lines = [to_graph6(g) for g in extend_connected(enumerate_connected(7))]
    assert len(lines) == 11117
    text = "\n".join(lines) + "\n"
    (DATA / "order8.g6").write_text(text, encoding="utf-8")
    (DATA / "order8.g6.sha256").write_text(f"{sha256_text(text)}  order8.g6\n", encoding="utf-8")

    sink = []
    summary = scan_stream(lines, checks=SCAN_CHECKS.split(","), records_sink=sink)
    assert summary.dk_counts == {2: 3, 3: 1} and summary.dk_first_graph6[3] == "Gia@xw"
    records = []
    for record in sink:
        payload = json.loads(record.to_json_line())
        del payload["index"]
        records.append(payload)
    records.sort(key=lambda p: p["graph6"])
    scan = {
        "records_file": "scan8_records.jsonl.gz",
        "records_sha256": write_gz_lines(
            "scan8_records.jsonl.gz", [canonical_json(p) for p in records]
        ),
    }

    _seconds, observe = run_families(tiny=False)
    families = []
    for obs in observe():
        assert obs["values"] == [obs["k"]] * 5 and obs["certificate_ok"], obs
        families.append({
            "family": obs["family"], "k": obs["k"], "n": obs["n"], "graph6": obs["graph6"],
            "witness_sha256": obs["witness_sha256"],
            "colorings_checked": obs["theorem1"][0], "planar": obs["planar"],
        })
    assert len(families) == len(FAMILIES)

    pool_rows = []
    for bp in _d3_pool():
        obs = _observe(_certify(build_d3(bp)[0]))
        assert obs["values"] == [3] * 5 and obs["certificate_ok"], obs
        pool_rows.append(
            [obs["graph6"], obs["planar"], obs["theorem1"][0], obs["witness_sha256"]]
        )
    assert len(pool_rows) == 3268

    survey = min_order_scan(3, 8, sources={8: lines})
    assert survey["smallest_order"] == 8 and survey["witness_graph6"] == "Gia@xw"

    goldens = {
        "scan": scan,
        "certify_families": families,
        "families_witness_sha256": sha256_text("".join(f["witness_sha256"] for f in families)),
        "certify_d3": {
            "pool_file": "d3_pool.jsonl.gz",
            "pool_sha256": write_gz_lines(
                "d3_pool.jsonl.gz", [canonical_json(row) for row in pool_rows]
            ),
        },
        "survey8": {
            "smallest_order": survey["smallest_order"],
            "witness_graph6": survey["witness_graph6"],
            "orders_scanned": {str(n): c for n, c in survey["orders_scanned"].items()},
        },
    }
    (DATA / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
