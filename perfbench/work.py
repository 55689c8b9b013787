"""Child process of the benchmark: prepares a workload's inputs, or runs one
repetition of a workload in a fresh interpreter and writes what it observed.

    python3 perfbench/work.py prepare --workload W --seed S --dir D [--tiny]
    python3 perfbench/work.py run --workload W --seed S --dir D --out F [--trace] [--tiny]

`run` times only the workload itself; the interpreter start, the import and
the input preparation are what `prepare` measures. Golden checks happen in
run.py, on the observations written to F.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from common import (
    D3_CLASS_SIZES, D3_STRIDE, FAMILIES, ROOT, SCAN_JOBS, TINY_D3_BLUEPRINTS, TINY_FAMILIES,
    TINY_SCAN_LINES, TINY_SURVEY_PARENTS, BenchError, canonical_json, order8_text, scan_cli_args,
    sha256_text, shuffled,
)

sys.path.insert(0, str(ROOT / "src"))
# Calls go through the package namespace so that a trace sees them.
import domchrom as dc  # noqa: E402
from domchrom import cli, invariants  # noqa: E402

if not Path(dc.__file__).resolve().is_relative_to(ROOT / "src"):
    raise BenchError(f"imported domchrom from {dc.__file__}, not from {ROOT / 'src'}")

WITNESS_SAMPLE = 256


# ---------------------------------------------------------------------------
# Inputs


def _d3_pool() -> list:
    return [bp for a, b in D3_CLASS_SIZES for bp in dc.enumerate_d3_blueprints(a, b)]


def prepare(workload: str, seed: int, workdir: Path, tiny: bool) -> None:
    if workload in SCAN_JOBS:
        lines = shuffled(order8_text().splitlines(), seed)
        if tiny:
            lines = lines[:TINY_SCAN_LINES]
        (workdir / "stream.g6").write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif workload == "certify-d3":
        pool = _d3_pool()
        order = shuffled(range(0, len(pool), D3_STRIDE), seed)
        if tiny:
            order = order[:TINY_D3_BLUEPRINTS]
        rows = [
            [i, pool[i].a, pool[i].b, sorted(pool[i].rule2_set), sorted(pool[i].rule3_set),
             sorted(pool[i].rule4_assign.items())]
            for i in order
        ]
        (workdir / "blueprints.json").write_text(json.dumps(rows), encoding="utf-8")
    elif workload == "survey8":
        order8_text()


# ---------------------------------------------------------------------------
# Workloads: each returns its (start, end) perf_counter times and a function
# that derives the observations from the raw results afterwards, outside the
# timed region and the trace.


def _certify(g) -> dict:
    """Certify one graph: invariants with witnesses checked through the
    predicates, Theorem 1 over all optimal colorings, planarity certificate."""
    r = dc.compute_report(g)
    predicates_ok = (
        dc.is_dominating_set(g, r.gamma_witness.vertices)
        and len(r.gamma_witness.vertices) == r.gamma
        and r.gamma_t_witness is not None
        and dc.is_total_dominating_set(g, r.gamma_t_witness.vertices)
        and len(r.gamma_t_witness.vertices) == r.gamma_t
        and dc.is_proper_coloring(g, r.chi_witness) and r.chi_witness.k == r.chi
        and dc.is_dominator_coloring(g, r.chi_d_witness) and r.chi_d_witness.k == r.chi_d
        and r.chi_dom_witness is not None
        and dc.is_dominated_coloring(g, r.chi_dom_witness) and r.chi_dom_witness.k == r.chi_dom
    )
    theorem1 = dc.check_theorem1(g)
    verdict = dc.is_planar(g)
    if verdict.planar:
        certificate_ok = dc.verify_embedding(g, verdict.embedding)
    else:
        certificate_ok = dc.verify_kuratowski(g, verdict.witness)
    return {
        "graph": g, "report": r, "predicates_ok": predicates_ok, "theorem1": theorem1,
        "planar": verdict.planar, "certificate_ok": certificate_ok,
    }


def _observe(cert: dict) -> dict:
    r = cert["report"]
    witnesses = {
        "gamma": sorted(r.gamma_witness.vertices),
        "gamma_t": sorted(r.gamma_t_witness.vertices) if r.gamma_t_witness else None,
        "chi": [sorted(c) for c in r.chi_witness.classes],
        "chi_d": [sorted(c) for c in r.chi_d_witness.classes],
        "chi_dom": [sorted(c) for c in r.chi_dom_witness.classes] if r.chi_dom_witness else None,
    }
    t1 = cert["theorem1"]
    return {
        "graph6": dc.to_graph6(cert["graph"]),
        "values": [r.gamma, r.gamma_t, r.chi, r.chi_d, r.chi_dom],
        "dk": r.dk,
        "predicates_ok": bool(cert["predicates_ok"]),
        "witness_sha256": sha256_text(canonical_json(witnesses)),
        "theorem1": [
            t1.colorings_checked, t1.all_classes_dominated, t1.every_vertex_dominates_exactly_one
        ],
        "planar": cert["planar"],
        "certificate_ok": bool(cert["certificate_ok"]),
    }


def run_families(tiny: bool):
    specs = TINY_FAMILIES if tiny else FAMILIES
    start = perf_counter()
    raw = []
    for family, k, n in specs:
        if family == "d_odd":
            g, _labels = dc.build_d_odd(dc.DOddSpec(k, n))
        else:
            g, _labels = dc.build_d_even(dc.DEvenSpec(k, n))
        raw.append((family, k, n, _certify(g)))
    return (start, perf_counter()), lambda: [
        {"family": f, "k": k, "n": n, **_observe(cert)} for f, k, n, cert in raw
    ]


def run_d3(workdir: Path):
    rows = json.loads((workdir / "blueprints.json").read_text(encoding="utf-8"))
    blueprints = [
        (i, dc.D3Blueprint(a, b, frozenset(r2), frozenset(r3), dict(r4)))
        for i, a, b, r2, r3, r4 in rows
    ]
    start = perf_counter()
    raw = []
    for index, bp in blueprints:
        g, _labels = dc.build_d3(bp)
        valid = dc.validate_blueprint(bp).ok
        cert = _certify(g)
        member = dc.is_in_class_d3(g) is not None
        raw.append((index, valid, member, cert))
    return (start, perf_counter()), lambda: [
        {"index": i, "valid": valid, "member": member, **_observe(cert)}
        for i, valid, member, cert in raw
    ]


def run_survey(seed: int, tiny: bool):
    start = perf_counter()
    parents = shuffled(dc.enumerate_connected(7), seed)
    if tiny:
        parents = parents[:TINY_SURVEY_PARENTS]
    extension = [dc.to_graph6(g) for g in dc.extend_connected(parents)]
    # a tiny extension yields only part of order 8, so the scan reads the frozen stream
    stream = order8_text().splitlines() if tiny else extension
    result = dc.min_order_scan(3, 8, sources={8: stream})
    return (start, perf_counter()), lambda: {
        "stream_sha256": sha256_text("\n".join(stream) + "\n"),
        "extension_size": len(extension),
        "extension_not_frozen": len(set(extension) - set(order8_text().splitlines())),
        "smallest_order": result["smallest_order"],
        "witness_graph6": result["witness_graph6"],
        "orders_scanned": {str(n): c for n, c in result["orders_scanned"].items()},
    }


def run_scan(workload: str, workdir: Path):
    """The CLI driven in-process, so the code path matches `domchrom scan`."""
    argv = scan_cli_args(workdir, SCAN_JOBS[workload])
    stdout = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return (start, perf_counter()), lambda: {"exit_code": code, "stdout": stdout.getvalue()}


def _witness_ms(graphs) -> float:
    """Mean of compute_report minus invariant_values on the same graphs
    (untraced, on the first WITNESS_SAMPLE distinct graphs of the run)."""
    seen = {}
    for g in graphs:
        seen.setdefault((g.n, tuple(g.adj)), g)
        if len(seen) == WITNESS_SAMPLE:
            break
    diffs = []
    for g in seen.values():
        t0 = perf_counter()
        invariants.compute_report(g)
        t1 = perf_counter()
        invariants.invariant_values(g)
        diffs.append((t1 - t0) - (perf_counter() - t1))
    return 1e3 * sum(diffs) / len(diffs) if diffs else 0.0


def run(args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if args.workload in SCAN_JOBS:
            interval, observe = run_scan(args.workload, args.dir)
        elif args.workload == "certify-families":
            interval, observe = run_families(args.tiny)
        elif args.workload == "certify-d3":
            if tracer is not None:
                # the pool enumeration is set-up work; trace it, untimed
                _d3_pool()
            interval, observe = run_d3(args.dir)
        else:
            interval, observe = run_survey(args.seed, args.tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        # perf_counter is the system's monotonic clock, shared with run.py
        "interval": interval,
        "observations": observe(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        trace_path = args.dir / "trace.json"
        tracer.write(trace_path, {"witness_ms": _witness_ms(tracer.report_graphs)})
        result["trace"] = str(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        prepare(args.workload, args.seed, args.dir, args.tiny)
    else:
        args.out.write_text(json.dumps(run(args)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
