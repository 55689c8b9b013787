"""Record alternating perfbench runs of two checkouts in one BENCH_<label>.json.

    python3 tools/bench_record.py --label NAME --side parent=DIR --side change=DIR \
        --workload survey8:1-10 --workload scan8:1-3 --seconds 10 \
        [--trace-workload survey8:1-3] [--out DIR]

Each side is a checkout with its own `perfbench/run.py`. For every workload
and seed, `run.py --trace 0` runs once in each checkout, and the side that
runs first alternates from one seed to the next; each `--trace-workload`
then runs the same way with `--trace 1`. The file, rewritten after every
run so that an interrupted recording keeps what it has, holds each side's
commit, the Python version, the CPU count and every run's last-line JSON.
Per workload it also holds each side's median and quartiles of every
end-to-end metric, the number of pairs the last side won, and each side's
median of every per-layer metric over its traced runs. A run that exits
non-zero or reports `"correct": false` stops the recording with an error
naming its side, workload and seed; the file keeps the runs before it.
An `--out` directory that does not exist, an empty seed range such as
3-1, or two checkouts whose paths differ in length (the path's length moves
`peak_rss_mb`) is refused with exit 2 before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else ""


def _describe(checkout: Path) -> dict:
    """The checkout's commit, the git tree of its src/, and whether its
    working tree differs from the commit."""
    return {
        "commit": _git(checkout, "rev-parse", "HEAD") or None,
        "src_tree": _git(checkout, "rev-parse", "HEAD:src") or None,
        "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
    }


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise ValueError(f"empty seed range {part}")
        seeds += span
    return seeds


def _run(side: str, checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's last-line JSON; exits when the run fails or reports a
    wrong result, so that no such run reaches the file or its summary."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(
            f"side {side}, workload {workload}, seed {seed}, trace {trace}: run.py in "
            f"{checkout} reported correct={result.get('correct')} with "
            f"{result.get('failed')} of {result.get('attempted')} operations failed"
        )
    return result


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], sides: list[str]) -> dict:
    """Per workload: each side's quartiles of every end-to-end metric, for
    each metric the pairs (same seed) in which the last side did better, and
    each side's medians of the per-layer metrics of its traced runs."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lower = {m["name"]: m["better"] == "lower" for m in declared}
    first, last = sides[0], sides[-1]
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        table: dict = {}  # side -> seed -> metric -> value
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                table.setdefault(r["side"], {})[r["seed"]] = {
                    name: m["value"] for name, m in r["result"]["metrics"].items()
                }
        entry: dict = {
            side: {name: _quartiles([m[name] for m in by_seed.values()]) for name in lower}
            for side, by_seed in table.items()
        }
        paired = sorted(table.get(first, {}).keys() & table.get(last, {}).keys())
        wins = {}
        for name in lower:
            won = 0
            for seed in paired:
                a, b = table[last][seed][name], table[first][seed][name]
                won += a < b if lower[name] else a > b
            wins[name] = f"{won} of {len(paired)}"
        entry[f"pairs_won_by_{last}"] = wins
        out[workload] = entry
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"]):
        traced: dict = {}  # side -> metric -> values
        for r in runs:
            if r["workload"] == workload and r["trace"]:
                for name, m in r["result"]["metrics"].items():
                    traced.setdefault(r["side"], {}).setdefault(name, []).append(m["value"])
        out.setdefault(workload, {})["traced_medians"] = {
            side: {name: statistics.median(v) for name, v in metrics.items()}
            for side, metrics in traced.items()
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR",
                        help="a checkout to run, in order; give two")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME[:SEEDS]",
                        help="a workload and its seeds, e.g. survey8:1-10 (default: seed 1)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace-workload", action="append", default=[], metavar="NAME[:SEEDS]",
                        help="the same, run with --trace 1")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if not args.out.is_dir():
        parser.error(f"--out {args.out}: not an existing directory")

    checkouts = {}
    for spec in args.side:
        name, _, path = spec.partition("=")
        if not (name and path):
            parser.error(f"--side {spec}: expected NAME=DIR")
        checkouts[name] = Path(path).resolve()
    sides = list(checkouts)
    if len(sides) != 2:
        parser.error("give two --side checkouts with distinct names")
    if len({len(str(path)) for path in checkouts.values()}) > 1:
        parser.error("the --side checkouts' paths differ in length, which moves peak_rss_mb")
    plan = []
    for trace, specs in enumerate((args.workload, args.trace_workload)):
        for spec in specs:
            workload, _, seeds = spec.partition(":")
            try:
                seed_list = _seeds(seeds or "1")
            except ValueError:
                parser.error(f"{spec}: seeds must look like 1-10 or 1,3,5, no range empty")
            for i, seed in enumerate(seed_list):
                order = sides if i % 2 == 0 else sides[::-1]
                plan += [(side, workload, seed, trace) for side in order]

    record = {
        "label": args.label,
        "command": f"perfbench/run.py --seconds {args.seconds:g}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "sides": {side: _describe(path) for side, path in checkouts.items()},
        "runs": [],
    }
    path = args.out / f"BENCH_{args.label}.json"
    for side, workload, seed, trace in plan:
        print(f"{side} {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        result = _run(side, checkouts[side], workload, seed, args.seconds, trace)
        record["runs"].append(
            {"side": side, "workload": workload, "seed": seed, "trace": trace, "result": result}
        )
        record["summary"] = summarize(record["runs"], sides)
        path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
