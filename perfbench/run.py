"""Benchmark of the domchrom toolkit: one command, five workloads, golden checks.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 it repeats the workload for about S seconds (at least once,
each repetition in a fresh interpreter) and prints the end-to-end metrics:
medians over the run of the repetition time and the set-up time, both
calibrated against the machine's speed (see speed.py), and of the memory.
With --trace 1 it runs the workload once untraced and once traced and prints
the per-layer metrics. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
Workloads, metrics and the reasons for both are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

from common import (
    END_TO_END, HERE, PER_LAYER, ROOT, SCAN_JOBS, WORKLOADS, BenchError, ScanGolden,
    clear_scan_outputs, d3_pool_golden, load_goldens, scan_cli_args, verify_d3,
    verify_families, verify_scan, verify_survey,
)
from speed import SpeedSampler

SETUP_REPS = 11
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 150
RSS_POLL_S = 0.05


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _tree_pids(pid: int) -> list[int]:
    pids, todo = [], [pid]
    while todo:
        p = todo.pop()
        pids.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            continue
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def workload_cpus(workload: str) -> list[int]:
    """The CPUs a workload runs on: two for the pool scan, else one, so that
    the speed sampler runs on the very CPU that does the work."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[: SCAN_JOBS.get(workload, 1)]


def spawn(cmd: list[str], cpus: list[int]) -> tuple[tuple[float, float], str, int]:
    """Run a child on `cpus` to completion: ((start, end), stdout, peak RSS in kB).

    The peak is the sum over the child and its descendants (pool workers)
    of each process's own peak, polled while they run. The child gets its
    own process group so that a timeout can stop its workers too; its
    workers inherit its CPUs.
    """
    peaks: dict[int, int] = {}
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    os.sched_setaffinity(proc.pid, cpus)
    done = threading.Event()

    def poll():
        while not done.is_set():
            for pid in _tree_pids(proc.pid):
                peaks[pid] = max(peaks.get(pid, 0), _hwm_kb(pid))
            sleep(RSS_POLL_S)

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {cmd}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        end = perf_counter()
        done.set()
        poller.join()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {cmd}")
    return (start, end), stdout, sum(peaks.values())


def work_cmd(mode: str, args, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "work.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(args.workdir)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd + list(extra)


class Workload:
    """One workload's repetitions and golden checks."""

    def __init__(self, args):
        self.args = args
        self.cpus = workload_cpus(args.workload)
        self.goldens = load_goldens()
        self.attempted = 0
        self.failed = 0
        if args.workload in SCAN_JOBS:
            self.lines = (args.workdir / "stream.g6").read_text(encoding="utf-8").split()
            self.expected = ScanGolden(self.goldens).expected(self.lines)
        elif args.workload == "certify-d3":
            self.pool = d3_pool_golden(self.goldens)

    def _count(self, attempted_failed: tuple[int, int]) -> None:
        self.attempted += attempted_failed[0]
        self.failed += attempted_failed[1]

    def cli_scan(self, jobs: int) -> tuple[tuple[float, float], int]:
        """One `domchrom scan` in a fresh interpreter: ((start, end), peak kB)."""
        workdir = self.args.workdir
        clear_scan_outputs(workdir)
        cmd = [sys.executable, "-m", "domchrom"] + scan_cli_args(workdir, jobs)
        interval, stdout, peak = spawn(cmd, self.cpus)
        self._count(verify_scan(workdir, self.lines, self.expected, stdout))
        return interval, peak

    def worker(self, trace: bool) -> tuple[tuple[float, float], int, dict]:
        """One repetition in work.py: ((start, end) of the timed part, peak kB, result)."""
        workdir = self.args.workdir
        if self.args.workload in SCAN_JOBS:
            clear_scan_outputs(workdir)
        out = workdir / ("traced.json" if trace else "untraced.json")
        _interval, _stdout, peak = spawn(
            work_cmd("run", self.args, "--out", str(out), *(["--trace"] if trace else [])),
            self.cpus,
        )
        result = json.loads(out.read_text(encoding="utf-8"))
        obs = result["observations"]
        workload = self.args.workload
        if workload in SCAN_JOBS:
            check = verify_scan(workdir, self.lines, self.expected, obs["stdout"])
            if obs["exit_code"] != 0:
                check = (check[0], check[0])
        elif workload == "certify-families":
            check = verify_families(obs, self.goldens)
        elif workload == "certify-d3":
            check = verify_d3(obs, self.pool)
        else:
            check = verify_survey(obs, self.goldens)
        self._count(check)
        return tuple(result["interval"]), max(peak, result["rss_kb"]), result

    def repetition(self) -> tuple[tuple[float, float], int]:
        if self.args.workload in SCAN_JOBS:
            return self.cli_scan(SCAN_JOBS[self.args.workload])
        interval, peak, _result = self.worker(trace=False)
        return interval, peak


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calibrated(sampler: SpeedSampler, interval: tuple[float, float], label: str) -> float:
    start, end = interval
    scale = sampler.scale(start, end)
    print(f"{label}: {end - start:.4f} s wall x {scale:.4f} = {(end - start) * scale:.4f} s",
          file=sys.stderr)
    return (end - start) * scale


def measure(args) -> dict:
    """Set-up and repetition times, calibrated against the speed of the
    workload's CPUs while each ran (see speed.py)."""
    cpus = workload_cpus(args.workload)
    with SpeedSampler(cpus) as sampler:
        setups = []
        for _ in range(SETUP_REPS):
            interval, _stdout, _peak = spawn(work_cmd("prepare", args), cpus)
            setups.append(_calibrated(sampler, interval, "setup"))
        w = Workload(args)
        times, peaks = [], []
        start = perf_counter()
        while True:
            rep_start = perf_counter()
            interval, peak = w.repetition()
            times.append(_calibrated(sampler, interval, "repetition"))
            peaks.append(peak)
            now = perf_counter()
            # stop when another repetition would overrun the run length
            if (now - start) + (now - rep_start) > args.seconds:
                break
    values = {
        "setup_s": statistics.median(setups),
        "calibrated_wall_s": statistics.median(times),
        "peak_rss_mb": statistics.median(peaks) * 1024 / 1e6,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    return {"attempted": w.attempted, "failed": w.failed, "metrics": metrics}


def trace(args) -> dict:
    from tracer import summarize

    spawn(work_cmd("prepare", args), workload_cpus(args.workload))
    w = Workload(args)
    (start, end), _peak, _result = w.worker(trace=False)
    untraced = end - start
    (start, end), _peak, result = w.worker(trace=True)
    traced = end - start
    values = summarize(Path(result["trace"]))
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    if args.workload in SCAN_JOBS:
        (start, end), _peak = w.cli_scan(1)
        j1 = end - start
        (start, end), _peak = w.cli_scan(2)
        j2 = end - start
        values.update({"scan.j1_wall_s": j1, "scan.j2_wall_s": j2, "scan.j2_speedup": j1 / j2})
    startup = []
    for _ in range(STARTUP_REPS):
        (start, end), _stdout, _peak = spawn(
            [sys.executable, "-m", "domchrom", "construct", "kpq", "--p", "2", "--q", "2"],
            workload_cpus(args.workload),
        )
        startup.append(end - start)
    values["cli.startup_ms"] = 1e3 * statistics.median(startup)
    metrics = {name: _metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
    return {"attempted": w.attempted, "failed": w.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps its children (see spawn)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (ROOT / "src" / "domchrom" / "__init__.py").is_file():
        print(f"error: no domchrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    args.workdir.mkdir(parents=True)
    try:
        out = trace(args) if args.trace else measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            args.workdir.parent.rmdir()
        except OSError:
            pass
    result = {"correct": out["failed"] == 0, **out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
