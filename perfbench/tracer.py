"""Spans and counts recorded from outside the package under test.

`Tracer.install` replaces the public functions listed in TARGETS with timing
wrappers in every `domchrom` module namespace that binds them, so calls made
through a module global (as `kuratowski_witness` calls `lr_is_planar`) are
seen as well as calls from the benchmark. Spans (name, start, end, parent)
are kept in memory in flat arrays, which create no object per span for the
garbage collector to walk, and are written out once at the end; `summarize`
turns the written file into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
from array import array
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import PER_LAYER

# (module, attribute, span name); "Class.method" wraps a method on the class.
TARGETS = (
    ("graph6", "parse_graph6", "graph6.parse"),
    ("graph6", "to_graph6", "graph6.encode"),
    ("enumeration", "canonical_form", "enumeration.canonical_form"),
    ("enumeration", "extend_connected", "enumeration.extend"),
    ("enumeration", "enumerate_connected", "enumeration.builtin"),
    ("invariants", "invariant_values", "invariants.values"),
    ("invariants", "compute_report", "invariants.report"),
    ("invariants", "domination_number", "invariants.gamma"),
    ("invariants", "total_domination_number", "invariants.gamma_t"),
    ("invariants", "max_clique", "invariants.clique"),
    ("invariants", "chromatic_number", "invariants.chi"),
    ("invariants", "dominator_chromatic_number", "invariants.chi_d"),
    ("invariants", "dominated_chromatic_number", "invariants.chi_dom"),
    ("invariants", "enumerate_optimal_dominator_colorings", "invariants.enumerate_colorings"),
    ("planarity", "lr_is_planar", "planarity.lr"),
    ("planarity", "is_planar", "planarity.certify"),
    ("planarity", "kuratowski_witness", "planarity.kuratowski"),
    ("planarity", "verify_embedding", "planarity.verify"),
    ("planarity", "verify_kuratowski", "planarity.verify"),
    ("structure", "is_in_class_d3", "structure.d3_member"),
    ("structure", "check_theorem1", "structure.theorem1"),
    ("constructions", "build_d_odd", "constructions.build"),
    ("constructions", "build_d_even", "constructions.build"),
    ("constructions", "build_d3", "constructions.build"),
    ("constructions", "enumerate_d3_blueprints", "constructions.blueprint_pool"),
    ("scan", "scan_stream", "scan.scan_stream"),
    ("scan", "ScanSummary.absorb", "scan.absorb"),
    ("scan", "ScanRecord.to_json_line", "scan.to_json_line"),
    ("scan", "Checkpoint.save", "scan.checkpoint"),
)

# Spans of the scan layer's own per-record work in the parent process.
SCAN_OWN = ("scan.absorb", "scan.to_json_line", "scan.checkpoint")


class _StampedLines:
    """Input lines that record when the scan consumes each one."""

    def __init__(self, lines, stamps: list):
        self._lines = lines
        self._stamps = stamps

    def __iter__(self):
        for line in self._lines:
            self._stamps.append(perf_counter())
            yield line


class _StampingSink:
    """A records_sink that keeps only the time each record reached it."""

    def __init__(self, stamps: list):
        self._stamps = stamps

    def append(self, _record) -> None:
        self._stamps.append(perf_counter())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict[str, int] = {}
        self.report_graphs: list = []
        self.scan = {"jobs": 1, "line_stamps": [], "record_stamps": []}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _before(self, name: str, args: tuple, kwargs: dict) -> tuple[str, tuple, dict]:
        if name == "invariants.values" and (
            kwargs.get("early_exit_k") is not None or len(args) > 1 and args[1] is not None
        ):
            self.count("invariants.values_early_exit.calls")
            name = "invariants.values_early_exit"
        elif name == "invariants.report":
            self.report_graphs.append(args[0])
        elif name == "scan.scan_stream":
            self.scan["jobs"] = kwargs.get("jobs", 1)
            kwargs = dict(kwargs)
            kwargs["records_sink"] = _StampingSink(self.scan["record_stamps"])
            args = (_StampedLines(args[0], self.scan["line_stamps"]),) + args[1:]
        elif name == "scan.checkpoint":
            self.count("scan.checkpoint_writes")
            self.counts["scan.records_bytes"] = args[0].records_bytes
        elif name == "enumeration.canonical_form":
            self.count("enumeration.canonical_form.calls")
        return name, args, kwargs

    def _after(self, name: str, result) -> None:
        if name == "structure.theorem1":
            self.count("structure.theorem1.colorings_checked", result.colorings_checked)

    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(index)
                        tracer.count(name + ".items")
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            span_name, args, kwargs = tracer._before(name, args, kwargs)
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._after(span_name, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "domchrom" or n.startswith("domchrom.")]
        for module_name, attr, span in TARGETS:
            owner = sys.modules["domchrom." + module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path, extras: dict) -> None:
        spans = [
            [name, start, end, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        payload = {"spans": spans, "counts": self.counts, "scan": self.scan, **extras}
        path.write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# Per-layer metrics from a written trace


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(path: Path) -> dict[str, float]:
    data = json.loads(path.read_text(encoding="utf-8"))
    spans = data["spans"]
    counts = data["counts"]
    durations: dict[str, list[float]] = {}
    for name, start, end, _parent in spans:
        durations.setdefault(name, []).append(end - start)

    def mean(name: str, scale: float) -> float:
        d = durations.get(name)
        return scale * sum(d) / len(d) if d else 0.0

    def total_outside(name: str, outside: str) -> float:
        return sum(
            end - start
            for i, (n, start, end, _p) in enumerate(spans)
            if n == name and not _has_ancestor(spans, i, outside)
        )

    m = {name: 0.0 for name in PER_LAYER}
    m["graph6.parse_us"] = mean("graph6.parse", 1e6)
    m["graph6.encode_us"] = mean("graph6.encode", 1e6)
    m["enumeration.canonical_form_us"] = mean("enumeration.canonical_form", 1e6)
    m["enumeration.canonical_form.calls"] = counts.get("enumeration.canonical_form.calls", 0)
    m["enumeration.extend_s"] = total_outside("enumeration.extend", "enumeration.builtin")
    m["enumeration.builtin_s"] = total_outside("enumeration.builtin", "enumeration.builtin")
    m["invariants.values_us"] = mean("invariants.values", 1e6)
    m["invariants.values_early_exit_us"] = mean("invariants.values_early_exit", 1e6)
    m["invariants.values_early_exit.calls"] = counts.get("invariants.values_early_exit.calls", 0)
    m["invariants.report_ms"] = mean("invariants.report", 1e3)
    m["invariants.witness_ms"] = data["witness_ms"]
    for key in ("gamma", "gamma_t", "clique", "chi", "chi_d", "chi_dom"):
        m[f"invariants.{key}_us"] = mean(f"invariants.{key}", 1e6)
    m["invariants.enumerate_colorings_s"] = sum(durations.get("invariants.enumerate_colorings", ()))
    m["invariants.optimal_colorings.count"] = counts.get("invariants.enumerate_colorings.items", 0)
    m["planarity.lr_us"] = mean("planarity.lr", 1e6)
    m["planarity.certify_ms"] = mean("planarity.certify", 1e3)
    m["planarity.kuratowski_ms"] = mean("planarity.kuratowski", 1e3)
    certificates = len(durations.get("planarity.certify", ()))
    if certificates:
        # is_planar makes one LR run itself, plus one per lr_is_planar call.
        nested = sum(
            1
            for i, span in enumerate(spans)
            if span[0] == "planarity.lr" and _has_ancestor(spans, i, "planarity.certify")
        )
        m["planarity.lr_runs_per_certificate"] = (certificates + nested) / certificates
    m["planarity.verify_us"] = mean("planarity.verify", 1e6)
    m["structure.d3_member_us"] = mean("structure.d3_member", 1e6)
    m["structure.theorem1_s"] = mean("structure.theorem1", 1.0)
    m["structure.theorem1.colorings_checked"] = counts.get("structure.theorem1.colorings_checked", 0)
    m["constructions.build_ms"] = mean("constructions.build", 1e3)
    m["constructions.blueprint_pool_s"] = sum(durations.get("constructions.blueprint_pool", ()))
    m.update(_scan_metrics(spans, counts, data["scan"]))
    return m


def _scan_metrics(spans, counts, scan) -> dict[str, float]:
    stream = [i for i, s in enumerate(spans) if s[0] == "scan.scan_stream"]
    if not stream:
        return {}
    top = stream[0]
    start, end = spans[top][1], spans[top][2]
    records = scan["record_stamps"]
    out = {
        "scan.checkpoint_writes": counts.get("scan.checkpoint_writes", 0),
        "scan.records_bytes": counts.get("scan.records_bytes", 0),
    }
    if not records:
        return out
    if scan["jobs"] <= 1:
        # checks run in this process: self time is what their spans leave
        checks = sum(
            s[2] - s[1] for s in spans if s[3] == top and not s[0].startswith("scan.")
        )
        out["scan.self_us"] = 1e6 * (end - start - checks) / len(records)
        return out
    # checks run in pool workers: the parent's time is its own per-record
    # work plus waiting for results
    own = sum(s[2] - s[1] for s in spans if s[0] in SCAN_OWN and s[1] <= records[-1])
    wait = records[-1] - start - own
    gaps = [b - a for a, b in zip(records, records[1:])]
    lines = scan["line_stamps"]
    latency = [r - l for l, r in zip(lines, records)]
    out["scan.self_us"] = 1e6 * (end - start - wait) / len(records)
    out["scan.j2_parent_wait_s"] = wait
    out["scan.j2_gap_us"] = 1e6 * statistics.median(gaps) if gaps else 0.0
    out["scan.j2_record_latency_ms"] = 1e3 * statistics.median(latency)
    return out
