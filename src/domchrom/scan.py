"""Streamed scanning of graph6 input: per-graph checks, JSONL records,
CSV summaries, resumable checkpoints, and the minimum-order survey.

`_evaluate` turns each line into a plain tuple of record fields, or the
reason it is skipped, and the parent writes the records in input order, so
identical inputs yield byte-identical outputs at any job count. One writer
saves checkpoints atomically (write-new-then-rename), which bind to the
source via an identity string and to the record file via the sha256 of its
checkpointed prefix. A resume takes a checkpoint only as `save` writes it
(each field and summary value, coerced, must dump back to the JSON read),
then reads that prefix once, line by line: it must end a record, hash to
the checkpointed sha256 and rebuild the summary. Only then is the record
file truncated to it.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping

from .enumeration import MAX_BUILTIN_ORDER, enumerate_connected
from .graph6 import iter_graph6_lines, parse_graph6, to_graph6
from .graphs import Graph, GraphError, is_connected
from .invariants import compute_report, invariant_values
from .planarity import lr_is_planar
from .structure import check_theorem1, is_in_class_d3

KNOWN_CHECKS = ("invariants", "planarity", "d3-membership", "theorem1")

CONJECTURE_READING = (
    "minimum order of any D(k) graph; the literal statement quantifies only "
    "over the named constructions, for which non-existence below the bound "
    "is definitional"
)


# Lines per batch, whether a pool worker or the scan's own process evaluates
# it. Each pool task costs the scan's process CPU that its own evaluations
# would use: an order-8 scan at --jobs 2 on 2 CPUs spent 0.56-0.68 s of it
# besides its own evaluations at 8, 0.37-0.43 s at 64.
_POOL_BATCH = 64

# Batches each process, the scan's own counted, may have in the window of
# results not yet written.
_BATCHES_PER_PROCESS = 4

# Input lines between two checkpoint saves; one more is saved when the scan ends.
_CHECKPOINT_EVERY = 256


class ScanError(GraphError):
    pass


# One encoder for every record; its output equals json.dumps with these options.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


# The per-k tables of a summary, with the type of their values.
_DK_TABLES = (("dk_counts", int), ("dk_min_n", int), ("dk_first_graph6", str))


@dataclass(frozen=True)
class ScanRecord:
    index: int
    graph6: str
    n: int
    edge_count: int
    fields: Mapping[str, object]

    def to_json_line(self) -> str:
        payload = dict(index=self.index, graph6=self.graph6, n=self.n, edge_count=self.edge_count)
        payload.update(self.fields)
        return _RECORD_ENCODER.encode(payload)


@dataclass
class ScanSummary:
    source_id: str
    checks: tuple[str, ...]
    total: int = 0
    skipped: list[list[int]] = field(default_factory=list)  # [record index, source line]
    dk_counts: dict[int, int] = field(default_factory=dict)
    dk_min_n: dict[int, int] = field(default_factory=dict)
    dk_first_graph6: dict[int, str] = field(default_factory=dict)

    def absorb(self, record: ScanRecord) -> None:
        self.total += 1
        dk = record.fields.get("dk")
        if dk is not None:
            self.dk_counts[dk] = self.dk_counts.get(dk, 0) + 1
            if dk not in self.dk_min_n or record.n < self.dk_min_n[dk]:
                self.dk_min_n[dk] = record.n
            self.dk_first_graph6.setdefault(dk, record.graph6)

    def to_csv(self) -> str:
        lines = ["k,count,min_n,first_graph6"]
        for k in sorted(self.dk_counts):
            lines.append(
                f"{k},{self.dk_counts[k]},{self.dk_min_n[k]},{self.dk_first_graph6[k]}"
            )
        lines.append(f"total,{self.total},,")
        return "\n".join(lines) + "\n"

    def to_state(self) -> dict:
        state: dict = {"total": self.total, "skipped": list(self.skipped)}
        for name, _ in _DK_TABLES:
            state[name] = {str(k): v for k, v in sorted(getattr(self, name).items())}
        return state

    @staticmethod
    def from_state(
        source_id: str, checks: tuple[str, ...], state: dict, last_index: int
    ) -> "ScanSummary":
        """The summary a checkpoint at last_index holds; ScanError unless it
        is one `to_state` could have written there."""
        fields = _as_written("checkpoint summary state", state, _STATE_FIELDS)
        summary = ScanSummary(source_id, checks, **fields)
        indices = [index for index, _ in summary.skipped]
        lines = [line for _, line in summary.skipped]
        counts = summary.dk_counts.values()
        if summary.total + len(indices) != last_index + 1:
            raise ScanError(
                f"checkpoint covers {last_index + 1} lines, but its summary counts "
                f"{summary.total} records and {len(indices)} skipped lines"
            )
        if not all(i < j for i, j in zip([-1, *indices], [*indices, last_index + 1])):
            raise ScanError(f"checkpoint's skipped indices must rise strictly within 0..{last_index}")
        if not all(i < j for i, j in zip([0, *lines], lines)):
            raise ScanError("checkpoint's skipped line numbers must be >= 1 and rise strictly")
        if not summary.dk_counts.keys() == summary.dk_min_n.keys() == summary.dk_first_graph6.keys():
            raise ScanError("checkpoint's dk tables must share one set of keys")
        if min(counts, default=1) < 1 or sum(counts) > summary.total:
            raise ScanError(f"checkpoint's dk counts must be >= 1 and sum to at most {summary.total}")
        # chi_d never exceeds the order, and the first D(k) graph of a stream
        # that is not sorted by order may be larger than the smallest one
        for k, min_n in summary.dk_min_n.items():
            first = summary.dk_first_graph6[k]
            try:
                valid = 1 <= k <= min_n and first == first.strip() and parse_graph6(first).n >= min_n
            except GraphError:
                valid = False
            if not valid:
                raise ScanError(
                    f"checkpoint's dk entry {k} needs 1 <= k <= min_n ({min_n}) and a "
                    f"first graph6 of at least min_n vertices, not {first!r}"
                )
        return summary


def _tmp_sibling(path: str | Path) -> Path:
    """The file a checkpoint save writes before renaming it onto `path`."""
    return Path(path).with_suffix(Path(path).suffix + ".tmp")


@dataclass(frozen=True)
class Checkpoint:
    source_id: str
    checks: tuple[str, ...]
    last_index: int
    records_bytes: int
    records_sha256: str  # digest of the record file's first records_bytes
    summary_state: dict

    def save(self, path: str | Path) -> None:
        tmp = _tmp_sibling(path)
        tmp.write_text(json.dumps(asdict(self), sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    @staticmethod
    def load(path: str | Path) -> "Checkpoint":
        """The checkpoint at `path`; ScanError unless it is one `save` could write."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ScanError(f"checkpoint {path} cannot be read: {exc}") from None
        fields = _as_written(f"checkpoint {path}", data, _CHECKPOINT_FIELDS)
        if fields["last_index"] < -1 or fields["records_bytes"] < 0:
            raise ScanError(f"checkpoint {path}: last_index or records_bytes is negative")
        return Checkpoint(**fields)


def _as_written(what: str, data: object, kinds: Mapping[str, tuple[Callable, str]]) -> dict:
    """The fields of the JSON object `data`, each rebuilt by its kind in
    `kinds`; ScanError, naming the field, unless `data` has exactly those
    fields and each dumps back to the same JSON (not so "1", true, 2.0,
    1e999 or a key "02" where an integer is due)."""
    if not isinstance(data, dict) or data.keys() != kinds.keys():
        raise ScanError(f"{what} is malformed: it must hold exactly the fields {sorted(kinds)}")
    fields = {}
    for name, (kind, description) in kinds.items():
        try:
            fields[name] = kind(data[name])
        except (AttributeError, OverflowError, TypeError, ValueError):
            pass
        if name not in fields or json.dumps(fields[name]) != json.dumps(data[name]):
            raise ScanError(f"{what} is malformed: {name} must be {description}, not {data[name]!r}")
    return fields


def _kinds(**kinds: type) -> dict[str, tuple[Callable, str]]:
    return {name: (kind, f"of type {kind.__name__}") for name, kind in kinds.items()}


_CHECKPOINT_FIELDS = _kinds(
    source_id=str, checks=tuple, last_index=int, records_bytes=int, records_sha256=str, summary_state=dict
)
_STATE_FIELDS = {
    **_kinds(total=int),
    "skipped": (lambda pairs: [[int(i), int(x)] for i, x in pairs], "a list of [index, line] integer pairs"),
    **{
        name: (lambda t, kind=kind: {int(k): kind(v) for k, v in t.items()}, f"a table of {kind.__name__}")
        for name, kind in _DK_TABLES
    },
}


def source_id_for_bytes(kind: str, data: bytes) -> str:
    """Identity of a source read whole, e.g. kind "file" or "stdin"."""
    return f"{kind}:sha256:{hashlib.sha256(data).hexdigest()}"


def source_id_for_builtin(n: int) -> str:
    return f"builtin:n={n}"


# ---------------------------------------------------------------------------
# Per-graph evaluation (in pool workers and in the scan's own process)


def _evaluate(
    checks: tuple[str, ...], item: tuple[int, tuple[int, str]]
) -> tuple[int, str | tuple]:
    """(source line, payload): the ScanRecord's fields as a tuple, or the
    reason the line is skipped."""
    index, (lineno, line) = item
    fields: dict[str, object] = {}
    try:
        g = parse_graph6(line)
        if "invariants" in checks or "theorem1" in checks:
            fields.update(invariant_values(g))
        if "planarity" in checks:
            fields["planar"] = lr_is_planar(g)
        if "d3-membership" in checks:
            fields["d3_member"] = is_in_class_d3(g) is not None
        if "theorem1" in checks:
            ok = None  # Theorem 1 speaks only of D(k) graphs
            if fields.get("dk") is not None:
                result = check_theorem1(g)
                ok = result.all_classes_dominated and result.every_vertex_dominates_exactly_one
            fields["theorem1_ok"] = ok
    except GraphError as exc:  # unparsable, or a graph some check rejects
        return lineno, f"line {lineno} (record {index}): {exc}"
    return lineno, (index, line, g.n, g.edge_count(), fields)


def _evaluate_batch(checks: tuple[str, ...], batch: list) -> list:
    return [_evaluate(checks, item) for item in batch]


def _iter_results(items, checks: tuple[str, ...], jobs: int):
    """(source line, payload) for each item, in input order. jobs counts
    this process: past 1, a pool of one fewer workers, and fewer than the
    CPUs, evaluates batches of lines, and this process takes the next batch
    itself whenever the oldest is not back yet."""
    workers = min(jobs, os.cpu_count() or 1) - 1
    if workers < 1:
        yield from map(partial(_evaluate, checks), items)
        return
    import multiprocessing  # only a pool needs it, and its import costs ~10 ms

    batches = iter(lambda: list(islice(items, _POOL_BATCH)), [])
    batch = next(batches, None)
    window: deque = deque()  # in input order: pool tasks, and result lists made here
    tasks = 0
    with multiprocessing.Pool(processes=workers) as pool:
        while window or batch is not None:
            while batch is not None and tasks < _BATCHES_PER_PROCESS * workers:
                window.append(pool.apply_async(_evaluate_batch, (checks, batch)))
                tasks += 1
                batch = next(batches, None)
            oldest = window[0]
            own = isinstance(oldest, list)
            room = len(window) < _BATCHES_PER_PROCESS * (workers + 1)
            if not (own or oldest.ready()) and batch is not None and room:
                window.append(_evaluate_batch(checks, batch))
                batch = next(batches, None)
                continue
            window.popleft()
            if not own:
                tasks -= 1
                oldest = oldest.get()  # waits if need be; re-raises a worker's exception
            yield from oldest


# ---------------------------------------------------------------------------
# Streaming scan


def _replay(path: Path, size: int, sha256: str, summary: ScanSummary):
    """The running sha256 of the first `size` bytes of the record file at
    `path`, read once, line by line; ScanError unless they end a record,
    hash to `sha256` and hold records that rebuild `summary`."""
    digest = hashlib.sha256()
    replayed = ScanSummary(summary.source_id, summary.checks, skipped=summary.skipped)
    left = size
    with open(path, "rb") as f:
        while left > 0:
            line = f.readline(left)
            left -= len(line)
            digest.update(line)
            number = replayed.total + 1  # absorb counts a record before reading its dk
            if not line.endswith(b"\n"):
                raise ScanError(f"the checkpointed bytes of {path} end inside record {number}")
            try:
                r = json.loads(line)
                replayed.absorb(ScanRecord(r["index"], r["graph6"], r["n"], r["edge_count"], r))
            except (KeyError, TypeError, ValueError) as exc:
                raise ScanError(f"record {number} of {path} cannot be read: {exc!r}") from None
    if digest.hexdigest() != sha256 or replayed.total != summary.total:
        raise ScanError(
            f"record file {path} differs from the {size} bytes and {summary.total} "
            "records its checkpoint covers"
        )
    if replayed != summary:
        raise ScanError(
            f"checkpoint's summary state disagrees with the {summary.total} records of {path}: "
            f"they give {replayed.to_state()}"
        )
    return digest


def scan_stream(
    lines: Iterable[str],
    checks: Collection[str] = ("invariants",),
    out_path: str | Path | None = None,
    summary_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    source_id: str = "",
    strict: bool = False,
    jobs: int = 1,
    records_sink: list | None = None,
) -> ScanSummary:
    """Scan a graph6 line stream, one record per graph, in input order.

    Unknown checks are rejected. A line that does not parse, or whose graph
    a check rejects (say, a disconnected graph under d3-membership), aborts
    the scan under strict=True; otherwise its record index and source line
    number go to the summary's skipped list. When a checkpoint exists for
    the same source, the scan resumes after the last completed record and
    reproduces the aggregates exactly; one that covers records needs their
    file as out_path. jobs must be at least 1 and counts the scan's own
    process: more than one fans the checks out to a process pool of
    jobs - 1 workers, at most one fewer than os.cpu_count(), and the scan's
    own process evaluates lines while it would otherwise wait, so a scan
    runs at most jobs processes and no more than CPUs; with one CPU it runs
    serially. Paths that name one file, counting the .tmp
    file a checkpoint save writes first, are refused before any file is
    read or written.
    """
    checks_t = tuple(c for c in KNOWN_CHECKS if c in set(checks))
    unknown = set(checks) - set(KNOWN_CHECKS)
    if unknown:
        raise ScanError(f"unknown checks: {sorted(unknown)}")
    if jobs < 1:
        raise ScanError(f"jobs must be at least 1, got {jobs}")
    tmp = None if checkpoint_path is None else _tmp_sibling(checkpoint_path)
    written = [Path(p).resolve() for p in (out_path, summary_path, checkpoint_path, tmp) if p is not None]
    for i, path in enumerate(written):
        if path in written[:i]:
            raise ScanError(f"two of the record, summary, checkpoint and checkpoint .tmp files are {path}")
    if tmp is not None and tmp.is_dir():
        raise ScanError(f"cannot write {tmp}, which a checkpoint save writes first: it is a directory")

    resume_from = -1
    summary = ScanSummary(source_id=source_id, checks=checks_t)
    records_bytes = 0
    records_hash = hashlib.sha256()
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        cp = Checkpoint.load(checkpoint_path)
        if cp.source_id != source_id or cp.checks != checks_t:
            raise ScanError(
                "checkpoint does not match this source/checks: "
                f"{cp.source_id!r} vs {source_id!r}"
            )
        if out_path is None and cp.records_bytes > 0:
            raise ScanError(
                f"checkpoint {checkpoint_path} covers {cp.records_bytes} bytes of a "
                "record file; resume it with that file as --out"
            )
        resume_from = cp.last_index
        records_bytes = cp.records_bytes
        summary = ScanSummary.from_state(source_id, checks_t, cp.summary_state, resume_from)

    out_file = None
    if out_path is not None:
        out_path = Path(out_path)
        if resume_from >= 0:
            if not out_path.exists():
                raise ScanError(f"checkpoint expects an existing record file at {out_path}")
            size = out_path.stat().st_size
            if size < records_bytes:
                raise ScanError(
                    f"record file {out_path} has {size} bytes, fewer than the "
                    f"{records_bytes} its checkpoint covers"
                )
            records_hash = _replay(out_path, records_bytes, cp.records_sha256, summary)
            out_file = open(out_path, "r+b")
            out_file.truncate(records_bytes)
            out_file.seek(records_bytes)
        else:
            out_file = open(out_path, "wb")
            records_bytes = 0

    def save_checkpoint() -> None:
        if out_file is not None:
            out_file.flush()
        Checkpoint(
            source_id, checks_t, last_index, records_bytes,
            records_hash.hexdigest(), summary.to_state(),
        ).save(checkpoint_path)

    items = islice(enumerate(iter_graph6_lines(lines)), resume_from + 1, None)
    last_index = resume_from
    try:
        for lineno, payload in _iter_results(items, checks_t, jobs):
            last_index += 1
            if isinstance(payload, str):
                if strict:
                    raise ScanError(payload)
                summary.skipped.append([last_index, lineno])
            else:
                record = ScanRecord(*payload)
                summary.absorb(record)
                if records_sink is not None:
                    records_sink.append(record)
                if out_file is not None:
                    data = (record.to_json_line() + "\n").encode("utf-8")
                    out_file.write(data)
                    records_hash.update(data)
                    records_bytes += len(data)
            if checkpoint_path is not None and (last_index + 1) % _CHECKPOINT_EVERY == 0:
                save_checkpoint()
        if checkpoint_path is not None:
            save_checkpoint()
    finally:
        if out_file is not None:
            out_file.close()

    if summary_path is not None:
        Path(summary_path).write_bytes(summary.to_csv().encode("utf-8"))
    return summary


# ---------------------------------------------------------------------------
# Minimum-order survey


def min_order_scan(
    k: int,
    n_max: int,
    sources: Mapping[int, Iterable[str]] | None = None,
) -> dict:
    """Smallest order carrying any D(k) graph within the scanned range.

    Orders 1..MAX_BUILTIN_ORDER come from the built-in enumeration; larger
    orders need entries in `sources` (graph6 lines, assumed to be complete
    non-isomorphic connected enumerations; disconnected lines are skipped).
    Orders with no source mark the survey partial. The adopted reading of
    the minimum-order question is carried in the output.
    """
    if k < 2:
        raise GraphError(f"survey requires k >= 2, got {k}")
    sources = sources or {}
    orders_scanned: dict[int, int] = {}
    partial_orders: list[int] = []
    witness_graph6: str | None = None
    smallest: int | None = None

    for n in range(1, n_max + 1):
        graphs: Iterable[Graph]
        if n <= MAX_BUILTIN_ORDER:
            graphs = enumerate_connected(n)
        elif n in sources:
            graphs = (parse_graph6(line) for _ln, line in iter_graph6_lines(sources[n]))
        else:
            partial_orders.append(n)
            continue
        count = 0
        hit: Graph | None = None
        for g in graphs:
            if g.n != n:
                raise ScanError(f"source for order {n} produced a graph of order {g.n}")
            if not is_connected(g):
                continue
            count += 1
            if invariant_values(g, early_exit_k=k).get("dk") == k:
                hit = g
                break
        orders_scanned[n] = count
        if hit is not None:
            # re-verify through the full solvers before reporting
            report = compute_report(hit)
            if report.dk != k:
                raise AssertionError("fast path and full solvers disagree; bug")
            smallest = n
            witness_graph6 = to_graph6(hit)
            break

    return {
        "reading": CONJECTURE_READING,
        "k": k,
        "n_max": n_max,
        "smallest_order": smallest,
        "witness_graph6": witness_graph6,
        "complete": not partial_orders,
        "partial_orders": partial_orders,
        "orders_scanned": orders_scanned,
    }
