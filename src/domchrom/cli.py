"""Command-line front end: construct, classify, verify, planar, scan.

Thin adapters over the library; no invariant logic lives here. Exit codes:
0 = success, 1 = computation succeeded but the asserted property is false,
2 = usage or input error. Machine-readable JSON goes to stdout, diagnostics
to stderr. Graph6 text, from a file or stdin, is read as strict UTF-8.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterator

from . import constructions, scan as scanmod
from .enumeration import enumerate_connected
from .graph6 import parse_graph6, to_graph6
from .graphs import Graph, GraphError, VertexLabeling, complete_bipartite, to_dot
from .invariants import Coloring, compute_report, enumerate_optimal_dominator_colorings
from .planarity import is_planar
from .structure import check_theorem1, find_chain, is_in_class_d3

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_USAGE = 2


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _lines(binary, name: str) -> Iterator[str]:
    """The lines of the UTF-8 text in a binary stream, split as str.splitlines
    splits the whole text, read one b"\n"-ended line at a time: no UTF-8
    sequence holds byte 0x0A, and every "\r\n" stays inside one such line."""
    offset = 0
    for raw in binary:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"source {name} is not UTF-8 text at byte {offset + exc.start}") from None
        offset += len(raw)
        yield from text.splitlines()


def _stdin() -> BinaryIO:
    """stdin's bytes; sys.stdin is None when the interpreter starts with it closed."""
    if sys.stdin is None:
        raise GraphError("stdin is closed")
    return sys.stdin.buffer


def _read_graph(graph6_arg: str | None) -> Graph:
    if graph6_arg is not None and graph6_arg != "-":
        return parse_graph6(graph6_arg)
    for line in _lines(_stdin(), "-"):
        line = line.strip()
        if line:
            return parse_graph6(line)
    raise GraphError("no graph6 input on stdin")


def _coloring_json(coloring: Coloring | None):
    if coloring is None:
        return None
    return [sorted(c) for c in coloring.classes]


def _witness_json(witness):
    if witness is None:
        return None
    return {"kind": witness.kind, "vertices": sorted(witness.vertices)}


def _kuratowski_json(witness) -> dict:
    return {
        "kind": witness.kind,
        "branch_vertices": list(witness.branch_vertices),
        "paths": [list(p) for p in witness.paths],
    }


def _report_json(report, graph6: str) -> dict:
    payload = report.record(graph6)
    payload["witnesses"] = {
        "gamma": _witness_json(report.gamma_witness),
        "gamma_t": _witness_json(report.gamma_t_witness),
        "chi": _coloring_json(report.chi_witness),
        "chi_d": _coloring_json(report.chi_d_witness),
        "chi_dom": _coloring_json(report.chi_dom_witness),
    }
    return payload


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any work, an output path that is a directory or lies
    in a directory that does not exist."""
    for path in filter(None, paths):
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise GraphError(f"cannot write {path}: not a file in an existing directory")


def _write_sidecars(args, g: Graph, labeling: VertexLabeling) -> None:
    if args.labels:
        Path(args.labels).write_text(
            json.dumps(labeling.to_dict(), sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.dot:
        Path(args.dot).write_text(to_dot(g, labeling), encoding="utf-8")


def _cmd_construct(args) -> int:
    _check_writable(args.labels, args.dot)
    if args.family == "d-odd":
        g, labeling = constructions.build_d_odd(constructions.DOddSpec(args.k, args.n))
    elif args.family == "d-even":
        g, labeling = constructions.build_d_even(constructions.DEvenSpec(args.k, args.n))
    elif args.family == "kpq":
        g, labeling = complete_bipartite(args.p, args.q)
    else:  # d3
        blueprints = constructions.enumerate_d3_blueprints(args.a, args.b)
        chosen = next(islice(blueprints, max(args.index, 0), None), None)
        if chosen is None or args.index < 0:
            raise GraphError(
                f"no valid blueprint at index {args.index} for sizes ({args.a}, {args.b})"
            )
        g, labeling = constructions.build_d3(chosen)
    print(to_graph6(g))
    _write_sidecars(args, g, labeling)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    g = _read_graph(args.graph6)
    report = compute_report(g)
    _emit(_report_json(report, to_graph6(g)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = _read_graph(args.graph6)
    report = compute_report(g)
    _emit(report.record(to_graph6(g)))
    return EXIT_OK


def _cmd_planar(args) -> int:
    g = _read_graph(args.graph6)
    verdict = is_planar(g)
    payload: dict = {"planar": verdict.planar}
    if verdict.planar:
        payload["embedding"] = [list(r) for r in verdict.embedding]
    else:
        payload["witness"] = _kuratowski_json(verdict.witness)
    _emit(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph6)
    exit_code = EXIT_OK
    ran_any = False
    if args.planar:
        ran_any = True
        verdict = is_planar(g)
        payload = {"check": "planar", "verdict": verdict.planar}
        if not verdict.planar:
            payload["witness"] = _kuratowski_json(verdict.witness)
            exit_code = EXIT_PROPERTY_FALSE
        _emit(payload)
    if args.theorem1:
        ran_any = True
        result = check_theorem1(g)  # raises GraphError when not D(k)
        ok = result.all_classes_dominated and result.every_vertex_dominates_exactly_one
        _emit(
            {
                "check": "theorem1",
                "verdict": ok,
                "colorings_checked": result.colorings_checked,
                "all_classes_dominated": result.all_classes_dominated,
                "every_vertex_dominates_exactly_one": result.every_vertex_dominates_exactly_one,
                "counterexamples": [list(c) for c in result.counterexamples],
            }
        )
        if not ok:
            exit_code = EXIT_PROPERTY_FALSE
    if args.d3_membership:
        ran_any = True
        bp = is_in_class_d3(g)
        payload = {"check": "d3-membership", "verdict": bp is not None}
        if bp is not None:
            payload["blueprint"] = {
                "a": bp.a,
                "b": bp.b,
                "rule2_set": sorted(bp.rule2_set),
                "rule3_set": sorted(bp.rule3_set),
                "rule4_assign": {str(k): v for k, v in sorted(bp.rule4_assign.items())},
            }
        _emit(payload)
        if bp is None:
            exit_code = EXIT_PROPERTY_FALSE
    if args.chain is not None:
        ran_any = True
        coloring = next(iter(enumerate_optimal_dominator_colorings(g, args.chain)))
        witness = find_chain(g, coloring)
        payload = {"check": "chain", "k": args.chain, "found": witness is not None}
        if witness is not None:
            payload["classes"] = list(witness.classes)
            payload["vertices"] = list(witness.vertices)
        _emit(payload)
    if not ran_any:
        raise GraphError("verify requires at least one of --planar/--theorem1/--d3-membership/--chain")
    return exit_code


def _cmd_scan(args) -> int:
    _check_writable(args.out, args.summary, args.checkpoint)
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if args.builtin is not None:
        lines = [to_graph6(g) for g in enumerate_connected(args.builtin)]
        source_id = scanmod.source_id_for_builtin(args.builtin)
    else:
        # stdin and a file alike: bound to the digest of their bytes
        try:
            data = _stdin().read() if args.source == "-" else Path(args.source).read_bytes()
        except OSError as exc:
            raise GraphError(f"cannot read source file {args.source}: {exc.strerror}") from None
        for _ in _lines(io.BytesIO(data), args.source):  # every byte checked before any output
            pass
        lines = _lines(io.BytesIO(data), args.source)
        source_id = scanmod.source_id_for_bytes("stdin" if args.source == "-" else "file", data)
    summary = scanmod.scan_stream(
        lines,
        checks=checks,
        out_path=args.out,
        summary_path=args.summary,
        checkpoint_path=args.checkpoint,
        source_id=source_id,
        strict=args.strict,
        jobs=args.jobs,
    )
    payload = summary.to_state()
    del payload["dk_first_graph6"]
    _emit(dict(payload, source_id=summary.source_id, checks=list(summary.checks)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact D(k)-graph toolkit: invariants, constructions, "
        "planarity certificates, and exhaustive scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="full invariant report with witnesses")
    p.add_argument("graph6", nargs="?", help="graph6 string (default: stdin)")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="flat invariant record incl. the D(k) verdict")
    p.add_argument("graph6", nargs="?")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="emit a named construction as graph6")
    fam = p.add_subparsers(dest="family", required=True)
    d_odd = fam.add_parser("d-odd")
    d_odd.add_argument("--k", type=int, required=True)
    d_odd.add_argument("--n", type=int, required=True)
    d_even = fam.add_parser("d-even")
    d_even.add_argument("--k", type=int, required=True)
    d_even.add_argument("--n", type=int, required=True)
    d3 = fam.add_parser("d3")
    d3.add_argument("--a", type=int, required=True)
    d3.add_argument("--b", type=int, required=True)
    d3.add_argument("--index", type=int, default=0, help="blueprint index in enumeration order")
    kpq = fam.add_parser("kpq")
    kpq.add_argument("--p", type=int, required=True)
    kpq.add_argument("--q", type=int, required=True)
    for sp in (d_odd, d_even, d3, kpq):
        sp.add_argument("--labels", help="write the role labeling JSON here")
        sp.add_argument("--dot", help="write a DOT rendering here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("planar", help="planarity verdict with certificate")
    p.add_argument("graph6", nargs="?")
    p.set_defaults(func=_cmd_planar)

    p = sub.add_parser("verify", help="assert structural properties (exit 1 on failure)")
    p.add_argument("graph6", nargs="?")
    p.add_argument("--theorem1", action="store_true")
    p.add_argument("--d3-membership", dest="d3_membership", action="store_true")
    p.add_argument("--planar", action="store_true")
    p.add_argument("--chain", type=int, metavar="K")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="stream graphs through the selected checks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--source", help="graph6 file, or - for stdin")
    src.add_argument("--builtin", type=int, help="use the built-in enumeration of this order")
    p.add_argument("--checks", default="invariants", help="comma list: invariants,planarity,d3-membership,theorem1")
    p.add_argument("--out", help="JSONL records path")
    p.add_argument("--summary", help="CSV summary path")
    p.add_argument("--checkpoint", help="checkpoint path (resume if present)")
    p.add_argument("--strict", action="store_true", help="abort on parse errors")
    p.add_argument("--jobs", type=int, default=1, help="processes that evaluate lines, "
                   "this one counted, at most the CPUs; 1 starts no pool")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
