"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 a check failed, 2 usage or
input error, 3 a check was left undecided within the time budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterable

from .coloring import ColoringError
from .graph6 import emit_graph6, parse_graph6
from .graphs import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    complete_minus_matching,
    cube,
    cycle,
    is_overfull,
    petersen,
    petersen_minus_vertex,
    prism,
    vertex_split,
)
from .lemmas import lemma_records
from .records import RecordError, VerificationRecord, tally_verdicts
from .solver import (
    SearchBudgetExceeded,
    check_budget,
    chromatic_index,
    critical_edge_report,
    find_delta_coloring,
    vizing_color,
)
from .verifier import (
    SweepConfig,
    reproduce_nonelementary_path,
    run_sweep,
)

_NAMED_BUILDERS = {
    "petersen": petersen,
    "petersen_minus_vertex": petersen_minus_vertex,
    "prism": prism,
    "cube": cube,
    "k33": lambda: complete_bipartite(3, 3),
    "k8_minus_pm": lambda: complete_minus_matching(8),
}


def build_named(name: str) -> Graph:
    fn = _NAMED_BUILDERS.get(name)
    if fn is not None:
        return fn()
    m = re.fullmatch(r"k(\d+)", name)
    if m:
        return complete(int(m.group(1)))
    m = re.fullmatch(r"c(\d+)", name)
    if m:
        return cycle(int(m.group(1)))
    known = ", ".join(sorted(_NAMED_BUILDERS) + ["kN", "cN"])
    raise GraphError(f"unknown builder {name!r} (known: {known})")


def _load_graphs(args) -> list[tuple[str, Graph]]:
    """(label, graph) pairs from builder, literal, file, or stdin."""
    if args.builder:
        return [(args.builder, build_named(args.builder))]
    if args.graph6:
        return [(args.graph6, parse_graph6(args.graph6))]
    if args.file:
        with open(args.file, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    else:
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    if not lines:
        raise GraphError("no input graphs")
    return [(ln, parse_graph6(ln)) for ln in lines]


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma list of integers; empty items are skipped."""
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _budget_ms(text: str) -> float:
    """argparse type of --budget-ms: a number that `check_budget` accepts."""
    try:
        return check_budget(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a finite budget above 0 ms: {text!r}") from None


def _input_flags(sub) -> None:
    sub.add_argument("--builder", help="named graph (petersen, k33, kN, cN, ...)")
    sub.add_argument("--graph6", help="one graph6 string")
    sub.add_argument("--file", help="file of graph6 strings, one per line")


def _print_records(records: Iterable[VerificationRecord], as_json: bool) -> dict[str, int]:
    """Print each record as it arrives and return the tally of their verdicts;
    no record is kept. Stdout is flushed after every record, so a pipe or a
    file sees it too, not only a terminal."""
    def printed(rec: VerificationRecord) -> VerificationRecord:
        if as_json:
            print(rec.to_json_line())
        else:
            print(f"{rec.verdict:9s} {rec.lemma}  {rec.instance_id}")
            if rec.verdict == "fail" and rec.witness is not None:
                print(f"          witness: {json.dumps(rec.witness, sort_keys=True)}")
        sys.stdout.flush()
        return rec
    return tally_verdicts(map(printed, records))


def _finish(tally: dict[str, int], as_json: bool) -> int:
    """The text-mode summary line, then the exit code of the verdict tally."""
    if not as_json:
        print(f"total={sum(tally.values())} pass={tally['pass']} fail={tally['fail']}"
              f" skipped={tally['skipped']} undecided={tally['undecided']}")
    if tally["fail"]:
        return 1
    if tally["undecided"]:
        return 3
    return 0


def _cmd_chi(args) -> int:
    batch = not (args.builder or args.graph6)
    for label, g in _load_graphs(args):
        delta = g.max_degree()
        ci = chromatic_index(g, args.budget_ms)
        cls = 1 if ci == delta else 2
        if args.json:
            print(json.dumps({"graph6": emit_graph6(g), "max_degree": delta,
                              "chromatic_index": ci, "class": cls}, sort_keys=True))
        else:
            prefix = f"{label} " if batch else ""
            print(f"{prefix}Δ={delta} χ'={ci} class={cls}")
    return 0


def _cmd_color(args) -> int:
    batch = not (args.builder or args.graph6)
    for label, g in _load_graphs(args):
        phi = find_delta_coloring(g, args.budget_ms)
        if phi is None:
            phi = vizing_color(g)
        if args.json:
            print(json.dumps({"graph6": emit_graph6(g), "k": phi.k,
                              "edges": [[u, v, c] for (u, v), c in phi.colored_items()]},
                             sort_keys=True))
        else:
            if batch:
                print(label)
            print(phi.to_text())
    return 0


def _cmd_critical(args) -> int:
    batch = not (args.builder or args.graph6)
    for label, g in _load_graphs(args):
        ok, crit = critical_edge_report(g, args.budget_ms)
        if args.json:
            print(json.dumps({"graph6": emit_graph6(g), "delta_critical": ok,
                              "critical_edges": [list(e) for e in crit],
                              "edge_count": g.edge_count()}, sort_keys=True))
        else:
            prefix = f"{label} " if batch else ""
            word = "true" if ok else "false"
            print(f"{prefix}delta-critical: {word}"
                  f" ({len(crit)}/{g.edge_count()} edges critical)")
    return 0


def _cmd_split(args) -> int:
    graphs = _load_graphs(args)
    if len(graphs) != 1:
        raise GraphError("split works on exactly one graph")
    _, g = graphs[0]
    if not 0 <= args.vertex < g.n:
        raise GraphError(f"vertex {args.vertex} out of range 0..{g.n - 1}")
    part_b = tuple(sorted(g.neighbors(args.vertex) - set(args.part_a)))
    split = vertex_split(g, args.vertex, args.part_a, part_b)
    payload = {
        "graph6": emit_graph6(split),
        "n": split.n,
        "edges": split.edge_count(),
        "split_edge": [args.vertex, g.n],
        "overfull": is_overfull(split),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        word = "true" if payload["overfull"] else "false"
        print(f"{payload['graph6']} n={split.n} edges={payload['edges']}"
              f" split-edge={args.vertex}-{g.n} overfull={word}")
    return 0


def _cmd_lemmas(args) -> int:
    """Each record goes out as soon as it is judged; only the tally is kept."""
    records = (rec for _, g in _load_graphs(args) for rec in lemma_records(g, args.budget_ms))
    return _finish(_print_records(records, args.json), args.json)


def _sweep_command(args, mode: str) -> int:
    degrees = getattr(args, "degrees", None)
    if degrees is not None:
        mode = "custom"
    config = SweepConfig(m_max=args.m_max, mode=mode, degrees=degrees,
                         budget_ms=args.budget_ms, jobs=args.jobs)
    records = run_sweep(config, log_path=args.log, resume=args.resume)
    return _finish(_print_records(records, args.json), args.json)


def _cmd_figure1(args) -> int:
    rec = reproduce_nonelementary_path(args.budget_ms)
    if args.json:
        print(rec.to_json_line())
    else:
        print(f"{rec.verdict}: {rec.lemma}")
        if rec.witness:
            w = rec.witness
            print(f"hole edge: {w['edge'][0]}-{w['edge'][1]}")
            print(f"path: {'-'.join(map(str, w['path']))}")
            print(f"color {w['shared_color']} missing at both"
                  f" {w['shared_between'][0]} and {w['shared_between'][1]}")
            print(f"inner degrees: {w['inner_degrees']}")
            print(w["coloring"])
    if rec.verdict == "pass":
        return 0
    return 3 if rec.verdict in ("undecided", "skipped") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecritic",
        description="edge-coloring criticality toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, inputs=True):
        if inputs:
            _input_flags(p)
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--budget-ms", type=_budget_ms, default=60000.0,
                       help="solver time budget per decision (default 60000)")

    p = sub.add_parser("chi", help="chromatic index and class")
    common(p)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("color", help="print an optimal proper edge coloring")
    common(p)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("critical", help="criticality of every edge")
    common(p)
    p.set_defaults(fn=_cmd_critical)

    # split runs no search, so it takes no budget
    p = sub.add_parser("split", help="split a vertex into an adjacent pair")
    _input_flags(p)
    p.add_argument("--json", action="store_true", help="machine output")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--part-a", type=_int_list, required=True,
                   help="comma list of neighbors kept on the original id")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("lemmas", help="run every adjacency-lemma check")
    common(p)
    p.set_defaults(fn=_cmd_lemmas)

    for verb, mode, blurb in (
            ("theorem1", "theorem", "verify splits in the high-degree range"),
            ("sweep", "conjecture", "sweep splits over the conjectured range")):
        p = sub.add_parser(verb, help=blurb)
        common(p, inputs=False)
        p.add_argument("--m-max", type=int, default=8,
                       help="largest base order (even, default 8)")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--log", help="JSON-lines record log path")
        p.add_argument("--resume", action="store_true",
                       help="continue an interrupted log")
        if verb == "sweep":
            p.add_argument("--degrees", type=_int_list,
                           help="comma list restricting base degrees")
        p.set_defaults(fn=lambda a, m=mode: _sweep_command(a, m))

    p = sub.add_parser("figure1",
                       help="find the non-elementary structured path witness")
    common(p, inputs=False)
    p.set_defaults(fn=_cmd_figure1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SearchBudgetExceeded:
        print("error: time budget exhausted before a verdict", file=sys.stderr)
        return 3
    except (GraphError, ColoringError, RecordError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
