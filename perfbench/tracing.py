"""Spans around edgecritic's public functions, installed from outside the package.

`Tracer.install` runs in the benchmark's child process after `import
edgecritic`. It replaces each traced function by a wrapper, both on its
defining module and on every edgecritic module that bound the same object by
name (`from .x import name`), so calls through either path are seen. Nothing
under `src/` changes.

Each call records one span: function id, start, end, parent span, a flag
word and an optional size (for example the length of a returned list). Spans
live in flat arrays while the workload runs and are written out once at the
end; `layer_metrics` turns them into per-layer counts and times in the parent.

Hot helpers (`Graph.has_edge`, `edge_key`, `make_graph`, coloring queries)
are deliberately not traced: they run millions of times per workload and
wrapping them would swamp the measurement. Generator functions
(`enumerate_colorings`, `read_records`) are not traced either, because a
wrapper would only time the creation of the generator.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from array import array

PACKAGE = "edgecritic"
RAISED = 1


def _length(result) -> int:
    return len(result)


def _found(result) -> int:
    return 0 if result is None else 1


def _line_bytes(result) -> int:
    return len(result) + 1  # the newline each caller writes after the line


# layer -> (module, attribute path, size measure or None); every name here is public
TRACED = {
    "graphs": [
        ("graphs", "canonical_mask", None),
        ("graphs", "automorphisms", None),
        ("graphs", "vertex_split", None),
    ],
    "graph6": [
        ("graph6", "emit_graph6", None),
        ("graph6", "parse_graph6", None),
    ],
    "enumeration": [
        ("enumeration", "enumerate_regular_graphs", _length),
        ("enumeration", "enumerate_small_graphs", _length),
    ],
    "coloring": [
        ("coloring", "PartialEdgeColoring.__init__", None),
        ("coloring", "kempe_chain", None),
        ("coloring", "chain_ray", None),
        ("coloring", "kempe_swap", None),
        ("coloring", "are_linked", None),
        ("coloring", "subchain_swap", None),
        ("coloring", "ray_swap", None),
        ("coloring", "recolor_edge", None),
        ("coloring", "color_uncolored", None),
        ("coloring", "slide_uncolored", None),
        ("coloring", "coloring_from_text", None),
        ("coloring", "elementary_violation", None),
        ("coloring", "is_elementary", None),
        ("coloring", "parity_census", None),
    ],
    "solver": [
        ("solver", "find_coloring", _found),
        ("solver", "find_delta_coloring", None),
        ("solver", "chromatic_index", None),
        ("solver", "classify", None),
        ("solver", "classify_cached", None),
        ("solver", "is_critical_edge", None),
        ("solver", "critical_edge_report", None),
        ("solver", "vizing_color", None),
    ],
    "structures": [
        ("structures", "multifan_violation", None),
        ("structures", "is_multifan", None),
        ("structures", "kierstead_violation", None),
        ("structures", "is_kierstead_path", None),
        ("structures", "kite_violation", None),
        ("structures", "kite_in_graph", None),
        ("structures", "build_maximal_multifan", None),
        ("structures", "enumerate_kierstead_paths", _length),
        ("structures", "find_short_kites", _length),
        ("structures", "find_full_deficiency_pairs", None),
    ],
    "recolor": [
        ("recolor", "apply_step", None),
        ("recolor", "execute_script", None),
    ],
    "lemmas": [
        ("lemmas", "check_vizing_adjacency", None),
        ("lemmas", "check_deficiency_pair", None),
        ("lemmas", "check_single_subdelta", None),
        ("lemmas", "check_parity", None),
        ("lemmas", "check_multifan", None),
        ("lemmas", "check_kierstead", None),
        ("lemmas", "check_short_kite", None),
        ("lemmas", "check_kite_chain_route", None),
        ("lemmas", "build_contradiction_script", None),
        ("lemmas", "swap_rims_script", None),
        ("lemmas", "lemma_battery", _length),
    ],
    "records": [
        ("records", "VerificationRecord.to_json_line", _line_bytes),
        ("records", "record_from_json_line", None),
        ("records", "write_records", None),
        ("records", "tally_verdicts", None),
    ],
    "verifier": [
        ("verifier", "plan_instances", _length),
        ("verifier", "check_split_instance", None),
        ("verifier", "inherit_split_coloring", None),
        ("verifier", "run_sweep", None),
    ],
    "cli": [
        ("cli", "main", None),
        ("cli", "build_parser", None),
        ("cli", "build_named", None),
    ],
}

CHAIN_OPS = {"kempe_chain", "chain_ray", "kempe_swap", "are_linked", "subchain_swap", "ray_swap"}


class Tracer:
    """Span arrays plus the wrappers that fill them; one per child process."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer:function"
        self.func = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flags = array("B")
        self.size = array("q")
        self.stack = [-1]

    def _wrap(self, fn, label: str, measure):
        fid = len(self.names)
        self.names.append(label)
        func, parent, start, end = self.func, self.parent, self.start, self.end
        flags, size, stack = self.flags, self.size, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(func)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0)
            flags.append(0)
            size.append(-1)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                flags[i] = RAISED
                raise
            end[i] = clock()
            stack.pop()
            if measure is not None:
                size[i] = measure(result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every traced name that exists; returns the names not found."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        missing = []
        for layer, entries in TRACED.items():
            for modname, path, measure in entries:
                module = sys.modules.get(f"{PACKAGE}.{modname}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    missing.append(f"{modname}.{path}")
                    continue
                wrapped = self._wrap(original, f"{layer}:{path}", measure)
                setattr(owner, attr, wrapped)
                if owner_name:
                    continue  # a method: patching the class covers every caller
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return missing

    def dump(self, directory: str) -> None:
        with open(os.path.join(directory, "span_names.json"), "w", encoding="ascii") as fh:
            json.dump(self.names, fh)
        for field in ("func", "parent", "start", "end", "flags", "size"):
            with open(os.path.join(directory, f"span_{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)


def load_spans(directory: str) -> dict:
    """Read back what Tracer.dump wrote."""
    with open(os.path.join(directory, "span_names.json"), encoding="ascii") as fh:
        spans = {"names": json.load(fh)}
    for field, code in (("func", "H"), ("parent", "i"), ("start", "q"),
                        ("end", "q"), ("flags", "B"), ("size", "q")):
        path = os.path.join(directory, f"span_{field}.bin")
        arr = array(code)
        with open(path, "rb") as fh:
            arr.frombytes(fh.read())
        spans[field] = arr
    return spans


# (metric name, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("enumeration.calls", "count"),
    ("enumeration.labeled_graphs", "count"),
    ("enumeration.classes", "count"),
    ("enumeration.yield_ratio", "ratio"),
    ("enumeration.self_s", "s"),
    ("graphs.canonical_calls", "count"),
    ("graphs.canonical_s", "s"),
    ("graphs.automorphism_calls", "count"),
    ("graphs.automorphism_s", "s"),
    ("graphs.split_calls", "count"),
    ("graphs.split_s", "s"),
    ("verifier.plan_s", "s"),
    ("verifier.planned_instances", "count"),
    ("verifier.check_calls", "count"),
    ("verifier.check_s", "s"),
    ("verifier.check_p50_ms", "ms"),
    ("verifier.check_max_ms", "ms"),
    ("verifier.searches_per_instance", "ratio"),
    ("solver.find_calls", "count"),
    ("solver.find_s", "s"),
    ("solver.find_none", "count"),
    ("solver.classify_calls", "count"),
    ("solver.classify_s", "s"),
    ("solver.class_cache_hit_ratio", "ratio"),
    ("coloring.colorings_built", "count"),
    ("coloring.build_s", "s"),
    ("coloring.chain_ops", "count"),
    ("coloring.chain_s", "s"),
    ("coloring.errors", "count"),
    ("structures.calls", "count"),
    ("structures.s", "s"),
    ("structures.paths_found", "count"),
    ("structures.kites_found", "count"),
    ("recolor.steps", "count"),
    ("recolor.scripts", "count"),
    ("recolor.s", "s"),
    ("recolor.step_errors", "count"),
    ("lemmas.checks", "count"),
    ("lemmas.records_kept", "count"),
    ("lemmas.kept_ratio", "ratio"),
    ("lemmas.self_s", "s"),
    ("graph6.emit_calls", "count"),
    ("graph6.parse_calls", "count"),
    ("graph6.s", "s"),
    ("records.lines", "count"),
    ("records.bytes", "bytes"),
    ("records.s", "s"),
    ("cli.self_s", "s"),
]


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced run.

    A layer's busy time (`structures.s`, `graph6.s`, ...) sums the spans of
    that layer that have no ancestor in the same layer, so nested calls are
    not counted twice. Self time is a span's duration minus its direct
    children's durations.
    """
    names = spans["names"]
    layer_of = [n.split(":", 1)[0] for n in names]
    fn_of = [n.split(":", 1)[1] for n in names]
    layer_ids = {layer: bit for bit, layer in enumerate(TRACED)}
    layer_bit = [1 << layer_ids[layer] for layer in layer_of]
    func, parent, start, end = spans["func"], spans["parent"], spans["start"], spans["end"]
    flags, size = spans["flags"], spans["size"]
    n = len(func)

    dur = [e - s for s, e in zip(start, end)]
    child_ns = [0] * n
    anc = [0] * n  # bitmask of layers among a span's ancestors
    under_check = [False] * n
    under_enum = [False] * n
    inner_raise = [False] * n  # a same-layer child raised (errors count innermost only)
    has_classify_child = [False] * n
    check_fid = {f for f, name in enumerate(fn_of) if name == "check_split_instance"}
    enum_fids = {f for f, lay in enumerate(layer_of) if lay == "enumeration"}
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        child_ns[p] += dur[i]
        fp = func[p]
        anc[i] = anc[p] | layer_bit[fp]
        under_check[i] = under_check[p] or fp in check_fid
        under_enum[i] = under_enum[p] or fp in enum_fids
        f = func[i]
        if flags[i] & RAISED and layer_of[fp] == layer_of[f]:
            inner_raise[p] = True
        if fn_of[f] == "classify":
            has_classify_child[p] = True

    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    sizes: dict[str, int] = {}
    layer_self_ns: dict[str, int] = {}
    layer_busy_ns: dict[str, int] = {}
    layer_calls: dict[str, int] = {}
    check_ms: list[float] = []
    searches_in_checks = labeled = find_none = cache_hits = checks = 0
    chain_ops = chain_ns = coloring_errors = step_errors = 0
    for i in range(n):
        f = func[i]
        layer, fn = layer_of[f], fn_of[f]
        d = dur[i]
        calls[fn] = calls.get(fn, 0) + 1
        total_ns[fn] = total_ns.get(fn, 0) + d
        if size[i] >= 0:
            sizes[fn] = sizes.get(fn, 0) + size[i]
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        layer_self_ns[layer] = layer_self_ns.get(layer, 0) + d - child_ns[i]
        if not anc[i] & layer_bit[f]:
            layer_busy_ns[layer] = layer_busy_ns.get(layer, 0) + d
        raised = flags[i] & RAISED
        if fn == "check_split_instance":
            check_ms.append(d / 1e6)
        elif fn == "find_coloring":
            searches_in_checks += under_check[i]
            find_none += size[i] == 0
        elif fn == "canonical_mask":
            labeled += under_enum[i]
        elif fn == "classify_cached":
            cache_hits += not has_classify_child[i]
        elif fn == "apply_step":
            step_errors += bool(raised)
        elif layer == "lemmas" and fn.startswith("check_"):
            checks += 1
        if fn in CHAIN_OPS and not anc[i] & layer_bit[f]:
            chain_ops += 1
            chain_ns += d
        if layer == "coloring" and raised and not inner_raise[i]:
            coloring_errors += 1

    def c(fn):
        return calls.get(fn, 0)

    def s(fn):
        return total_ns.get(fn, 0) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    classes = sizes.get("enumerate_regular_graphs", 0) + sizes.get("enumerate_small_graphs", 0)
    kept = sizes.get("lemma_battery", 0)
    return {
        "enumeration.calls": layer_calls.get("enumeration", 0),
        "enumeration.labeled_graphs": labeled,
        "enumeration.classes": classes,
        "enumeration.yield_ratio": ratio(classes, labeled),
        "enumeration.self_s": layer_self_ns.get("enumeration", 0) / 1e9,
        "graphs.canonical_calls": c("canonical_mask"),
        "graphs.canonical_s": s("canonical_mask"),
        "graphs.automorphism_calls": c("automorphisms"),
        "graphs.automorphism_s": s("automorphisms"),
        "graphs.split_calls": c("vertex_split"),
        "graphs.split_s": s("vertex_split"),
        "verifier.plan_s": s("plan_instances"),
        "verifier.planned_instances": sizes.get("plan_instances", 0),
        "verifier.check_calls": c("check_split_instance"),
        "verifier.check_s": s("check_split_instance"),
        "verifier.check_p50_ms": statistics.median(check_ms) if check_ms else 0.0,
        "verifier.check_max_ms": max(check_ms, default=0.0),
        "verifier.searches_per_instance": ratio(searches_in_checks, c("check_split_instance")),
        "solver.find_calls": c("find_coloring"),
        "solver.find_s": s("find_coloring"),
        "solver.find_none": find_none,
        "solver.classify_calls": c("classify"),
        "solver.classify_s": s("classify"),
        "solver.class_cache_hit_ratio": ratio(cache_hits, c("classify_cached")),
        "coloring.colorings_built": c("PartialEdgeColoring.__init__"),
        "coloring.build_s": s("PartialEdgeColoring.__init__"),
        "coloring.chain_ops": chain_ops,
        "coloring.chain_s": chain_ns / 1e9,
        "coloring.errors": coloring_errors,
        "structures.calls": layer_calls.get("structures", 0),
        "structures.s": layer_busy_ns.get("structures", 0) / 1e9,
        "structures.paths_found": sizes.get("enumerate_kierstead_paths", 0),
        "structures.kites_found": sizes.get("find_short_kites", 0),
        "recolor.steps": c("apply_step"),
        "recolor.scripts": c("execute_script"),
        "recolor.s": layer_busy_ns.get("recolor", 0) / 1e9,
        "recolor.step_errors": step_errors,
        "lemmas.checks": checks,
        "lemmas.records_kept": kept,
        "lemmas.kept_ratio": ratio(kept, checks),
        "lemmas.self_s": layer_self_ns.get("lemmas", 0) / 1e9,
        "graph6.emit_calls": c("emit_graph6"),
        "graph6.parse_calls": c("parse_graph6"),
        "graph6.s": layer_busy_ns.get("graph6", 0) / 1e9,
        "records.lines": c("VerificationRecord.to_json_line"),
        "records.bytes": sizes.get("VerificationRecord.to_json_line", 0),
        "records.s": layer_busy_ns.get("records", 0) / 1e9,
        "cli.self_s": layer_self_ns.get("cli", 0) / 1e9,
    }
