"""Desk-scale verification sweeps over vertex splits of regular class-1 bases.

A sweep plans every (base graph, split vertex, neighborhood bipartition)
instance up to symmetry, then checks each split graph for overfullness,
class 2, and criticality of every edge. Records stream to a JSON-lines log
in plan order; reruns are byte-identical and interrupted runs resume.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterator

from .certcheck import split_certificate_violation
from .coloring import (
    ColoringError,
    PartialEdgeColoring,
    coloring_from_text,
    elementary_violation,
)
from .graph6 import emit_graph6, parse_graph6
from .graphs import (
    Graph,
    GraphError,
    automorphism_generators,
    orbit_closure,
    petersen_minus_vertex,
    stabiliser_generators,
    vertex_split,
)
from .enumeration import enumerate_regular_graphs
from .records import RecordError, VerificationRecord, judge, read_records
from .solver import (
    SearchBudgetExceeded,
    check_budget,
    enumerate_colorings,
    find_delta_coloring,
    hole_colorings,
)
from .structures import enumerate_kierstead_paths, kierstead_violation

SPLIT_LEMMA = "split-delta-critical"


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep; a config that breaks a rule is refused when it is built.

    mode "theorem" keeps bases with 4*degree >= 3*order; mode "conjecture"
    keeps 3*degree > order (the threshold read on the base's order); mode
    "custom" keeps exactly the degrees listed.

    The conjecture's threshold Delta > n/3 has two readings. Read on the
    base's order n, as here, it keeps the cubic base of the fail
    `G@Umf? v=0 A=5,6 B=7` (3 > 8/3). Read on the split graph's order n + 1,
    it drops that base (3 > 9/3 fails). The pinned sweep logs rest on the
    base reading.
    """

    m_max: int = 8
    mode: str = "theorem"
    degrees: tuple[int, ...] | None = None
    budget_ms: float | None = 60000.0
    jobs: int = 1

    def degree_wanted(self, m: int, d: int) -> bool:
        if self.mode == "theorem":
            return 4 * d >= 3 * m
        if self.mode == "conjecture":
            return 3 * d > m
        return d in self.degrees

    def __post_init__(self) -> None:
        if self.mode not in ("theorem", "conjecture", "custom"):
            raise GraphError(f"unknown sweep mode {self.mode!r}")
        if self.mode == "custom" and not self.degrees:
            raise GraphError("custom mode needs an explicit degree tuple")
        if self.mode != "custom" and self.degrees is not None:
            raise GraphError(f"degrees apply only in custom mode, not {self.mode!r}")
        if self.m_max < 4 or self.m_max % 2:
            raise GraphError("base order cap must be an even number >= 4")
        if self.m_max > 10:
            raise GraphError("base orders above 10 are not supported")
        if self.degrees is not None and not all(2 <= d < self.m_max for d in self.degrees):
            raise GraphError(f"degrees must lie in 2..{self.m_max - 1}, not {list(self.degrees)}")
        if self.jobs < 1:
            raise GraphError(f"jobs must be at least 1, not {self.jobs}")
        check_budget(self.budget_ms)


@dataclass(frozen=True)
class SplitInstance:
    """One planned split: base graph6, its max-degree colouring, and (v, A, B).

    `solver_confirm` is read by nothing: `certcheck` re-checks the split
    edge's certificate on every instance instead. It stays only because
    `perfbench/child.py` still passes it, and it goes with the benchmark
    refresh (ROADMAP item 7).
    """

    instance_id: str
    base_graph6: str
    base_coloring_text: str
    vertex: int
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    budget_ms: float | None
    solver_confirm: bool = False

    def __post_init__(self) -> None:
        # a skipped split, or one that propagation certifies whole, never
        # searches, so the budget rule is met when the instance is built
        check_budget(self.budget_ms)


def _normalize_parts(nbrs: frozenset[int], a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unordered partition -> canonical order: first part holds the least neighbor."""
    a, b = frozenset(a), frozenset(b)
    if min(nbrs) in b:
        a, b = b, a
    return tuple(sorted(a)), tuple(sorted(b))


def _split_orbits(base: Graph) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """All (vertex, partition) choices up to base automorphisms, sorted.

    Only the least vertex v of each vertex orbit is split, and its choices
    are closed under Schreier generators of v's stabiliser
    (`stabiliser_generators`), so no image leaves v. An
    orbit of choices meets v in one stabiliser orbit, whose least member is
    the least of the whole orbit.
    """
    gens = automorphism_generators(base)

    def image(p, split):
        u, pa, pb = split
        return (p[u], *_normalize_parts(base.neighbors(p[u]),
                                        [p[w] for w in pa], [p[w] for w in pb]))

    seen: set[tuple] = set()
    vertex_seen: set[int] = set()
    reps = []
    for v in range(base.n):
        if v in vertex_seen:
            continue
        orbit_closure(v, gens, tuple.__getitem__, vertex_seen)
        nbrs = sorted(base.neighbors(v))
        if len(nbrs) < 2:
            continue
        stab = stabiliser_generators(gens, v)
        rest = nbrs[1:]
        # fixing nbrs[0] in part A kills the (A,B)/(B,A) double count
        for pick in range(1 << len(rest)):
            a = [nbrs[0]] + [w for i, w in enumerate(rest) if pick >> i & 1]
            b = [w for i, w in enumerate(rest) if not pick >> i & 1]
            if not b:
                continue
            key = (v, tuple(a), tuple(b))
            if key not in seen:  # orbits are disjoint: `seen` holds every closed one
                reps.append(min(orbit_closure(key, stab, image, seen)))
    return sorted(reps)


def _instance_id(base_g6: str, v: int, a: tuple[int, ...], b: tuple[int, ...]) -> str:
    return (f"{base_g6} v={v}"
            f" A={','.join(map(str, a))}"
            f" B={','.join(map(str, b))}")


def _connected_bases(config: SweepConfig) -> Iterator[Graph]:
    """Every connected base in range, in plan order; one (order, degree)
    class list is held at a time."""
    for m in range(4, config.m_max + 1, 2):
        for d in range(2, m):
            if config.degree_wanted(m, d):
                yield from filter(Graph.is_connected, enumerate_regular_graphs(m, d))


def _base_instances(base: Graph, budget_ms: float | None) -> list[SplitInstance]:
    """The splits of one base in plan order, none when it is class 2. Its
    colouring is searched without a budget, so no machine changes the plan."""
    phi = find_delta_coloring(base)
    if phi is None:
        return []
    g6, text = emit_graph6(base), phi.to_text()
    return [SplitInstance(_instance_id(g6, v, a, b), g6, text, v, a, b, budget_ms)
            for v, a, b in _split_orbits(base)]


def plan_instances(config: SweepConfig) -> list[SplitInstance]:
    """Deterministic work list: every split of every base in range, deduped."""
    return [inst for base in _connected_bases(config)
            for inst in _base_instances(base, config.budget_ms)]


# ---------------------------------------------------------------------------
# per-instance work


def inherit_split_coloring(base_coloring: PartialEdgeColoring, v: int,
                           part_a, part_b) -> PartialEdgeColoring:
    """Carry a full coloring of the base over the split (v, A, B): each split
    edge takes the color of the base edge it came from, and the new edge is
    the hole.

    This certifies the split edge critical without any search: the result is a
    proper max-degree coloring of the split graph minus its new edge.
    """
    if not base_coloring.is_full():
        raise ColoringError("base coloring must be full")
    twin = base_coloring.graph.n
    split = vertex_split(base_coloring.graph, v, part_a, part_b)
    # the twin is the highest id, so it ends each of its edges (p, twin)
    assign = {(p, q): base_coloring.color_of(p, v if q == twin else q)
              for p, q in split.edges if (p, q) != (v, twin)}
    return PartialEdgeColoring(split, base_coloring.k, assign, (v, twin))


@lru_cache(maxsize=1)
def _parsed_base(graph6: str, coloring_text: str) -> tuple[Graph, PartialEdgeColoring]:
    """A base and its colouring, parsed once for a run of its splits."""
    base = parse_graph6(graph6)
    return base, coloring_from_text(base, coloring_text)


def check_split_instance(inst: SplitInstance) -> VerificationRecord:
    """Class 2 and every edge critical, for one split of a connected, regular,
    class-1 base; off these hypotheses the split is skipped (`records.judge`).

    On them the split is overfull, so class 2: each color class of the base is
    a perfect matching, so n is even and n*D/2 + 1 > D*n/2 edges. The inherited
    coloring certifies the split edge critical; `certcheck` re-checks that
    certificate, overfullness too, from the base edges and (v, A, B) alone.
    """
    base, phi = _parsed_base(inst.base_graph6, inst.base_coloring_text)
    inherited = inherit_split_coloring(phi, inst.vertex, inst.part_a, inst.part_b)
    g = inherited.graph
    # the carried base coloring, full or refused above, certifies class 1
    hyp = {"base_class1": phi.k == base.max_degree(),
           "base_connected": base.is_connected(),
           "base_regular": base.is_regular()}

    def violation():
        reason = split_certificate_violation(base.n, base.edges, inst.vertex, inst.part_a,
                                             inst.part_b, dict(inherited.colored_items()))
        if reason is not None:
            return {"check": "split-edge-certificate", "graph6": emit_graph6(g),
                    "reason": reason}
        # slides of the inherited hole certify most edges; search the rest
        for e, cert in hole_colorings(g, inherited, inst.budget_ms):
            if cert is None:
                return {"check": "edge-critical", "graph6": emit_graph6(g), "edge": list(e)}
        return None

    try:
        return judge(SPLIT_LEMMA, inst.instance_id, hyp, violation)
    except SearchBudgetExceeded:
        return VerificationRecord(SPLIT_LEMMA, inst.instance_id, hyp, None)


# ---------------------------------------------------------------------------
# sweep driver


# bytes read per step when `_drop_torn_line` reads a log backwards
_TAIL_BLOCK = 1 << 16


def _drop_torn_line(log_path: str) -> None:
    """Cut a last line left without its newline by an interrupted write.

    The log is read backwards from its end, one block at a time, until a
    newline turns up, so at most one block more than the torn line is read."""
    with open(log_path, "rb+") as fh:
        pos = fh.seek(0, os.SEEK_END)
        while pos:
            start = max(pos - _TAIL_BLOCK, 0)
            fh.seek(start)
            cut = fh.read(pos - start).rfind(b"\n")
            if cut >= 0 or not start:
                fh.truncate(start + cut + 1)
                return
            pos = start


def _resumed_records(log_path: str, tasks: Iterator[tuple[Graph, int]]):
    """Yield the log's records, each checked to be the next split of the plan,
    and return the tasks left: the base the log stops in, from its first split
    not logged, then every later base. Only instance ids are compared, and
    they do not depend on the budget."""
    planned = ((base, skip, inst) for base, _ in tasks
               for skip, inst in enumerate(_base_instances(base, None)))
    for done, rec in enumerate(read_records(log_path), 1):
        _, _, want = next(planned, (None, None, None))
        if want is None:
            raise RecordError(f"{log_path}: more records than planned instances")
        if rec.lemma != SPLIT_LEMMA or rec.instance_id != want.instance_id:
            raise RecordError(
                f"{log_path}: record {done} is {rec.instance_id!r}, "
                f"plan says {want.instance_id!r}")
        yield rec
    rest = next(planned, None)
    return chain([rest[:2]], tasks) if rest else tasks


def _base_records(base: Graph, skip: int, budget_ms: float | None) -> Iterator[VerificationRecord]:
    """Plan one base and check its splits from the `skip`-th on, each record
    yielded when its check ends."""
    return map(check_split_instance, _base_instances(base, budget_ms)[skip:])


def _base_record_list(base: Graph, skip: int, budget_ms: float | None) -> list[VerificationRecord]:
    return list(_base_records(base, skip, budget_ms))


# bases submitted and not yet yielded, per worker: results come back in plan
# order, so a slow base at the head stops new submits
_WINDOW_PER_WORKER = 8


def _checked_records(tasks: Iterator[tuple[Graph, int]], budget_ms: float | None,
                     jobs: int) -> Iterator[VerificationRecord]:
    """The records of each (base, first split) task, in plan order. With more
    than one worker, a process pool plans and checks whole bases, at most
    `_WINDOW_PER_WORKER` per worker submitted and not yet yielded, so the
    futures held do not grow with the plan. The log does not depend on the
    worker count, so it is capped at the CPUs and at the tasks."""
    workers = min(jobs, os.cpu_count() or 1)
    head = list(islice(tasks, _WINDOW_PER_WORKER * workers)) if workers > 1 else []
    if len(head) < 2:
        for task in chain(head, tasks):
            yield from _base_records(*task, budget_ms)
        return
    # imported here, so serial runs do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(head))) as pool:
        window = deque(pool.submit(_base_record_list, *task, budget_ms) for task in head)
        for task in tasks:
            yield from window.popleft().result()
            window.append(pool.submit(_base_record_list, *task, budget_ms))
        while window:
            yield from window.popleft().result()


def run_sweep(config: SweepConfig, log_path: str | None = None,
              resume: bool = False) -> Iterator[VerificationRecord]:
    """Execute the plan and yield every record in plan order: first those of
    the log being resumed, then each new one right after its line is written
    to the log and flushed. No record is kept.

    The sweep is lazy: each base is planned and checked only when its records
    are consumed, so a caller that wants only the log still iterates,
    e.g. `list(run_sweep(config, log_path=...))`. Resuming needs a log."""
    if resume and not log_path:
        raise GraphError("resume needs a log path")
    tasks = ((base, 0) for base in _connected_bases(config))
    if resume and os.path.exists(log_path):
        _drop_torn_line(log_path)
        tasks = yield from _resumed_records(log_path, tasks)
    with (open(log_path, "a" if resume else "w", encoding="ascii") if log_path
          else nullcontext()) as sink:
        for rec in _checked_records(tasks, config.budget_ms, config.jobs):
            if sink:
                sink.write(rec.to_json_line() + "\n")
                sink.flush()
            yield rec


# ---------------------------------------------------------------------------
# the published counterexample hunt


def reproduce_nonelementary_path(budget_ms: float | None = None) -> VerificationRecord:
    """Search the 9-vertex Petersen remnant for a four-vertex structured path
    whose vertex set shares a missing color.

    Scans edges in ascending order and colorings in solver order; the first
    hit is re-validated independently and returned with a full witness.
    Whether a path is a Kierstead path, and whether two of its vertices
    share a missing color, does not change when the colors are renamed. So
    the search is exhaustive up to renaming colors: `enumerate_colorings`
    yields the first member of each renaming class in the order of a search
    over every coloring, and meets the first hit that search would meet.
    """
    name = "nonelementary-kierstead-witness"
    host = petersen_minus_vertex()
    delta = host.max_degree()
    hyp = {"host_class2": find_delta_coloring(host, budget_ms) is None}
    iid = f"{emit_graph6(host)} exhaustive"
    if not all(hyp.values()):
        return VerificationRecord(name, iid, hyp, None)
    try:
        for e in host.sorted_edges():
            for phi in enumerate_colorings(host, delta, hole=e, budget_ms=budget_ms):
                for path in enumerate_kierstead_paths(phi):
                    shared = elementary_violation(phi, path)
                    if shared is None:
                        continue
                    # independent re-validation before reporting
                    if kierstead_violation(phi, path) is not None:
                        continue
                    witness = {
                        "edge": list(e),
                        "coloring": phi.to_text(),
                        "path": list(path),
                        "shared_color": shared[2],
                        "shared_between": [shared[0], shared[1]],
                        "inner_degrees": [host.degree(v) for v in path[1:3]],
                    }
                    return VerificationRecord(name, iid, hyp, True, witness)
    except SearchBudgetExceeded:
        return VerificationRecord(name, iid, hyp, None)
    return VerificationRecord(name, iid, hyp, False)
