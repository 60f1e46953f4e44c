"""Desk-scale verification sweeps over vertex splits of regular class-1 bases.

A sweep plans every (base graph, split vertex, neighborhood bipartition)
instance up to symmetry, then checks each split graph for overfullness,
class 2, and criticality of every edge. Records stream to a JSON-lines log
in plan order; reruns are byte-identical and interrupted runs resume.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

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
    SplitSpec,
    automorphism_generators,
    is_overfull,
    orbit_closure,
    petersen_minus_vertex,
    split_spec,
    stabiliser_generators,
    vertex_split,
)
from .enumeration import enumerate_regular_graphs
from .records import RecordError, VerificationRecord, read_records
from .solver import (
    SearchBudgetExceeded,
    enumerate_colorings,
    find_delta_coloring,
    hole_colorings,
)
from .structures import enumerate_kierstead_paths, kierstead_violation

SPLIT_LEMMA = "split-delta-critical"


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep.

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
        return self.degrees is not None and d in self.degrees

    def validate(self) -> None:
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
        if self.jobs < 1:
            raise GraphError(f"jobs must be at least 1, not {self.jobs}")
        if self.budget_ms is not None and not 0 < self.budget_ms < math.inf:
            raise GraphError(f"budget_ms must be finite and above 0, not {self.budget_ms}")


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


def plan_instances(config: SweepConfig) -> list[SplitInstance]:
    """Deterministic work list: every split of every base in range, deduped."""
    config.validate()
    plan: list[SplitInstance] = []
    for m in range(4, config.m_max + 1, 2):
        for d in range(2, m):
            if (m * d) % 2 or not config.degree_wanted(m, d):
                continue
            for base in enumerate_regular_graphs(m, d):
                if not base.is_connected():
                    continue
                phi = find_delta_coloring(base, config.budget_ms)
                if phi is None:  # class 2
                    continue
                g6 = emit_graph6(base)
                text = phi.to_text()
                for v, a, b in _split_orbits(base):
                    plan.append(SplitInstance(
                        instance_id=_instance_id(g6, v, a, b),
                        base_graph6=g6,
                        base_coloring_text=text,
                        vertex=v,
                        part_a=a,
                        part_b=b,
                        budget_ms=config.budget_ms,
                    ))
    return plan


# ---------------------------------------------------------------------------
# per-instance work


def inherit_split_coloring(base_coloring: PartialEdgeColoring,
                           spec: SplitSpec) -> PartialEdgeColoring:
    """Carry a full coloring of the base over the split; the new edge is the hole.

    This certifies the split edge critical without any search: the result is a
    proper max-degree coloring of the split graph minus its new edge.
    """
    if not base_coloring.is_full():
        raise ColoringError("base coloring must be full")
    base = base_coloring.graph
    split = vertex_split(base, spec)
    v, twin = spec.vertex, base.n
    assign = {}
    for (p, q), c in base_coloring.colored_items():
        if p == v:
            p = v if q in spec.part_a else twin
        if q == v:
            q = v if p in spec.part_a else twin
        assign[(p, q) if p < q else (q, p)] = c
    return PartialEdgeColoring(split, base_coloring.k, assign, (v, twin))


def check_split_instance(inst: SplitInstance) -> VerificationRecord:
    """Overfull + class 2 + every edge critical, for one split instance.

    Overfull is class 2 already: every color class is a matching of at most
    floor(n/2) edges, so max-degree colors cannot cover all edges. The
    inherited coloring certifies the split edge critical; `certcheck` re-checks
    that certificate from the base edges and (v, A, B) alone, so no search
    repeats it.
    """
    base = parse_graph6(inst.base_graph6)
    phi = coloring_from_text(base, inst.base_coloring_text)
    inherited = inherit_split_coloring(
        phi, split_spec(inst.vertex, inst.part_a, inst.part_b))
    g = inherited.graph
    delta = g.max_degree()
    # the carried base coloring, full or refused above, certifies class 1
    hyp = {"base_class1": phi.k == base.max_degree(),
           "base_connected": base.is_connected(),
           "base_regular": base.is_regular()}

    def fail(check: str, **extra) -> VerificationRecord:
        witness = {"check": check, "graph6": emit_graph6(g)}
        witness.update(extra)
        return VerificationRecord(SPLIT_LEMMA, inst.instance_id, hyp, False, witness)

    if not is_overfull(g):
        return fail("overfull")
    if sorted(inherited.missing(inst.vertex) | inherited.missing(base.n)) != list(
            range(1, delta + 1)) or inherited.missing(inst.vertex) & inherited.missing(base.n):
        return fail("inherited-missing-partition")
    reason = split_certificate_violation(base.n, base.edges, inst.vertex, inst.part_a,
                                         inst.part_b, dict(inherited.colored_items()))
    if reason is not None:
        return fail("split-edge-certificate", reason=reason)
    try:
        # slides of the inherited hole certify most edges; search the rest
        for e, cert in hole_colorings(g, inherited, inst.budget_ms):
            if cert is None:
                return fail("edge-critical", edge=list(e))
    except SearchBudgetExceeded:
        return VerificationRecord(SPLIT_LEMMA, inst.instance_id, hyp, None)
    return VerificationRecord(SPLIT_LEMMA, inst.instance_id, hyp, True)


# ---------------------------------------------------------------------------
# sweep driver


def _drop_torn_line(log_path: str) -> None:
    """Cut a last line left without its newline by an interrupted write."""
    with open(log_path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def _validate_resume(log_path: str, plan: list[SplitInstance]) -> list[VerificationRecord]:
    """Existing log must be a prefix of the plan; returns its records."""
    done: list[VerificationRecord] = []
    for rec in read_records(log_path):
        if len(done) >= len(plan):
            raise RecordError(f"{log_path}: more records than planned instances")
        want = plan[len(done)]
        if rec.lemma != SPLIT_LEMMA or rec.instance_id != want.instance_id:
            raise RecordError(
                f"{log_path}: record {len(done) + 1} is {rec.instance_id!r}, "
                f"plan says {want.instance_id!r}")
        done.append(rec)
    return done


def run_sweep(config: SweepConfig, log_path: str | None = None,
              resume: bool = False) -> list[VerificationRecord]:
    """Execute the plan, optionally streaming records to a JSON-lines log."""
    plan = plan_instances(config)
    records: list[VerificationRecord] = []
    if log_path and resume and os.path.exists(log_path):
        _drop_torn_line(log_path)
        records = _validate_resume(log_path, plan)
    todo = plan[len(records):]
    parallel = config.jobs > 1 and len(todo) > 1
    if parallel:
        # imported here, so serial runs do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ((open(log_path, "a" if records else "w", encoding="ascii") if log_path
           else nullcontext()) as sink,
          (ProcessPoolExecutor(max_workers=min(config.jobs, len(todo))) if parallel
           else nullcontext()) as pool):
        stream = (pool.map(check_split_instance, todo, chunksize=1) if parallel
                  else map(check_split_instance, todo))
        for rec in stream:
            records.append(rec)
            if sink:
                sink.write(rec.to_json_line() + "\n")
                sink.flush()
    return records


# ---------------------------------------------------------------------------
# the published counterexample hunt


def reproduce_nonelementary_path(budget_ms: float | None = None) -> VerificationRecord:
    """Search the 9-vertex Petersen remnant for a four-vertex structured path
    whose vertex set shares a missing color.

    Scans edges in ascending order and colorings in solver order; the first
    hit is re-validated independently and returned with a full witness.
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
