"""One run of a benchmark workload in a fresh interpreter.

    python3 child.py ROOT WORKLOAD MODE SHARED_DIR RUN_DIR SEED

MODE is one of
  prepare  import edgecritic (compiling its .pyc files) and write the
           workload's generated inputs to SHARED_DIR; untimed;
  probe    import edgecritic and exit, to sample set-up time;
  run      run the workload;
  trace    run the workload with spans around edgecritic's public functions
           and write the spans to RUN_DIR afterwards.

edgecritic is imported from ROOT/src. Right after the import the child writes
the monotonic clock (nanoseconds) to RUN_DIR/ready, so the parent can tell
set-up time from work, and at exit it writes its peak resident set to
RUN_DIR/peak_kb. Outputs (logs, records) go to RUN_DIR; stdout is whatever
file the parent attached.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LEMMA_HOSTS = os.path.join(HERE, "data", "lemma_hosts.g6")

# theorem10-sample: the splits are drawn once from this seed; the --seed of a
# run only sets the order they are checked in (see README.md for why)
SAMPLE_SEED = 10
SAMPLE_SIZE = 9
BUDGET_MS = 60000.0  # the sweep default, as in the long-haul plan
CONFIRM_EVERY = 10  # solver_confirm on every tenth instance, as plan_instances does


def theorem10_instances(sample_seed: int, size: int) -> list:
    """Seeded order-10 theorem-range splits: two of K10 for each of K10 minus a
    perfect matching. Built from public names only, never from plan_instances."""
    from edgecritic import (
        SplitInstance,
        complete,
        complete_minus_matching,
        emit_graph6,
        find_delta_coloring,
    )

    bases = {}
    for name, g in (("K10", complete(10)), ("K10-PM", complete_minus_matching(10))):
        phi = find_delta_coloring(g, BUDGET_MS)
        bases[name] = (g, emit_graph6(g), phi.to_text())
    rng = random.Random(sample_seed)
    out = []
    for i in range(size):
        g, g6, text = bases["K10-PM" if i % 3 == 2 else "K10"]
        v = rng.randrange(g.n)
        nbrs = sorted(g.neighbors(v))
        part_b: list[int] = []
        while not part_b:  # the least neighbour stays in part A, part B is nonempty
            part_b = [w for w in nbrs[1:] if rng.random() < 0.5]
        part_a = [w for w in nbrs if w not in part_b]
        iid = f"{g6} v={v} A={','.join(map(str, part_a))} B={','.join(map(str, part_b))}"
        out.append(SplitInstance(
            instance_id=iid, base_graph6=g6, base_coloring_text=text, vertex=v,
            part_a=tuple(part_a), part_b=tuple(part_b), budget_ms=BUDGET_MS,
            solver_confirm=i % CONFIRM_EVERY == 0))
    return out


def prepare(workload: str, shared: str, seed: int) -> None:
    if workload != "theorem10-sample":
        return
    instances = theorem10_instances(SAMPLE_SEED, SAMPLE_SIZE)
    random.Random(seed).shuffle(instances)
    with open(os.path.join(shared, "instances.json"), "w", encoding="ascii") as fh:
        json.dump([dataclasses.asdict(inst) for inst in instances], fh)


def run(workload: str, shared: str, run_dir: str) -> int:
    from edgecritic import cli, verifier

    if workload == "sweep-m8":
        return cli.main(["sweep", "--m-max", "8", "--log", os.path.join(run_dir, "sweep.jsonl")])
    if workload == "lemmas-corpus":
        return cli.main(["lemmas", "--json", "--file", LEMMA_HOSTS])
    if workload == "theorem10-sample":
        with open(os.path.join(shared, "instances.json"), encoding="ascii") as fh:
            raw = json.load(fh)
        with open(os.path.join(run_dir, "records.jsonl"), "w", encoding="ascii") as out:
            for fields in raw:
                fields["part_a"] = tuple(fields["part_a"])
                fields["part_b"] = tuple(fields["part_b"])
                rec = verifier.check_split_instance(verifier.SplitInstance(**fields))
                out.write(rec.to_json_line() + "\n")
        return 0
    raise SystemExit(f"unknown workload {workload!r}")


def record_peak_rss(run_dir: str) -> None:
    """Write this process's peak resident set (kB) to RUN_DIR/peak_kb.

    VmHWM belongs to the address space made at exec, so unlike ru_maxrss it
    does not inherit the high-water mark of the parent that spawned us.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        return  # the parent falls back to ru_maxrss
    with open(os.path.join(run_dir, "peak_kb"), "w", encoding="ascii") as fh:
        fh.write(str(kb))


def main(argv: list[str]) -> int:
    root, workload, mode, shared, run_dir, seed = argv
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import edgecritic
    import edgecritic.cli  # noqa: F401  (the CLI workloads start here)

    ready = time.monotonic_ns()
    if not os.path.abspath(edgecritic.__file__).startswith(src + os.sep):
        print(f"edgecritic came from {edgecritic.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(os.path.join(run_dir, "ready"), "w", encoding="ascii") as fh:
        fh.write(str(ready))
    atexit.register(record_peak_rss, run_dir)
    if mode == "probe":
        return 0
    if mode == "prepare":
        prepare(workload, shared, int(seed))
        return 0
    if mode == "run":
        return run(workload, shared, run_dir)
    if mode == "trace":
        from tracing import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced (missing): {', '.join(missing)}", file=sys.stderr)
        try:
            return run(workload, shared, run_dir)
        finally:
            tracer.dump(run_dir)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
