#!/usr/bin/env python3
"""Benchmark for edgecritic: cold runs of three user paths, with pinned outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; edgecritic is imported from
`src/`, nothing is installed. Each timed run is a fresh interpreter
(`child.py`), spawned one after another by this process (one closed-loop
client, jobs=1). After an untimed warm-up that compiles the .pyc files and
generates the inputs, the run

  --trace 0  samples set-up time with a few import-only children, then repeats
             cold workload runs for about S seconds (at least one run; the
             count is S over one run's time, rounded), and reports medians of
             wall_s, setup_s and peak_rss_mb;
  --trace 1  alternates an untraced and a traced child the same way (at least
             one pair), and reports the per-layer metrics of the traced
             children plus the tracing overhead.

Every child's output is checked against the pinned expectations in
`expected.json`; operations that differ count as failed, and the timings of
a child with wrong output are left out of every median. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. A
machine record and the full per-child detail go to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

from tracing import LAYER_METRICS, layer_metrics, load_spans  # this script's directory

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
RUN_LIMIT_S = 170.0  # the whole run, warm-up and children included
SETUP_PROBES = 6

with open(os.path.join(HERE, "expected.json"), encoding="ascii") as _fh:
    EXPECTED = json.load(_fh)

VERDICT_LETTERS = {"p": "pass", "f": "fail", "s": "skipped", "u": "undecided"}


# ---------------------------------------------------------------------------
# children


def spawn(workload: str, mode: str, shared: str, seed: int, deadline: float) -> dict:
    """Run one child to exit; wall time is spawn to exit on the monotonic clock."""
    run_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=shared)
    cmd = [sys.executable, CHILD, ROOT, workload, mode, shared, run_dir, str(seed)]
    with open(os.path.join(run_dir, "stdout"), "wb") as out, \
            open(os.path.join(run_dir, "stderr"), "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(max(0.5, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready = _read_int(os.path.join(run_dir, "ready"))
    # ru_maxrss starts from this process's own high-water mark when the child
    # is spawned, so it is only a fallback for the child's VmHWM
    peak_kb = _read_int(os.path.join(run_dir, "peak_kb")) or usage.ru_maxrss
    return {
        "mode": mode,
        "dir": run_dir,
        "exit": proc.returncode,
        "wall_s": (t1 - t0) / 1e9,
        "setup_s": None if ready is None else (ready - t0) / 1e9,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _read_int(path: str) -> int | None:
    try:
        with open(path, encoding="ascii") as fh:
            return int(fh.read())
    except (OSError, ValueError):
        return None


def stderr_tail(child: dict, lines: int = 5) -> str:
    try:
        with open(os.path.join(child["dir"], "stderr"), encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:]).strip()
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# correctness gate


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parse_records(data: bytes) -> list[tuple[str, str] | None]:
    """(instance_id, verdict) per JSON line; None for a line that does not parse."""
    out = []
    for line in data.decode("ascii", errors="replace").splitlines():
        try:
            rec = json.loads(line)
            out.append((str(rec["instance_id"]), str(rec["verdict"])))
        except (ValueError, KeyError, TypeError):
            out.append(None)
    return out


def judge(workload: str, child: dict, shared: str) -> dict:
    """Compare one child's outputs with the pinned expectations.

    Operations are instances (sweeps) or records (lemmas-corpus). A record
    whose verdict or instance id differs, or that is missing or extra, is one
    failed operation; each whole-run mismatch (exit code, output sha256,
    byte count) adds one more, capped at the number attempted.
    """
    exp = EXPECTED[workload]
    problems = []
    if workload == "sweep-m8":
        output = _read(os.path.join(child["dir"], "sweep.jsonl"))
        attempted = exp["instances"]

        def ok(i, rec):
            return rec[1] == ("fail" if rec[0] in exp["fail_ids"] else "pass")
    elif workload == "theorem10-sample":
        output = _read(os.path.join(child["dir"], "records.jsonl"))
        with open(os.path.join(shared, "instances.json"), encoding="ascii") as fh:
            ids = [inst["instance_id"] for inst in json.load(fh)]
        attempted = len(ids)

        def ok(i, rec):
            return rec == (ids[i], exp["verdict"])
    else:  # lemmas-corpus: the instance ids are pinned through the stdout sha256
        output = _read(os.path.join(child["dir"], "stdout"))
        attempted = len(exp["verdicts"])

        def ok(i, rec):
            return rec[1] == VERDICT_LETTERS[exp["verdicts"][i]]
    got = _parse_records(output)
    verdicts = [g[1] for g in got if g is not None]
    wrong = abs(len(got) - attempted) + sum(
        rec is None or not ok(i, rec) for i, rec in enumerate(got[:attempted]))
    if wrong:
        problems.append(f"{wrong} of {attempted} operations differ from the pinned verdicts")
    whole = []  # whole-run mismatches, one failed operation each
    if child["exit"] != exp["exit_code"]:
        whole.append(f"exit code {child['exit']}, expected {exp['exit_code']}")
    if "output_sha256" in exp and (_sha256(output) != exp["output_sha256"]
                                   or len(output) != exp["output_bytes"]):
        whole.append(f"output is {len(output)} bytes with sha256 {_sha256(output)[:16]}...,"
                     f" expected {exp['output_bytes']} bytes {exp['output_sha256'][:16]}...")
    if "stdout_sha256" in exp:
        stdout = _read(os.path.join(child["dir"], "stdout"))
        if _sha256(stdout) != exp["stdout_sha256"]:
            whole.append(f"stdout sha256 {_sha256(stdout)[:16]}..., expected"
                         f" {exp['stdout_sha256'][:16]}...")
    problems += whole
    # tallies and the failing ids follow from the per-record verdicts; they are
    # reported, not counted a second time
    tally = {v: verdicts.count(v) for v in ("pass", "fail", "skipped", "undecided")}
    if "tally" in exp and tally != exp["tally"]:
        problems.append(f"tally {tally}, expected {exp['tally']}")
    if "fail_ids" in exp:
        got_fails = [g[0] for g in got if g is not None and g[1] == "fail"]
        if got_fails != exp["fail_ids"]:
            problems.append(f"failing instances {got_fails}, expected {exp['fail_ids']}")
    failed = min(attempted, wrong + len(whole))
    return {"attempted": attempted, "failed": failed, "tally": tally, "problems": problems}


# ---------------------------------------------------------------------------
# machine record


def machine_record() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=False)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one benchmark run


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def another_fits(start: float, last_s: float, seconds: float, deadline: float) -> bool:
    """Repeat while one more child, as long as the last, would end closer to
    the measuring time than one child early; never past the run's deadline."""
    now = time.monotonic()
    return now - start + last_s / 2 <= seconds and now + last_s <= deadline


def run_untraced(workload, shared, seed, seconds, deadline, log):
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(workload, "probe", shared, seed, deadline)
        if probe["exit"] != 0 or probe["setup_s"] is None:
            raise RuntimeError(f"set-up probe failed: {stderr_tail(probe)}")
        setups.append(probe["setup_s"])
    log("setup probes: " + " ".join(f"{s:.4f}" for s in setups) + " s")
    start = time.monotonic()
    children = []
    while True:
        child = spawn(workload, "run", shared, seed, deadline)
        child["check"] = judge(workload, child, shared)
        children.append(child)
        log(describe(child))
        if not another_fits(start, child["wall_s"], seconds, deadline):
            break
    good = [c for c in children if not c["check"]["failed"]]
    metrics = {
        "wall_s": (median_or_none(c["wall_s"] for c in good), "s"),
        "setup_s": (median_or_none(setups + [c["setup_s"] for c in good]), "s"),
        "peak_rss_mb": (median_or_none(c["peak_rss_mb"] for c in good), "MB"),
    }
    return children, metrics


def run_traced(workload, shared, seed, seconds, deadline, log):
    start = time.monotonic()
    children = []
    per_layer = []
    while True:
        pair = []
        for mode in ("run", "trace"):
            child = spawn(workload, mode, shared, seed, deadline)
            child["check"] = judge(workload, child, shared)
            if mode == "trace" and not child["check"]["failed"]:
                spans = load_spans(child["dir"])
                child["spans"] = len(spans["func"])
                per_layer.append(layer_metrics(spans))
            children.append(child)
            pair.append(child)
            log(describe(child))
        if not another_fits(start, sum(c["wall_s"] for c in pair), seconds, deadline):
            break
    good = [c for c in children if not c["check"]["failed"]]
    plain = median_or_none(c["wall_s"] for c in good if c["mode"] == "run")
    traced = median_or_none(c["wall_s"] for c in good if c["mode"] == "trace")
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [m[name] for m in per_layer]
        metrics[name] = (statistics.median(values) if values else None, unit)
    metrics["trace.wall_s"] = (traced, "s")
    overhead = None if plain is None or traced is None else traced - plain
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (median_or_none(c.get("spans") for c in good), "count")
    return children, metrics


def describe(child: dict) -> str:
    check = child["check"]
    status = "ok" if not check["failed"] else "WRONG OUTPUT: " + "; ".join(check["problems"])
    extra = f" spans={child['spans']}" if "spans" in child else ""
    return (f"{child['mode']:5s} wall={child['wall_s']:.3f}s setup={child['setup_s'] or 0:.4f}s"
            f" rss={child['peak_rss_mb']:.1f}MB exit={child['exit']}{extra}"
            f" tally={check['tally']} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "edgecritic", "__init__.py")):
        print(f"error: no edgecritic sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    machine = machine_record()

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    log("machine " + json.dumps(machine, sort_keys=True))
    shared = tempfile.mkdtemp(prefix="tmp-", dir=HERE)
    try:
        warm = spawn(args.workload, "prepare", shared, args.seed, deadline)
        if warm["exit"] != 0:
            print(f"error: warm-up failed (exit {warm['exit']}): {stderr_tail(warm)}",
                  file=sys.stderr)
            return 2
        runner = run_traced if args.trace else run_untraced
        try:
            children, metrics = runner(args.workload, shared, args.seed, args.seconds,
                                       deadline, log)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for child in children:
            if child["check"]["failed"]:
                log(f"stderr of the failing {child['mode']} child: {stderr_tail(child)}")
    finally:
        shutil.rmtree(shared, ignore_errors=True)

    attempted = sum(c["check"]["attempted"] for c in children)
    failed = sum(c["check"]["failed"] for c in children)
    correct = failed == 0
    log(f"fail_frac={failed / attempted:.6f} ({failed} of {attempted} operations)"
        f" over {len(children)} children in {time.monotonic() - t_begin:.1f}s")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, fail_frac=failed / attempted,
                  children=[{k: v for k, v in c.items() if k != "dir"} for c in children])
    with open(os.path.join(RESULTS, f"{stamp}-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
