"""What the benchmark harness in `perfbench/` needs from the package.

The harness imports its names from the package at run time, so a rename
here would break a workload, or silently zero a per-layer counter, without
any other test noticing. Its scripts are read and compiled here, never
imported, so no bytecode is written next to them.
"""

import importlib
import json
import types
from pathlib import Path

import edgecritic.solver as solver
from conftest import corpus_hosts, published_runs
from edgecritic import check_split_instance
from edgecritic.graph6 import emit_graph6

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# traced names whose code left the package; the benchmark refresh prunes them
STALE_TRACED = {
    "graphs.automorphisms", "enumeration.enumerate_small_graphs",
    "coloring.chain_ray", "coloring.ray_swap", "coloring.color_uncolored",
    "coloring.slide_uncolored", "coloring.is_elementary",
    "solver.classify", "solver.classify_cached", "solver.is_critical_edge",
    "structures.is_multifan", "structures.is_kierstead_path",
    "structures.kite_in_graph", "structures.find_short_kites",
    "lemmas.check_short_kite", "lemmas.check_kite_chain_route", "lemmas.check_single_subdelta",
    "lemmas.build_contradiction_script", "lemmas.swap_rims_script", "lemmas.lemma_battery",
    "records.write_records",
    "recolor.apply_step", "recolor.execute_script",
}


def load_script(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    code = compile(path.read_text(encoding="ascii"), str(path), "exec", dont_inherit=True)
    exec(code, module.__dict__)
    return module


def test_theorem10_sample_passes_every_split_without_search(monkeypatch):
    child = load_script("child")
    instances = child.theorem10_instances(child.SAMPLE_SEED, child.SAMPLE_SIZE)
    searches = []
    monkeypatch.setattr(solver, "_solve", lambda *a, **kw: searches.append(a))
    verdicts = [check_split_instance(inst).verdict for inst in instances]
    assert verdicts == ["pass"] * 9
    assert searches == []


def resolves(modname, path):
    try:
        owner = importlib.import_module(f"edgecritic.{modname}")
    except ModuleNotFoundError:
        return False
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner is not None


def test_every_traced_name_resolves_but_the_stale_ones():
    tracing = load_script("tracing")
    unresolved = {f"{modname}.{path}"
                  for entries in tracing.TRACED.values()
                  for modname, path, _ in entries
                  if not resolves(modname, path)}
    assert unresolved == STALE_TRACED


def test_expected_outputs_are_the_published_runs():
    # expected.json restates two RUNS.tsv rows for the harness; they must agree
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    runs = {run.name: run for run in published_runs()}
    for name in ("sweep-m8", "lemmas-corpus"):
        assert expected[name]["command"] == " ".join(["edgecritic", *runs[name].args])
        assert expected[name]["exit_code"] == runs[name].exit_code
        assert expected[name]["output_sha256"] == runs[name].sha256


def test_lemma_hosts_file_is_the_test_corpus():
    # the lemmas-corpus run reads this file; the tests build the same hosts
    text = (PERFBENCH / "data" / "lemma_hosts.g6").read_text(encoding="ascii")
    assert text == "".join(emit_graph6(g) + "\n" for g in corpus_hosts())
