"""CLI surface: output shapes, exit codes, batch input."""

import ast
import collections
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgecritic.cli as cli
import edgecritic.lemmas as lemmas
import edgecritic.solver as solver
import edgecritic.verifier as verifier
from conftest import ROOT, assert_proper, corpus_hosts, published_runs
from edgecritic.cli import build_named, main
from edgecritic.coloring import PartialEdgeColoring
from edgecritic.graph6 import emit_graph6, parse_graph6
from edgecritic.graphs import GraphError, complete, cycle, petersen
from edgecritic.records import VerificationRecord, record_from_json_line
from edgecritic.solver import SearchBudgetExceeded, find_delta_coloring, vizing_color


def test_package_imports_without_numpy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, edgecritic, edgecritic.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, and the tests need networkx,
    # so an import of it under src/ would pass here and break an install
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_import_does_not_load_multiprocessing():
    # the process pool is imported only when a sweep runs with jobs > 1
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, edgecritic.cli; "
             "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_named_builders():
    assert build_named("k6") == complete(6)
    assert build_named("c9") == cycle(9)
    assert build_named("petersen") == petersen()
    # the named table wins over the kN pattern
    assert build_named("k33").n == 6
    with pytest.raises(GraphError, match="unknown builder 'nope'"):
        build_named("nope")


def test_chi_lines(capsys):
    assert main(["chi", "--builder", "petersen"]) == 0
    assert capsys.readouterr().out == "Δ=3 χ'=4 class=2\n"
    assert main(["chi", "--builder", "c4"]) == 0
    assert capsys.readouterr().out == "Δ=2 χ'=2 class=1\n"


def test_chi_json(capsys):
    assert main(["chi", "--builder", "petersen", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"graph6": emit_graph6(petersen()), "max_degree": 3,
                       "chromatic_index": 4, "class": 2}


def test_color_output_is_a_proper_coloring(capsys):
    assert main(["color", "--builder", "petersen", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 4
    assign = {(u, v): c for u, v, c in payload["edges"]}
    phi = PartialEdgeColoring(petersen(), 4, assign)  # validates on build
    assert phi.is_full()

    assert main(["color", "--builder", "c5"]) == 0
    assert capsys.readouterr().out.startswith("k=3 uncolored=none\n")


@pytest.mark.parametrize("builder, k", [("cube", 3), ("petersen", 4), ("c5", 3), ("k5", 5)],
                         ids=["cube", "petersen", "c5", "k5"])
def test_color_searches_at_delta_once(monkeypatch, capsys, builder, k):
    # class 1 keeps the coloring of the class decision; class 2 takes
    # Vizing's, so no search ever runs with a spare color
    calls = []

    def counting(graph, k, hole, budget, _solve=solver._solve):
        calls.append(k)
        return _solve(graph, k, hole, budget)
    monkeypatch.setattr(solver, "_solve", counting)
    assert main(["color", "--builder", builder, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    g = build_named(builder)
    assert calls == [g.max_degree()]
    want = find_delta_coloring(g) or vizing_color(g)
    assert payload["k"] == want.k == k
    assert payload["edges"] == [[u, v, c] for (u, v), c in want.colored_items()]
    assert_proper(PartialEdgeColoring(g, payload["k"], {(u, v): c for u, v, c in payload["edges"]}))


def test_color_batch_prints_each_label_then_its_coloring(tmp_path, capsys):
    batch = tmp_path / "batch.g6"
    batch.write_text("C~\nDhc\n")
    assert main(["color", "--file", str(batch)]) == 0
    out = capsys.readouterr().out
    want = ""
    for label in ("C~", "Dhc"):
        g = parse_graph6(label)
        want += f"{label}\n{(find_delta_coloring(g) or vizing_color(g)).to_text()}\n"
    assert out == want
    lines = out.splitlines()
    assert lines[:2] == ["C~", "k=3 uncolored=none"]
    assert lines[lines.index("Dhc") + 1] == "k=3 uncolored=none"


def test_critical_lines(capsys):
    assert main(["critical", "--builder", "petersen_minus_vertex"]) == 0
    assert capsys.readouterr().out == \
        "delta-critical: true (12/12 edges critical)\n"
    assert main(["critical", "--builder", "petersen"]) == 0
    assert capsys.readouterr().out == \
        "delta-critical: false (0/15 edges critical)\n"


def test_critical_json(capsys):
    assert main(["critical", "--builder", "petersen_minus_vertex", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_critical"] is True
    assert payload["edge_count"] == 12
    assert len(payload["critical_edges"]) == 12


def test_split_line(capsys):
    argv = ["split", "--builder", "c4", "--vertex", "0", "--part-a", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == \
        "Dhc n=5 edges=5 split-edge=0-4 overfull=true\n"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "graph6": "Dhc", "n": 5, "edges": 5,
        "split_edge": [0, 4], "overfull": True}


def test_split_wants_one_graph(tmp_path, capsys):
    pair = tmp_path / "two.g6"
    pair.write_text("C~\nDhc\n")
    code = main(["split", "--file", str(pair), "--vertex", "0", "--part-a", "1"])
    assert code == 2
    assert "exactly one graph" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["split", "--builder", "c4", "--vertex", "9", "--part-a", "1"],
     "vertex 9 out of range 0..3"),
    (["split", "--builder", "c4", "--vertex", "-1", "--part-a", "1"],
     "vertex -1 out of range 0..3"),
    (["split", "--builder", "c4", "--vertex", "0", "--part-a", "1,x"],
     "not a comma list of integers: '1,x'"),
    (["split", "--builder", "c4", "--vertex", "0", "--part-a", "1", "--budget-ms", "60000"],
     "unrecognized arguments: --budget-ms 60000"),
    (["split", "--builder", "c4", "--vertex", "0", "--part-a", "2"],
     "split parts must partition the neighborhood exactly"),
    (["split", "--builder", "c4", "--vertex", "0", "--part-a", "1,3"],
     "both split parts must be nonempty"),
    (["sweep", "--degrees", "3,x"], "not a comma list of integers: '3,x'"),
    (["sweep", "--degrees", "99", "--m-max", "8"], "degrees must lie in 2..7, not [99]"),
    (["sweep", "--degrees", "1,3"], "degrees must lie in 2..7, not [1, 3]"),
    (["theorem1", "--m-max", "4", "--resume"], "resume needs a log path"),
    (["theorem1", "--m-max", "7"], "base order cap must be an even number >= 4"),
    (["sweep", "--m-max", "12"], "base orders above 10 are not supported"),
    (["sweep", "--jobs", "0"], "jobs must be at least 1, not 0"),
    (["chi", "--builder", "petersen", "--budget-ms", "-5"],
     "not a finite budget above 0 ms: '-5'"),
    (["chi", "--builder", "petersen", "--budget-ms", "0"],
     "not a finite budget above 0 ms: '0'"),
    (["chi", "--builder", "petersen", "--budget-ms", "nan"],
     "not a finite budget above 0 ms: 'nan'"),
    (["theorem1", "--budget-ms", "inf"], "not a finite budget above 0 ms: 'inf'"),
    (["lemmas", "--builder", "c5", "--budget-ms", "ten"],
     "not a finite budget above 0 ms: 'ten'"),
], ids=["vertex-high", "vertex-negative", "part-a", "split-budget", "split-not-partition",
        "split-b-empty", "degrees", "degree-above-order", "degree-below-two",
        "resume-without-log", "m-max-odd", "m-max-above-ten", "jobs-zero",
        "budget-negative", "budget-zero", "budget-nan", "budget-inf", "budget-word"])
def test_bad_flag_values_exit_two(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


def test_lemmas_battery_lines(capsys):
    assert main(["lemmas", "--builder", "c5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pass      parity-census  Dhc k=3"
    assert lines[-1] == "total=36 pass=31 fail=0 skipped=5 undecided=0"


def test_lemmas_json_round_trips(capsys):
    assert main(["lemmas", "--builder", "c5", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [record_from_json_line(ln) for ln in lines]
    assert len(records) == 36
    assert {r.verdict for r in records} == {"pass", "skipped"}


def test_kite_chain_route_is_vacuous_on_the_corpus(tmp_path, capsys, monkeypatch):
    # the route's normalized kite needs three sub-max-degree vertices, and the
    # corpus hosts with kites are splits, which have two; counted here is the
    # first false route hypothesis of each kite the battery checks
    stops = collections.Counter()

    def counted(coloring, kite, host_class, _check=lemmas.check_kite):
        records = _check(coloring, kite, host_class)
        stops[next((h for h, ok in records[1].hypotheses.items() if not ok), None)] += 1
        return records
    monkeypatch.setattr(lemmas, "check_kite", counted)
    hosts = tmp_path / "hosts.g6"
    hosts.write_text("".join(emit_graph6(g) + "\n" for g in corpus_hosts()))
    assert main(["lemmas", "--json", "--file", str(hosts)]) == 0
    emitted = {record_from_json_line(line).lemma for line in capsys.readouterr().out.splitlines()}
    assert "short-kite-degree" in emitted and "kite-chain-route" not in emitted
    assert stops == {"tails_share_one_missing": 3094}


def test_lemmas_streams_each_host_and_survives_a_search_out_of_budget(tmp_path, monkeypatch):
    hosts = tmp_path / "two.g6"
    hosts.write_text("Bw\nJ~|zz|~^{N_\n")  # a triangle, then a split of K10
    first = io.StringIO()
    with contextlib.redirect_stdout(first):
        assert main(["lemmas", "--json", "--graph6", "Bw"]) == 0
    printed_before = []
    out = io.StringIO()

    def records(graph, budget_ms=None, _records=cli.lemma_records):
        printed_before.append(out.getvalue())
        return _records(graph, budget_ms)

    def boom(graph, k, hole=None, budget_ms=None, _find=lemmas.find_coloring):
        if graph.n == 11 and hole is not None:
            raise SearchBudgetExceeded("out of time")
        return _find(graph, k, hole=hole, budget_ms=budget_ms)
    monkeypatch.setattr(cli, "lemma_records", records)
    monkeypatch.setattr(lemmas, "find_coloring", boom)
    with contextlib.redirect_stdout(out):
        assert main(["lemmas", "--json", "--file", str(hosts)]) == 3
    # the triangle's records were printed before the second host's were asked for
    assert printed_before == ["", first.getvalue()]
    text = out.getvalue()
    assert text.startswith(first.getvalue())
    second = [record_from_json_line(ln) for ln in text[len(first.getvalue()):].splitlines()]
    assert [r.verdict for r in second if r.lemma == "vizing-adjacency"] == ["undecided"] * 46
    assert {r.lemma for r in second} == {"parity-census", "vizing-adjacency",
                                         "deficiency-pair-degrees", "single-subdelta"}


class Halt(Exception):
    pass


class FlushedStdout(io.StringIO):
    """Stdout as a pipe or a file sees it: only what has been flushed."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


def test_lemmas_prints_each_record_as_it_is_judged(tmp_path, monkeypatch):
    # a triangle, then an order-7 host whose first kite comes after 24 records
    hosts = tmp_path / "two.g6"
    hosts.write_text("Bw\nFj\\|w\n")
    first = io.StringIO()
    with contextlib.redirect_stdout(first):
        assert main(["lemmas", "--json", "--graph6", "Bw"]) == 0
    judged = [r.to_json_line() + "\n" for r in lemmas.lemma_records(parse_graph6("Fj\\|w"))]
    out = FlushedStdout()
    printed = []

    def halt(coloring, kite, host_class):
        printed.append(out.flushed)
        raise Halt
    monkeypatch.setattr(lemmas, "check_kite", halt)
    with contextlib.redirect_stdout(out), pytest.raises(Halt):
        main(["lemmas", "--json", "--file", str(hosts)])
    assert printed == [first.getvalue() + "".join(judged[:24])]
    assert json.loads(judged[23])["lemma"] == "kierstead-path"
    assert json.loads(judged[24])["lemma"] == "short-kite-degree"


def test_sweep_writes_each_record_when_its_check_ends(tmp_path, monkeypatch):
    log = tmp_path / "m8.jsonl"
    out = FlushedStdout()
    checked = []

    def check(inst, _check=verifier.check_split_instance):
        checked.append(inst.instance_id)
        if len(checked) == 3:
            raise Halt
        return _check(inst)
    monkeypatch.setattr(verifier, "check_split_instance", check)
    with contextlib.redirect_stdout(out), pytest.raises(Halt):
        main(["sweep", "--m-max", "8", "--log", str(log)])
    lines = [record_from_json_line(ln) for ln in log.read_text().splitlines()]
    assert [r.instance_id for r in lines] == checked[:2]
    assert out.flushed.splitlines() == [
        f"pass      split-delta-critical  {iid}" for iid in checked[:2]]


def test_theorem1_smallest_range(capsys):
    assert main(["theorem1", "--m-max", "4"]) == 0
    assert capsys.readouterr().out == (
        "pass      split-delta-critical  C~ v=0 A=1 B=2,3\n"
        "total=1 pass=1 fail=0 skipped=0 undecided=0\n")


def test_sweep_reports_the_known_failure(capsys):
    code = main(["sweep", "--degrees", "3", "--m-max", "8",
                 "--budget-ms", "600000"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert "fail      split-delta-critical  G@Umf? v=0 A=5,6 B=7" in lines
    assert ('          witness: {"check": "edge-critical", "edge": [3, 4],'
            ' "graph6": "H@UmbA@"}') in lines
    assert lines[-1] == "total=23 pass=22 fail=1 skipped=0 undecided=0"


def test_figure1_narrative(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[:5]
    assert head == [
        "pass: nonelementary-kierstead-witness",
        "hole edge: 0-4",
        "path: 4-0-1-6",
        "color 2 missing at both 4 and 6",
        "inner degrees: [3, 3]",
    ]
    assert "k=3 uncolored=0,4" in out


def test_figure1_json(capsys):
    assert main(["figure1", "--json"]) == 0
    rec = record_from_json_line(capsys.readouterr().out.strip())
    assert rec.verdict == "pass"
    assert rec.witness["path"] == [4, 0, 1, 6]


def test_published_runs_are_well_formed():
    runs = published_runs()
    assert len({run.name for run in runs}) == len(runs)
    assert {run.tier for run in runs} <= {"test", "ci"}
    assert all(re.fullmatch("[0-9a-f]{64}", run.sha256) for run in runs)


@pytest.mark.parametrize("run", [run for run in published_runs() if run.tier == "test"],
                         ids=lambda run: run.name)
def test_published_outputs_are_pinned(tmp_path, monkeypatch, capsys, run):
    # a run with LOG in its arguments is pinned by its log, any other by its
    # stdout; arguments name files relative to the repo root
    monkeypatch.chdir(ROOT)
    log = tmp_path / "run.jsonl"
    assert main([str(log) if arg == "LOG" else arg for arg in run.args]) == run.exit_code
    out = capsys.readouterr().out
    if run.last_line is not None:
        assert out.splitlines()[-1] == run.last_line
    pinned = log.read_bytes() if "LOG" in run.args else out.encode()
    assert hashlib.sha256(pinned).hexdigest() == run.sha256


def test_readme_results_table_lists_every_published_run():
    # a missing line fails with the line itself, ready to paste
    def table_line(run):
        last = "–" if run.last_line is None else f"`{run.last_line}`"
        return (f"| `{run.name}` | {run.tier} | `edgecritic {' '.join(run.args)}`"
                f" | {run.exit_code} | {last} | `{run.sha256[:8]}…` |")
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert [table_line(run) for run in published_runs() if table_line(run) not in lines] == []


@pytest.mark.parametrize("conclusion, host_class2, code", [
    (False, True, 1), (None, True, 3), (None, False, 3),
], ids=["fail", "undecided", "skipped"])
def test_figure1_exit_code_follows_the_verdict(monkeypatch, capsys, conclusion, host_class2, code):
    rec = VerificationRecord("nonelementary-kierstead-witness", "x",
                             {"host_class2": host_class2}, conclusion)
    monkeypatch.setattr(cli, "reproduce_nonelementary_path", lambda budget_ms: rec)
    assert main(["figure1"]) == code
    assert capsys.readouterr().out == f"{rec.verdict}: nonelementary-kierstead-witness\n"


def test_batch_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nDhc\n"))
    assert main(["chi"]) == 0
    assert capsys.readouterr().out == (
        "C~ Δ=3 χ'=3 class=1\n"
        "Dhc Δ=2 χ'=3 class=2\n")


def test_batch_from_file(tmp_path, capsys):
    batch = tmp_path / "batch.g6"
    batch.write_text("C~\nDhc\n")
    assert main(["chi", "--file", str(batch)]) == 0
    assert capsys.readouterr().out == (
        "C~ Δ=3 χ'=3 class=1\n"
        "Dhc Δ=2 χ'=3 class=2\n")

    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    assert main(["chi", "--file", str(empty)]) == 2
    assert "no input graphs" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, argv", [
    ("hosts.g6", "C~\nCé\n", ["lemmas", "--file"]),
    ("run.jsonl", '{"lemma":"é"}\n', ["theorem1", "--m-max", "4", "--resume", "--log"]),
], ids=["graph6-file", "resume-log"])
def test_non_ascii_input_exits_two(tmp_path, capsys, name, text, argv):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: 'ascii' codec can't decode")
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("raw, message", [
    (b"C\xff\n", "byte 0xff outside graph6 range"),
    ("C\u00e9\n".encode("utf-8"), "character '\u00e9' (U+00E9) outside graph6 range"),
], ids=["undecodable-byte", "non-ascii-character"])
def test_graph6_range_error_names_the_input(monkeypatch, capsys, raw, message):
    # stdin decodes as UTF-8 and keeps undecodable bytes as surrogate escapes
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["lemmas"]) == 2
    assert capsys.readouterr().err == f"error: {message} 63..126\n"


def test_usage_and_input_errors(capsys):
    assert main(["chi", "--builder", "nope"]) == 2
    assert "unknown builder" in capsys.readouterr().err
    assert main(["chi", "--graph6", "!!"]) == 2
    assert "graph6" in capsys.readouterr().err
    assert main(["not-a-verb"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "edge-coloring" in capsys.readouterr().out


def test_budget_exhaustion_exit_code(monkeypatch, capsys):
    def boom(g, budget_ms=None):
        raise SearchBudgetExceeded("over budget")
    monkeypatch.setattr(cli, "chromatic_index", boom)
    assert main(["chi", "--builder", "k4"]) == 3
    assert "time budget exhausted" in capsys.readouterr().err


def test_sweep_log_wiring(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["theorem1", "--m-max", "4", "--log", str(log)]) == 0
    capsys.readouterr()
    first = log.read_bytes()
    assert first.count(b"\n") == 1
    assert main(["theorem1", "--m-max", "4", "--log", str(log), "--resume"]) == 0
    capsys.readouterr()
    assert log.read_bytes() == first


def test_resume_prints_the_records_that_match_before_refusing_a_foreign_log(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["theorem1", "--m-max", "6", "--log", str(log)]) == 0
    capsys.readouterr()
    lines = log.read_text().splitlines(keepends=True)
    assert len(lines) >= 3
    text = lines[0] + lines[2] + lines[1]
    log.write_text(text)
    assert main(["theorem1", "--m-max", "6", "--log", str(log), "--resume"]) == 2
    out, err = capsys.readouterr()
    first = record_from_json_line(lines[0])
    assert out == f"pass      split-delta-critical  {first.instance_id}\n"
    assert err.startswith("error: ") and "record 2 is" in err
    assert log.read_text() == text


@pytest.mark.parametrize("field, value, message", [
    ("hypotheses", 5, "hypotheses must be an object of booleans"),
    ("hypotheses", "ab", "hypotheses must be an object of booleans"),
    ("hypotheses", [["base_class1", True]], "hypotheses must be an object of booleans"),
    ("conclusion", "yes", "conclusion must be true, false or null"),
], ids=["hypotheses-int", "hypotheses-string", "hypotheses-pairs", "conclusion-string"])
def test_resume_refuses_mistyped_record_fields(tmp_path, capsys, field, value, message):
    log = tmp_path / "run.jsonl"
    assert main(["theorem1", "--m-max", "4", "--log", str(log)]) == 0
    capsys.readouterr()
    payload = json.loads(log.read_text())
    payload[field] = value
    # without a stored verdict to contradict, only the field types can refuse the line
    del payload["verdict"]
    text = json.dumps(payload) + "\n"
    log.write_text(text)
    assert main(["theorem1", "--m-max", "4", "--log", str(log), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert log.read_text() == text
