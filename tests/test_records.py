"""Verification records: verdict table, exact line format, file round trips."""

import json

import pytest

import edgecritic.lemmas as lemmas
from conftest import corpus_hosts
from edgecritic.lemmas import lemma_records
from edgecritic.records import (
    RecordError,
    VerificationRecord,
    read_records,
    record_from_json_line,
    tally_verdicts,
)
from edgecritic.verifier import SweepConfig, run_sweep


def test_verdict_table():
    hyp = {"a": True, "b": True}
    assert VerificationRecord("L", "x", hyp, conclusion=True).verdict == "pass"
    assert VerificationRecord("L", "x", hyp, conclusion=False).verdict == "fail"
    assert VerificationRecord("L", "x", {"a": False}, conclusion=None).verdict == "skipped"
    assert VerificationRecord("L", "x", hyp, conclusion=None).verdict == "undecided"
    assert VerificationRecord("L", "x", {}, conclusion=None).verdict == "undecided"
    # a false hypothesis never hides an actual answer
    assert VerificationRecord("L", "x", {"a": False}, conclusion=False).verdict == "fail"
    assert VerificationRecord("L", "x", {"a": False}, conclusion=True).verdict == "pass"


def test_json_line_exact():
    rec = VerificationRecord("parity", "C~ v=0", {"overfull": True}, True)
    assert rec.to_json_line() == (
        '{"conclusion":true,"hypotheses":{"overfull":true},'
        '"instance_id":"C~ v=0","lemma":"parity","verdict":"pass"}'
    )


def test_json_line_includes_witness_only_when_set():
    plain = VerificationRecord("L", "x", {}, None)
    assert '"witness"' not in plain.to_json_line()
    armed = VerificationRecord("L", "x", {}, False, witness={"edge": [0, 1]})
    assert '"witness":{"edge":[0,1]}' in armed.to_json_line()


def _dumped(rec: VerificationRecord) -> str:
    """The line as json.dumps writes the record's payload: the reference
    that `to_json_line`, which writes the sorted keys itself, must match."""
    payload = {"lemma": rec.lemma, "instance_id": rec.instance_id,
               "hypotheses": rec.hypotheses, "conclusion": rec.conclusion,
               "verdict": rec.verdict}
    if rec.witness is not None:
        payload["witness"] = rec.witness
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("rec", [
    VerificationRecord("L", "x", {}, None),
    VerificationRecord("L", "x", {"b": False, "a": True}, None),
    VerificationRecord("L", "x", {"h": True}, False,
                       witness={"part": "order", "chain": [3, 1, 2], "edges": [[0, 1], [1, 2]],
                                "note": "two\nlines\t\"quoted\"", "empty": []}),
    VerificationRecord("back\\slash", 'G\\~ "q" v=0', {"h": True}, True),
    VerificationRecord("L", "caf\u00e9 \u2603", {"\u00fcber": True}, True),
], ids=["conclusion-none-empty-hypotheses", "conclusion-none-unsorted", "conclusion-false-witness",
        "backslash-and-quote-ids", "non-ascii"])
def test_json_line_matches_json_dumps(rec):
    assert rec.to_json_line() == _dumped(rec)


def test_json_line_matches_json_dumps_on_every_built_record(monkeypatch):
    # the battery drops the skipped records of kites; keep every pair it builds
    built = []

    def keep_kite_records(coloring, kite, host_class, _check=lemmas.check_kite):
        pair = _check(coloring, kite, host_class)
        built.extend(pair)
        return pair

    monkeypatch.setattr(lemmas, "check_kite", keep_kite_records)
    for g in corpus_hosts():
        built.extend(lemma_records(g))
    assert any(rec.lemma == "kite-chain-route" and rec.verdict == "skipped" for rec in built)
    for mode in ("theorem", "conjecture"):
        built.extend(run_sweep(SweepConfig(m_max=8, mode=mode, budget_ms=None)))
    assert any(rec.witness is not None for rec in built)
    for rec in built:
        assert rec.to_json_line() == _dumped(rec), rec


def test_roundtrip():
    rec = VerificationRecord("L", "id 7", {"h": False}, None, witness=None)
    back = record_from_json_line(rec.to_json_line())
    assert back == rec
    assert back.verdict == "skipped"


def test_parse_rejects_garbage():
    with pytest.raises(RecordError, match="malformed"):
        record_from_json_line("{not json")
    with pytest.raises(RecordError, match="not an object"):
        record_from_json_line("[1,2]")
    with pytest.raises(RecordError, match="missing key 'lemma'"):
        record_from_json_line('{"instance_id":"x","hypotheses":{},"conclusion":null}')


@pytest.mark.parametrize("field, value, message", [
    ("lemma", 5, "lemma and instance_id must be strings"),
    ("instance_id", None, "lemma and instance_id must be strings"),
    ("hypotheses", [["h", True]], "hypotheses must be an object of booleans"),
    ("hypotheses", {"h": 1}, "hypotheses must be an object of booleans"),
    ("conclusion", 1, "conclusion must be true, false or null"),
    ("conclusion", "yes", "conclusion must be true, false or null"),
    ("witness", "x", "witness must be an object or null"),
    ("witness", [0, 1], "witness must be an object or null"),
], ids=["lemma-int", "id-null", "hypotheses-pairs", "hypothesis-int",
        "conclusion-int", "conclusion-string", "witness-string", "witness-list"])
def test_parse_rejects_mistyped_fields(field, value, message):
    payload = {"lemma": "L", "instance_id": "x", "hypotheses": {"h": True},
               "conclusion": None, field: value}
    with pytest.raises(RecordError, match=message):
        record_from_json_line(json.dumps(payload))


def test_parse_rejects_stale_verdict():
    line = ('{"conclusion":true,"hypotheses":{},"instance_id":"x",'
            '"lemma":"L","verdict":"fail"}')
    with pytest.raises(RecordError, match="disagrees"):
        record_from_json_line(line)


def test_write_read_roundtrip(tmp_path):
    records = [
        VerificationRecord("L1", "a", {"h": True}, True),
        VerificationRecord("L1", "b", {"h": False}, None),
        VerificationRecord("L2", "c", {}, False, witness={"why": "clash"}),
    ]
    path = str(tmp_path / "log.jsonl")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(rec.to_json_line() + "\n" for rec in records)
    assert list(read_records(path)) == records


def test_read_reports_path_and_line(tmp_path):
    path = str(tmp_path / "log.jsonl")
    good = VerificationRecord("L", "x", {}, True).to_json_line()
    with open(path, "w") as fh:
        fh.write(good + "\n\n{broken\n")
    with pytest.raises(RecordError, match=r"log\.jsonl:3: malformed"):
        list(read_records(path))


def test_read_skips_blank_lines(tmp_path):
    path = str(tmp_path / "log.jsonl")
    rec = VerificationRecord("L", "x", {}, True)
    with open(path, "w") as fh:
        fh.write("\n" + rec.to_json_line() + "\n\n")
    assert list(read_records(path)) == [rec]


def test_tally():
    records = [
        VerificationRecord("L", "1", {}, True),
        VerificationRecord("L", "2", {}, True),
        VerificationRecord("L", "3", {}, False),
        VerificationRecord("L", "4", {"h": False}, None),
        VerificationRecord("L", "5", {}, None),
    ]
    assert tally_verdicts(records) == {"pass": 2, "fail": 1, "skipped": 1, "undecided": 1}
