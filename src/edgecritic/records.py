"""Line-oriented verification records.

One JSON object per line, fixed key order, no timestamps: reruns over the same
plan must produce byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator


class RecordError(ValueError):
    pass


# one encoder for every witness; json.dumps would build one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_LITERALS = {None: "null", True: "true", False: "false"}


@lru_cache(maxsize=256)
def _hypotheses_json(items: tuple[tuple[str, bool], ...]) -> str:
    """The encoded hypotheses object; a few distinct ones repeat over a whole log."""
    return _ENCODER.encode(dict(items))


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of checking one claim on one instance.

    `conclusion` is None when the check did not run to an answer; the verdict
    then depends on the hypotheses: all-true means the check itself gave up
    (undecided), any-false means the claim was vacuous here (skipped).
    """

    lemma: str
    instance_id: str
    hypotheses: dict[str, bool] = field(default_factory=dict)
    conclusion: bool | None = None
    witness: dict[str, Any] | None = None

    @property
    def verdict(self) -> str:
        if self.conclusion is False:
            return "fail"
        if self.conclusion is True:
            return "pass"
        if self.hypotheses and not all(self.hypotheses.values()):
            return "skipped"
        return "undecided"

    def to_json_line(self) -> str:
        """The record as one JSON object, keys sorted, no spaces, ASCII only."""
        witness = "" if self.witness is None else ',"witness":' + _ENCODER.encode(self.witness)
        return (f'{{"conclusion":{_LITERALS[self.conclusion]}'
                f',"hypotheses":{_hypotheses_json(tuple(self.hypotheses.items()))}'
                f',"instance_id":{encode_basestring_ascii(self.instance_id)}'
                f',"lemma":{encode_basestring_ascii(self.lemma)}'
                f',"verdict":"{self.verdict}"{witness}}}')


def judge(lemma: str, instance_id: str, hypotheses: dict[str, bool],
          violation: Callable[[], dict[str, Any] | None]) -> VerificationRecord:
    """The one verdict rule: a false hypothesis skips; else a witness fails, None passes."""
    if not all(hypotheses.values()):
        return VerificationRecord(lemma, instance_id, hypotheses, None)
    witness = violation()
    return VerificationRecord(lemma, instance_id, hypotheses, witness is None, witness)


def record_from_json_line(line: str) -> VerificationRecord:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"malformed record line: {exc}") from exc
    if not isinstance(payload, dict):
        raise RecordError("record line is not an object")
    try:
        rec = VerificationRecord(
            lemma=payload["lemma"],
            instance_id=payload["instance_id"],
            hypotheses=payload["hypotheses"],
            conclusion=payload["conclusion"],
            witness=payload.get("witness"),
        )
    except KeyError as exc:
        raise RecordError(f"record line missing key {exc}") from exc
    if not (isinstance(rec.lemma, str) and isinstance(rec.instance_id, str)):
        raise RecordError("record lemma and instance_id must be strings")
    hyp = rec.hypotheses
    if not (isinstance(hyp, dict) and all(type(h) is bool for h in hyp.values())):
        raise RecordError("record hypotheses must be an object of booleans")
    if not (rec.conclusion is None or type(rec.conclusion) is bool):
        raise RecordError("record conclusion must be true, false or null")
    if not (rec.witness is None or isinstance(rec.witness, dict)):
        raise RecordError("record witness must be an object or null")
    stated = payload.get("verdict")
    if stated is not None and stated != rec.verdict:
        raise RecordError(f"stored verdict {stated!r} disagrees with fields")
    return rec


def read_records(path: str) -> Iterator[VerificationRecord]:
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield record_from_json_line(line)
            except RecordError as exc:
                raise RecordError(f"{path}:{lineno}: {exc}") from exc


def tally_verdicts(records: Iterable[VerificationRecord]) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0, "skipped": 0, "undecided": 0}
    for rec in records:
        counts[rec.verdict] += 1
    return counts
