"""Reports of fixed jobs, byte for byte apart from `timing_ms`.

`golden_reports.json` holds, for every job below and every check set
(`certify`, each partial check alone, all partial checks together), the
exit code and the report `render_json` prints.  Regenerate it after an
intended report change with `PYTHONPATH=src python tests/test_golden_reports.py`
and review the diff.
"""
import json
from pathlib import Path

import pytest

from dvrcert.cli import EXAMPLES, parse_jobspec, render_json, run

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

JOBS = {
    "s2": EXAMPLES["s2"],
    "s3": EXAMPLES["s3"],
    "b2": EXAMPLES["b2"],
    "c4-ratfunc": EXAMPLES["c4-ratfunc"],
    # controls: 2 divides |S_2|, and -I is no reflection group
    "s2-z2": {
        "dvr": {"kind": "int-localized", "p": 2},
        "n": 2,
        "generators": [[["0", "1"], ["1", "0"]]],
    },
    "neg-identity-z23": {
        "dvr": {"kind": "int-localized", "p": 23},
        "n": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
    },
}

PARTIAL = ("reflections", "eta", "basis", "molien", "invariants", "graded", "h1")
CHECK_SETS = (("certify",),) + tuple((c,) for c in PARTIAL) + (PARTIAL,)


def _key(job: str, checks) -> str:
    return f"{job}:{','.join(checks)}"


def report_of(job: str, checks) -> dict:
    doc = dict(JOBS[job], checks=list(checks))
    report, code = run(parse_jobspec(doc))
    report.pop("timing_ms")
    return {"exit_code": code, "report": report}


def _load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_reports_match_golden(job):
    golden = _load()
    for checks in CHECK_SETS:
        key = _key(job, checks)
        expected = golden[key]
        actual = report_of(job, checks)
        assert actual["exit_code"] == expected["exit_code"], key
        assert render_json(actual["report"]) == render_json(expected["report"]), key


def test_golden_covers_every_job_and_check_set():
    assert set(_load()) == {_key(j, c) for j in JOBS for c in CHECK_SETS}


if __name__ == "__main__":
    entries = {_key(j, c): report_of(j, c) for j in JOBS for c in CHECK_SETS}
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
