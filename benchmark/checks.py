"""Correctness checks on the reports the benchmark collects.

A job passes when its verdict, exit code and checked values equal the
recorded expectation and `verify_report` accepts its report.  Only the
fields an expectation records are compared.  Conjugating a group by a
basis change of O^n changes none of the CHECKED_FIELDS, so the conjugated
jobs of a batch share the expectation of the group as given.  The two
single-job workloads, never conjugated, record the STRUCTURE_FIELDS as
well: `verify_report` rechecks nothing in a report that is not
`certified`, so on `wb4-int-checks` these fields are all that checks the
reflection, reduction and basis stages.
"""
from __future__ import annotations

import json
from pathlib import Path

EXPECTATIONS_PATH = Path(__file__).with_name("expectations.json")

# Report fields compared against the expectation, besides the verdict.
CHECKED_FIELDS = (
    "group_order",
    "fundamental_degrees_K",
    "fundamental_degrees_k",
    "graded_table",
    "molien",
    "h1",
)

# Further fields recorded for the fixed jobs.  `bases_verified` is the
# (index, verified) pair of each basis: the vectors themselves are one
# choice among many, so they are not compared.
STRUCTURE_FIELDS = (
    "reflections",
    "reflection_generated",
    "eta_injective",
    "reduced_reflection_generated",
    "bases_verified",
    "molien_mod_p",
)

# Report keys that may differ between two runs of one job: wall-clock time,
# and the per-stage profile the reports are planned to carry.
VOLATILE_KEYS = ("timing_ms", "profile")


def load_expectations(path: Path = EXPECTATIONS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expectation_of(report: dict, exit_code: int) -> dict:
    """The part of a report that the checks compare."""
    out = {"verdict": report.get("verdict"), "exit_code": exit_code}
    out.update({name: report.get(name) for name in CHECKED_FIELDS + STRUCTURE_FIELDS})
    if "bases" in report:
        out["bases_verified"] = [[b["index"], b["verified"]] for b in report["bases"]]
    return out


def job_problems(expected: dict, report: dict, exit_code: int, consistent: bool) -> list[str]:
    """Why a job's outcome differs from its expectation; empty when it passes."""
    actual = expectation_of(report, exit_code)
    problems = [
        f"{name}: expected {expected[name]!r}, got {actual.get(name)!r}"
        for name in expected
        if actual.get(name) != expected[name]
    ]
    if not consistent:
        problems.append("verify_report rejects the report")
    return problems


def stable_text(report_text: str) -> str:
    """The report without its volatile keys, in the layout `render_json` uses."""
    report = json.loads(report_text)
    for key in VOLATILE_KEYS:
        report.pop(key, None)
    return json.dumps(report, indent=2) + "\n"
