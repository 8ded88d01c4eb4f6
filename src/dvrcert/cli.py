"""Command-line front end: parse job documents, run analyses, emit reports.

Input documents and machine reports are JSON with every exact scalar as a
string, never a native number, so downstream consumers cannot lose
precision.  Exit status: 0 = certified/complete, 1 = input error,
2 = refuted hypothesis, 3 = inconclusive.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from . import __version__
from .errors import (
    ClosureCapExceededError,
    JobSpecError,
    NotInRingError,
    NotInvertibleError,
)
from .certify import PARTIAL_CHECKS, certify, degree_identity_failures
from .groups import DEFAULT_CLOSURE_CAP, generate_group
from .linalg import RING_O, ExactMatrix
from .polys import molien_identity_failures
from .scalars import DvrDescriptor, parse_scalar

VALID_CHECKS = PARTIAL_CHECKS + ("certify",)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_CODES = {
    "certified": EXIT_OK,
    "complete": EXIT_OK,
    "refuted-hypothesis": EXIT_REFUTED,
    "inconclusive": EXIT_INCONCLUSIVE,
}


@dataclass(frozen=True)
class JobSpec:
    """Validated analysis request: the DVR, the generators, and the checks to run."""

    dvr: DvrDescriptor
    n: int
    generators: tuple  # ExactMatrix over O
    degree_bound: int | None
    closure_cap: int
    checks: tuple[str, ...]

    def serialize(self) -> dict:
        doc = {
            "dvr": {"kind": self.dvr.kind, "p": self.dvr.p},
            "n": self.n,
            "generators": [g.serialize() for g in self.generators],
            "closure_cap": self.closure_cap,
            "checks": list(self.checks),
        }
        if self.degree_bound is not None:
            doc["degree_bound"] = self.degree_bound
        return doc


def parse_jobspec(document) -> JobSpec:
    """Validate a job document (parsed JSON) and fill defaults."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"document is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise JobSpecError("top-level document must be a JSON object")

    known = {"dvr", "n", "generators", "degree_bound", "closure_cap", "checks"}
    for key in document:
        if key not in known:
            raise JobSpecError(f"{key}: unknown field")

    dvr_doc = document.get("dvr")
    if not isinstance(dvr_doc, dict):
        raise JobSpecError("dvr: required object with fields 'kind' and 'p'")
    try:
        descriptor = DvrDescriptor(dvr_doc.get("kind"), dvr_doc.get("p"))
    except ValueError as exc:
        raise JobSpecError(f"dvr: {exc}") from None

    n = document.get("n")
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise JobSpecError("n: required positive integer")

    gen_doc = document.get("generators")
    if not isinstance(gen_doc, list):
        raise JobSpecError("generators: required list of matrices")
    generators = []
    for gi, rows in enumerate(gen_doc):
        locus = f"generators[{gi}]"
        if not isinstance(rows, list) or len(rows) != n:
            raise JobSpecError(f"{locus}: expected {n} rows")
        parsed_rows = []
        for ri, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise JobSpecError(f"{locus}[{ri}]: expected {n} entries")
            parsed = []
            for ci, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise JobSpecError(
                        f"{locus}[{ri}][{ci}]: entries must be strings, got {cell!r}"
                    )
                try:
                    parsed.append(parse_scalar(descriptor, cell, integral=True))
                except NotInRingError:
                    raise JobSpecError(f"{locus}[{ri}][{ci}]: entry {cell!r} not in O") from None
                except ValueError as exc:
                    raise JobSpecError(f"{locus}[{ri}][{ci}]: {exc}") from None
            parsed_rows.append(parsed)
        generators.append(ExactMatrix(RING_O, descriptor, parsed_rows))

    degree_bound = document.get("degree_bound")
    if degree_bound is not None and (type(degree_bound) is not int or degree_bound < 0):
        raise JobSpecError("degree_bound: must be a nonnegative integer")

    closure_cap = document.get("closure_cap", DEFAULT_CLOSURE_CAP)
    if type(closure_cap) is not int or closure_cap < 1:
        raise JobSpecError("closure_cap: must be a positive integer")

    checks = document.get("checks", ["certify"])
    if not isinstance(checks, list) or not checks:
        raise JobSpecError("checks: must be a nonempty list")
    for c in checks:
        if c not in VALID_CHECKS:
            raise JobSpecError(f"checks: unknown check name {c!r}; valid: {VALID_CHECKS}")

    return JobSpec(descriptor, n, tuple(generators), degree_bound, closure_cap, tuple(checks))


def run(spec: JobSpec) -> tuple[dict, int]:
    """Build the group and run the requested checks; returns (report, exit code)."""
    started = time.perf_counter()
    report: dict = {
        "tool": "dvrcert",
        "tool_version": __version__,
        "jobspec": spec.serialize(),
    }
    try:
        group = generate_group(spec.generators, spec.dvr, spec.closure_cap, spec.n)
    except (NotInvertibleError, ClosureCapExceededError, ValueError) as exc:
        report["error"] = str(exc)
        return report, EXIT_INPUT_ERROR

    degree_bound = spec.degree_bound if spec.degree_bound is not None else group.order
    report["group_order"] = group.order
    report["degree_bound"] = degree_bound
    cert = certify(group, degree_bound, None if "certify" in spec.checks else spec.checks)
    report.update(cert.to_dict())
    report["timing_ms"] = int((time.perf_counter() - started) * 1000)
    return report, EXIT_CODES[cert.verdict]


# -- bundled example documents ----------------------------------------------------

EXAMPLES = {
    "s2": {
        "dvr": {"kind": "int-localized", "p": 3},
        "n": 2,
        "generators": [[["0", "1"], ["1", "0"]]],
        "checks": ["certify"],
    },
    "s3": {
        "dvr": {"kind": "int-localized", "p": 5},
        "n": 3,
        "generators": [
            [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
            [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
        ],
        "degree_bound": 6,
        "checks": ["certify"],
    },
    "b2": {
        "dvr": {"kind": "int-localized", "p": 3},
        "n": 2,
        "generators": [
            [["0", "1"], ["1", "0"]],
            [["1", "0"], ["0", "-1"]],
        ],
        "degree_bound": 8,
        "checks": ["certify"],
    },
    "c4-ratfunc": {
        "dvr": {"kind": "ratfunc-localized", "p": 5},
        "n": 1,
        "generators": [[["2"]]],
        "degree_bound": 4,
        "checks": ["certify"],
    },
}


# -- report re-verification ---------------------------------------------------------


def _positive_ints(value) -> bool:
    return isinstance(value, list) and all(type(x) is int and x > 0 for x in value)


def _malformed(report: dict) -> str | None:
    """Why a certified report's checked fields lack their documented shape, or None."""
    for key in ("fundamental_degrees_K", "fundamental_degrees_k"):
        if report.get(key) is not None and not _positive_ints(report[key]):
            return f"{key} is not a list of positive integers"
    if not isinstance(report.get("reflections", []), list):
        return "reflections is not a list"
    for key in ("graded_table", "h1"):
        rows = report.get(key, [])
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 3 and all(type(x) is int for x in row)
            for row in rows
        ):
            return f"{key} is not a list of [degree, dimension, dimension] rows"
    molien = report.get("molien", [])
    if not isinstance(molien, list) or not all(
        isinstance(c, str) and re.fullmatch(r"-?[0-9]+", c) for c in molien
    ):
        return "molien is not a list of integer strings"
    dvr = report.get("dvr")
    if not (isinstance(dvr, dict) and type(dvr.get("p")) is int and dvr["p"] > 1):
        return "dvr.p is not an integer above 1"
    return None


def verify_report(report) -> tuple[bool, list[str]]:
    """Recheck the numeric identities inside an emitted report.

    Works entirely from the report document: no invariants are recomputed.
    A document without the shape of a report is rejected with a finding.
    Returns (consistent, list of findings).
    """
    if not isinstance(report, dict):
        return False, ["report is not a JSON object"]
    findings: list[str] = []
    verdict = report.get("verdict")
    if verdict not in ("certified", "refuted-hypothesis", "inconclusive", "complete"):
        return False, [f"unknown verdict {verdict!r}"]
    if verdict != "certified":
        return True, [f"verdict {verdict}: no certificate identities to recheck"]
    problem = _malformed(report)
    if problem:
        return False, [f"malformed report: {problem}"]

    order = report.get("group_order")
    degrees_k_field = report.get("fundamental_degrees_K")
    degrees_res = report.get("fundamental_degrees_k")
    reflections = report.get("reflections", [])
    if degrees_k_field is None or degrees_res is None:
        findings.append("certified report is missing fundamental degrees")
        return False, findings
    if sorted(degrees_k_field) != sorted(degrees_res):
        findings.append("fundamental degrees over K and k differ")
    prod, excess = degree_identity_failures(degrees_k_field, order, len(reflections))
    if prod is not None:
        findings.append(f"degree product {prod} != group order {order}")
    if excess is not None:
        findings.append(f"degree excess {excess} != reflection count {len(reflections)}")

    graded = report.get("graded_table", [])
    for d, dim_frac, dim_res in graded:
        if dim_frac != dim_res:
            findings.append(f"graded table row {d}: {dim_frac} != {dim_res}")

    molien = [int(c) for c in report.get("molien", [])]
    if molien:
        if molien[0] != 1:
            findings.append("Molien constant term is not 1")
        off_dims, off_hilbert = molien_identity_failures(
            molien, bool(report.get("molien_mod_p")), report["dvr"]["p"],
            {d: dim for d, _, dim in graded}, degrees_k_field,
        )
        if off_hilbert:
            findings.append(f"Molien/Hilbert mismatch at degrees {off_hilbert}")
        findings.extend(
            f"Molien coefficient at degree {d} != graded dimension" for d in off_dims
        )

    for row in report.get("h1", []):
        if any(v != 0 for v in row[1:]):
            findings.append(f"certified report carries nonzero cohomology at degree {row[0]}")

    if report.get("lift_verified") is not True:
        findings.append("certified report without verified lifts")
    for key in ("hypothesis_ok", "eta_injective", "reduced_reflection_generated",
                "reflection_generated", "graded_ok", "h1_ok",
                "molien_vs_dimensions_ok", "molien_vs_hilbert_ok"):
        if report.get(key) is not True:
            findings.append(f"certified report with failed sub-check {key}")

    return not findings, findings


# -- rendering -----------------------------------------------------------------------


def render_text(report: dict) -> str:
    lines = [f"dvrcert {report.get('tool_version', '')}".rstrip()]
    spec = report.get("jobspec", {})
    dvr = spec.get("dvr", report.get("dvr", {}))
    lines.append(
        f"ring: {dvr.get('kind')} with p = {dvr.get('p')}, n = {spec.get('n', report.get('n'))}"
    )
    if "error" in report:
        lines.append(f"error: {report['error']}")
        return "\n".join(lines) + "\n"
    lines.append(f"group order: {report.get('group_order')}")
    if "reflections" in report:
        refl = report["reflections"]
        lines.append(f"pseudo-reflections: {len(refl)}")
        for entry in refl:
            lines.append(
                f"  element {entry['index']}: lambda = {entry['lambda']}, order {entry['order']}"
            )
    for key, label in (
        ("reflection_generated", "generated by pseudo-reflections"),
        ("eta_injective", "reduction map injective"),
        ("reduced_reflection_generated", "reduced group reflection-generated"),
        ("graded_ok", "graded dimensions match"),
        ("molien_vs_dimensions_ok", "Molien matches dimensions"),
        ("molien_vs_hilbert_ok", "Molien matches degree product"),
        ("h1_ok", "low-degree H^1 vanishes (exact cross-check; K piece <= k piece)"),
        ("lift_verified", "lifts verified"),
    ):
        if key in report and report[key] is not None:
            lines.append(f"{label}: {'yes' if report[key] else 'NO'}")
    if report.get("fundamental_degrees_K") is not None:
        lines.append(f"fundamental degrees over K: {report['fundamental_degrees_K']}")
    if report.get("fundamental_degrees_k") is not None:
        lines.append(f"fundamental degrees over k: {report['fundamental_degrees_k']}")
    if report.get("molien"):
        lines.append(f"Molien coefficients: {report['molien']}")
    lines.append(f"verdict: {report.get('verdict')}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> bool:
    """Write the text to the output path, or stdout; False (reported) if it cannot."""
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return False
    return True


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dvrcert",
        description="Exact certificates for pseudo-reflection groups over a DVR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run checks from a job document")
    p_analyze.add_argument("--input", required=True, help="job JSON path ('-' for stdin)")
    p_analyze.add_argument("--output", help="write the report here instead of stdout")
    p_analyze.add_argument("--degree-bound", type=int, help="override the degree bound")
    p_analyze.add_argument("--checks", help="comma-separated subset of checks")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")

    p_example = sub.add_parser("example", help="emit a bundled job document")
    p_example.add_argument("name", choices=sorted(EXAMPLES))
    p_example.add_argument("--output")

    p_verify = sub.add_parser("verify-report", help="recheck identities in a report")
    p_verify.add_argument("--input", required=True, help="report JSON path ('-' for stdin)")

    args = parser.parse_args(argv)

    if args.command == "example":
        ok = _emit(json.dumps(EXAMPLES[args.name], indent=2) + "\n", args.output)
        return EXIT_OK if ok else EXIT_INPUT_ERROR

    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_INPUT_ERROR

    if args.command == "verify-report":
        try:
            report = json.loads(raw)
        except json.JSONDecodeError as exc:
            sys.stderr.write(f"report is not valid JSON: {exc}\n")
            return EXIT_INPUT_ERROR
        ok, findings = verify_report(report)
        for f in findings:
            print(f)
        print("report consistent" if ok else "report INCONSISTENT")
        return EXIT_OK if ok else EXIT_INPUT_ERROR

    # analyze
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"input is not valid JSON: {exc}\n")
        return EXIT_INPUT_ERROR
    if isinstance(doc, dict):  # anything else is rejected by parse_jobspec
        if args.degree_bound is not None:
            doc["degree_bound"] = args.degree_bound
        if args.checks:
            doc["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
    try:
        spec = parse_jobspec(doc)
    except JobSpecError as exc:
        sys.stderr.write(f"invalid job document: {exc}\n")
        return EXIT_INPUT_ERROR

    report, code = run(spec)
    text = render_text(report) if args.format == "text" else render_json(report)
    return code if _emit(text, args.output) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
