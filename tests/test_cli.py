import copy
import json
import time

import pytest

from dvrcert.cli import (
    EXAMPLES,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_REFUTED,
    main,
    parse_jobspec,
    render_text,
    run,
    verify_report,
)
from dvrcert.errors import JobSpecError

MINIMAL_S2 = {
    "dvr": {"kind": "int-localized", "p": 3},
    "n": 2,
    "generators": [[["0", "1"], ["1", "0"]]],
}


def test_parse_minimal_document_fills_defaults():
    spec = parse_jobspec(MINIMAL_S2)
    assert spec.degree_bound is None  # resolved to |G| at run time
    assert spec.closure_cap == 20000
    assert spec.checks == ("certify",)
    report, code = run(spec)
    assert code == EXIT_OK
    assert report["degree_bound"] == 2
    assert report["verdict"] == "certified"


def test_parse_rejects_composite_p():
    doc = copy.deepcopy(MINIMAL_S2)
    doc["dvr"]["p"] = 4
    with pytest.raises(JobSpecError, match="prime"):
        parse_jobspec(doc)


def test_parse_rejects_entry_outside_ring():
    doc = copy.deepcopy(MINIMAL_S2)
    doc["generators"][0][0][0] = "1/3"
    with pytest.raises(JobSpecError, match=r"generators\[0\]\[0\]\[0\]"):
        parse_jobspec(doc)


def test_parse_rejects_non_square_generators():
    doc = copy.deepcopy(MINIMAL_S2)
    doc["generators"][0] = [["0", "1"]]
    with pytest.raises(JobSpecError, match="rows"):
        parse_jobspec(doc)


def test_parse_rejects_unknown_checks_and_fields():
    doc = copy.deepcopy(MINIMAL_S2)
    doc["checks"] = ["certify", "frobenius"]
    with pytest.raises(JobSpecError, match="frobenius"):
        parse_jobspec(doc)
    doc = copy.deepcopy(MINIMAL_S2)
    doc["extra"] = 1
    with pytest.raises(JobSpecError, match="extra"):
        parse_jobspec(doc)


def test_parse_rejects_numeric_entries():
    doc = copy.deepcopy(MINIMAL_S2)
    doc["generators"][0][0][0] = 0
    with pytest.raises(JobSpecError, match="strings"):
        parse_jobspec(doc)
    # JSON booleans are Python ints, but not integers of the job document
    one_by_one = {"dvr": MINIMAL_S2["dvr"], "n": 1, "generators": [[["1"]]]}
    for key in ("n", "degree_bound", "closure_cap"):
        with pytest.raises(JobSpecError, match=f"^{key}:"):
            parse_jobspec(dict(one_by_one, **{key: True}))


def test_parse_rejects_exponent_entries_at_once():
    # "1e999999999" would be 10^999999999 if exponents were accepted
    doc = copy.deepcopy(MINIMAL_S2)
    doc["generators"][0][0][0] = "1e999999999"
    started = time.perf_counter()
    with pytest.raises(JobSpecError, match=r"generators\[0\]\[0\]\[0\]: malformed"):
        parse_jobspec(doc)
    assert time.perf_counter() - started < 1.0


def test_jobspec_round_trip():
    for name, doc in EXAMPLES.items():
        spec = parse_jobspec(doc)
        assert parse_jobspec(spec.serialize()) == spec


def test_reports_are_deterministic():
    spec = parse_jobspec(EXAMPLES["b2"])
    report1, _ = run(spec)
    report2, _ = run(spec)
    report1.pop("timing_ms")
    report2.pop("timing_ms")
    assert json.dumps(report1) == json.dumps(report2)


def test_exit_codes():
    report, code = run(parse_jobspec(EXAMPLES["s3"]))
    assert code == EXIT_OK and report["verdict"] == "certified"

    refuted = {
        "dvr": {"kind": "int-localized", "p": 2},
        "n": 2,
        "generators": [[["0", "1"], ["1", "0"]]],
    }
    report, code = run(parse_jobspec(refuted))
    assert code == EXIT_REFUTED and report["verdict"] == "refuted-hypothesis"

    inconclusive = {
        "dvr": {"kind": "int-localized", "p": 23},
        "n": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
    }
    report, code = run(parse_jobspec(inconclusive))
    assert code == EXIT_INCONCLUSIVE and report["verdict"] == "inconclusive"
    assert report["eta_injective"] is True
    assert report["reflection_generated"] is False

    # a group that cannot be built, from a generator outside GL_n(O) over
    # either DVR or a closure over its cap, is an input error in the report,
    # which has no verdict
    for doc, error in (
        ({"dvr": {"kind": "int-localized", "p": 5}, "n": 1, "generators": [[["5"]]]},
         "generator 0 is not in GL_n(O): determinant 5 is not a unit"),
        ({"dvr": {"kind": "ratfunc-localized", "p": 5}, "n": 1, "generators": [[["t"]]]},
         "generator 0 is not in GL_n(O): determinant 1*t^1 is not a unit"),
        (dict(EXAMPLES["s3"], closure_cap=2),
         "closure exceeded 2 elements; group too large or infinite"),
    ):
        report, code = run(parse_jobspec(doc))
        assert code == EXIT_INPUT_ERROR
        assert report["error"] == error
        assert "verdict" not in report
        assert render_text(report).endswith(f"\nerror: {error}\n")


def test_partial_checks():
    doc = copy.deepcopy(EXAMPLES["b2"])
    doc["checks"] = ["reflections", "eta", "molien", "graded"]
    report, code = run(parse_jobspec(doc))
    assert code == EXIT_OK
    assert report["verdict"] == "complete"
    assert len(report["reflections"]) == 4
    assert report["eta_injective"] is True
    assert report["graded_ok"] is True
    assert "lift_verified" not in report


S2_Z2 = {
    "dvr": {"kind": "int-localized", "p": 2},
    "n": 2,
    "generators": [[["0", "1"], ["1", "0"]]],
}


def test_partial_checks_respect_hypothesis_gate():
    for check in ("eta", "basis", "molien", "invariants", "graded"):
        report, code = run(parse_jobspec(dict(S2_Z2, checks=[check])))
        assert code == EXIT_REFUTED, check
        assert report["verdict"] == "refuted-hypothesis", check
        assert "averaging over the group is impossible" in report["error"], check
    # ungated: a nonzero H^1 is the diagnostic for the failing hypothesis
    for check in ("reflections", "h1"):
        report, code = run(parse_jobspec(dict(S2_Z2, checks=[check])))
        assert code == EXIT_OK and report["verdict"] == "complete", check


def test_verify_report_accepts_valid_certificates():
    report, _ = run(parse_jobspec(EXAMPLES["s3"]))
    ok, findings = verify_report(report)
    assert ok, findings
    report, _ = run(parse_jobspec(EXAMPLES["c4-ratfunc"]))
    ok, findings = verify_report(report)
    assert ok, findings


def test_verify_report_catches_tampering():
    report, _ = run(parse_jobspec(EXAMPLES["s3"]))
    for mutate in (
        lambda r: r.update(fundamental_degrees_K=[1, 2, 4]),
        lambda r: r["graded_table"].__setitem__(2, [2, 2, 3]),
        lambda r: r["molien"].__setitem__(3, "9"),
        lambda r: r["h1"].__setitem__(0, [0, 1, 0]),
        lambda r: r.update(lift_verified=False),
        # malformed documents: each used to raise instead of being rejected
        lambda r: r.update(fundamental_degrees_K=[-1, 2, 3]),
        lambda r: r["molien"].__setitem__(1, "x"),
        lambda r: r["graded_table"].__setitem__(1, [1, 1]),
        lambda r: r.update(fundamental_degrees_k=6),
    ):
        tampered = copy.deepcopy(report)
        mutate(tampered)
        ok, findings = verify_report(tampered)
        assert not ok and findings
    for mutate, finding in (
        (lambda r: r.update(verdict="proved"), "unknown verdict 'proved'"),
        (lambda r: r.pop("fundamental_degrees_k"),
         "certified report is missing fundamental degrees"),
        (lambda r: r["molien"].__setitem__(0, "2"), "Molien constant term is not 1"),
        (lambda r: r.update(graded_ok=False),
         "certified report with failed sub-check graded_ok"),
    ):
        tampered = copy.deepcopy(report)
        mutate(tampered)
        ok, findings = verify_report(tampered)
        assert ok is False and finding in findings, (finding, findings)
    # a report that certifies nothing has no identities to recheck
    assert verify_report(dict(report, verdict="inconclusive")) == (
        True, ["verdict inconclusive: no certificate identities to recheck"])
    assert verify_report([report]) == (False, ["report is not a JSON object"])


def test_verify_report_compares_the_molien_series_with_the_k_column():
    # the int kind's K column is the Molien series itself, so the Molien
    # identity is checked against the column over k, an elimination over
    # F_p: changing that column alone is found twice, as a graded row whose
    # two dimensions differ and as a Molien coefficient off its dimension
    report, _ = run(parse_jobspec(EXAMPLES["s3"]))
    assert [row[1] for row in report["graded_table"]] == [int(c) for c in report["molien"]]
    tampered = copy.deepcopy(report)
    tampered["graded_table"][2][2] += 1
    ok, findings = verify_report(tampered)
    assert not ok
    assert "Molien coefficient at degree 2 != graded dimension" in findings
    assert "graded table row 2: 2 != 3" in findings


def test_main_analyze_and_example(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(EXAMPLES["s2"]))
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", str(job), "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["verdict"] == "certified"
    assert report["fundamental_degrees_K"] == [1, 2]

    assert main(["example", "s3"]) == EXIT_OK
    emitted = json.loads(capsys.readouterr().out)
    assert emitted == EXAMPLES["s3"]

    assert main(["verify-report", "--input", str(out)]) == EXIT_OK
    report["molien"][0] = "x"
    for malformed in ([], report):
        out.write_text(json.dumps(malformed))
        assert main(["verify-report", "--input", str(out)]) == EXIT_INPUT_ERROR
    assert "report INCONSISTENT" in capsys.readouterr().out
    out.write_text("{not json")
    assert main(["verify-report", "--input", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("report is not valid JSON: ")


def test_main_rejects_bad_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--input", str(bad)]) == EXIT_INPUT_ERROR
    bad.write_text(json.dumps({"dvr": {"kind": "int-localized", "p": 4}, "n": 1,
                               "generators": [[["1"]]]}))
    assert main(["analyze", "--input", str(bad)]) == EXIT_INPUT_ERROR
    # a 27-digit Mersenne prime is refused by its size, not by trial division
    bad.write_text(json.dumps({"dvr": {"kind": "int-localized", "p": 2**89 - 1}, "n": 1,
                               "generators": [[["1"]]]}))
    started = time.perf_counter()
    assert main(["analyze", "--input", str(bad)]) == EXIT_INPUT_ERROR
    assert time.perf_counter() - started < 2.0
    assert "below 2^64" in capsys.readouterr().err
    # an 11-byte exponent is refused before a coefficient list is allocated
    bad.write_text(json.dumps({"dvr": {"kind": "ratfunc-localized", "p": 5}, "n": 1,
                               "generators": [[["t^999999999"]]]}))
    started = time.perf_counter()
    assert main(["analyze", "--input", str(bad)]) == EXIT_INPUT_ERROR
    assert time.perf_counter() - started < 2.0
    capsys.readouterr()
    bad.write_text("[1, 2]")
    for flags in (["--degree-bound", "3"], ["--checks", "h1"]):
        assert main(["analyze", "--input", str(bad), *flags]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "invalid job document: top-level document must be a JSON object\n"
        )
    # unreadable input and unwritable output: one line, no traceback
    bad.write_bytes(b"\xff\xfe{")
    assert main(["analyze", "--input", str(bad)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("cannot read input: ")
    job = tmp_path / "job.json"
    job.write_text(json.dumps(EXAMPLES["s2"]))
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (["analyze", "--input", str(job)], ["example", "s2"]):
        assert main([*argv, "--output", missing]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1


def test_main_text_format(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(EXAMPLES["b2"]))
    assert main(["analyze", "--input", str(job), "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "verdict: certified" in text
    assert "fundamental degrees over K: [2, 4]" in text


def test_checks_flag_overrides(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(EXAMPLES["s2"]))
    out = tmp_path / "report.json"
    assert main([
        "analyze", "--input", str(job), "--output", str(out), "--checks", "reflections,h1",
    ]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["verdict"] == "complete"
    assert "h1" in report and "molien" not in report
