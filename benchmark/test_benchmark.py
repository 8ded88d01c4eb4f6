"""Tests of the benchmark itself: run with `PYTHONPATH=src python -m pytest -q benchmark`."""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def dvrcert():
    return run.fresh_dvrcert()


def batch_job(key: str, conjugated: bool, seed: int = 3) -> tuple[str, str]:
    for group_key, kind, p, gens, bound, _ in workloads.BATCH_GROUPS:
        if group_key == key:
            if conjugated:
                gens = workloads.conjugate_generators(kind, p, gens, random.Random(seed))
            return key, json.dumps(workloads._doc(kind, p, gens, degree_bound=bound))
    raise KeyError(key)


def test_generator_is_deterministic_for_a_seed():
    assert workloads.small_batch(7, 0) == workloads.small_batch(7, 0)
    assert workloads.small_batch(7, 0) != workloads.small_batch(8, 0)
    assert workloads.small_batch(7, 0) != workloads.small_batch(7, 1)


def test_batch_has_every_group_as_given_and_conjugated():
    jobs = workloads.small_batch(5, 0)
    keys = Counter(key for key, _ in jobs)
    assert keys == {key: 1 + copies for key, *_, copies in workloads.BATCH_GROUPS}
    given = {json.dumps(workloads._doc(kind, p, gens, degree_bound=bound))
             for _, kind, p, gens, bound, _ in workloads.BATCH_GROUPS}
    for _, doc in jobs:
        if doc["dvr"]["kind"] == workloads.RATFUNC and doc["n"] > 1 and json.dumps(doc) not in given:
            assert "t^" in json.dumps(doc["generators"])  # non-constant basis change


@pytest.mark.parametrize("kind,p,n", [(workloads.INT, 5, 3), (workloads.RATFUNC, 7, 3)])
def test_basis_change_is_invertible_over_O(kind, p, n):
    ring = workloads._IntRing() if kind == workloads.INT else workloads._PolyRing(p)
    rng = random.Random(11)
    for _ in range(5):
        a, a_inv = workloads.random_unimodular(ring, n, rng)
        identity = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        assert workloads._matmul(ring, a, a_inv) == identity
        assert workloads._matmul(ring, a_inv, a) == identity


def test_conjugated_jobs_meet_the_expectation_of_the_group():
    expectations = checks.load_expectations()
    jobs = [batch_job(key, conjugated) for key in ("s2-z3", "b2-z3", "c4-f5t", "s2-z2", "negid-z23")
            for conjugated in (False, True)]
    _, results = run.run_pass(jobs)
    assert run.pass_failures(jobs, results, expectations, {}) == []


def test_traced_run_gives_the_same_report_as_an_untraced_one():
    jobs = [batch_job("s3-z5", True), batch_job("c4-f5t", False)]
    _, plain = run.run_pass(jobs)
    tracer = spans.SpanTracer()
    undo = spans.install_spans(tracer)
    try:
        _, traced = run.run_pass(jobs)
    finally:
        undo()
    counts = Counter()
    undo = spans.install_ratfunc_counters(counts)
    try:
        _, counted = run.run_pass(jobs)
    finally:
        undo()
    for a, b, c in zip(plain, traced, counted):
        assert checks.stable_text(a[0]) == checks.stable_text(b[0]) == checks.stable_text(c[0])
        assert a[1:] == b[1:] == c[1:]
    metrics = run.layer_metrics(tracer, counts, 1.0)
    assert metrics["certify.h1_calls"] == 2 * (3 + 1) + 2 * (4 + 1)  # d = 0..bound, K and k
    assert metrics["certify.h1_incl_s"] >= metrics["certify.h1_s"] > 0
    assert metrics["cli.parse_s"] > 0 and metrics["groups.elements"] == 6 + 4
    assert metrics["ratfunc.make_calls"] > 0 and metrics["ratfunc.gcd_calls"] > 0


def test_spans_are_removed_after_the_traced_pass(dvrcert):
    certify_module = sys.modules["dvrcert.certify"]
    before = (certify_module.invariant_basis, sys.modules["dvrcert.cli"].parse_jobspec)
    undo = spans.install_spans(spans.SpanTracer())
    assert certify_module.invariant_basis is not before[0]
    assert sys.modules["dvrcert.polys"].invariant_basis is certify_module.invariant_basis
    undo()
    assert (certify_module.invariant_basis, sys.modules["dvrcert.cli"].parse_jobspec) == before


def tampered(report: dict, edit) -> str:
    report = json.loads(json.dumps(report))
    edit(report)
    return json.dumps(report, indent=2) + "\n"


def test_check_flags_a_tampered_report():
    expectations = checks.load_expectations()
    key, document = batch_job("s3-z5", False)
    text, code, _ = run.run_job(document)
    report = json.loads(text)
    cli = sys.modules["dvrcert.cli"]

    def problems(new_text, new_code=code):
        consistent, _ = cli.verify_report(json.loads(new_text))
        return checks.job_problems(expectations[key], json.loads(new_text), new_code, consistent)

    assert problems(text) == []

    def edit_graded(r):
        r["graded_table"][2][2] += 1

    def flip_verdict(r):
        r["verdict"] = "inconclusive"

    def drop_h1(r):
        r["h1"] = r["h1"][:-1]

    for edit in (edit_graded, flip_verdict, drop_h1):
        assert problems(tampered(report, edit)), edit.__name__
    assert problems(text, new_code=3)


def test_check_flags_a_tampered_structure_report():
    """On wb4 `verify_report` accepts anything that is not certified, so the
    recorded structure fields must catch a wrong reflection or basis stage."""
    expected = checks.load_expectations()["wb4"]
    report = {name: expected[name] for name in checks.CHECKED_FIELDS + checks.STRUCTURE_FIELDS}
    report.update(verdict=expected["verdict"], timing_ms=1)
    report["bases"] = [
        {"index": i, "verified": v, "vectors": []} for i, v in report.pop("bases_verified")
    ]
    assert checks.job_problems(expected, report, 0, True) == []

    def drop_reflection(r):
        r["reflections"] = r["reflections"][1:]

    def move_reflection(r):
        r["reflections"][-1]["index"] += 1

    def flip_generated(r):
        r["reduced_reflection_generated"] = False

    def unverify_basis(r):
        r["bases"][3]["verified"] = False

    def drop_eta(r):
        del r["eta_injective"]

    for edit in (drop_reflection, move_reflection, flip_generated, unverify_basis, drop_eta):
        edited = json.loads(tampered(report, edit))
        assert checks.job_problems(expected, edited, 0, True), edit.__name__


def test_a_report_that_changes_between_runs_of_a_job_fails():
    jobs = [batch_job("s2-z3", False)]
    _, results = run.run_pass(jobs)
    expectations = checks.load_expectations()
    assert run.pass_failures(jobs, results, expectations, {}) == []
    assert run.pass_failures(jobs, results, expectations, {jobs[0][1]: "an earlier report"})


def test_stable_text_ignores_only_volatile_keys():
    base = {"verdict": "certified", "timing_ms": 5, "profile": {"h1": 1.0}}
    same = dict(base, timing_ms=9, profile={"h1": 2.0})
    other = dict(base, verdict="inconclusive")
    assert checks.stable_text(json.dumps(base)) == checks.stable_text(json.dumps(same))
    assert checks.stable_text(json.dumps(base)) != checks.stable_text(json.dumps(other))


def hilbert_series(degrees, bound):
    out = [1] + [0] * bound
    for d in degrees:
        for i in range(d, bound + 1):
            out[i] += out[i - d]
    return out


def test_expectations_agree_with_the_theory():
    """Degree product = |G|, and Molien = graded dimensions = prod 1/(1 - z^d_i)."""
    expectations = checks.load_expectations()
    ratfunc_keys = {key for key, kind, *_ in workloads.BATCH_GROUPS if kind == workloads.RATFUNC}
    ratfunc_keys.add("g412")
    primes = {key: p for key, _, p, *_ in workloads.BATCH_GROUPS}
    primes.update(g412=5)
    wb4_degrees = (2, 4, 6, 8)
    for key, want in expectations.items():
        degrees = want["fundamental_degrees_K"] or (wb4_degrees if key == "wb4" else None)
        if degrees is None:
            assert want["verdict"] in ("refuted-hypothesis", "inconclusive")
            continue
        order = 1
        for d in degrees:
            order *= d
        assert order == want["group_order"], key
        molien = [int(c) for c in want["molien"]]
        hilbert = hilbert_series(degrees, len(molien) - 1)
        if key in ratfunc_keys:
            hilbert = [c % primes[key] for c in hilbert]
        assert molien == hilbert, key
        for d, dim_k_field, dim_res in want["graded_table"] or []:
            assert dim_k_field == dim_res == hilbert_series(degrees, d)[d], key
        assert all(row[1:] == [0, 0] for row in want["h1"] or []), key
        if "reflections" in want:  # a reflection group: sum(d_i - 1) reflections
            assert len(want["reflections"]) == sum(d - 1 for d in degrees), key
            indices = [r["index"] for r in want["reflections"]]
            assert want["bases_verified"] == [[i, True] for i in indices], key
            assert want["reflection_generated"] is want["eta_injective"] is True, key
            assert want["reduced_reflection_generated"] is True, key


def test_setup_runs_in_a_new_interpreter():
    assert run.setup_seconds("small-batch-conjugated", 1) > 0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = run.layer_metrics(spans.SpanTracer(), Counter(), 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layer_names
    }


def test_run_without_the_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "g412-ratfunc-deg32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
