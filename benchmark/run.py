"""Benchmark of dvrcert's `analyze` path on three workloads.

Run from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all       # every workload, both modes

A run is one single-threaded process with one job in flight (a closed
loop).  Each job runs on a dvrcert imported afresh just before it and goes
through the public CLI path: `parse_jobspec` on the JSON text, `run`,
`render_json`, and `verify_report` on the parsed report.  The run repeats
passes over the workload's jobs until another pass would end after
`--seconds`, and checks every report against `expectations.json`.  Before
the first pass it times SETUP_SAMPLES set-ups, one after another, each in
a new interpreter, as a `dvrcert analyze` process starts.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one pass
with spans around each layer and one pass counting RatFunc calls, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; the exit code is 0 only if every job passed its checks.
LAYER_MAP.md defines the metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 11  # set-ups timed per run; setup_s is their median

# One set-up: interpreter start, `import dvrcert`, and the job documents of
# the first pass built, up to the point where the first job is submitted.
SETUP_CHILD = """\
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import dvrcert
import workloads
[json.dumps(doc) for _, doc in workloads.build({workload!r}, {seed!r}, 0)]
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def fresh_dvrcert():
    """Import dvrcert afresh from the checkout's src/, as a new process would,
    and check that it came from there."""
    for name in [n for n in sys.modules if n.split(".")[0] == "dvrcert"]:
        del sys.modules[name]
    gc.collect()  # free the dropped modules' caches
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("dvrcert")
    if Path(package.__file__).resolve().parent != SRC / "dvrcert":
        raise ImportError(f"dvrcert was imported from {package.__file__}, not from {SRC}")
    return package


def build_pass(workload: str, seed: int, index: int) -> list[tuple[str, str]]:
    """The (expectation key, JSON text) jobs of one pass."""
    return [(key, json.dumps(doc)) for key, doc in workloads.build(workload, seed, index)]


def run_job(document: str) -> tuple[str, int, bool]:
    """One job through the CLI path: (report text, exit code, verify_report verdict)."""
    cli = sys.modules["dvrcert.cli"]  # looked up per call, so installed spans apply
    spec = cli.parse_jobspec(document)
    report, code = cli.run(spec)
    text = cli.render_json(report)
    consistent, _ = cli.verify_report(json.loads(text))
    return text, code, consistent


def run_pass(jobs, before_job=lambda: None) -> tuple[list[float], list]:
    """Run the jobs one after another: (per-job times, results)."""
    times, results = [], []
    for _, document in jobs:
        before_job()
        start = time.perf_counter()
        results.append(run_job(document))
        times.append(time.perf_counter() - start)
    return times, results


def pass_failures(jobs, results, expectations: dict, seen: dict) -> list[str]:
    """One line per failed job.  `seen` maps each job document to its stable
    report text, so a job run twice must give the same report."""
    failures = []
    for (key, document), (text, code, consistent) in zip(jobs, results):
        problems = checks.job_problems(expectations[key], json.loads(text), code, consistent)
        stable = checks.stable_text(text)
        if seen.setdefault(document, stable) != stable:
            problems.append("report differs from an earlier run of the same job")
        if problems:
            failures.append(f"{key}: " + "; ".join(problems))
    return failures


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one set-up in a new interpreter, which has ended on return."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def timed_run(workload: str, seed: int, seconds: float, expectations: dict):
    """Set-ups, then passes until another would end after `seconds`; medians."""
    start = time.perf_counter()
    setup_times = [setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES)]
    walls, job_times, failures, seen = [], [], [], {}
    attempted = 0
    index = 0
    while True:
        pass_start = time.perf_counter()
        jobs = build_pass(workload, seed, index)
        # every job runs on a dvrcert imported just before it, as in a new
        # `dvrcert analyze` process
        times, results = run_pass(jobs, fresh_dvrcert)
        walls.append(sum(times))
        job_times += times
        attempted += len(jobs)
        failures += pass_failures(jobs, results, expectations, seen)
        index += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib(),
    }
    # printed for reading only: see LAYER_MAP.md on why it is no benchmark metric
    printed = [f"job_p50_s {statistics.median(job_times)} s", f"passes {len(walls)} count"]
    return metrics, END_TO_END_UNITS, attempted, failures, printed


def layer_metrics(tracer: spans.SpanTracer, counts: Counter, traced_wall: float) -> dict:
    metrics = tracer.metrics()
    metrics["ratfunc.make_calls"] = counts["ratfunc.make_calls"]
    metrics["ratfunc.gcd_calls"] = counts["ratfunc.gcd_calls"]
    metrics["trace.wall_s"] = traced_wall
    return metrics


def traced_run(workload: str, seed: int, expectations: dict):
    fresh_dvrcert()
    jobs = build_pass(workload, seed, 0)
    seen: dict = {}
    tracer = spans.SpanTracer()
    undo = spans.install_spans(tracer)
    try:
        times, results = run_pass(jobs)
    finally:
        undo()
    failures = pass_failures(jobs, results, expectations, seen)
    counts: Counter = Counter()
    undo = spans.install_ratfunc_counters(counts)
    try:
        _, results = run_pass(jobs)
    finally:
        undo()
    failures += pass_failures(jobs, results, expectations, seen)
    metrics = layer_metrics(tracer, counts, sum(times))
    units = {name: per_layer_unit(name) for name in metrics}
    return metrics, units, 2 * len(jobs), failures, ["passes 2 count"]


def result_line(metrics: dict, units: dict, attempted: int, failures: list) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    expectations = checks.load_expectations()
    if trace:
        metrics, units, attempted, failures, printed = traced_run(workload, seed, expectations)
    else:
        metrics, units, attempted, failures, printed = timed_run(workload, seed, seconds, expectations)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {workload} seed={seed} trace={int(trace)}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print("\n".join(printed))
    print(f"failed_ratio {len(failures) / attempted} fraction")
    print(result_line(metrics, units, attempted, failures))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    status = 0
    for workload in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines() or [""]
            print("\n".join(lines[:-1]), flush=True)
            try:
                results[trace] = json.loads(lines[-1])
            except json.JSONDecodeError:
                results[trace] = None
            if proc.returncode != 0 or results[trace] is None:
                status = 1
        if results[0] and results[1]:
            overhead = (results[1]["metrics"]["trace.wall_s"]["value"]
                        - results[0]["metrics"]["wall_s"]["value"])
            print(f"trace_overhead_s {overhead} s")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dvrcert" / "__init__.py").is_file():
        print(f"no dvrcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
