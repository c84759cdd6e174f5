"""Benchmark self-test and reference recording.

``python3 perfbench/run.py --self-test`` proves two things at a tiny size:

* the output checks catch a wrong output: a dataset with one changed
  price digit fails the digest check, the analysis of a dataset with
  renamed shops fails the analysis check, and corrupted served replies
  fail the reply validation;
* the trace is complete: on every workload, each layer assigned to it
  (``layers.REQUIRED``) has a nonzero call count, every span nests inside
  its parent, and the layer self times plus ``other_s`` add up to the
  traced wall time.

``python3 perfbench/run.py --record WORKLOAD`` rewrites WORKLOAD's
reference digests in references.json for every input seed.  Do that only
when a change is meant to alter the program's output bytes, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import shutil

from layers import REQUIRED
from loadgen import Request, validate


@contextlib.contextmanager
def overrides(bench, **changes):
    """Temporarily update the benchmark's size tables (dicts) or constants."""
    saved = {}
    for name, value in changes.items():
        current = getattr(bench, name)
        saved[name] = dict(current) if isinstance(current, dict) else current
        if isinstance(current, dict):
            current.update(value)
        else:
            setattr(bench, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            current = getattr(bench, name)
            if isinstance(current, dict):
                current.clear()
                current.update(value)
            else:
                setattr(bench, name, value)


def record_references(bench, workload: str) -> int:
    if workload not in bench.WORKLOADS:
        print(f"unknown workload {workload!r}")
        return 2
    entries = {}
    with overrides(bench, SETUP_SAMPLES=0, ANALYZE={"min_runs": 1}):
        seeds = 1 if workload in bench.SEED_FREE_OUTPUTS else bench.N_INPUTS
        for index in range(seeds):
            run = bench.Run(workload, index, seconds=1)
            run.recorded = {}
            try:
                bench.WORKLOADS[workload](run, False)
            finally:
                run.close()
            if run.problems:
                print(f"seed {run.input_seed}: {run.problems}")
                return 1
            entries[str(run.reference_seed)] = run.recorded
            print(f"{workload} seed {run.reference_seed}: {run.recorded}", flush=True)
    refs = json.loads(bench.REFERENCES.read_text()) if bench.REFERENCES.exists() else {}
    refs[workload] = entries
    bench.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def check_output_checks(bench) -> list[str]:
    """Corrupted outputs must fail the checks that pass the real ones."""
    failures = []
    run = bench.Run("campaign_dense", 0, seconds=1)
    run.recorded = {}
    try:
        with overrides(bench, CAMPAIGN={"n_checks": 60}):
            spec = bench.campaign_spec(run)()
            result = run.launch(spec)
        dataset = bench.Path(spec["workdir"]) / "crowd.jsonl"
        run.check("dataset", result["digest"])
        run.check("analyze", result["analyze_digest"])
        if run.problems:
            failures.append(f"real output failed its own check: {run.problems}")
        # Corrupt one price digit in the saved dataset.
        data = bytearray(dataset.read_bytes())
        at = re.search(rb'"amount":\d', data).end() - 1
        data[at] = ord("9") if data[at] != ord("9") else ord("8")
        corrupted = dataset.with_name("corrupted.jsonl")
        corrupted.write_bytes(bytes(data))
        run.check("dataset", hashlib.sha256(bytes(data)).hexdigest())
        if not run.problems:
            failures.append("corrupted dataset passed the digest check")
        run.problems.clear()
        # A price digit need not change the printed analysis; a renamed
        # shop must.
        renamed = dataset.with_name("renamed.jsonl")
        renamed.write_bytes(dataset.read_bytes().replace(b".com", b".org"))
        try:
            again = run.launch({"mode": "analyze", "dataset": str(renamed),
                                "seconds": 0, "min_runs": 1})
            run.check("analyze", again["analyze_digest"])
            if not run.problems:
                failures.append("analysis of the renamed dataset passed")
        except bench.ChildFailed:
            pass  # the program refused the corrupted file: also caught
    finally:
        run.close()

    report = {
        "check_id": "chk0000001", "url": "http://a.example/p", "domain": "a.example",
        "day": 0, "ts": 0.0, "guard": 1.0, "origin": "x",
        "observations": [{"vantage": "v", "country": "US", "city": "c", "ok": True}],
    }
    good = json.dumps(report).encode()
    cases = [
        ("500 status", 500, good),
        ("truncated reply", 200, good[:-7]),
        ("missing observations", 200, json.dumps(
            {k: v for k, v in report.items() if k != "observations"}).encode()),
        ("wrong domain", 200, json.dumps({**report, "domain": "b.example"}).encode()),
        ("empty observations", 200, json.dumps({**report, "observations": []}).encode()),
    ]
    request = Request(0.0, 0, "POST", "/checks", {"domain": "a.example"})
    if validate(request, 200, good):
        failures.append("a well-formed reply failed validation")
    for name, status, data in cases:
        if not validate(Request(0.0, 0, "POST", "/checks", {"domain": "a.example"}),
                        status, data):
            failures.append(f"corrupted reply ({name}) passed validation")
    job = Request(0.0, 0, "GET", "/jobs/j1")
    if not validate(job, 200, b'{"status": "lost", "checks": {"done": 1}}'):
        failures.append("malformed job status passed validation")
    return failures


#: Tiny sizes for the trace self-test.
TINY = {
    "campaign_dense": {"CAMPAIGN": {"n_checks": 120}},
    "crawl_quick": {"CRAWL": {"scale": "tiny"}},
    "analyze_large": {"ANALYZE": {"n_reports": 600, "min_runs": 1}},
    "serve_mixed": {"SERVE": {"job": {"scale": "tiny", "n_checks": 40,
                                      "end_day": 10},
                              "warmup_s": 0.5}},
}


def check_trace(bench, workload: str) -> list[str]:
    failures = []
    run = bench.Run(workload, 0, seconds=3)
    run.recorded = {}
    try:
        with overrides(bench, **TINY[workload]):
            out = bench.WORKLOADS[workload](run, True)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    info = run.trace_info
    calls = info["calls"]
    for layer in REQUIRED[workload]:
        if not calls.get(layer):
            failures.append(f"{workload}: layer {layer} has no calls")
    if info["nesting_errors"]:
        failures.append(f"{workload}: {info['nesting_errors']} spans outside their parent")
    layers = out["layers"]
    wall = info["wall_s"]
    if abs(info["self_total_s"] + layers["other_s"] - wall) > 1e-6 * max(wall, 1.0):
        failures.append(f"{workload}: self times + other_s != wall")
    if info["n_threads"] == 1:
        # One thread: the self times must tile the root spans exactly,
        # and the root spans must fit inside the wall time.
        if abs(info["self_total_s"] - info["root_total_s"]) > 1e-6 * max(wall, 1.0):
            failures.append(f"{workload}: self times do not tile the root spans")
        if layers["other_s"] < 0:
            failures.append(f"{workload}: spans cover more than the wall time")
    if run.problems:
        failures.append(f"{workload}: output checks: {run.problems}")
    print(f"  {workload}: {len(calls)} layers traced, self "
          f"{info['self_total_s']:.3f} s + other {layers['other_s']:.3f} s = wall "
          f"{wall:.3f} s, overhead {layers['trace_overhead_frac']:+.1%}")
    return failures


def self_test(bench) -> int:
    print("output checks:")
    failures = check_output_checks(bench)
    print(f"  {'ok' if not failures else 'FAILED'}")
    print("trace at a tiny size:")
    for workload in bench.WORKLOADS:
        failures += check_trace(bench, workload)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "passed" if not failures else "FAILED")
    return 1 if failures else 0
