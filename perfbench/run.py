#!/usr/bin/env python3
"""The repository's benchmark: real entry points, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record campaign_dense   # rewrite references

Workloads (why each exists: perfbench/README.md):

* ``campaign_dense`` -- ``repro.crowd.run_campaign``, checkpointed, many
  clicks over a 7-day window on the 21 retailers;
* ``crawl_quick``    -- ``repro crawl --scale quick`` via ``repro.cli.main``;
* ``serve_mixed``    -- ``repro serve`` over HTTP under an open-loop mix;
* ``analyze_large``  -- ``repro analyze`` of a big generated crawl file.

Every measured program runs in a fresh child process
(``perfbench/child.py``), so peak RSS and set-up time are its own.  With
``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; ``--trace 1`` repeats the same work once untraced and
once traced and reports every per-layer metric instead.  Each run checks
its outputs against the digests recorded in ``references.json`` for its
input seed.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACES = WORK / "traces"
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from loadgen import OpenLoop, Request, backlog_at, backlog_max  # noqa: E402

#: Inputs come from ``--seed``: seed n draws its inputs (clicks, crawl,
#: requests, dataset rows) from seed ``BASE_SEED + n % N_INPUTS``, the
#: inputs whose output digests are recorded in references.json.  The
#: simulated worlds the campaign, the service and the dataset generator
#: run against stay at ``BASE_SEED``, so a seed changes the traffic, not
#: the system under test (``repro crawl`` has one seed for both).
BASE_SEED = 2013
N_INPUTS = 16
#: Workloads whose checked outputs do not depend on the seed: serve_mixed
#: checks the background job, which always runs at BASE_SEED.
SEED_FREE_OUTPUTS = {"serve_mixed"}

#: Per-check latency limit behind ``slo_rate_rps`` (all workloads).
LATENCY_LIMIT_MS = 500.0
#: Extra set-up-only launches per run, so ``setup_s`` is a median.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170

CAMPAIGN = {"catalog_scale": 0.2, "n_checks": 1500, "population": 20,
            "days": 7}
CRAWL = {"scale": "quick"}
ANALYZE = {"n_reports": 10000, "min_runs": 3}
SERVE = {
    "scale": "tiny",
    # Fixed absolute rates (requests/s): the base rate the latency
    # percentiles are read at, for --seconds, then the ladder
    # slo_rate_rps climbs.
    # Well below capacity.  A check that arrives while another is served
    # waits for it and lands in the slow shoulder of the distribution; the
    # share that waits grows with the rate and with how slow the host is
    # that minute, and with it the median moves: over alternating 15-s
    # sessions its spread was 0.19 at 50 requests/s and 0.11 at 30, and at
    # 100 requests/s, runs in which the host ran the job at half speed
    # read a median 1.7-4.5x the usual one.
    "base_rps": 30.0,
    # The ladder brackets capacity widely (~200-350 requests/s here): a
    # step near capacity passes or fails on host noise alone.
    "ladder_rps": [40.0, 100.0, 800.0],
    "warmup_s": 2.0,  # at the base rate, unmeasured
    "step_s": 1.0,  # each ladder step
    # Zipf exponent over the crawled domains in popularity order.  The two
    # live-only retailers (amazon, hotels.com) lead that order; their
    # checks are 2-3x slower than the warm memo's.  At 1.0 they draw ~41%
    # of the checks, at 0.8 ~33%, and the median sits on the knee between
    # the two latency modes and jumps with the host's speed; at 0.5 they
    # draw ~22% and the median lies inside the memo mode.
    "zipf_s": 0.5,
    # The background job runs after the base phase under its own fixed
    # load; the phase ends once a status poll sees the job done.  (Beside
    # the base rate, the job's thread starves the handler threads of the
    # interpreter lock and the base latencies swing 10x from run to run.)
    "job_rps": 30.0,
    "job": {"scale": "tiny", "n_checks": 700, "end_day": 60},
    # Service launches cost more than batch set-ups; fewer extra samples.
    "setup_samples": 2,
}

END_TO_END_UNITS = {
    "setup_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MB",
    "reports_per_s": "1/s", "check_p50_ms": "ms", "slo_rate_rps": "1/s",
    "job_s": "s",
}
#: Measured and printed with the end-to-end metrics but not part of the
#: gated set: the check-latency tail is set by the program's full
#: garbage-collection pauses and by host noise, and its run-to-run spread
#: (0.4-0.6 of its median on a 2-vCPU host) exceeds any usable bound.  The
#: traced run reports it among the per-layer metrics.
UNGATED_UNITS = {"check_p99_ms": "ms"}


def mono() -> float:
    """System-wide monotonic clock: comparable across processes."""
    return time.monotonic()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One benchmark invocation: work dir, child launches, checks."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.input_seed = BASE_SEED + seed % N_INPUTS
        self.seconds = seconds
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.launches = 0
        self.problems: list[str] = []
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        self.reference_seed = (
            BASE_SEED if workload in SEED_FREE_OUTPUTS else self.input_seed
        )
        self.reference = refs.get(workload, {}).get(str(self.reference_seed))
        #: Set by --record and the self-test: collect digests, compare none.
        self.recorded: dict | None = None
        self.step_rows: list[dict] = []  # serve_mixed's rate ladder
        self.trace_info: dict = {}  # the traced child's span summary

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def spec_paths(self) -> tuple[Path, Path]:
        self.launches += 1
        base = self.dir / f"launch{self.launches}"
        return base.with_suffix(".spec.json"), base.with_suffix(".result.json")

    def launch(self, spec: dict) -> dict:
        """Run one child to completion; returns its result plus set-up time."""
        spec_path, result_path = self.spec_paths()
        spec = {"seed": self.input_seed, "world_seed": BASE_SEED, **spec,
                "result": str(result_path)}
        spec_path.write_text(json.dumps(spec))
        spawned = mono()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0 or not result_path.exists():
            raise ChildFailed(f"{spec['mode']} child exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        if result.get("ready_mono") is not None:
            result["setup_s"] = result["ready_mono"] - spawned
        return result

    def workdir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def check(self, what: str, digest: str) -> None:
        """Compare one output digest with the recorded reference."""
        if self.recorded is not None:
            if self.recorded.setdefault(what, digest) != digest:
                self.problems.append(f"{what} differs between runs")
        elif self.reference is None:
            self.problems.append(f"no reference digest for seed {self.reference_seed}")
        elif self.reference.get(what) != digest:
            self.problems.append(
                f"{what} digest {digest[:12]} != reference "
                f"{str(self.reference.get(what))[:12]} (seed {self.reference_seed})"
            )


class ChildFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def batch_iterations(run: Run, make_spec, outputs) -> list[dict]:
    """Fresh-process iterations until --seconds is spent (at least one).

    Another iteration starts while less than the budget is spent and the
    last one's time again would end the run within 1.6x the budget, so a
    run measures a whole number of program runs (campaign_dense two on a
    2-vCPU host, where one takes 10-16 s) and its length stays bounded.
    """
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result = run.launch(make_spec())
        for what, key in outputs:
            run.check(what, result[key])
        results.append(result)
        spent = time.monotonic() - start
        last = time.monotonic() - began
        if spent >= run.seconds or spent + last > 1.6 * run.seconds:
            return results


def setup_samples(run: Run, world) -> list[float]:
    spec = {"mode": "setup", "world": world, **CAMPAIGN}
    return [run.launch(spec)["setup_s"] for _ in range(SETUP_SAMPLES)]


def batch_metrics(results: list[dict], setups: list[float]) -> dict:
    checks = sum(r["checks"] for r in results)
    job_total = sum(r["job_s"] for r in results)
    fanout_ms = [ms for r in results for ms in r["fanout_ms"]]
    within = sum(1 for ms in fanout_ms if ms <= LATENCY_LIMIT_MS)
    reports = sum(r["reports"] for r in results)
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
        "checks_per_s": checks / job_total,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "reports_per_s": reports / job_total,
        "check_p50_ms": quantile(fanout_ms, 50),
        "check_p99_ms": quantile(fanout_ms, 99),
        "slo_rate_rps": within / job_total,
        "job_s": statistics.median(r["job_s"] for r in results),
    }


def campaign_spec(run: Run):
    return lambda: {"mode": "campaign", "workdir": str(run.workdir("campaign")),
                    **CAMPAIGN}


def crawl_spec(run: Run):
    return lambda: {"mode": "crawl", "workdir": str(run.workdir("crawl")),
                    **CRAWL}


BATCH = {
    "campaign_dense": (campaign_spec, "dense"),
    "crawl_quick": (crawl_spec, CRAWL["scale"]),
}
BATCH_OUTPUTS = [("dataset", "digest"), ("analyze", "analyze_digest")]


def run_batch(run: Run, trace: bool) -> dict:
    make_spec, world = BATCH[run.workload]
    make = make_spec(run)
    if trace:
        plain = run.launch(make())
        traced = run.launch(traced_spec(run, make()))
        for result in (plain, traced):
            for what, key in BATCH_OUTPUTS:
                run.check(what, result[key])
        p99_ms = quantile(plain["fanout_ms"], 99)
        return {"attempted": 2, "layers": traced_layers(run, plain, traced, p99_ms)}
    setups = setup_samples(run, world)
    results = batch_iterations(run, make, BATCH_OUTPUTS)
    return {"attempted": len(results), "metrics": batch_metrics(results, setups)}


def traced_spec(run: Run, spec: dict) -> dict:
    """``spec`` traced, its spans kept in perfbench/.work/traces/."""
    TRACES.mkdir(parents=True, exist_ok=True)
    return {**spec, "trace": True,
            "spans": str(TRACES / f"{run.workload}.spans.jsonl")}


def traced_layers(run: Run, plain: dict, traced: dict, p99_ms: float) -> dict:
    trace = traced["trace"]
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(trace["layers"])
    layers["trace_overhead_frac"] = traced["work_s"] / plain["work_s"] - 1.0
    layers["check_p99_ms"] = p99_ms
    run.trace_info = trace
    return layers


# ----------------------------------------------------------------------
# analyze_large
# ----------------------------------------------------------------------
def analyze_dataset(run: Run) -> Path:
    """The generated input, cached across runs (generation is untimed)."""
    cache = WORK / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"analyze-{run.input_seed}-{ANALYZE['n_reports']}.jsonl"
    if not path.exists():
        tmp = run.dir / "generated.jsonl"
        run.launch({"mode": "generate", "dataset": str(tmp), **ANALYZE})
        os.replace(tmp, path)
    return path


def run_analyze(run: Run, trace: bool) -> dict:
    dataset = analyze_dataset(run)
    spec = {"mode": "analyze", "dataset": str(dataset), **ANALYZE}
    if trace:
        plain = run.launch({**spec, "seconds": 0})
        traced = run.launch(traced_spec(run, {**spec, "seconds": 0}))
        for result in (plain, traced):
            run.check("analyze", result["analyze_digest"])
        p99_ms = quantile([t * 1000.0 for t in plain["runs_s"]], 99)
        return {"attempted": 2, "layers": traced_layers(run, plain, traced, p99_ms)}
    setups = setup_samples(run, None)
    result = run.launch({**spec, "seconds": run.seconds})
    run.check("analyze", result["analyze_digest"])
    runs_s = result["runs_s"]
    reports_per_s = ANALYZE["n_reports"] * len(runs_s) / sum(runs_s)
    per_run_ms = [s * 1000.0 for s in runs_s]
    return {
        "attempted": len(runs_s),
        "metrics": {
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            # A crawl report is one check's result.
            "checks_per_s": reports_per_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "reports_per_s": reports_per_s,
            # One analysis of the whole file is the operation a user waits on.
            "check_p50_ms": quantile(per_run_ms, 50),
            "check_p99_ms": quantile(per_run_ms, 99),
            "slo_rate_rps": reports_per_s,
            "job_s": statistics.median(runs_s),
        },
    }


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
class Service:
    """``repro serve`` in a child process (optionally traced)."""

    def __init__(self, run: Run, *, trace: bool) -> None:
        spec_path, self.result_path = run.spec_paths()
        self.data_dir = run.workdir(f"serve{run.launches}")
        spec = {"mode": "serve", "seed": BASE_SEED, "scale": SERVE["scale"],
                "data_dir": str(self.data_dir), "result": str(self.result_path)}
        if trace:
            spec = traced_spec(run, spec)
        spec_path.write_text(json.dumps(spec))
        # stderr goes to a file: a chatty service must never block on a
        # full pipe nobody reads while the load runs.
        self.stderr_path = spec_path.with_suffix(".stderr")
        self.spawned = mono()
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=ROOT,
            )
        self.port = self._read_port()
        self.setup_s = self._wait_healthy() - self.spawned

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=60):
                self.proc.kill()
                self.proc.communicate()
                raise ChildFailed("service printed nothing for 60 s")
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise ChildFailed(f"service did not start: {line!r}")
        return int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return mono()
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise ChildFailed("service never became healthy")

    def request(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path,
                         body=None if body is None else json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str) -> tuple[int, bytes]:
        return self.request("GET", path)

    def stop(self) -> dict:
        """SIGTERM, wait for the clean exit, return the child's result."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode != 0 or not self.result_path.exists():
            err = self.stderr_path.read_text()[-2000:]
            raise ChildFailed(f"service exited {self.proc.returncode}: {err}")
        return json.loads(self.result_path.read_text())


def serving_mix(run: Run) -> tuple[list[str], list[float], dict]:
    """The serving world's crawled domains, Zipf weights, products 0-3."""
    sys.path.insert(0, str(SRC))
    from repro.experiments.context import ExperimentContext

    world = ExperimentContext(SERVE["scale"], seed=BASE_SEED).world
    domains = list(world.crawled_domains)
    weights = [1.0 / (rank + 1) ** SERVE["zipf_s"] for rank in range(len(domains))]
    products = {d: min(4, len(world.retailer(d).catalog)) for d in domains}
    return domains, weights, products


def serve_schedule(run: Run, mix, steps, job_path: str | None,
                   stream: str) -> list[Request]:
    """The seeded open-loop request mix over ``steps`` (rate, begin, end).

    ~80% ``POST /checks`` (Zipf over domains), ~10% ``GET /jobs/<id>``
    (``GET /healthz`` before the job exists), ~10% ``GET /healthz``.
    """
    domains, weights, products = mix
    rng = random.Random(f"{run.input_seed}-{stream}")
    schedule = []
    for index, (rate, begin, end) in enumerate(steps):
        for k in range(int(round((end - begin) * rate))):
            roll = rng.random()
            if roll < 0.8:
                domain = rng.choices(domains, weights)[0]
                body = {"domain": domain, "product": rng.randrange(products[domain])}
                request = Request(0.0, index, "POST", "/checks", body)
            elif roll < 0.9 and job_path is not None:
                request = Request(0.0, index, "GET", job_path)
            else:
                request = Request(0.0, index, "GET", "/healthz")
            request.due = begin + k / rate
            schedule.append(request)
    return schedule


def prime_schedule(mix, rate: float) -> list[Request]:
    """One ``POST /checks`` of every (domain, product) the mix can draw,
    paced at ``rate``: the serving cache's first sight of each key."""
    domains, _, products = mix
    keys = [(d, p) for d in domains for p in range(products[d])]
    return [Request(k / rate, 0, "POST", "/checks", {"domain": d, "product": p})
            for k, (d, p) in enumerate(keys)]


def serve_session(run: Run, *, trace: bool) -> dict:
    """One service lifetime: set-up; warm-up; the base rate; the background
    job under a fixed load until it is done; the rate ladder; stop."""
    mix = serving_mix(run)
    service = Service(run, trace=trace)
    loop = OpenLoop(service.port, connections=min(os.cpu_count() or 1, 2),
                    timeout=30.0)
    base_rate = SERVE["base_rps"]
    step_s = SERVE["step_s"]
    ladder_steps = [(rate, i * step_s, (i + 1) * step_s)
                    for i, rate in enumerate(SERVE["ladder_rps"])]
    try:
        # Warm-up, unmeasured: every key once, so the base phase meets a
        # warm serving cache instead of first sights, then the base rate.
        warmup = loop.run(prime_schedule(mix, base_rate)) + loop.run(
            serve_schedule(run, mix, [(base_rate, 0.0, SERVE["warmup_s"])],
                           None, "warmup")
        )
        base = loop.run(serve_schedule(
            run, mix, [(base_rate, 0.0, run.seconds)], None, "base"
        ))
        submitted = time.time()
        status, data = service.request(
            "POST", "/campaigns", {**SERVE["job"], "seed": BASE_SEED}
        )
        if status != 202:
            raise ChildFailed(f"POST /campaigns answered {status}: {data[:200]!r}")
        job_id = json.loads(data)["id"]
        job_path = f"/jobs/{job_id}"

        def job_over(request: Request) -> bool:
            return (request.kind == "job" and request.ok
                    and request.reply["status"] in ("done", "failed"))

        job_load = loop.run(serve_schedule(
            run, mix, [(SERVE["job_rps"], 0.0, 120.0)], job_path, "job"
        ), until=job_over)
        status, data = service.get(job_path)
        if status != 200 or json.loads(data)["status"] != "done":
            raise ChildFailed(f"background job did not finish: {data[:300]!r}")
        # The job's terminal marker is written the moment it finishes.
        done_marker = service.data_dir / "jobs" / job_id / "done.json"
        job_s = done_marker.stat().st_mtime - submitted
        ladder = loop.run(serve_schedule(run, mix, ladder_steps, job_path, "ladder"))
        status, results = service.get(f"{job_path}/results")
        if status != 200:
            raise ChildFailed(f"job results answered {status}")
        results_path = run.dir / "job-results.jsonl"
        results_path.write_bytes(results)
        run.check("job_results", hashlib.sha256(results).hexdigest())
    except BaseException:
        service.proc.kill()
        service.proc.communicate()
        raise
    served = service.stop()
    analysis = run.launch({"mode": "analyze", "dataset": str(results_path),
                           "seconds": 0, "min_runs": 1})
    run.check("job_analyze", analysis["analyze_digest"])
    return {
        "service": service, "served": served, "warmup": warmup, "base": base,
        "job_load": job_load, "ladder": ladder, "ladder_steps": ladder_steps,
        "job_s": job_s,
    }


def step_report(session: dict) -> list[dict]:
    """Per ladder step: requests sent, succeeded, failed, latency, verdict."""
    ladder, rows = session["ladder"], []
    for index, (rate, begin, end) in enumerate(session["ladder_steps"]):
        requests = [r for r in ladder if r.step == index]
        checks = [r for r in requests if r.kind == "check"]
        latency = [(r.done - r.due) * 1000.0 if r.ok else float("inf")
                   for r in checks]
        p99 = quantile(latency, 99)
        good = sum(1 for r in requests
                   if r.ok and (r.done - r.due) * 1000.0 <= LATENCY_LIMIT_MS)
        failed = sum(1 for r in requests if not r.ok)
        backlog = backlog_at(ladder, end)
        # The backlog has grown if more requests wait than the latency
        # limit's worth of arrivals at this rate.
        backlog_limit = max(2.0, rate * LATENCY_LIMIT_MS / 1000.0)
        # Rates divide by the measured span (first due to last answer),
        # not the scheduled one, so they carry the run's real timing.
        span = max(r.done for r in requests) - begin
        rows.append({
            "rate_rps": rate, "sent": len(requests),
            "succeeded": len(requests) - failed, "failed": failed,
            "check_p99_ms": p99, "backlog_end": backlog,
            "goodput_rps": good / span,
            "meets_slo": (p99 <= LATENCY_LIMIT_MS and backlog <= backlog_limit
                          and failed == 0),
        })
    return rows


def serve_metrics(run: Run, session: dict, setups: list[float]) -> dict:
    base, ladder = session["base"], session["ladder"]
    base_ms = [(r.done - r.due) * 1000.0 if r.ok else float("inf")
               for r in base if r.kind == "check"]
    rows = step_report(session)
    run.step_rows = rows
    passing = [row for row in rows if row["meets_slo"]]
    phases = (base, session["job_load"], ladder)
    span = sum(max(r.done for r in phase) for phase in phases)
    checks_ok = sum(1 for phase in phases for r in phase
                    if r.kind == "check" and r.ok)
    return {
        "setup_s": statistics.median(setups),
        "checks_per_s": checks_ok / span,
        "peak_rss_mb": session["served"]["peak_rss_mb"],
        # The reports the service handed out: one per successful check.
        "reports_per_s": checks_ok / span,
        "check_p50_ms": quantile(base_ms, 50),
        "check_p99_ms": quantile(base_ms, 99),
        "slo_rate_rps": passing[-1]["goodput_rps"] if passing else 0.0,
        "job_s": session["job_s"],
    }


def run_serve(run: Run, trace: bool) -> dict:
    if trace:
        plain = serve_session(run, trace=False)
        traced = serve_session(run, trace=True)
        sessions = [plain, traced]
    else:
        setups = []
        for _ in range(min(SETUP_SAMPLES, SERVE["setup_samples"])):
            service = Service(run, trace=False)
            setups.append(service.setup_s)
            service.stop()
        sessions = [serve_session(run, trace=False)]
    attempted = failed = 0
    for session in sessions:
        requests = (session["warmup"] + session["base"] + session["job_load"]
                    + session["ladder"])
        attempted += len(requests) + 1  # + the job
        failed += sum(1 for r in requests if not r.ok)
        for r in requests:
            if not r.ok and len(run.problems) < 5:
                run.problems.append(f"{r.method} {r.path}: {r.error}")
    out = {"attempted": attempted, "failed": failed}
    if not trace:
        out["metrics"] = serve_metrics(
            run, sessions[0], setups + [sessions[0]["service"].setup_s]
        )
        return out
    layers = {name: 0.0 for name in PER_LAYER}
    trace_info = traced["served"]["trace"]
    layers.update(trace_info["layers"])
    run.trace_info = trace_info

    def mean_service_ms(session):
        checks = [r for r in session["base"] if r.kind == "check" and r.ok]
        return statistics.fmean((r.done - r.sent) * 1000.0 for r in checks)

    check = trace_info["root"].get("serve.check", {"calls": 0, "root_s": 0.0})
    client_ms = mean_service_ms(traced)
    served_ms = 1000.0 * check["root_s"] / check["calls"] if check["calls"] else 0.0
    base = traced["base"]
    layers["serve.http_ms"] = client_ms - served_ms
    layers["serve.gen_late_ms"] = quantile(
        [(r.sent - r.due) * 1000.0 for r in base], 99
    )
    layers["serve.backlog_max"] = backlog_max(base)
    layers["trace_overhead_frac"] = client_ms / mean_service_ms(plain) - 1.0
    layers["check_p99_ms"] = serve_metrics(run, plain, [0.0])["check_p99_ms"]
    out["layers"] = layers
    return out


WORKLOADS = {
    "campaign_dense": run_batch,
    "crawl_quick": run_batch,
    "serve_mixed": run_serve,
    "analyze_large": run_analyze,
}


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="prove the output checks and the trace at a tiny size")
    parser.add_argument("--record", metavar="WORKLOAD",
                        help="rewrite WORKLOAD's reference digests for every input seed")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.record):
        parser.error("one of --workload, --self-test, --record is required")
    return args


def print_summary(run: Run, out: dict, trace: bool) -> None:
    """Human-readable lines above the JSON result."""
    print(f"workload {run.workload}  input seed {run.input_seed}  "
          f"attempted {out['attempted']}  failed {out['failed']}  "
          f"error_rate {out['failed'] / out['attempted']:.4f}")
    for row in getattr(run, "step_rows", []):
        print("  step {rate_rps:6.1f} rps: sent {sent} succeeded {succeeded} "
              "failed {failed} p99 {check_p99_ms:.1f} ms backlog {backlog_end} "
              "goodput {goodput_rps:.1f}/s slo {meets_slo}".format(**row))
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    for name, value in out["metrics"].items():
        print(f"  {name:34s} {value['value']:.6g} {value['unit']}")
    if trace:
        info = run.trace_info
        print(f"  trace: self times {info['self_total_s']:.4f} s + other_s "
              f"{out['metrics']['other_s']['value']:.4f} s = wall "
              f"{info['wall_s']:.4f} s over {info['n_threads']} thread(s)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(sys.modules[__name__])
    if args.record:
        from selftest import record_references

        return record_references(sys.modules[__name__], args.record)
    run = Run(args.workload, args.seed, args.seconds)
    trace = bool(args.trace)
    try:
        out = WORKLOADS[args.workload](run, trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    out.setdefault("failed", 0)
    if run.problems and not out["failed"]:
        out["failed"] = min(out["attempted"], len(run.problems))
    if trace:
        values, units = out["layers"], layer_unit
    else:
        values, units = out["metrics"], {**END_TO_END_UNITS, **UNGATED_UNITS}.get
    out["metrics"] = {name: {"value": value, "unit": units(name)}
                      for name, value in values.items()}
    print_summary(run, out, trace)
    if not trace:
        out["metrics"] = {name: out["metrics"][name] for name in END_TO_END_UNITS}
    print(json.dumps({
        "correct": not run.problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_read"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
