"""One measured process: hosts the program for one workload iteration.

``python3 perfbench/child.py <spec.json>``.  The spec names the workload
``mode``, its inputs, where to write the result and whether to trace.
The child imports the program from ``src/``, optionally installs the
layer tracer, runs the real entry point and writes one JSON result:
when it became ready (``ready_mono``, on the system monotonic clock the
parent also reads), work timings, per-check fan-out durations, output
digests, peak RSS and, when traced, the layer metrics.

Two probes run even untraced, each at most one clock read per check:
the first ``build_world`` return marks "ready" for CLI entry points that
build their world internally, and ``run_scheduled_check`` durations give
the batch workloads' per-check latency.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def mono() -> float:
    """System-wide monotonic clock: comparable across processes."""
    return time.monotonic()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Probes:
    """The untraced run's two probes (see module doc)."""

    def __init__(self) -> None:
        self.ready_mono: float | None = None
        self.fanout_ns: list[int] = []

    def install(self) -> None:
        import repro.experiments.context as context
        from repro.core.backend import SheriffBackend

        build_world = context.build_world

        @functools.wraps(build_world)
        def build_world_probe(*args, **kwargs):
            world = build_world(*args, **kwargs)
            if self.ready_mono is None:
                self.ready_mono = mono()
            return world

        context.build_world = build_world_probe

        run_check = SheriffBackend.run_scheduled_check
        durations = self.fanout_ns
        clock = time.perf_counter_ns

        @functools.wraps(run_check)
        def run_check_probe(*args, **kwargs):
            start = clock()
            report = run_check(*args, **kwargs)
            durations.append(clock() - start)
            return report

        SheriffBackend.run_scheduled_check = run_check_probe


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``repro.cli.main(argv)`` with its stdout captured."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def analyze(path: Path, seed: int) -> dict:
    """One ``repro analyze`` of a saved dataset: its time and stdout digest."""
    start = time.perf_counter()
    code, text = run_cli(["analyze", str(path), "--seed", str(seed)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"repro analyze exited {code}")
    return {"analyze_s": elapsed,
            "analyze_digest": hashlib.sha256(text.encode()).hexdigest()}


def dense_world(spec: dict):
    """campaign_dense's world and backend: the 21 retailers, no long tail."""
    from repro.core.backend import SheriffBackend
    from repro.ecommerce.world import WorldConfig, build_world

    world = build_world(WorldConfig(
        seed=spec["world_seed"], catalog_scale=spec["catalog_scale"],
        long_tail_domains=0,
    ))
    return world, SheriffBackend(world.network, world.vantage_points, world.rates)


def campaign(spec: dict, probes: Probes) -> dict:
    """campaign_dense: the checkpointed ``run_campaign`` on a dense world."""
    from repro.crowd import CampaignConfig, run_campaign
    from repro.io import save_crowd_dataset

    seed = spec["seed"]
    world, backend = dense_world(spec)
    config = CampaignConfig(
        n_checks=spec["n_checks"], population_size=spec["population"],
        seed=seed, start_day=0, end_day=spec["days"],
    )
    work = Path(spec["workdir"])
    ready = mono()
    start = time.perf_counter()
    dataset = run_campaign(world, backend, config,
                           checkpoint_dir=work / "checkpoint")
    out = work / "crowd.jsonl"
    save_crowd_dataset(dataset, out, seed=spec["world_seed"])
    job_s = time.perf_counter() - start
    result = {
        "ready_mono": ready, "job_s": job_s, "checks": len(probes.fanout_ns),
        "reports": len(dataset), "digest": sha256_file(out),
    }
    result.update(analyze(out, spec["world_seed"]))
    result["work_s"] = time.perf_counter() - start
    return result


def crawl(spec: dict, probes: Probes) -> dict:
    """crawl_quick: ``repro crawl --scale quick`` with checkpoints and --out."""
    seed = spec["seed"]
    work = Path(spec["workdir"])
    out = work / "crawl.jsonl"
    start = time.perf_counter()
    code, text = run_cli([
        "crawl", "--scale", spec["scale"], "--seed", str(seed),
        "--checkpoint-dir", str(work / "checkpoint"), "--out", str(out),
    ])
    job_s = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"repro crawl exited {code}")
    result = {
        "ready_mono": probes.ready_mono, "job_s": job_s,
        "checks": len(probes.fanout_ns), "digest": sha256_file(out),
        "reports": int(text.split("wrote ")[1].split()[0]),
    }
    result.update(analyze(out, seed))
    result["work_s"] = time.perf_counter() - start
    return result


def analyze_only(spec: dict, probes: Probes) -> dict:
    """analyze_large: ``repro analyze`` of one big crawl file, repeated
    until the deadline (at least ``min_runs`` times)."""
    import repro.cli  # noqa: F401 - the import is this entry point's set-up

    ready = mono()
    path = Path(spec["dataset"])
    runs = []
    deadline = time.perf_counter() + spec["seconds"]
    start = time.perf_counter()
    while len(runs) < spec["min_runs"] or time.perf_counter() < deadline:
        runs.append(analyze(path, spec["world_seed"]))
    digests = {run["analyze_digest"] for run in runs}
    return {
        "ready_mono": ready, "work_s": time.perf_counter() - start,
        "runs_s": [run["analyze_s"] for run in runs],
        "analyze_digest": digests.pop() if len(digests) == 1 else "inconsistent",
    }


def setup_only(spec: dict, probes: Probes) -> dict:
    """One more set-up sample: import the entry point, build the world."""
    import repro.cli  # noqa: F401

    if spec["world"] == "dense":
        dense_world(spec)
    elif spec["world"]:
        from repro.experiments.context import ExperimentContext

        ExperimentContext(spec["world"], seed=spec["seed"]).world
    return {"ready_mono": mono(), "work_s": 0.0}


def generate(spec: dict, probes: Probes) -> dict:
    """Write analyze_large's dataset (untimed)."""
    from datagen import generate as write_dataset

    reports = write_dataset(Path(spec["dataset"]), seed=spec["seed"],
                            world_seed=spec["world_seed"],
                            n_reports=spec["n_reports"])
    return {"reports": reports, "work_s": 0.0}


def serve(spec: dict, probes: Probes) -> dict:
    """serve_mixed: ``repro serve`` until SIGTERM (the parent drives it)."""
    from repro.cli import main

    start = time.perf_counter()
    code = main([
        "serve", "--scale", spec["scale"], "--seed", str(spec["seed"]),
        "--port", "0", "--data-dir", spec["data_dir"],
    ])
    if code != 0:
        raise RuntimeError(f"repro serve exited {code}")
    return {"ready_mono": probes.ready_mono, "work_s": time.perf_counter() - start}


MODES = {"campaign": campaign, "crawl": crawl, "analyze": analyze_only,
         "serve": serve, "setup": setup_only, "generate": generate}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec.get("trace"):
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    probes = Probes()
    probes.install()
    result = MODES[spec["mode"]](spec, probes)
    result["fanout_ms"] = [ns / 1e6 for ns in probes.fanout_ns]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        from layers import trace_summary

        result["trace"] = trace_summary(tracer, result["work_s"])
        tracer.dump(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
