"""Which program callables the traced run wraps, and the per-layer metrics.

:func:`install` names a span for each callable it wraps.  Callables
reached through a class are patched on the class; callables
imported by value are patched at every use site
(:func:`tracer.patch_everywhere`).  :func:`install` fails if any target
is missing, so a renamed callable cannot silently zero a layer.
"""

from __future__ import annotations

from pathlib import Path

from tracer import Tracer, patch_everywhere

#: Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = [
    "ecommerce.render_calls", "ecommerce.render_s",
    "ecommerce.render_cache_hit_ratio", "ecommerce.build_world_s",
    "htmlmodel.serialize_s", "htmlmodel.parse_calls", "htmlmodel.parse_s",
    "net.fetch_calls", "net.fetch_s", "net.fetch_failures",
    "core.fanout_calls", "core.fanout_s",
    "core.memo_hits", "core.memo_misses", "core.memo_bypass",
    "core.memo_hit_ratio", "core.memo_plan_s", "core.memo_store_s",
    "core.extract_calls", "core.extract_s", "core.extract_failures",
    "core.archive_calls", "core.archive_s", "core.store_records",
    "core.store_unique_bodies",
    "core.prepare_calls", "core.prepare_s", "core.derive_anchor_s",
    "fx.convert_s", "fx.guard_s",
    "analysis.anchor_calls", "analysis.anchor_s",
    "analysis.clean_s", "analysis.kernels_s", "store.table_build_s",
    "io.load_s", "io.bytes_read", "io.save_s",
    "crowd.spine_add_s", "crawler.spine_add_s",
    "checkpoint.commit_calls", "checkpoint.commit_s",
    "checkpoint.capture_s", "checkpoint.bytes",
    "serve.check_calls", "serve.check_self_s",
    "serve.http_ms", "serve.gen_late_ms", "serve.backlog_max",
    "check_p99_ms", "other_s", "trace_overhead_frac",
]

#: Layers each workload must exercise: a zero call count fails the trace
#: self-test (the map in perfbench/README.md).
REQUIRED = {
    "campaign_dense": [
        "ecommerce.render", "htmlmodel.serialize", "net.fetch",
        "core.fanout", "core.memo_plan", "core.memo_store", "core.extract",
        "core.archive", "core.prepare", "core.derive_anchor", "fx.convert",
        "fx.guard", "crowd.spine_add", "checkpoint.commit",
        "checkpoint.capture", "io.save",
    ],
    "crawl_quick": [
        "ecommerce.render", "htmlmodel.serialize", "net.fetch",
        "core.fanout", "core.memo_plan", "core.extract", "core.archive",
        "fx.convert", "fx.guard", "io.save", "crawler.spine_add",
        "checkpoint.commit", "checkpoint.capture", "htmlmodel.parse",
    ],
    "serve_mixed": [
        "ecommerce.render", "htmlmodel.parse", "core.fanout",
        "core.memo_plan", "core.archive", "analysis.anchor",
        "checkpoint.commit", "serve.check",
    ],
    "analyze_large": [
        "analysis.clean", "analysis.kernels", "store.table_build",
        "io.load",
    ],
}


def _patch_method(tracer: Tracer, cls, attr: str, name: str, **kw) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        raise RuntimeError(f"{cls.__name__}.{attr} is gone; layer {name} unmeasured")
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, **kw)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, **kw))


def _patch_function(tracer: Tracer, fn, name: str, **kw) -> None:
    if patch_everywhere(fn, tracer.wrap(fn, name, **kw)) == 0:
        raise RuntimeError(f"{fn.__name__} has no use site; layer {name} unmeasured")


def install(tracer: Tracer) -> None:
    """Wrap every layer's callables (imports the whole program first)."""
    import repro.analysis as analysis
    import repro.checkpoint as checkpoint
    import repro.cli  # noqa: F401 - binds the CLI's by-value imports
    import repro.core.extension as extension
    import repro.core.extraction as extraction
    import repro.ecommerce.world as world
    import repro.fx.convert as convert
    import repro.htmlmodel.parser as parser
    import repro.htmlmodel.serialize as serialize
    import repro.io as dataset_io
    import repro.serve  # noqa: F401 - binds the service's by-value imports
    from repro.analysis.personal import derive_anchor_for_domain
    from repro.checkpoint.runner import RunCheckpoint
    from repro.core.backend import SheriffBackend
    from repro.core.burstcache import BurstCache
    from repro.core.store import PageStore
    from repro.crawler.records import CrawlDataset
    from repro.crowd.dataset import CrowdDataset
    from repro.ecommerce.retailer import RetailerServer
    from repro.net.transport import Network
    from repro.serve.service import SheriffService
    from repro.store.table import ReportTable

    def remember(kind):
        return lambda args, result: tracer.remember(kind, args[0])

    def memo_outcome(args, plan) -> None:
        if plan is None:
            tracer.count("core.memo_bypass")
        elif plan.entry is None:
            tracer.count("core.memo_misses")
        else:
            tracer.count("core.memo_hits")

    def extract_outcome(args, result) -> None:
        if not result.ok:
            tracer.count("core.extract_failures")

    def bytes_read(args, result) -> None:
        tracer.count("io.bytes_read", Path(args[0]).stat().st_size)

    def commit_bytes(args, record) -> None:
        directory = args[0].directory
        tracer.count(
            "checkpoint.bytes",
            (directory / record["file"]).stat().st_size
            + (directory / record["state_file"]).stat().st_size,
        )

    _patch_method(tracer, RetailerServer, "handle", "ecommerce.render",
                  after=remember("server"))
    _patch_function(tracer, world.build_world, "ecommerce.build_world")
    _patch_function(tracer, serialize.to_html, "htmlmodel.serialize")
    _patch_function(tracer, parser.parse_html, "htmlmodel.parse")
    _patch_method(tracer, Network, "fetch", "net.fetch")
    _patch_method(tracer, SheriffBackend, "run_scheduled_check", "core.fanout",
                  op_of=lambda args: args[1].check_id)
    _patch_method(tracer, BurstCache, "plan", "core.memo_plan",
                  after=memo_outcome)
    _patch_method(tracer, BurstCache, "after_live", "core.memo_store")
    for fn in (extraction.extract_price, extraction.extract_price_from_document):
        _patch_function(tracer, fn, "core.extract", after=extract_outcome)
    _patch_method(tracer, PageStore, "archive", "core.archive",
                  after=remember("store"))
    _patch_method(tracer, extension.SheriffExtension, "prepare_check",
                  "core.prepare")
    _patch_function(tracer, extension.derive_anchor, "core.derive_anchor")
    _patch_method(tracer, convert.Converter, "to_usd", "fx.convert")
    _patch_function(tracer, convert.max_gap_ratio, "fx.guard")
    _patch_function(tracer, derive_anchor_for_domain, "analysis.anchor")
    _patch_function(tracer, analysis.clean_reports, "analysis.clean")
    for fn in (analysis.variation_extent, analysis.domain_ratio_stats,
               analysis.location_ratio_stats, analysis.finland_profile):
        _patch_function(tracer, fn, "analysis.kernels")
    for attr in ("append", "append_segment", "from_columns"):
        _patch_method(tracer, ReportTable, attr, "store.table_build")
    _patch_function(tracer, dataset_io.load_dataset, "io.load", after=bytes_read)
    for fn in (dataset_io.save_crawl_dataset, dataset_io.save_crowd_dataset):
        _patch_function(tracer, fn, "io.save")
    for attr in ("add", "append_segment"):
        _patch_method(tracer, CrowdDataset, attr, "crowd.spine_add")
        _patch_method(tracer, CrawlDataset, attr, "crawler.spine_add")
    _patch_method(tracer, RunCheckpoint, "commit_segment", "checkpoint.commit",
                  after=commit_bytes)
    _patch_function(tracer, checkpoint.capture_run_state, "checkpoint.capture")
    _patch_method(tracer, SheriffService, "check", "serve.check",
                  op_of=lambda args: tracer.new_op())


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every tracer-derived per-layer metric for one traced run."""
    totals = tracer.layer_totals()

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    counters = tracer.counters
    hits = counters.get("core.memo_hits", 0)
    misses = counters.get("core.memo_misses", 0)
    render_hits = render_total = 0
    for server in tracer.objects.get("server", ()):
        stats = server.render_cache_stats()
        render_hits += stats["render_hits"]
        render_total += stats["render_hits"] + stats["render_misses"]
    stores = tracer.objects.get("store", ())
    out = {
        "ecommerce.render_calls": calls("ecommerce.render"),
        "ecommerce.render_s": self_s("ecommerce.render"),
        "ecommerce.render_cache_hit_ratio": (
            render_hits / render_total if render_total else 0.0
        ),
        "ecommerce.build_world_s": self_s("ecommerce.build_world"),
        "htmlmodel.serialize_s": self_s("htmlmodel.serialize"),
        "htmlmodel.parse_calls": calls("htmlmodel.parse"),
        "htmlmodel.parse_s": self_s("htmlmodel.parse"),
        "net.fetch_calls": calls("net.fetch"),
        "net.fetch_s": self_s("net.fetch"),
        "net.fetch_failures": counters.get("net.fetch_failures", 0),
        "core.fanout_calls": calls("core.fanout"),
        "core.fanout_s": self_s("core.fanout"),
        "core.memo_hits": hits,
        "core.memo_misses": misses,
        "core.memo_bypass": counters.get("core.memo_bypass", 0),
        "core.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.memo_plan_s": self_s("core.memo_plan"),
        "core.memo_store_s": self_s("core.memo_store"),
        "core.extract_calls": calls("core.extract"),
        "core.extract_s": self_s("core.extract"),
        "core.extract_failures": counters.get("core.extract_failures", 0),
        "core.archive_calls": calls("core.archive"),
        "core.archive_s": self_s("core.archive"),
        "core.store_records": sum(len(store) for store in stores),
        "core.store_unique_bodies": sum(
            store.unique_html_count() for store in stores
        ),
        "core.prepare_calls": calls("core.prepare"),
        "core.prepare_s": self_s("core.prepare"),
        "core.derive_anchor_s": self_s("core.derive_anchor"),
        "fx.convert_s": self_s("fx.convert"),
        "fx.guard_s": self_s("fx.guard"),
        "analysis.anchor_calls": calls("analysis.anchor"),
        "analysis.anchor_s": self_s("analysis.anchor"),
        "analysis.clean_s": self_s("analysis.clean"),
        "analysis.kernels_s": self_s("analysis.kernels"),
        "store.table_build_s": self_s("store.table_build"),
        "io.load_s": self_s("io.load"),
        "io.bytes_read": counters.get("io.bytes_read", 0),
        "io.save_s": self_s("io.save"),
        "crowd.spine_add_s": self_s("crowd.spine_add"),
        "crawler.spine_add_s": self_s("crawler.spine_add"),
        "checkpoint.commit_calls": calls("checkpoint.commit"),
        "checkpoint.commit_s": self_s("checkpoint.commit"),
        "checkpoint.capture_s": self_s("checkpoint.capture"),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "serve.check_calls": calls("serve.check"),
        "serve.check_self_s": self_s("serve.check"),
    }
    self_total = sum(entry["self_s"] for entry in totals.values())
    out["other_s"] = wall_s - self_total
    return out


def trace_summary(tracer: Tracer, wall_s: float) -> dict:
    """Layer metrics plus what the self-test needs."""
    totals = tracer.layer_totals()
    return {
        "layers": layer_metrics(tracer, wall_s),
        "calls": {name: entry["calls"] for name, entry in totals.items()},
        "root": {name: {"calls": entry["calls"], "root_s": entry["root_s"]}
                 for name, entry in totals.items()},
        "self_total_s": sum(entry["self_s"] for entry in totals.values()),
        "root_total_s": sum(entry["root_s"] for entry in totals.values()),
        "nesting_errors": tracer.nesting_errors(),
        "n_threads": len(tracer.threads()),
        "wall_s": wall_s,
    }
