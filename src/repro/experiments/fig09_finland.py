"""Fig. 9: price ratio of Tampere, Finland vs the cheapest location, per
crawled retailer."""

from __future__ import annotations

from repro.analysis.locations import finland_profile
from repro.experiments.base import FigureResult
from repro.experiments.context import ExperimentContext
from repro.store import TableSlice

#: The paper's two exceptions where Finland is (sometimes) the cheapest.
PAPER_EXCEPTIONS = ("www.mauijim.com", "www.tuscanyleather.it")


def run(ctx: ExperimentContext) -> FigureResult:
    """Regenerate Fig. 9's Finland-vs-minimum profile."""
    result = FigureResult(
        figure_id="FIG9",
        title="Magnitude of price differences in Tampere, Finland, per domain",
        paper_claim=(
            "Finland is almost never the cheaper location (exceptions: "
            "mauijim.com and tuscanyleather.it)"
        ),
        columns=("domain", "n", "median", "q25", "max"),
    )
    kept = ctx.crawl_clean.kept
    varied = TableSlice(kept.table, [
        i for i in kept.rows if kept.table.row_has_variation(i)
    ])
    profile = finland_profile(varied)
    for domain in sorted(profile, key=lambda d: profile[d].median):
        s = profile[domain]
        result.add_row(domain, s.n, s.median, s.q25, s.maximum)

    exceptions = {d for d, s in profile.items() if s.median <= 1.02}
    result.check(
        "exactly the paper's exceptions are Finland-cheap",
        exceptions == set(PAPER_EXCEPTIONS),
    )
    others = [s.median for d, s in profile.items() if d not in PAPER_EXCEPTIONS]
    result.check(
        "Finland pays a premium everywhere else",
        bool(others) and min(others) > 1.02,
    )
    result.check(
        "Finnish premium typically in the 5%-45% band",
        bool(others)
        and sum(1 for m in others if 1.05 <= m <= 1.45) >= 0.7 * len(others),
    )
    return result
