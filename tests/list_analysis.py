"""The seed list-based analysis implementations, kept as a test oracle.

Every function here walks plain :class:`~repro.core.reports.PriceCheckReport`
dataclasses exactly as the analysis layer did before the columnar store
existed.  The production kernels in :mod:`repro.analysis` run over
:class:`~repro.store.TableSlice` columns only;
``tests/test_store_equivalence.py`` asserts they return exactly what these
functions return (key order included), and ``benchmarks/run_bench.py``
times them as the list side of the ``analysis_aggregation`` bench.

Signatures match their :mod:`repro.analysis` counterparts.  Result types
(``BoxStats``, ``StabilityRow``, ``PairwisePanel``, ``ProductPoint``,
``VantageSeries``, ``CleanResult``) are the production ones, so results
compare with ``==``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.analysis.cleaning import CleanResult
from repro.analysis.locations import PairwisePanel
from repro.analysis.longitudinal import StabilityRow
from repro.analysis.products import ProductPoint, VantageSeries
from repro.analysis.stats import BoxStats, grouped_box_stats, percentile
from repro.core.reports import PriceCheckReport
from repro.fx.convert import max_gap_ratio
from repro.fx.rates import RateService


# ----------------------------------------------------------------------
# ratios (Figs. 1, 2, 4)
# ----------------------------------------------------------------------
def domain_variation_counts(reports: Sequence[PriceCheckReport]) -> Counter:
    counts: Counter = Counter()
    for report in reports:
        if report.has_variation:
            counts[report.domain] += 1
    return counts


def domain_ratios(
    reports: Sequence[PriceCheckReport], *, only_variation: bool = False
) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for report in reports:
        ratio = report.ratio
        if ratio is None:
            continue
        if only_variation and not report.has_variation:
            continue
        out.setdefault(report.domain, []).append(ratio)
    return out


def domain_ratio_stats(
    reports: Sequence[PriceCheckReport],
    *,
    only_variation: bool = False,
    min_samples: int = 1,
) -> dict[str, BoxStats]:
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    ratios = domain_ratios(reports, only_variation=only_variation)
    return grouped_box_stats(ratios, min_samples=min_samples)


# ----------------------------------------------------------------------
# extent (Fig. 3)
# ----------------------------------------------------------------------
def variation_extent(
    reports: Sequence[PriceCheckReport], *, min_reports: int = 1
) -> dict[str, float]:
    if min_reports < 1:
        raise ValueError("min_reports must be >= 1")
    totals: dict[str, int] = {}
    varied: dict[str, int] = {}
    for report in reports:
        if report.ratio is None:
            continue
        totals[report.domain] = totals.get(report.domain, 0) + 1
        if report.has_variation:
            varied[report.domain] = varied.get(report.domain, 0) + 1
    return {
        domain: varied.get(domain, 0) / total
        for domain, total in totals.items()
        if total >= min_reports
    }


# ----------------------------------------------------------------------
# locations (Figs. 7, 8, 9)
# ----------------------------------------------------------------------
def location_ratio_stats(
    reports: Sequence[PriceCheckReport], *, min_samples: int = 1
) -> dict[str, BoxStats]:
    samples: dict[str, list[float]] = {}
    for report in reports:
        for vantage, ratio in report.ratios_by_vantage().items():
            samples.setdefault(vantage, []).append(ratio)
    return grouped_box_stats(samples, min_samples=min_samples)


def pairwise_grid(
    reports: Sequence[PriceCheckReport],
    domain: str,
    locations: Sequence[str],
) -> dict[tuple[str, str], PairwisePanel]:
    if len(locations) < 2:
        raise ValueError("need at least two locations")
    per_product = _median_ratios_per_product(reports, domain)

    grid: dict[tuple[str, str], PairwisePanel] = {}
    for row in locations:
        for col in locations:
            if row == col:
                continue
            points = []
            for ratios in per_product.values():
                if row in ratios and col in ratios:
                    points.append((ratios[col], ratios[row]))
            grid[(row, col)] = PairwisePanel(
                row_location=row, col_location=col, points=tuple(points)
            )
    return grid


def _median_ratios_per_product(
    reports: Sequence[PriceCheckReport], domain: str
) -> dict[str, dict[str, float]]:
    acc: dict[str, dict[str, list[float]]] = {}
    for report in reports:
        if report.domain != domain:
            continue
        for vantage, ratio in report.ratios_by_vantage().items():
            acc.setdefault(report.url, {}).setdefault(vantage, []).append(ratio)
    return {
        url: {vantage: percentile(values, 50) for vantage, values in ratios.items()}
        for url, ratios in acc.items()
    }


def finland_profile(
    reports: Sequence[PriceCheckReport],
    *,
    finland_vantage: str = "Finland - Tampere",
    min_samples: int = 1,
) -> dict[str, BoxStats]:
    samples: dict[str, list[float]] = {}
    for report in reports:
        ratios = report.ratios_by_vantage()
        if finland_vantage in ratios:
            samples.setdefault(report.domain, []).append(ratios[finland_vantage])
    return grouped_box_stats(samples, min_samples=min_samples)


# ----------------------------------------------------------------------
# longitudinal (§4.1 persistence)
# ----------------------------------------------------------------------
def daily_extent(
    reports: Sequence[PriceCheckReport],
) -> dict[str, dict[int, float]]:
    totals: dict[tuple[str, int], int] = {}
    varied: dict[tuple[str, int], int] = {}
    for report in reports:
        if report.ratio is None:
            continue
        key = (report.domain, report.day_index)
        totals[key] = totals.get(key, 0) + 1
        if report.has_variation:
            varied[key] = varied.get(key, 0) + 1
    out: dict[str, dict[int, float]] = {}
    for (domain, day), total in totals.items():
        out.setdefault(domain, {})[day] = varied.get((domain, day), 0) / total
    return out


def extent_stability(reports: Sequence[PriceCheckReport]) -> dict[str, StabilityRow]:
    per_day = daily_extent(reports)
    out: dict[str, StabilityRow] = {}
    for domain, by_day in per_day.items():
        days = sorted(by_day)
        extents = [by_day[d] for d in days]
        deltas = [abs(a - b) for a, b in zip(extents, extents[1:])] or [0.0]
        out[domain] = StabilityRow(
            domain=domain,
            days=len(days),
            mean_extent=sum(extents) / len(extents),
            max_daily_delta=max(deltas),
        )
    return out


def product_persistence(
    reports: Sequence[PriceCheckReport], *, min_days: int = 2
) -> dict[str, float]:
    if min_days < 2:
        raise ValueError("min_days must be >= 2 to speak of persistence")
    rounds: dict[str, dict[str, list[bool]]] = {}
    for report in reports:
        if report.ratio is None:
            continue
        rounds.setdefault(report.domain, {}).setdefault(report.url, []).append(
            report.has_variation
        )
    out: dict[str, float] = {}
    for domain, products in rounds.items():
        eligible = {
            url: flags for url, flags in products.items()
            if len(flags) >= min_days and any(flags)
        }
        if not eligible:
            continue
        persistent = sum(1 for flags in eligible.values() if all(flags))
        out[domain] = persistent / len(eligible)
    return out


# ----------------------------------------------------------------------
# products (Figs. 5, 6)
# ----------------------------------------------------------------------
def ratio_vs_min_price(
    reports: Sequence[PriceCheckReport], *, only_variation: bool = False
) -> list[ProductPoint]:
    per_product: dict[str, list[PriceCheckReport]] = {}
    for report in reports:
        if report.ratio is not None:
            per_product.setdefault(report.url, []).append(report)
    points = []
    for url, product_reports in per_product.items():
        ratios = [r.ratio for r in product_reports if r.ratio is not None]
        mins = [r.min_usd for r in product_reports if r.min_usd is not None]
        if not ratios or not mins:
            continue
        if only_variation and not any(r.has_variation for r in product_reports):
            continue
        points.append(
            ProductPoint(
                url=url,
                domain=product_reports[0].domain,
                min_price_usd=min(mins),
                max_ratio=max(ratios),
            )
        )
    points.sort(key=lambda p: p.min_price_usd)
    return points


def per_vantage_structure(
    reports: Sequence[PriceCheckReport],
    domain: str,
    *,
    vantages: Optional[Sequence[str]] = None,
) -> list[VantageSeries]:
    domain_reports = [r for r in reports if r.domain == domain]
    per_product: dict[str, list[PriceCheckReport]] = {}
    for report in domain_reports:
        per_product.setdefault(report.url, []).append(report)

    series_points: dict[str, list[tuple[float, float]]] = {}
    for url, product_reports in per_product.items():
        mins = [r.min_usd for r in product_reports if r.min_usd is not None]
        if not mins:
            continue
        price = min(mins)
        per_vantage: dict[str, list[float]] = {}
        for report in product_reports:
            for vantage, ratio in report.ratios_by_vantage().items():
                per_vantage.setdefault(vantage, []).append(ratio)
        for vantage, ratios in per_vantage.items():
            if vantages is not None and vantage not in vantages:
                continue
            series_points.setdefault(vantage, []).append(
                (price, percentile(ratios, 50))
            )

    out = []
    for vantage in sorted(series_points):
        points = tuple(sorted(series_points[vantage]))
        out.append(VantageSeries(vantage=vantage, points=points))
    return out


# ----------------------------------------------------------------------
# cleaning (§2.2, §3.2)
# ----------------------------------------------------------------------
def dataset_guard(
    rates: RateService, reports: Sequence[PriceCheckReport], *, margin: float = 0.0
) -> float:
    if not len(reports):
        raise ValueError("no reports")
    currencies: set[str] = set()
    days: set[int] = set()
    for report in reports:
        days.add(report.day_index)
        for obs in report.valid_observations():
            if obs.currency:
                currencies.add(obs.currency)
    if not currencies:
        currencies = {"USD"}
    return max_gap_ratio(rates, currencies, days, margin=margin)


def clean_reports(
    reports: Sequence[PriceCheckReport],
    rates: RateService,
    *,
    min_points: int = 2,
    guard_margin: float = 0.0,
    require_repeatable: bool = False,
) -> CleanResult:
    result = CleanResult(kept=[])
    if not reports:
        return result
    result.guard = dataset_guard(rates, reports, margin=guard_margin)
    # Validity first, repeatability second: a measurement round that
    # fails the data-quality filters (too few observations, corrupted
    # non-positive prices) is not evidence about whether a product's
    # variation recurs -- an adversary serving garbage on alternate days
    # must not be able to veto the clean days' verdict.
    prefiltered: list[PriceCheckReport] = []
    for report in reports:
        valid = report.valid_observations()
        if len(valid) < min_points:
            result.dropped["too-few-observations"] += 1
            continue
        if any(obs.amount is not None and obs.amount <= 0 for obs in valid):
            result.dropped["non-positive-price"] += 1
            continue
        prefiltered.append(report)
    repeatable: Optional[set[str]] = None
    if require_repeatable:
        repeatable = repeatable_products(prefiltered, guard=result.guard)
    for report in prefiltered:
        report.guard_threshold = result.guard
        if repeatable is not None and report.has_variation and report.url not in repeatable:
            result.dropped["not-repeatable"] += 1
            continue
        result.kept.append(report)
    return result


def repeatable_products(
    reports: Sequence[PriceCheckReport], *, guard: float, min_fraction: float = 0.5
) -> set[str]:
    rounds: dict[str, list[bool]] = {}
    for report in reports:
        if len(report.valid_observations()) < 2:
            continue
        ratio = report.ratio
        varied = ratio is not None and ratio > guard
        rounds.setdefault(report.url, []).append(varied)
    out: set[str] = set()
    for url, outcomes in rounds.items():
        if len(outcomes) == 1:
            out.add(url)
        elif sum(outcomes) / len(outcomes) > min_fraction:
            out.add(url)
    return out
