"""Columnar/list equivalence: every analysis kernel must return exactly
the same result over :class:`~repro.store.ReportTable` rows as the seed
list-based implementation (the oracle in ``tests/list_analysis.py``) does
over the materialized dataclasses.

Property-style: a deterministic pseudo-random generator produces datasets
mixing multiple domains/products/days/currencies, failed observations,
``usd == 0.0`` edge cases and missing vantages; plus the named edge cases
the refactor must not regress (empty dataset, all-failed observations,
single domain).  For order-sensitive outputs (dicts feeding figure row
order, ``most_common`` tie-breaking) key *order* is asserted too, not
just dict equality.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.cleaning import clean_reports, dataset_guard, repeatable_products
from repro.analysis.extent import variation_extent
from repro.analysis.locations import (
    finland_profile,
    location_ratio_stats,
    pairwise_grid,
)
from repro.analysis.longitudinal import (
    daily_extent,
    extent_stability,
    product_persistence,
)
from repro.analysis.products import per_vantage_structure, ratio_vs_min_price
from repro.analysis.ratios import (
    domain_ratio_stats,
    domain_ratios,
    domain_variation_counts,
)
from repro.core.reports import PriceCheckReport, VantageObservation
from repro.fx.rates import RateService
from repro.io import report_to_dict
from repro.store import ReportTable, TableSlice
from tests import list_analysis as oracle

VANTAGES = [
    ("USA - Boston", "US", "Boston"),
    ("Finland - Tampere", "FI", "Tampere"),
    ("UK - London", "GB", "London"),
    ("Brazil - Sao Paulo", "BR", "Sao Paulo"),
    ("Germany - Berlin", "DE", "Berlin"),
]
CURRENCIES = ["USD", "EUR", "GBP", "BRL", None]


def synthetic_reports(seed: int, n: int) -> list[PriceCheckReport]:
    rng = random.Random(seed)
    domains = [f"www.shop{d}.example" for d in range(rng.randint(1, 5))]
    reports = []
    for i in range(n):
        domain = rng.choice(domains)
        url = f"http://{domain}/p/{rng.randint(0, 6)}"
        day = rng.randint(150, 155)
        observations = []
        for vantage, country, city in VANTAGES:
            if rng.random() < 0.2:  # missing vantage
                continue
            if rng.random() < 0.15:  # failed fetch/extraction
                observations.append(VantageObservation(
                    vantage=vantage, country_code=country, city=city,
                    ok=False, error=rng.choice(["http 500", "timeout", "no price"]),
                ))
                continue
            usd = rng.choice([0.0, round(rng.uniform(5, 400), 2)])
            observations.append(VantageObservation(
                vantage=vantage, country_code=country, city=city, ok=True,
                raw_text=f"{usd:.2f}", amount=usd if rng.random() < 0.9 else None,
                currency=rng.choice(CURRENCIES), usd=usd, method="selector",
            ))
        reports.append(PriceCheckReport(
            check_id=f"chk{i:07d}",
            url=url,
            domain=domain,
            day_index=day,
            timestamp=day * 86400.0 + i,
            observations=observations,
            guard_threshold=round(rng.uniform(1.0, 1.2), 3),
            origin="crawler",
        ))
    return reports


def copies_and_slice(reports):
    """Two independent inputs over identical data: a plain dataclass list
    (for the oracle) and a table slice (for the kernels)."""
    from repro.io import report_from_dict

    # Deep-copy through serialization so in-place guard mutation on one
    # path can never leak into the other.
    list_input = [report_from_dict(report_to_dict(r)) for r in reports]
    table = ReportTable()
    table.extend(reports)
    return list_input, TableSlice(table)


def ordered(d: dict) -> list:
    return list(d.items())


EDGE_CASES = {
    "empty": [],
    "all_failed": [
        PriceCheckReport(
            check_id=f"chk{i:07d}", url=f"http://only.example/p/{i}",
            domain="only.example", day_index=1, timestamp=86400.0 + i,
            observations=[VantageObservation(
                vantage=v, country_code=c, city=city, ok=False, error="down",
            ) for v, c, city in VANTAGES],
        )
        for i in range(4)
    ],
    # Ratios exactly at, just above and just below the guard (8 -> 10 is
    # exactly x1.25 in binary floating point): pins ``>`` vs ``>=``.
    "at_guard": [
        PriceCheckReport(
            check_id=f"chk{i:07d}", url=f"http://edge.example/p/{i % 2}",
            domain="edge.example", day_index=1 + i // 3,
            timestamp=86400.0 + i,
            observations=[
                VantageObservation(
                    vantage=v, country_code=c, city=city, ok=True,
                    raw_text=f"{usd:.2f}", amount=usd, currency="USD",
                    usd=usd, method="selector",
                )
                for (v, c, city), usd in zip(VANTAGES, (8.0, top))
            ],
            guard_threshold=1.25,
        )
        for i, top in enumerate((10.0, 10.01, 9.99, 10.0, 10.0, 9.99))
    ],
    "single_domain": None,  # filled below from the generator
}


def dataset_cases():
    cases = dict(EDGE_CASES)
    single = synthetic_reports(99, 60)
    cases["single_domain"] = [
        PriceCheckReport(
            check_id=r.check_id, url=r.url.replace(r.domain, "one.example"),
            domain="one.example", day_index=r.day_index, timestamp=r.timestamp,
            observations=r.observations, guard_threshold=r.guard_threshold,
        )
        for r in single
    ]
    for seed in (1, 2, 3):
        cases[f"random_{seed}"] = synthetic_reports(seed, 80)
    return cases


CASES = dataset_cases()


@pytest.fixture(params=sorted(CASES), name="case")
def case_fixture(request):
    return CASES[request.param]


class TestKernelEquivalence:
    def test_variation_extent(self, case):
        lst, sliced = copies_and_slice(case)
        assert ordered(oracle.variation_extent(lst)) == ordered(
            variation_extent(sliced)
        )
        assert ordered(oracle.variation_extent(lst, min_reports=3)) == ordered(
            variation_extent(sliced, min_reports=3)
        )

    def test_domain_variation_counts(self, case):
        lst, sliced = copies_and_slice(case)
        a, b = oracle.domain_variation_counts(lst), domain_variation_counts(sliced)
        assert ordered(a) == ordered(b)
        assert a.most_common() == b.most_common()

    def test_domain_ratios_and_stats(self, case):
        lst, sliced = copies_and_slice(case)
        for only_variation in (False, True):
            assert ordered(
                oracle.domain_ratios(lst, only_variation=only_variation)
            ) == ordered(domain_ratios(sliced, only_variation=only_variation))
            assert ordered(
                oracle.domain_ratio_stats(lst, only_variation=only_variation)
            ) == ordered(domain_ratio_stats(sliced, only_variation=only_variation))

    def test_location_ratio_stats(self, case):
        lst, sliced = copies_and_slice(case)
        assert ordered(oracle.location_ratio_stats(lst)) == ordered(
            location_ratio_stats(sliced)
        )
        assert ordered(oracle.location_ratio_stats(lst, min_samples=4)) == ordered(
            location_ratio_stats(sliced, min_samples=4)
        )

    def test_finland_profile(self, case):
        lst, sliced = copies_and_slice(case)
        assert ordered(oracle.finland_profile(lst)) == ordered(finland_profile(sliced))
        assert ordered(
            oracle.finland_profile(lst, finland_vantage="UK - London")
        ) == ordered(finland_profile(sliced, finland_vantage="UK - London"))
        assert ordered(
            oracle.finland_profile(lst, finland_vantage="Nowhere - Nope")
        ) == ordered(finland_profile(sliced, finland_vantage="Nowhere - Nope"))

    def test_pairwise_grid(self, case):
        lst, sliced = copies_and_slice(case)
        domains = {r.domain for r in case} or {"only.example"}
        locations = ["USA - Boston", "Finland - Tampere", "UK - London"]
        for domain in sorted(domains):
            assert oracle.pairwise_grid(lst, domain, locations) == pairwise_grid(
                sliced, domain, locations
            )

    def test_daily_extent_and_stability(self, case):
        lst, sliced = copies_and_slice(case)
        a, b = oracle.daily_extent(lst), daily_extent(sliced)
        assert ordered(a) == ordered(b)
        assert [ordered(v) for v in a.values()] == [ordered(v) for v in b.values()]
        assert ordered(oracle.extent_stability(lst)) == ordered(
            extent_stability(sliced)
        )

    def test_product_persistence(self, case):
        lst, sliced = copies_and_slice(case)
        assert ordered(oracle.product_persistence(lst)) == ordered(
            product_persistence(sliced)
        )

    def test_ratio_vs_min_price(self, case):
        lst, sliced = copies_and_slice(case)
        for only_variation in (False, True):
            assert oracle.ratio_vs_min_price(lst, only_variation=only_variation) == \
                ratio_vs_min_price(sliced, only_variation=only_variation)

    def test_per_vantage_structure(self, case):
        lst, sliced = copies_and_slice(case)
        domains = {r.domain for r in case} or {"only.example"}
        for domain in sorted(domains):
            assert oracle.per_vantage_structure(lst, domain) == per_vantage_structure(
                sliced, domain
            )
            assert oracle.per_vantage_structure(
                lst, domain, vantages=["USA - Boston", "UK - London"]
            ) == per_vantage_structure(
                sliced, domain, vantages=["USA - Boston", "UK - London"]
            )


class TestCleaningEquivalence:
    def test_dataset_guard(self, case):
        if not case:
            return
        lst, sliced = copies_and_slice(case)
        rates = RateService(seed=5)
        assert oracle.dataset_guard(rates, lst) == dataset_guard(rates, sliced)
        assert oracle.dataset_guard(rates, lst, margin=0.01) == dataset_guard(
            rates, sliced, margin=0.01
        )

    def test_repeatable_products(self, case):
        lst, sliced = copies_and_slice(case)
        assert oracle.repeatable_products(lst, guard=1.05) == repeatable_products(
            sliced, guard=1.05
        )

    def test_clean_reports(self, case):
        rates = RateService(seed=5)
        for kwargs in (
            {},
            {"min_points": 3},
            {"require_repeatable": True},
            {"guard_margin": 0.02},
        ):
            lst, sliced = copies_and_slice(case)
            a = oracle.clean_reports(lst, rates, **kwargs)
            b = clean_reports(sliced, rates, **kwargs)
            assert a.guard == b.guard
            assert a.dropped == b.dropped
            assert [report_to_dict(r) for r in a.kept] == [
                report_to_dict(r) for r in b.kept
            ]
            # The guard write must survive on the columnar path too.
            assert all(r.guard_threshold == b.guard for r in b.kept)

    def test_cleaned_slice_feeds_kernels(self, case):
        """The chained pipeline (clean -> figures) stays equivalent."""
        rates = RateService(seed=5)
        lst, sliced = copies_and_slice(case)
        a = oracle.clean_reports(lst, rates)
        b = clean_reports(sliced, rates)
        assert isinstance(b.kept, TableSlice)
        assert ordered(oracle.variation_extent(a.kept)) == ordered(
            variation_extent(b.kept)
        )
        assert ordered(
            oracle.domain_ratio_stats(a.kept, only_variation=True)
        ) == ordered(domain_ratio_stats(b.kept, only_variation=True))
        assert ordered(oracle.location_ratio_stats(a.kept)) == ordered(
            location_ratio_stats(b.kept)
        )


class TestPlainSequenceInput:
    """A plain report list goes through ``as_table_slice`` into a fresh
    table whose row cache holds the caller's own objects."""

    def test_clean_reports_writes_guard_into_caller_objects(self, case):
        rates = RateService(seed=5)
        for kwargs in ({}, {"require_repeatable": True}):
            lst, _ = copies_and_slice(case)
            seed_lst, _ = copies_and_slice(case)
            result = clean_reports(lst, rates, **kwargs)
            seed = oracle.clean_reports(seed_lst, rates, **kwargs)
            assert isinstance(result.kept, TableSlice)
            # Same guard writes as the seed path, object by object --
            # including rounds later dropped as not repeatable.
            assert [r.guard_threshold for r in lst] == [
                r.guard_threshold for r in seed_lst
            ]
            # ``kept`` hands back the caller's objects themselves (a
            # KeyError here means it built new ones).
            assert _positions(lst, result.kept) == _positions(
                seed_lst, seed.kept
            )


def _positions(reports, kept) -> list[int]:
    """Index in ``reports`` of each object in ``kept``, by identity."""
    index = {id(r): i for i, r in enumerate(reports)}
    return [index[id(r)] for r in kept]
