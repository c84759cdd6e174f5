"""The ``analyze_large`` input: a big crawl dataset made from the seed.

Reports mimic a long systematic crawl of the paper world at the quick
scale: the world's own crawled domains, product paths and vantage fleet,
one report per (product, day), prices shown in each vantage's display
currency and converted at the day's rate by the program's own
:class:`~repro.fx.Converter`.  A seeded share of domains price by
location, so the cleaning guard and every figure kernel have real work.
The file is written by :func:`repro.io.save_crawl_dataset` in the layout
``repro crawl --out`` writes.
"""

from __future__ import annotations

import random
from pathlib import Path


def generate(path: Path, *, seed: int, world_seed: int, n_reports: int) -> int:
    """Write ``n_reports`` crawl reports drawn from ``seed`` against the
    quick-scale world at ``world_seed`` to ``path``; returns the count."""
    from repro.core.reports import PriceCheckReport, VantageObservation
    from repro.crawler.records import CrawlDataset
    from repro.ecommerce.localization import locale_for_country
    from repro.ecommerce.world import build_world
    from repro.experiments.context import SCALES
    from repro.fx.convert import Converter
    from repro.io import save_crawl_dataset
    from repro.net.clock import SECONDS_PER_DAY

    rng = random.Random(seed)
    world = build_world(SCALES["quick"].world_config(world_seed))
    converter = Converter(world.rates)
    domains = list(world.crawled_domains)
    vantages = [
        (vp.name, vp.location.country_code, vp.location.city,
         locale_for_country(vp.location.country_code).currency.code)
        for vp in world.vantage_points
    ]
    # Per-domain, per-vantage price multipliers: ~1/3 of domains
    # discriminate by location, the rest price uniformly.
    premium = {}
    for domain in domains:
        discriminates = rng.random() < 0.35
        premium[domain] = [
            1.0 + (rng.choice((0.0, 0.05, 0.1, 0.3)) if discriminates else 0.0)
            for _ in vantages
        ]
    products = {
        domain: [p.path for p in world.retailer(domain).catalog.products[:40]]
        for domain in domains
    }
    base_price = {}
    first_day = 155
    dataset = CrawlDataset()
    for i in range(n_reports):
        domain = domains[i % len(domains)]
        paths = products[domain]
        path_ = paths[(i // len(domains)) % len(paths)]
        day = first_day + (i // (len(domains) * len(paths))) % 60
        key = (domain, path_)
        if key not in base_price:
            base_price[key] = round(rng.uniform(5.0, 900.0), 2)
        observations = []
        currencies = set()
        for v, (name, country, city, currency) in enumerate(vantages):
            if rng.random() < 0.01:
                observations.append(VantageObservation(
                    vantage=name, country_code=country, city=city, ok=False,
                    error="network: timeout (after 3 attempts)",
                ))
                continue
            usd_target = base_price[key] * premium[domain][v]
            per_unit = converter.to_usd(1.0, currency, day)
            amount = round(usd_target / per_unit, 2)
            currencies.add(currency)
            observations.append(VantageObservation(
                vantage=name, country_code=country, city=city, ok=True,
                raw_text=f"{amount:.2f} {currency}", amount=amount,
                currency=currency, usd=converter.to_usd(amount, currency, day),
                method="selector",
            ))
        dataset.add(PriceCheckReport(
            check_id=f"chk{i + 1:07d}",
            url=f"http://{domain}{path_}",
            domain=domain,
            day_index=day,
            timestamp=day * SECONDS_PER_DAY + 60.0 * (i % 1000),
            observations=observations,
            guard_threshold=1.0 + 0.01 * len(currencies),
            origin="crawler",
        ))
    return save_crawl_dataset(dataset, path, seed=world_seed)
