"""Extent of price variation per domain (Fig. 3).

"Fig. 3 shows the fraction of requests we sent out to each retailer that
had price variation.  In some cases, we see a 100% coverage, pointing to
the fact that price variations are a persistent and repeatable phenomenon."
"""

from __future__ import annotations

from typing import Sequence

from repro.core.reports import PriceCheckReport
from repro.store import as_table_slice

__all__ = ["variation_extent"]


def variation_extent(
    reports: Sequence[PriceCheckReport], *, min_reports: int = 1
) -> dict[str, float]:
    """domain -> fraction of its checks that showed guarded variation.

    One pass over the domain/ratio/guard columns of the reports' table
    (see :func:`~repro.store.as_table_slice`).
    """
    if min_reports < 1:
        raise ValueError("min_reports must be >= 1")
    sliced = as_table_slice(reports)
    table = sliced.table
    ratio, guard, domain_id = table.ratio, table.guard, table.domain_id
    totals: dict[int, int] = {}
    varied: dict[int, int] = {}
    for i in sliced.rows:
        r = ratio[i]
        if r is None:
            continue
        did = domain_id[i]
        totals[did] = totals.get(did, 0) + 1
        if r > guard[i]:
            varied[did] = varied.get(did, 0) + 1
    value = table.domains.value
    return {
        value(did): varied.get(did, 0) / total
        for did, total in totals.items()
        if total >= min_reports
    }
