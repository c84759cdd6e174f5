"""Unit tests for the columnar report store (repro.store)."""

from __future__ import annotations

import pytest

from repro.core.reports import PriceCheckReport, VantageObservation
from repro.io import report_to_dict
from repro.store import ReportTable, StringPool, TableSlice, as_table_slice


def obs(vantage: str = "USA - Boston", usd=10.0, *, ok=True, **kwargs):
    defaults = dict(
        vantage=vantage, country_code="US", city="Boston", ok=ok,
        raw_text=f"${usd}" if ok else "", amount=usd if ok else None,
        currency="USD" if ok else None, usd=usd if ok else None,
        method="selector" if ok else "", error="" if ok else "boom",
    )
    defaults.update(kwargs)
    return VantageObservation(**defaults)


def make_report(i: int = 0, *, domain="d.example", url=None, day=3,
                observations=None, guard=1.02) -> PriceCheckReport:
    return PriceCheckReport(
        check_id=f"chk{i:07d}",
        url=url or f"http://{domain}/p/{i}",
        domain=domain,
        day_index=day,
        timestamp=day * 86400.0 + i,
        observations=observations if observations is not None else [
            obs("USA - Boston", 10.0),
            obs("Finland - Tampere", 12.8),
            obs("UK - London", ok=False),
        ],
        guard_threshold=guard,
        origin="crawler",
    )


class TestStringPool:
    def test_interning_is_stable_and_deduplicating(self):
        pool = StringPool()
        a = pool.intern("x")
        b = pool.intern("y")
        assert pool.intern("x") == a
        assert (a, b) == (0, 1)
        assert pool.value(a) == "x"
        assert pool.id_of("y") == b
        assert pool.id_of("missing") is None
        assert len(pool) == 2

    def test_seeded_pool_preserves_order(self):
        pool = StringPool(["a", "b", "a"])
        assert pool.values == ["a", "b"]


class TestReportTable:
    def test_append_and_materialize_roundtrip(self):
        table = ReportTable()
        reports = [make_report(i, day=i) for i in range(3)]
        for report in reports:
            table.append(report)
        assert len(table) == 3
        assert table.n_observations == 9
        for i, original in enumerate(reports):
            assert report_to_dict(table.report(i)) == report_to_dict(original)

    def test_materialized_rows_are_cached(self):
        table = ReportTable()
        table.append(make_report())
        assert table.report(0) is table.report(0)

    def test_derived_columns_match_dataclass_properties(self):
        table = ReportTable()
        report = make_report()
        i = table.append(report)
        assert table.n_valid[i] == len(report.valid_observations())
        assert table.min_usd[i] == report.min_usd
        assert table.max_usd[i] == report.max_usd
        assert table.ratio[i] == report.ratio
        assert table.row_has_variation(i) == report.has_variation

    def test_zero_usd_counts_as_valid(self):
        """Regression: usd == 0.0 is a price, not a missing value."""
        report = make_report(observations=[obs(usd=0.0), obs(usd=5.0)])
        assert len(report.valid_observations()) == 2
        assert report.min_usd == 0.0
        assert report.ratio is None  # non-positive minimum: no ratio
        table = ReportTable()
        i = table.append(report)
        assert table.n_valid[i] == 2
        assert table.min_usd[i] == 0.0
        assert table.ratio[i] is None

    def test_all_failed_observations(self):
        table = ReportTable()
        i = table.append(make_report(observations=[obs(ok=False)]))
        assert table.n_valid[i] == 0
        assert table.min_usd[i] is None
        assert table.ratio[i] is None
        assert not table.row_has_variation(i)

    def test_ratios_by_vantage_matches_dataclass(self):
        table = ReportTable()
        report = make_report()
        i = table.append(report)
        named = {
            table.vantages.value(vid): ratio
            for vid, ratio in table.ratios_by_vantage(i)
        }
        assert named == report.ratios_by_vantage()

    def test_set_guard_updates_column_and_cached_rows(self):
        table = ReportTable()
        table.append(make_report(guard=1.0))
        row = table.report(0)  # materialize first
        table.set_guard(1.5, [0])
        assert table.guard[0] == 1.5
        assert row.guard_threshold == 1.5  # cached row kept in sync
        assert table.report(0).guard_threshold == 1.5

    def test_index_cache_invalidated_by_append(self):
        table = ReportTable()
        table.append(make_report(0, domain="a.example", day=0))
        first = table.rows_by_domain()
        assert list(first.values()) == [[0]]
        assert table.rows_by_domain() is first  # cached at same version
        table.append(make_report(1, domain="b.example", day=1))
        second = table.rows_by_domain()
        assert second is not first
        assert len(second) == 2
        assert table.day_values() == [0, 1]

    def test_columns_roundtrip(self):
        table = ReportTable()
        for i in range(4):
            table.append(make_report(i, domain=f"s{i % 2}.example", day=i))
        again = ReportTable.from_columns(*table.to_columns())
        assert len(again) == len(table)
        for i in range(len(table)):
            assert report_to_dict(again.report(i)) == report_to_dict(table.report(i))
        assert again.n_valid == table.n_valid
        assert again.ratio == table.ratio

    def test_from_columns_validates_shapes(self):
        table = ReportTable()
        table.append(make_report())
        pools, reports, observations = table.to_columns()
        broken = dict(reports, day=[])
        with pytest.raises(ValueError):
            ReportTable.from_columns(pools, broken, observations)
        broken = dict(reports, obs_start=[0, 99])
        with pytest.raises(ValueError):
            ReportTable.from_columns(pools, broken, observations)

    def test_from_columns_rejects_out_of_pool_ids(self):
        """Corrupted id columns must fail loudly, not silently wrap to
        the wrong pooled string."""
        table = ReportTable()
        table.append(make_report())
        pools, reports, observations = table.to_columns()
        for column, section in (("domain", "reports"), ("url", "reports"),
                                ("vantage", "observations")):
            data = {"reports": dict(reports), "observations": dict(observations)}
            for bad_id in (-2, 99):
                data[section][column] = [bad_id] * len(data[section][column])
                with pytest.raises(ValueError):
                    ReportTable.from_columns(
                        pools, data["reports"], data["observations"]
                    )
        # The currency sentinel (-1 = no currency) stays legal.
        ok = dict(observations, currency=[-1] * len(observations["currency"]))
        assert len(ReportTable.from_columns(pools, reports, ok)) == 1

    def test_report_rejects_out_of_range_row(self):
        table = ReportTable()
        table.append(make_report())
        with pytest.raises(IndexError):
            table.report(1)
        with pytest.raises(IndexError):
            table.report(-1)


class TestTableSlice:
    def test_sequence_protocol(self):
        table = ReportTable()
        for i in range(5):
            table.append(make_report(i))
        sliced = TableSlice(table)
        assert len(sliced) == 5
        assert sliced[0].check_id == "chk0000000"
        assert [r.check_id for r in sliced] == [f"chk{i:07d}" for i in range(5)]
        sub = sliced[1:3]
        assert isinstance(sub, TableSlice)
        assert [r.check_id for r in sub] == ["chk0000001", "chk0000002"]

    def test_as_table_slice_dispatch(self):
        table = ReportTable()
        table.append(make_report())
        sliced = TableSlice(table)
        assert as_table_slice(sliced) is sliced
        assert as_table_slice(table).table is table
        assert as_table_slice(table).rows == range(1)
        # Any other sequence becomes a fresh table over the caller's own
        # objects: iteration returns them, guard writes reach them.
        reports = [make_report(i) for i in range(3)]
        built = as_table_slice(reports)
        assert isinstance(built, TableSlice)
        assert built.table is not table
        assert all(a is b for a, b in zip(built, reports))
        built.table.set_guard(1.5, [1])
        assert [r.guard_threshold for r in reports] == [1.02, 1.5, 1.02]
        assert built.table.guard[1] == 1.5
        assert as_table_slice([]).rows == range(0)

    def test_empty_slice(self):
        sliced = TableSlice(ReportTable())
        assert len(sliced) == 0
        assert list(sliced) == []
