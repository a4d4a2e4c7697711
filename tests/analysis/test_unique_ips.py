"""Tests for repro.analysis.unique_ips and categories (Figures 4/5)."""

import pytest

from repro.analysis.categories import CATEGORY_ORDER, CdnCategorizer
from repro.analysis.unique_ips import (
    count_change_ratio,
    peak_vs_baseline,
    series_by_continent,
    unique_ip_series,
    windowed_unique_ip_series,
)
from repro.atlas.results import DnsMeasurement, MeasurementStore
from repro.net.asys import ASN
from repro.net.geo import Continent
from repro.net.ipv4 import IPv4Address
from repro.workload import TIMELINE


def measurement(ts, addresses, continent=Continent.EUROPE, probe=1):
    return DnsMeasurement(
        probe_id=probe,
        timestamp=ts,
        target="appldnld.apple.com",
        probe_asn=ASN(64520),
        continent=continent,
        country="de",
        rcode="NOERROR",
        chain=("appldnld.apple.com",),
        addresses=tuple(IPv4Address.parse(a) for a in addresses),
    )


def simple_categorize(address):
    first_octet = address.octets[0]
    if first_octet == 17:
        return "Apple"
    if first_octet == 23:
        return "Akamai"
    return "other"


class TestUniqueIpSeries:
    def test_counts_unique_within_bin(self):
        measurements = [
            measurement(0.0, ["17.0.0.1", "17.0.0.2"]),
            measurement(100.0, ["17.0.0.1", "23.0.0.1"]),
            measurement(7200.0, ["17.0.0.1"]),
        ]
        series = unique_ip_series(measurements, simple_categorize, bin_seconds=7200.0)
        assert len(series) == 2
        assert series[0].count("Apple") == 2
        assert series[0].count("Akamai") == 1
        assert series[0].total == 3
        assert series[1].total == 1

    def test_continent_filter(self):
        measurements = [
            measurement(0.0, ["17.0.0.1"], continent=Continent.EUROPE),
            measurement(1.0, ["23.0.0.1"], continent=Continent.ASIA),
        ]
        series = unique_ip_series(
            measurements, simple_categorize, continent=Continent.EUROPE
        )
        assert series[0].counts == {"Apple": 1}

    def test_series_by_continent_covers_all_facets(self):
        measurements = [measurement(0.0, ["17.0.0.1"])]
        facets = series_by_continent(measurements, simple_categorize)
        assert set(facets) == set(Continent)
        assert facets[Continent.EUROPE][0].total == 1
        assert facets[Continent.ASIA] == []

    def test_invalid_bin(self):
        with pytest.raises(ValueError):
            unique_ip_series([], simple_categorize, bin_seconds=0)

    def test_failed_measurement_still_creates_its_bin(self):
        # A matching measurement with no addresses creates its time bin
        # (with an empty counts dict) — both paths must agree on this.
        measurements = [measurement(0.0, [])]
        series = unique_ip_series(measurements, simple_categorize)
        assert len(series) == 1
        assert series[0].counts == {}
        assert series[0].total == 0


def store_of(measurements, segment_rows=4):
    store = MeasurementStore(segment_rows=segment_rows)
    for m in measurements:
        store.add_dns(m)
    return store


class TestStoreFastPath:
    """The columnar store path must agree with the object-scan path."""

    def sample(self):
        measurements = []
        continents = [Continent.EUROPE, Continent.ASIA, Continent.NORTH_AMERICA]
        for index in range(60):
            addresses = [f"17.0.0.{1 + index % 7}", f"23.0.{index % 3}.1"]
            if index % 9 == 4:
                addresses = []
            measurements.append(
                measurement(
                    index * 600.0,
                    addresses,
                    continent=continents[index % 3],
                    probe=index % 5,
                )
            )
        return measurements

    def test_store_matches_iterable(self):
        measurements = self.sample()
        store = store_of(measurements)
        for continent in (None, Continent.EUROPE, Continent.AFRICA):
            assert unique_ip_series(
                store, simple_categorize, 7200.0, continent=continent
            ) == unique_ip_series(
                measurements, simple_categorize, 7200.0, continent=continent
            )

    def test_series_by_continent_matches_iterable(self):
        measurements = self.sample()
        store = store_of(measurements)
        assert series_by_continent(store, simple_categorize) == (
            series_by_continent(measurements, simple_categorize)
        )

    def test_empty_store(self):
        store = MeasurementStore()
        assert unique_ip_series(store, simple_categorize) == []
        assert windowed_unique_ip_series(store, simple_categorize) == []
        facets = series_by_continent(store, simple_categorize)
        assert set(facets) == set(Continent)
        assert all(series == [] for series in facets.values())

    def test_single_measurement(self):
        store = store_of([measurement(100.0, ["17.0.0.1"])])
        series = unique_ip_series(store, simple_categorize)
        assert len(series) == 1
        assert series[0].bin_start == 0.0
        assert series[0].counts == {"Apple": 1}

    def test_windowed_matches_filtered_scan(self):
        measurements = self.sample()
        store = store_of(measurements)
        start, end = 6_000.0, 24_000.0
        expected = unique_ip_series(
            [m for m in measurements if start <= m.timestamp < end],
            simple_categorize,
        )
        assert windowed_unique_ip_series(
            store, simple_categorize, start=start, end=end
        ) == expected

    def test_window_boundaries_exactly_on_bucket_edges(self):
        bin_seconds = 7200.0
        measurements = [
            measurement(0.0, ["17.0.0.1"]),
            measurement(bin_seconds, ["17.0.0.2"]),  # first instant of bin 1
            measurement(2 * bin_seconds - 0.001, ["23.0.0.1"]),  # last of bin 1
            measurement(2 * bin_seconds, ["17.0.0.3"]),  # first of bin 2
        ]
        store = store_of(measurements, segment_rows=2)
        # Window [bin 1, bin 2): includes both edge measurements of bin
        # 1, excludes the measurement sitting exactly on the end bound.
        series = windowed_unique_ip_series(
            store,
            simple_categorize,
            bin_seconds=bin_seconds,
            start=bin_seconds,
            end=2 * bin_seconds,
        )
        assert len(series) == 1
        assert series[0].bin_start == bin_seconds
        assert series[0].counts == {"Akamai": 1, "Apple": 1}

    def test_invalid_bin_on_store_paths(self):
        store = MeasurementStore()
        with pytest.raises(ValueError):
            unique_ip_series(store, simple_categorize, bin_seconds=0)
        with pytest.raises(ValueError):
            windowed_unique_ip_series(store, simple_categorize, bin_seconds=-1)
        with pytest.raises(ValueError):
            series_by_continent(store, simple_categorize, bin_seconds=0)


class TestPeakVsBaseline:
    def test_computes_ratio_inputs(self):
        event = 10 * 7200.0
        measurements = []
        # two days before: 2 IPs per bin; after: 10 IPs in one bin
        for index in range(10):
            measurements.append(
                measurement(index * 7200.0, ["17.0.0.1", "17.0.0.2"])
            )
        measurements.append(
            measurement(event + 100.0, [f"23.0.0.{i}" for i in range(1, 11)])
        )
        series = unique_ip_series(measurements, simple_categorize)
        peak, baseline = peak_vs_baseline(series, event)
        assert peak == 10
        assert baseline == pytest.approx(2.0)

    def test_empty_series(self):
        peak, baseline = peak_vs_baseline([], 100.0)
        assert peak == 0
        assert baseline == 0.0


class TestCountChangeRatio:
    def test_akamai_style_rise(self):
        measurements = [
            measurement(0.0, ["23.0.0.1"]),
            measurement(86400.0, [f"23.0.0.{i}" for i in range(1, 6)]),
        ]
        series = unique_ip_series(measurements, simple_categorize, bin_seconds=86400.0)
        ratio = count_change_ratio(series, "Akamai", 0.0, 86400.0)
        assert ratio == pytest.approx(5.0)

    def test_missing_category(self):
        series = unique_ip_series(
            [measurement(0.0, ["17.0.0.1"])], simple_categorize
        )
        assert count_change_ratio(series, "Akamai", 0.0, 7200.0) is None


class TestCdnCategorizerIntegration:
    def test_categorizer_against_scenario(self, event_run):
        scenario, _, _ = event_run
        categorizer = CdnCategorizer(scenario.estate.deployments)
        apple_vip = scenario.estate.apple.sites[0].vip_addresses[0]
        assert categorizer.category(apple_vip) == "Apple"
        assert categorizer.operator(apple_vip) == "Apple"
        # Hosted caches classify as "other AS" variants.
        categories = set()
        for placed in scenario.estate.akamai.servers:
            categories.add(categorizer.category(placed.server.address))
        assert categories == {"Akamai", "Akamai other AS"}
        assert categorizer.category(IPv4Address.parse("8.8.8.8")) == "other"
        assert categorizer.operator(IPv4Address.parse("8.8.8.8")) is None

    def test_category_order_covers_everything(self, event_run):
        scenario, _, _ = event_run
        categorizer = CdnCategorizer(scenario.estate.deployments)
        for measurementt in scenario.global_campaign.store.dns:
            for address in measurementt.addresses:
                assert categorizer.category(address) in CATEGORY_ORDER


class TestFigure4Headlines:
    """The Figure 4/5 headline shapes from the shared event run."""

    def test_europe_spikes_apple_stays_flat(self, event_run):
        scenario, _, _ = event_run
        categorizer = CdnCategorizer(scenario.estate.deployments)
        series = unique_ip_series(
            scenario.global_campaign.store.dns,
            categorizer.category,
            bin_seconds=7200.0,
            continent=Continent.EUROPE,
        )
        release = TIMELINE.ios_11_0_release
        peak, baseline = peak_vs_baseline(series, release)
        assert baseline > 0
        assert peak / baseline > 3.0  # paper: >4x (977 vs 191)
        # Apple's own count does not react.
        apple_before = max(
            point.count("Apple")
            for point in series
            if point.bin_start < release
        )
        apple_after = max(
            point.count("Apple")
            for point in series
            if point.bin_start >= release
        )
        assert apple_after <= apple_before * 1.5

    def test_limelight_dominates_the_spike(self, event_run):
        scenario, _, _ = event_run
        categorizer = CdnCategorizer(scenario.estate.deployments)
        series = unique_ip_series(
            scenario.global_campaign.store.dns,
            categorizer.category,
            bin_seconds=7200.0,
            continent=Continent.EUROPE,
        )
        release = TIMELINE.ios_11_0_release
        post = [p for p in series if p.bin_start >= release]
        peak_bin = max(post, key=lambda p: p.total)
        limelight = peak_bin.count("Limelight") + peak_bin.count("Limelight other AS")
        assert limelight > peak_bin.count("Apple")

    def test_isp_akamai_count_rises(self, event_run):
        scenario, _, _ = event_run
        categorizer = CdnCategorizer(scenario.estate.deployments)
        series = unique_ip_series(
            scenario.isp_campaign.store.dns,
            categorizer.category,
            bin_seconds=43200.0,
        )
        ratio = count_change_ratio(
            series,
            "Akamai",
            TIMELINE.at(9, 18),
            TIMELINE.at(9, 20),
        )
        assert ratio is not None
        assert ratio > 1.5  # paper: 408% rise Sep 18 -> Sep 20


class TestFormatSeries:
    def test_renders_categories_and_totals(self):
        from repro.analysis.unique_ips import format_series

        measurements = [
            measurement(0.0, ["17.0.0.1", "23.0.0.1"]),
            measurement(7200.0, ["17.0.0.1"]),
        ]
        series = unique_ip_series(measurements, simple_categorize)
        text = format_series(series, label_time=lambda t: f"t={t:.0f}")
        assert "Apple" in text
        assert "Akamai" in text
        assert "total" in text
        assert "t=0" in text
        lines = text.splitlines()
        assert len(lines) == 3  # header + two bins

    def test_skips_empty_categories(self):
        from repro.analysis.unique_ips import format_series

        series = unique_ip_series(
            [measurement(0.0, ["17.0.0.1"])], simple_categorize
        )
        text = format_series(series, label_time=str)
        assert "Akamai" not in text
