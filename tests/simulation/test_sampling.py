"""End-to-end test of the §5.3 sampling correction.

The paper scaled sampled Netflow volumes by SNMP byte counters "to
minimize Netflow sampling errors".  Here the same event day is run
twice — once with exact collection, once with 1-in-N sampling — and the
SNMP-scaled sampled analysis must agree with the exact one.
"""

from hashlib import blake2b

import pytest

from repro.analysis import operator_series
from repro.isp import TrafficClassifier
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE

SAMPLING = 25


def _run(netflow_sampling, window=(TIMELINE.at(9, 19, 12), TIMELINE.at(9, 20))):
    config = ScenarioConfig(
        global_probe_count=2,
        isp_probe_count=2,
        global_dns_interval=86400.0,
        netflow_sampling=netflow_sampling,
        isp_server_fanout=8,
    )
    scenario = Sep2017Scenario(config)
    if netflow_sampling > 1:
        scenario.netflow.flow_bytes = 512 * 1024 * 1024
    engine = SimulationEngine(scenario, step_seconds=3600.0)
    engine.run(*window)
    classifier = TrafficClassifier(scenario.isp, scenario.rib, scenario.operator_of)
    classified = list(classifier.classify_all(scenario.netflow.records))
    return scenario, classified


@pytest.fixture(scope="module")
def exact_run():
    return _run(netflow_sampling=1)


@pytest.fixture(scope="module")
def sampled_run():
    return _run(netflow_sampling=SAMPLING)


class TestSamplingCorrection:
    def test_snmp_scaled_sampled_matches_exact(self, exact_run, sampled_run):
        _, exact_classified = exact_run
        sampled_scenario, sampled_classified = sampled_run

        exact = operator_series(exact_classified, bin_seconds=86400.0)
        scaled = operator_series(
            sampled_classified,
            bin_seconds=86400.0,
            snmp=sampled_scenario.snmp,
            collector=sampled_scenario.netflow,
        )
        raw = operator_series(sampled_classified, bin_seconds=86400.0)

        for operator in ("Apple", "Limelight"):
            exact_volume = sum(exact[operator].values())
            scaled_volume = sum(scaled[operator].values())
            raw_volume = sum(raw[operator].values())
            # Raw sampled volume is a small fraction of the truth...
            assert raw_volume < exact_volume * 0.2
            # ...but the SNMP correction recovers it.
            assert scaled_volume == pytest.approx(exact_volume, rel=0.15)

    def test_sampled_log_is_pinned(self, sampled_run):
        """Flow count, byte sum and a digest of the columns, recorded
        when the engine still fed the sampled collector row by row."""
        log = sampled_run[0].netflow.records
        digest = blake2b(digest_size=16)
        for column in (log.times, log.srcs, log.dsts, log.sizes, log.link_ids):
            digest.update(column.tobytes())
        digest.update("|".join(log.links).encode())
        assert len(log) == 482_820
        assert sum(log.sizes) == 259_212_013_731_840
        assert digest.hexdigest() == "59ff5a1511c3c17de9ee115a24ea13c7"

    def test_sampled_bytes_are_one_in_n(self, sampled_run):
        sampled_scenario, _ = sampled_run
        collector = sampled_scenario.netflow
        ratio = collector.sampled_bytes() / collector.total_offered_bytes
        assert ratio == pytest.approx(1.0 / SAMPLING, rel=0.35)

    def test_snmp_identical_across_modes(self, exact_run, sampled_run):
        exact_scenario, _ = exact_run
        sampled_scenario, _ = sampled_run
        for link in ("apple-1", "limelight-1"):
            exact_series = dict(exact_scenario.snmp.series(link))
            sampled_series = dict(sampled_scenario.snmp.series(link))
            assert exact_series.keys() == sampled_series.keys()
            for bin_start, volume in exact_series.items():
                assert sampled_series[bin_start] == pytest.approx(volume, rel=1e-6)


def test_one_in_a_thousand_keeps_the_same_bounds():
    """The production rate, over the three busiest hours: the tick's
    block is sampled flow by flow inside the collector, and SNMP counts
    every byte either way."""
    window = (TIMELINE.at(9, 19, 19), TIMELINE.at(9, 19, 22))
    exact, _ = _run(1, window)
    sampled, _ = _run(1000, window)
    collector = sampled.netflow
    assert collector.total_offered_bytes == exact.netflow.total_offered_bytes
    ratio = collector.sampled_bytes() / collector.total_offered_bytes
    assert ratio == pytest.approx(1.0 / 1000, rel=0.35)
    assert sampled.snmp.snapshot_bins() == exact.snmp.snapshot_bins()
    assert list(sampled.snmp.links()) == list(exact.snmp.links())
