"""Tests for repro.isp.billing — 95/5 percentile billing (Section 5.4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isp.billing import BillImpact, PercentileBilling, bill_impact
from repro.isp.snmp import SnmpCounters


class TestPercentileBilling:
    def test_discards_top_five_percent(self):
        billing = PercentileBilling()
        samples = [1.0] * 95 + [100.0] * 5
        # Exactly the top 5% spike is free.
        assert billing.billable_gbps(samples) == 1.0

    def test_sustained_spike_bills(self):
        billing = PercentileBilling()
        samples = [1.0] * 90 + [100.0] * 10  # 10% of the month elevated
        assert billing.billable_gbps(samples) == 100.0

    def test_empty_is_zero(self):
        assert PercentileBilling().billable_gbps([]) == 0.0

    def test_single_sample_bills_in_full(self):
        assert PercentileBilling().billable_gbps([7.0]) == 7.0

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=200))
    def test_billable_between_min_and_max_property(self, samples):
        billable = PercentileBilling().billable_gbps(samples)
        assert min(samples) <= billable <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=20, max_size=200))
    def test_billable_at_most_full_peak_property(self, samples):
        """95/5 never bills above the true peak, never below the median."""
        billing = PercentileBilling()
        billable = billing.billable_gbps(samples)
        assert billable <= max(samples)
        assert billable >= sorted(samples)[len(samples) // 2]


class TestSamplesFromSnmp:
    def test_rates_and_zero_fill(self):
        snmp = SnmpCounters(bin_seconds=300.0)
        snmp.add_bytes("l1", 0.0, int(300 * 1e9 / 8))  # 1 Gbps for one bin
        samples = PercentileBilling().samples_from_snmp(
            snmp, ["l1"], 0.0, 1500.0
        )
        assert len(samples) == 5
        assert samples[0] == pytest.approx(1.0)
        assert samples[1:] == [0.0] * 4

    def test_aggregates_link_group(self):
        snmp = SnmpCounters(bin_seconds=300.0)
        snmp.add_bytes("l1", 0.0, int(300 * 1e9 / 8))
        snmp.add_bytes("l2", 0.0, int(300 * 1e9 / 8))
        samples = PercentileBilling().samples_from_snmp(
            snmp, ["l1", "l2"], 0.0, 300.0
        )
        assert samples == [pytest.approx(2.0)]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            PercentileBilling().samples_from_snmp(SnmpCounters(), ["l"], 10.0, 10.0)


class TestBillImpact:
    def test_event_raises_committed_rate(self):
        snmp = SnmpCounters(bin_seconds=3600.0)
        one_gbps_hour = int(3600 * 1e9 / 8)
        # 10 quiet days at 1 Gbps, then 2 event days at 10 Gbps.
        for hour in range(240):
            snmp.add_bytes("d", hour * 3600.0, one_gbps_hour)
        for hour in range(240, 288):
            snmp.add_bytes("d", hour * 3600.0, one_gbps_hour * 10)
        impact = bill_impact(
            snmp, ["d"],
            baseline_start=0.0,
            event_start=240 * 3600.0,
            event_end=288 * 3600.0,
        )
        assert impact.baseline_gbps == pytest.approx(1.0)
        # 48 elevated hours out of 288 samples is way past the top 5%.
        assert impact.with_event_gbps == pytest.approx(10.0)
        assert impact.multiplier == pytest.approx(10.0)
        assert "10.0x" in impact.render()

    def test_zero_baseline(self):
        impact = BillImpact(baseline_gbps=0.0, with_event_gbps=5.0)
        assert impact.multiplier == float("inf")
        assert BillImpact(0.0, 0.0).multiplier == 1.0


class TestAsDImpactIntegration:
    def test_as_d_bill_multiplies(self, event_run):
        """The paper's §5.4 observation: AS D's 95/5 bill explodes."""
        scenario, _, _ = event_run
        from repro.workload import TIMELINE

        impact = bill_impact(
            scenario.snmp,
            ["transit-d-1", "transit-d-2", "transit-d-3", "transit-d-4"],
            baseline_start=TIMELINE.at(9, 15),
            event_start=TIMELINE.at(9, 19),
            event_end=TIMELINE.at(9, 22),
        )
        assert impact.baseline_gbps == 0.0  # unseen before the event
        assert impact.with_event_gbps > 10.0
        assert impact.multiplier == float("inf")
