"""Tests for repro.faults.health — monitor, filtered schedules, failover loop."""

from unittest import mock

import pytest

from repro.dns.policies import WeightSchedule
from repro.faults import health as health_module
from repro.faults import (
    CdnHealthMonitor,
    FailoverLoop,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultWindow,
    MemberState,
    SelectionHealth,
)
from repro.net.geo import MappingRegion
from repro.obs import EventTracer, MetricsRegistry


def _monitor(k_failures=3, recovery_probes=2,
             members=("Apple", "Akamai", "Limelight"), **kwargs):
    """A monitor built under the given thresholds and member set (the
    module constants a production monitor reads)."""
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("tracer", EventTracer())
    with mock.patch.multiple(
        health_module, K_FAILURES=k_failures, RECOVERY_PROBES=recovery_probes,
        DEFAULT_MEMBERS=members,
    ):
        return CdnHealthMonitor(**kwargs)


def unhealthy(monitor):
    """The members the monitor has failed over, in name order."""
    return tuple(sorted(m for m in monitor.members if not monitor.is_healthy(m)))


AKAMAI_LB = "ios8-eu-lb.apple.com.akadns.net"
LIMELIGHT_LB = "apple.vo.llnwi.net"
GSLB = "a.gslb.applimg.com"

MEMBER_OF = {
    AKAMAI_LB: "Akamai",
    LIMELIGHT_LB: "Limelight",
    GSLB: "Apple",
}.get


class TestStateMachine:
    def test_k_failures_flip_to_unhealthy(self):
        tracer = EventTracer()
        monitor = _monitor(k_failures=3, tracer=tracer)
        monitor.record_probe("Limelight", False, 1.0)
        monitor.record_probe("Limelight", False, 2.0)
        assert monitor.is_healthy("Limelight")
        monitor.record_probe("Limelight", False, 3.0)
        assert not monitor.is_healthy("Limelight")
        assert monitor.state("Limelight") is MemberState.UNHEALTHY
        assert unhealthy(monitor) == ("Limelight",)
        (event,) = tracer.find("cdn_unhealthy")
        assert event.fields["member"] == "Limelight"
        assert event.fields["consecutive_failures"] == 3

    def test_ok_probe_resets_fail_streak(self):
        monitor = _monitor(k_failures=3)
        monitor.record_probe("Akamai", False, 1.0)
        monitor.record_probe("Akamai", False, 2.0)
        monitor.record_probe("Akamai", True, 3.0)
        monitor.record_probe("Akamai", False, 4.0)
        monitor.record_probe("Akamai", False, 5.0)
        assert monitor.is_healthy("Akamai")

    def test_half_open_recovery_and_downtime(self):
        tracer = EventTracer()
        monitor = _monitor(k_failures=2, recovery_probes=2, tracer=tracer)
        monitor.record_probe("Apple", False, 10.0)
        monitor.record_probe("Apple", False, 11.0)
        assert not monitor.is_healthy("Apple")
        monitor.record_probe("Apple", True, 20.0)
        assert monitor.state("Apple") is MemberState.HALF_OPEN
        assert not monitor.is_healthy("Apple")  # still out of rotation
        monitor.record_probe("Apple", True, 21.0)
        assert monitor.is_healthy("Apple")
        (recovered,) = tracer.find("cdn_recovered")
        assert recovered.fields["downtime_seconds"] == pytest.approx(10.0)

    def test_half_open_relapse(self):
        tracer = EventTracer()
        monitor = _monitor(k_failures=2, recovery_probes=3, tracer=tracer)
        monitor.record_probe("Apple", False, 1.0)
        monitor.record_probe("Apple", False, 2.0)
        monitor.record_probe("Apple", True, 3.0)
        monitor.record_probe("Apple", False, 4.0)
        assert monitor.state("Apple") is MemberState.UNHEALTHY
        assert len(tracer.find("cdn_probe_relapse")) == 1
        assert tracer.find("cdn_recovered") == []

    def test_unknown_member_counts_as_healthy(self):
        monitor = _monitor(members=("Apple",))
        assert monitor.is_healthy("Level3")

    def test_metrics(self):
        registry = MetricsRegistry()
        monitor = _monitor(k_failures=1, metrics=registry)
        monitor.record_probe("Akamai", False, 1.0)
        assert registry.get("cdn_member_healthy").labels("Akamai").value == 0
        assert registry.get("cdn_member_healthy").labels("Apple").value == 1
        assert registry.get("cdn_failovers_total").labels("Akamai").value == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _monitor(probe_interval=0.0)


class TestTick:
    def test_probe_cadence_replay(self):
        monitor = _monitor(members=("Apple",), probe_interval=5.0)
        seen = []

        def probe(member, at):
            seen.append(at)
            return True

        assert monitor.tick(0.0, probe) == 1
        assert monitor.tick(20.0, probe) == 4
        assert seen == [0.0, 5.0, 10.0, 15.0, 20.0]

    def test_cooldown_cadence_while_unhealthy(self):
        monitor = _monitor(
            members=("Apple",), k_failures=1, probe_interval=5.0, cooldown=10.0
        )
        seen = []

        def probe(member, at):
            seen.append(at)
            return False

        monitor.tick(0.0, probe)
        monitor.tick(25.0, probe)
        # The first probe flips the member (k=1), so cooldown cadence rules.
        assert seen == [0.0, 10.0, 20.0]

    def test_catch_up_is_bounded(self):
        monitor = _monitor(members=("Apple",), probe_interval=0.001)
        calls = []
        monitor.tick(0.0, lambda m, at: calls.append(at) or True)
        executed = monitor.tick(1e9, lambda m, at: calls.append(at) or True)
        assert executed <= 1000
        # Cursor jumped to "now": the next tick runs a bounded batch again.
        assert monitor.tick(1e9 + 0.01, lambda m, at: True) <= 1000


class TestHealthFilteredSchedule:
    def _health(self, monitor):
        return SelectionHealth(monitor, MEMBER_OF)

    def test_filters_unhealthy_member_targets(self):
        monitor = _monitor(k_failures=1)
        health = self._health(monitor)
        base = WeightSchedule.constant({AKAMAI_LB: 0.7, LIMELIGHT_LB: 0.3})
        schedule = health.wrap_schedule(MappingRegion.EU, base)
        assert schedule.weights_at(0.0) == {AKAMAI_LB: 0.7, LIMELIGHT_LB: 0.3}
        monitor.record_probe("Limelight", False, 1.0)
        assert schedule.weights_at(1.0) == {AKAMAI_LB: 0.7}

    def test_empty_filter_falls_back_to_base(self):
        monitor = _monitor(k_failures=1)
        health = self._health(monitor)
        base = WeightSchedule.constant({LIMELIGHT_LB: 1.0})
        schedule = health.wrap_schedule(MappingRegion.EU, base)
        monitor.record_probe("Limelight", False, 1.0)
        assert schedule.weights_at(1.0) == {LIMELIGHT_LB: 1.0}

    def test_unmapped_names_never_filtered(self):
        monitor = _monitor(k_failures=1)
        health = self._health(monitor)
        monitor.record_probe("Akamai", False, 1.0)
        weights = health.filter_weights({"unrelated.example.net": 1.0})
        assert weights == {"unrelated.example.net": 1.0}


class TestEffectiveShare:
    def _setup(self, k_failures=1):
        monitor = _monitor(k_failures=k_failures)
        health = SelectionHealth(monitor, MEMBER_OF)
        base = WeightSchedule.constant({AKAMAI_LB: 0.7, LIMELIGHT_LB: 0.3})
        health.wrap_schedule(MappingRegion.EU, base)
        return monitor, health

    def test_nominal_when_all_healthy(self):
        _monitor_, health = self._setup()
        assert health.effective_share(0.5, MappingRegion.EU, 0.0) == 0.5

    def test_apple_down_shifts_everything_to_third_parties(self):
        monitor, health = self._setup()
        monitor.record_probe("Apple", False, 1.0)
        assert health.effective_share(0.5, MappingRegion.EU, 1.0) == 0.0

    def test_third_parties_dark_shifts_everything_to_apple(self):
        monitor, health = self._setup()
        monitor.record_probe("Akamai", False, 1.0)
        monitor.record_probe("Limelight", False, 1.0)
        assert health.effective_share(0.5, MappingRegion.EU, 1.0) == 1.0

    def test_everything_down_keeps_nominal_share(self):
        monitor, health = self._setup()
        for member in ("Apple", "Akamai", "Limelight"):
            monitor.record_probe(member, False, 1.0)
        assert health.effective_share(0.5, MappingRegion.EU, 1.0) == 0.5

    def test_unregistered_region_assumes_third_parties_up(self):
        _monitor_, health = self._setup()
        assert health.third_party_available(MappingRegion.US, 0.0)


class TestFailoverLoop:
    def test_blackout_flips_and_recovers(self):
        registry = MetricsRegistry()
        tracer = EventTracer()
        schedule = FaultSchedule(
            [FaultWindow(10.0, 40.0, "Limelight", FaultKind.CDN_BLACKOUT)]
        )
        injector = FaultInjector(
            schedule, seed=7, metrics=registry, tracer=tracer
        )
        monitor = _monitor(
            k_failures=3, recovery_probes=2, probe_interval=2.0,
            cooldown=4.0, metrics=registry, tracer=tracer,
        )
        loop = FailoverLoop(monitor, injector)
        loop.advance(0.0)
        assert unhealthy(monitor) == ()
        # Probes at 10..14 fail — the third (t=14) flips Limelight.
        loop.advance(20.0)
        assert unhealthy(monitor) == ("Limelight",)
        (down,) = tracer.find("cdn_unhealthy")
        assert down.fields["member"] == "Limelight"
        assert down.ts == pytest.approx(14.0)
        # The window closes at 40; two cooldown-cadence oks recover it.
        loop.advance(60.0)
        assert unhealthy(monitor) == ()
        (recovered,) = tracer.find("cdn_recovered")
        assert recovered.fields["member"] == "Limelight"
        assert recovered.ts < 50.0
        assert len(tracer.find("fault_opened")) == 1
        assert len(tracer.find("fault_closed")) == 1
