"""Tests for repro.faults.chaos — the CI selftest drill."""

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultWindow, chaos
from repro.faults.chaos import (
    ChaosConfig,
    ChaosReport,
    default_chaos_schedule,
    run_chaos,
)


class TestDefaultSchedule:
    def test_shape(self):
        schedule = default_chaos_schedule()
        kinds = sorted((w.kind for w in schedule), key=lambda k: k.value)
        assert kinds == [FaultKind.CDN_BLACKOUT, FaultKind.VIP_OUTAGE]
        blackout = next(w for w in schedule if w.kind is FaultKind.CDN_BLACKOUT)
        assert blackout.target == "Limelight"
        assert schedule.end_time() == 9.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(concurrency=0)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(ChaosConfig(schedule=FaultSchedule()))


class TestReport:
    def _report(self, checks):
        return ChaosReport(
            schedule="cdn-blackout@Limelight:1-3", requests=10, ok=10,
            errors=0, error_rate=0.0, retries=0,
            resteer_seconds=0.5, recovery_seconds=0.5, unhealthy_events=1,
            checks=checks,
        )

    def test_passed(self):
        assert self._report((("a", True), ("b", True))).passed()
        assert not self._report((("a", True), ("b", False))).passed()

    def test_render_mentions_verdict(self):
        text = self._report((("error rate ok", True),)).render()
        assert "chaos PASSED" in text
        assert "PASS  error rate ok" in text
        failed = self._report((("error rate ok", False),)).render()
        assert "chaos FAILED" in failed


@pytest.mark.slow
class TestShortDrill:
    """A compressed live-only drill: blackout 1-3 s, ~6 s wall clock."""

    @pytest.fixture(scope="class")
    def drill(self):
        schedule = FaultSchedule(
            [FaultWindow(1.0, 3.0, "Limelight", FaultKind.CDN_BLACKOUT)]
        )
        config = ChaosConfig(
            seed=7,
            schedule=schedule,
            concurrency=8,
            run_simulation=False,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chaos, "_BATCH_REQUESTS", 60)
            patch.setattr(chaos, "_RECOVERY_MARGIN", 3.0)
            patch.setattr(chaos, "_WATCH_CANDIDATES", 48)
            patch.setattr(chaos, "_WATCH_CLIENTS", 5)
            patch.setattr(chaos, "_WATCH_INTERVAL", 0.2)
            return run_chaos(config)

    def test_all_checks_pass(self, drill):
        report, _registry, _tracer = drill
        assert report.passed(), report.render()

    def test_resteer_and_recovery_measured(self, drill):
        report, registry, tracer = drill
        assert report.resteer_seconds is not None
        assert report.resteer_seconds <= 15.0
        assert report.recovery_seconds is not None
        assert report.unhealthy_events >= 1
        (recovered,) = [r for r in tracer.find("cdn_recovered")
                        if r.fields["member"] == "Limelight"]
        # Recovery is read off the wire (Limelight answering the watched
        # clients again), so it cannot precede the health monitor's own
        # recovery event — and the failover count is the registry's.
        assert report.recovery_seconds >= recovered.ts - 3.0
        failovers = registry.get("cdn_failovers_total")
        assert report.unhealthy_events == sum(
            child.value for _labels, child in failovers.children()
        )

    def test_load_survived_the_fault(self, drill):
        report, _registry, _tracer = drill
        assert report.requests > 0
        assert report.error_rate < 0.02
        assert "simulation (" not in report.render()  # simulation skipped


@pytest.mark.slow
class TestVipOutageDrill:
    """``repro chaos --seed 11 --skip-simulation --fault
    'vip-outage@Apple:1-4:0.2'``: a fifth of Apple's vips go dark
    mid-load.  The error budget must hold, the fault's 503s must be in
    the registry, and the clients must ride it out with retries."""

    @pytest.fixture(scope="class")
    def drill(self):
        schedule = FaultSchedule(
            [FaultWindow(1.0, 4.0, "Apple", FaultKind.VIP_OUTAGE, severity=0.2)]
        )
        config = ChaosConfig(
            seed=11, schedule=schedule, concurrency=16, run_simulation=False,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chaos, "_BATCH_REQUESTS", 120)
            patch.setattr(chaos, "_RECOVERY_MARGIN", 2.0)
            return run_chaos(config)

    def test_drill_is_judged_by_the_live_checks(self, drill):
        # No blackout in the schedule, so no re-steer to time: the live
        # phase is gated on its error budget and on load flowing.
        report, _registry, _tracer = drill
        assert report.passed(), report.render()
        assert [label for label, _ in report.checks] == [
            "client error rate below 2%",
            "load kept flowing throughout the schedule",
        ]

    def test_drill_passes_within_error_budget(self, drill):
        report, _registry, _tracer = drill
        assert report.passed(), report.render()
        assert report.error_rate <= 0.05

    def test_request_accounting(self, drill):
        # Every request the clients sent came back as a success or an
        # error; none is lost between the load driver and the report.
        report, _registry, _tracer = drill
        assert report.requests > 0
        assert report.ok + report.errors == report.requests

    def test_fault_visible_in_the_registry(self, drill):
        report, registry, _tracer = drill
        # The vip outage turned some requests into 503s at the edge.
        http = registry.get("serve_http_requests_total")
        assert http is not None
        assert http.labels("503").value > 0
        assert http.labels("206").value >= report.ok

    def test_clients_absorbed_the_outage(self, drill):
        report, registry, _tracer = drill
        # A partial vip outage never blacks out a whole CDN member, so
        # there is no re-steer to time — the clients ride it out with
        # retries instead, inside the error budget.
        assert report.retries > 0
        assert report.resteer_seconds is None or report.resteer_seconds <= 15.0
        assert registry.get("cdn_member_healthy") is not None
