"""Chaos under load: a vip outage against the multi-process fleet.

The drill from ``repro chaos --fault vip-outage --serve-workers 2``:
an open-loop flash crowd replays against a 2-worker ``SO_REUSEPORT``
fleet while a vip goes dark mid-ramp.  The error budget must hold,
failover must re-steer, and the fault's 503s must be visible in the
merged cross-worker registry — the wire, not any single process, is
the source of truth.
"""

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.faults import chaos
from repro.faults.chaos import ChaosConfig
from repro.serve import fleet_supported

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not fleet_supported(), reason="platform lacks SO_REUSEPORT fork fleets"
    ),
]


class TestConfig:
    def test_fleet_knob_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(serve_workers=0)


def run_drill(serve_workers: int):
    schedule = FaultSchedule(
        [FaultWindow(1.0, 4.0, "Apple", FaultKind.VIP_OUTAGE, severity=0.2)]
    )
    config = ChaosConfig(
        seed=11,
        schedule=schedule,
        concurrency=16,
        serve_workers=serve_workers,
        run_simulation=False,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaos, "_BATCH_REQUESTS", 120)
        patch.setattr(chaos, "_RECOVERY_MARGIN", 2.0)
        return chaos.run_chaos(config)


class TestFleetDrill:
    @pytest.fixture(scope="class")
    def drill(self):
        return run_drill(serve_workers=2)

    def test_single_loop_drill_is_judged_by_the_same_checks(self, drill):
        # One live phase, two load drivers: the same schedule must be
        # gated on the same check lines whichever edge it ran against.
        fleet_report, _registry, _tracer = drill
        single_report, _registry, _tracer = run_drill(serve_workers=1)
        assert single_report.passed(), single_report.render()
        assert [label for label, _ in single_report.checks] == [
            label for label, _ in fleet_report.checks
        ]
        assert single_report.serve_workers == 1

    def test_drill_passes_within_error_budget(self, drill):
        report, _registry, _tracer = drill
        assert report.passed(), report.render()
        assert report.serve_workers == 2
        assert report.error_rate <= 0.05

    def test_fault_visible_in_merged_registry(self, drill):
        report, registry, _tracer = drill
        # The vip outage turned some worker-served requests into 503s;
        # those counts only exist inside the worker processes, so they
        # can only appear here if the cross-process merge worked.
        http = registry.get("serve_http_requests_total")
        assert http is not None
        assert http.labels("503").value > 0
        assert http.labels("206").value >= report.ok
        # Both workers reported in.
        up = registry.get("serve_fleet_worker_up")
        assert up is not None
        assert len(list(up.children())) == 2

    def test_open_loop_accounting(self, drill):
        report, _registry, _tracer = drill
        # Open loop: every arrival is dispatched or shed, never queued.
        assert report.requests > 0
        assert report.ok + report.errors == report.requests
        assert report.shed >= 0

    def test_clients_absorbed_the_outage(self, drill):
        report, registry, _tracer = drill
        # A partial vip outage never blacks out a whole CDN member, so
        # there is no re-steer to time — the clients ride it out with
        # retries instead, and every one of those 503s must have been
        # retried away (ok == requests above the error budget check).
        assert report.retries > 0
        assert report.resteer_seconds is None or report.resteer_seconds <= 15.0
        healthy = registry.get("cdn_member_healthy")
        assert healthy is not None

    def test_render_mentions_the_fleet(self, drill):
        report, _registry, _tracer = drill
        text = report.render()
        assert "serve fleet" in text
        assert "2 workers" in text
