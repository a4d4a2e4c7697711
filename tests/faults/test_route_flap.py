"""Health probes see a CDN blackout end to end.

Route-flap fault kinds are gone with the anycast steering axis; what
stays is the check that a blackout window, driven through the
injector, fails the monitor's probes and flips the member unhealthy.
"""

from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultWindow
from repro.faults.health import CdnHealthMonitor
from repro.obs import MetricsRegistry


class TestHealthInvisibility:
    def test_blackout_still_fails_probes(self):
        schedule = FaultSchedule([
            FaultWindow(0.0, 1000.0, "Akamai", FaultKind.CDN_BLACKOUT),
        ])
        injector = FaultInjector(schedule, metrics=MetricsRegistry())
        monitor = CdnHealthMonitor(metrics=MetricsRegistry())
        for now in range(0, 100, 5):
            injector.set_time(float(now))
            monitor.tick(
                float(now),
                lambda member, at: not injector.cdn_down(member, key=at),
            )
        assert monitor.is_healthy("Akamai") is False
