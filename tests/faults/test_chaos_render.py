"""``ChaosReport.render()`` per drill kind, byte for byte.

``golden/chaos_render.json`` was rendered at the commit *before* the
drills took ownership of their report sections, from the fixed measured
values below fed straight into the old all-fields ``ChaosReport``.  The
same values through each drill's own section builder must render the
same bytes — block order, spacing, check labels and verdicts included.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultSchedule
from repro.faults.chaos import _blackout_replay_section, _live_section, _report
from repro.serve.loadgen import LoadReport

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "chaos_render.json").read_text()
)


def load(requests, ok, errors, **counts):
    return LoadReport(
        requests=requests, ok=ok, errors=errors, elapsed_seconds=1.0,
        dns_queries=0, dns_timeouts=0, tcp_fallbacks=0, body_bytes=0, **counts,
    )


def blackout():
    schedule = FaultSchedule.parse(
        ["vip-outage@Apple:1-9:0.2", "cdn-blackout@Limelight:3-9"]
    )
    return _report(schedule, [
        _live_section(
            schedule,
            load(2400, 2388, 12, retries=431, reresolutions=3, hedged=17),
            watched=8, resteer=0.62, recovery=1.31, unhealthy=2,
        ),
        _blackout_replay_section(412.4, 0.0, 377.8, 9_876_543_210),
    ])


@pytest.mark.parametrize("drill", [blackout])
def test_render_is_byte_identical_to_the_all_fields_report(drill):
    assert drill().render() == GOLDEN[drill.__name__]


def test_live_numbers_stay_readable_as_fields():
    report = blackout()
    assert (report.requests, report.ok, report.errors) == (2400, 2388, 12)
    assert report.error_rate == 12 / 2400
    assert report.retries == 431
    assert (report.resteer_seconds, report.recovery_seconds) == (0.62, 1.31)
    assert report.unhealthy_events == 2
    replay_only = _report(
        FaultSchedule.parse(["cdn-blackout@Limelight:3-9"]),
        [_blackout_replay_section(0.0, 0.0, 0.0, 0)],
    )
    assert not replay_only.passed() and replay_only.requests == 0
