"""Tests for repro.faults.schedule — pure-data fault windows."""

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultWindow


class TestFaultWindow:
    def test_half_open_interval(self):
        window = FaultWindow(2.0, 5.0, "Apple", FaultKind.CDN_BLACKOUT)
        assert not window.active(1.999)
        assert window.active(2.0)
        assert window.active(4.999)
        assert not window.active(5.0)

    def test_target_matching(self):
        window = FaultWindow(0.0, 1.0, "Akamai", FaultKind.CDN_BROWNOUT, 0.5)
        assert window.matches("Akamai")
        assert window.matches(None, "Akamai")
        assert not window.matches("Limelight")
        assert not window.matches(None)

    def test_wildcard_matches_everything(self):
        window = FaultWindow(0.0, 1.0, "*", FaultKind.DNS_DROP, 0.1)
        assert window.matches("Apple")
        assert window.matches("anything")

    def test_shifted(self):
        window = FaultWindow(1.0, 2.0, "Apple", FaultKind.VIP_OUTAGE, 0.3)
        moved = window.shifted(10.0)
        assert (moved.start, moved.end) == (11.0, 12.0)
        assert moved.target == "Apple"
        assert moved.severity == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(5.0, 5.0, "Apple", FaultKind.CDN_BLACKOUT)
        with pytest.raises(ValueError):
            FaultWindow(0.0, 1.0, "Apple", FaultKind.CDN_BROWNOUT, severity=0.0)
        with pytest.raises(ValueError):
            FaultWindow(0.0, 1.0, "", FaultKind.CDN_BLACKOUT)


class TestFaultSchedule:
    def test_sorted_and_sized(self):
        schedule = FaultSchedule([
            FaultWindow(5.0, 9.0, "Apple", FaultKind.VIP_OUTAGE, 0.2),
            FaultWindow(1.0, 3.0, "Limelight", FaultKind.CDN_BLACKOUT),
        ])
        assert len(schedule) == 2
        assert [w.start for w in schedule] == [1.0, 5.0]
        assert schedule.end_time() == 9.0

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert len(schedule) == 0
        assert schedule.end_time() == 0.0
        assert schedule.active(0.0) == ()

    def test_find_picks_worst_active_window(self):
        mild = FaultWindow(0.0, 10.0, "Akamai", FaultKind.CDN_BROWNOUT, 0.1)
        harsh = FaultWindow(2.0, 8.0, "Akamai", FaultKind.CDN_BROWNOUT, 0.7)
        schedule = FaultSchedule([mild, harsh])
        assert schedule.find(FaultKind.CDN_BROWNOUT, 1.0, "Akamai") is mild
        assert schedule.find(FaultKind.CDN_BROWNOUT, 5.0, "Akamai") is harsh
        assert schedule.find(FaultKind.CDN_BROWNOUT, 5.0, "Apple") is None
        assert schedule.find(FaultKind.CDN_BLACKOUT, 5.0, "Akamai") is None

    def test_parse_specs(self):
        schedule = FaultSchedule.parse([
            "cdn-blackout@Limelight:3-9",
            "dns-drop@Akamai:0-30:0.25",
        ])
        blackout, drop = sorted(schedule, key=lambda w: w.kind.value)
        assert blackout.kind is FaultKind.CDN_BLACKOUT
        assert (blackout.start, blackout.end) == (3.0, 9.0)
        assert blackout.severity == 1.0
        assert drop.kind is FaultKind.DNS_DROP
        assert drop.severity == 0.25

    @pytest.mark.parametrize("spec", [
        "cdn-blackout",                    # no target
        "cdn-blackout@Limelight",          # no timing
        "cdn-blackout@Limelight:3",        # no end
        "cdn-blackout@Limelight:3-9:1:2",  # too many fields
        "no-such-kind@Apple:0-1",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultSchedule.parse([spec])

    def test_describe_roundtrips_through_parse(self):
        schedule = FaultSchedule.parse(["slow-start@*:0-5:0.25"])
        reparsed = FaultSchedule.parse(schedule.describe().splitlines())
        assert reparsed.windows == schedule.windows

    def test_shifted(self):
        schedule = FaultSchedule.parse(["cdn-blackout@Limelight:3-9"]).shifted(100.0)
        assert schedule.windows[0].start == 103.0
        assert schedule.end_time() == 109.0


class TestWindowValidation:
    """Constructor-time validation: bad windows fail loudly, naming
    what would have been valid, instead of silently never firing."""

    def test_end_before_start_rejected_with_values(self):
        with pytest.raises(ValueError, match=r"start=5.*end=3"):
            FaultWindow(5.0, 3.0, "Apple", FaultKind.CDN_BLACKOUT)

    def test_end_equal_start_rejected(self):
        with pytest.raises(ValueError, match="end after it starts"):
            FaultWindow(2.0, 2.0, "Apple", FaultKind.DNS_DROP, 0.5)

    def test_unknown_kind_names_valid_kinds(self):
        with pytest.raises(ValueError, match="cdn-blackout"):
            FaultWindow(0.0, 1.0, "Apple", "not-a-kind")
        with pytest.raises(ValueError, match="cdn-brownout"):
            FaultWindow(0.0, 1.0, "Apple", object())  # type: ignore[arg-type]

    def test_unknown_kind_through_schedule_constructor(self):
        with pytest.raises(ValueError, match=r"unknown fault kind.*valid:"):
            FaultSchedule([FaultWindow(0.0, 1.0, "Apple", "no-such-kind")])

    def test_string_kind_coerced_to_enum(self):
        window = FaultWindow(0.0, 1.0, "Akamai", "cdn-brownout", 0.3)
        assert window.kind is FaultKind.CDN_BROWNOUT
        # Coercion matters: find() uses identity checks on the enum.
        schedule = FaultSchedule([window])
        assert schedule.find(FaultKind.CDN_BROWNOUT, 0.5, "Akamai") is window

    def test_worker_kinds_are_gone(self):
        # Losing a shard worker is a real signal, not a scheduled fault.
        with pytest.raises(
            ValueError, match=r"unknown fault kind 'worker-kill'.*valid:.*dns-drop"
        ):
            FaultSchedule.parse(["worker-kill@w0:1-2"])
