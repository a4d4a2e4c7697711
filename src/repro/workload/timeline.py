"""The measurement timeline (Figure 1).

All simulation time is in seconds since the scenario epoch, which is
set to Aug 20, 2017 00:00 UTC — the start of the European-ISP RIPE
Atlas measurement.  This module fixes the epoch, converts to and from
UTC datetimes, and names every event and measurement window shown in
Figure 1 (plus the iOS 11.1 release that Figure 5 marks).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

__all__ = ["Timeline", "TIMELINE", "MeasurementWindow"]

_EPOCH = datetime(2017, 8, 20, 0, 0, tzinfo=timezone.utc)

DAY = 86400.0
HOUR = 3600.0


@dataclass(frozen=True)
class MeasurementWindow:
    """A named measurement campaign interval, in simulation seconds."""

    name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"{self.name}: window ends before it starts")

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.end - self.start

    def contains(self, now: float) -> bool:
        """Whether ``now`` falls inside the window."""
        return self.start <= now < self.end


class Timeline:
    """Epoch handling plus the Figure 1 events and windows."""

    epoch: datetime = _EPOCH

    def seconds(self, moment: datetime) -> float:
        """Simulation seconds for a UTC datetime."""
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return (moment - self.epoch).total_seconds()

    def datetime(self, now: float) -> datetime:
        """UTC datetime for simulation seconds."""
        return self.epoch + timedelta(seconds=now)

    def at(self, month: int, day: int, hour: int = 0) -> float:
        """Shorthand for 2017 dates: ``at(9, 19, 17)`` = Sep 19, 17h UTC."""
        return self.seconds(datetime(2017, month, day, hour))

    def day_start(self, now: float) -> float:
        """Midnight UTC of the day containing ``now``."""
        moment = self.datetime(now)
        midnight = moment.replace(hour=0, minute=0, second=0, microsecond=0)
        return self.seconds(midnight)

    def date_label(self, now: float) -> str:
        """A compact "Sep 19" style label for report output."""
        return self.datetime(now).strftime("%b %d")

    # --- events (Figure 1 and Figure 5 markers) -------------------------

    @property
    def keynote(self) -> float:
        """Apple Keynote / iPhone 8 announcement livestream, Sep 12."""
        return self.at(9, 12, 17)

    @property
    def ios_11_0_release(self) -> float:
        """iOS 11.0 released Sep 19, 2017 at 17h UTC (Section 4)."""
        return self.at(9, 19, 17)

    @property
    def ios_11_0_1_release(self) -> float:
        """iOS 11.0.1, the first point release (late Sep)."""
        return self.at(9, 26, 17)

    @property
    def ios_11_0_2_release(self) -> float:
        """iOS 11.0.2, released Oct 2."""
        return self.at(10, 2, 17)

    @property
    def ios_11_1_release(self) -> float:
        """iOS 11.1 (the Figure 5 marker near Oct 31)."""
        return self.at(10, 31, 18)

    # --- measurement windows (Figure 1) ----------------------------------

    @property
    def ripe_global_window(self) -> MeasurementWindow:
        """800 probes worldwide, DNS every 5 min, Sep 12 – Oct 3."""
        return MeasurementWindow("ripe-global", self.at(9, 12), self.at(10, 3))

    @property
    def ripe_isp_window(self) -> MeasurementWindow:
        """400 probes inside the eyeball ISP, every 12 h, Aug 21 – Dec 31."""
        return MeasurementWindow("ripe-isp", self.at(8, 21), self.at(12, 31))

    @property
    def aws_window(self) -> MeasurementWindow:
        """Nine AWS VMs with full recursive resolution, Sep 1 – Sep 30."""
        return MeasurementWindow("aws-vms", self.at(9, 1), self.at(9, 30))

    @property
    def isp_traffic_window(self) -> MeasurementWindow:
        """BGP/Netflow/SNMP collection at the ISP, Sep 15 – Sep 23."""
        return MeasurementWindow("isp-traffic", self.at(9, 15), self.at(9, 23))

    def figure1_rows(self) -> list[tuple[str, str, str]]:
        """The timeline rows of Figure 1 as (name, start, end) labels."""
        windows = [
            self.ripe_isp_window,
            self.ripe_global_window,
            self.aws_window,
        ]
        rows = [
            (w.name, self.date_label(w.start), self.date_label(w.end))
            for w in windows
        ]
        for label, moment in (
            ("keynote", self.keynote),
            ("ios-11.0", self.ios_11_0_release),
            ("ios-11.0.1", self.ios_11_0_1_release),
            ("ios-11.0.2", self.ios_11_0_2_release),
        ):
            rows.append((label, self.date_label(moment), self.date_label(moment)))
        return rows


TIMELINE = Timeline()
