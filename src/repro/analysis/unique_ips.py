"""Unique cache IPs over time (Figures 4 and 5).

The paper's headline Figure 4 facts, which these functions recover from
the measurement store: Europe's unique-IP count peaks right after the
release at roughly five times its two-day pre-event average (977 vs
191 in the paper), the spike being mostly Limelight plus Akamai caches
in third-party networks, while Apple's own count stays flat; and inside
the eyeball ISP (Figure 5), Akamai's count rises ~408 % from Sep 18 to
Sep 20 while Apple's does not react.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..atlas.columnar import CONTINENT_INDEX
from ..atlas.results import DnsMeasurement
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address
from .categories import CATEGORY_ORDER

__all__ = [
    "UniqueIpPoint",
    "unique_ip_series",
    "windowed_unique_ip_series",
    "series_by_continent",
    "peak_vs_baseline",
    "count_change_ratio",
]


@dataclass(frozen=True)
class UniqueIpPoint:
    """Unique IPs per category within one time bin."""

    bin_start: float
    counts: dict

    @property
    def total(self) -> int:
        """Unique IPs across all categories in the bin."""
        return sum(self.counts.values())

    def count(self, category: str) -> int:
        """Unique IPs of one category in the bin."""
        return self.counts.get(category, 0)


def _points(bins: dict) -> list[UniqueIpPoint]:
    """Materialize ``{bin_start: {category: count}}`` as a sorted point series."""
    return [
        UniqueIpPoint(bin_start=bin_start, counts=dict(sorted(counts.items())))
        for bin_start, counts in sorted(bins.items())
    ]


def _accumulate_store(
    store,
    categorize: Callable[[IPv4Address], str],
    bin_seconds: float,
    continent: Optional[Continent],
    start: Optional[float],
    end: Optional[float],
    by_continent: bool = False,
) -> dict:
    """One streaming pass over a store's columnar segments.

    Works on packed address ints and never reconstructs a measurement
    object; segments wholly outside ``[start, end)`` are pruned by their
    summaries.  The store's rows are time-ordered (a row of an earlier
    bin than the open one raises ``ValueError``), so a bin stays open
    until the first row of a later one: each row's address slice goes
    into its facet's open set with one ``set.update``, and a closing bin
    categorises its distinct values once (category per int memoized)
    and keeps only the counts.  Matches the object path exactly,
    including its subtlety that a matching measurement creates its time
    bin even when the answer carried no addresses.  Returns
    ``{bin_start: {category: count}}`` — or, with ``by_continent``, one
    such map per continent index that has rows (every facet out of the
    same pass).
    """
    wanted = None if continent is None else CONTINENT_INDEX[continent]
    cat_of: dict = {}
    facets: dict = {}  # facet key -> {bin_start: {category: count}}
    open_sets: dict = {}  # facet key -> distinct values of the open bin
    open_start = last_time = None

    def close(bin_start) -> None:
        for key, distinct in open_sets.items():
            counts: dict = {}
            for value in distinct:
                category = cat_of.get(value)
                if category is None:
                    category = cat_of[value] = categorize(IPv4Address(value))
                counts[category] = counts.get(category, 0) + 1
            facets.setdefault(key, {})[bin_start] = counts
        open_sets.clear()

    for columns, lo, hi in store.dns_segments(start, end):
        times = columns.times
        continents = columns.continents
        offsets = columns.addr_offsets
        values = columns.addr_values
        for row in range(lo, hi):
            here = continents[row]
            if wanted is not None and here != wanted:
                continue
            timestamp = times[row]
            if timestamp != last_time:
                last_time = timestamp
                bin_start = math.floor(timestamp / bin_seconds) * bin_seconds
                if bin_start != open_start:
                    if open_start is not None and bin_start < open_start:
                        raise ValueError(
                            f"store {store.name!r}: DNS rows go back in time "
                            f"(bin {bin_start} after bin {open_start})"
                        )
                    close(open_start)
                    open_start = bin_start
            key = here if by_continent else None
            distinct = open_sets.get(key)
            if distinct is None:
                distinct = open_sets[key] = set()
            distinct.update(values[offsets[row] : offsets[row + 1]])
    close(open_start)
    return facets if by_continent else facets.get(None, {})


def unique_ip_series(
    measurements,
    categorize: Callable[[IPv4Address], str],
    bin_seconds: float = 7200.0,
    continent: Optional[Continent] = None,
) -> list[UniqueIpPoint]:
    """Unique cache IPs per category per time bin.

    ``continent`` filters by probe continent (the Figure 4 facets);
    ``None`` aggregates worldwide (the Figure 5 single panel uses the
    ISP campaign store instead, no filter needed).

    ``measurements`` may be any iterable of :class:`DnsMeasurement`
    or a :class:`~repro.atlas.results.MeasurementStore`; a store is
    aggregated columnar-segment-wise without reconstructing records.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if hasattr(measurements, "dns_segments"):
        return _points(
            _accumulate_store(
                measurements, categorize, bin_seconds, continent, None, None
            )
        )
    bins: dict[float, dict[str, set[IPv4Address]]] = {}
    for measurement in measurements:
        if continent is not None and measurement.continent is not continent:
            continue
        bin_start = math.floor(measurement.timestamp / bin_seconds) * bin_seconds
        per_category = bins.setdefault(bin_start, {})
        for address in measurement.addresses:
            per_category.setdefault(categorize(address), set()).add(address)
    return _points({
        bin_start: {category: len(found) for category, found in per_category.items()}
        for bin_start, per_category in bins.items()
    })


def windowed_unique_ip_series(
    store,
    categorize: Callable[[IPv4Address], str],
    bin_seconds: float = 7200.0,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> list[UniqueIpPoint]:
    """Unique-IP series restricted to ``start <= t < end``, all continents.

    The windowed form of :func:`unique_ip_series` for stores: segment
    summaries prune everything outside the window before any column is
    decoded (or read back from a spill file), so the cost scales with
    the window, not the run length.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    return _points(
        _accumulate_store(store, categorize, bin_seconds, None, start, end)
    )


def series_by_continent(
    measurements,
    categorize: Callable[[IPv4Address], str],
    bin_seconds: float = 7200.0,
) -> dict[Continent, list[UniqueIpPoint]]:
    """The full Figure 4: one unique-IP series per continent facet."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if hasattr(measurements, "dns_segments"):
        # Single streaming pass building every facet at once (the
        # per-continent scans of the object path re-read the history
        # len(Continent) times); the category memo is shared.
        facets = _accumulate_store(
            measurements, categorize, bin_seconds, None, None, None,
            by_continent=True,
        )
        return {
            continent: _points(facets.get(CONTINENT_INDEX[continent], {}))
            for continent in Continent
        }
    materialized = list(measurements)
    return {
        continent: unique_ip_series(
            materialized, categorize, bin_seconds, continent=continent
        )
        for continent in Continent
    }


def peak_vs_baseline(
    series: list[UniqueIpPoint],
    event_time: float,
) -> tuple[int, float]:
    """(peak over the event's first day, average over the two days
    before it) of total unique IPs.

    Reproduces the paper's "maximum of 977 IPs immediately after the
    release ... more than four times the average of 191 ... in the two
    days before" comparison for any series.
    """
    before = [
        point.total
        for point in series
        if event_time - 2 * 86400.0 <= point.bin_start < event_time
    ]
    after = [
        point.total
        for point in series
        if event_time <= point.bin_start < event_time + 86400.0
    ]
    baseline = sum(before) / len(before) if before else 0.0
    peak = max(after) if after else 0
    return peak, baseline


def count_change_ratio(
    series: list[UniqueIpPoint],
    category: str,
    from_time: float,
    to_time: float,
) -> Optional[float]:
    """How one category's count changed between two instants.

    Reproduces Figure 5's "the number of Akamai CDN IPs rise by 408 %
    from Sep. 18 to Sep. 20": returns ``to/from`` for the bins
    containing the two times, or ``None`` if either is missing/empty.
    """
    def count_at(when: float) -> Optional[int]:
        best: Optional[UniqueIpPoint] = None
        for point in series:
            if point.bin_start <= when:
                best = point
            else:
                break
        return best.count(category) if best is not None else None

    start = count_at(from_time)
    end = count_at(to_time)
    if not start or end is None:
        return None
    return end / start


def format_series(series: list[UniqueIpPoint], label_time) -> str:
    """A text rendering of a unique-IP series (report helper)."""
    categories = [
        category
        for category in CATEGORY_ORDER
        if any(point.count(category) for point in series)
    ]
    header = "time        " + "".join(f"{c:>20}" for c in categories) + f"{'total':>10}"
    lines = [header]
    for point in series:
        row = f"{label_time(point.bin_start):<12}"
        row += "".join(f"{point.count(c):>20}" for c in categories)
        row += f"{point.total:>10}"
        lines.append(row)
    return "\n".join(lines)
