"""The hourly roll-up reads the same figures as every flow — exactly.

``generate_report`` classifies ``records.rollup(3600.0)`` instead of the
whole log.  That is only allowed because Figure 7 (3 600 s bins) and
Figure 8 (21 600 s bins) bin on whole multiples of the roll-up bin and
sum integers: these properties hold the two analyses to ``==`` — same
keys, same floats, same first-appearance order — over generated logs
whose steps straddle bin edges, and pin the roll-up itself to the
obvious dictionary fold.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.offload import (  # noqa: E402
    offload_summary,
    operator_series,
    summarize_offload,
)
from repro.analysis.overflow import (  # noqa: E402
    overflow_share_series,
    overflow_summary,
    summarize_overflow,
)
from repro.analysis.report import fold_traffic  # noqa: E402
from repro.isp.bgp import BgpRib, BgpRoute  # noqa: E402
from repro.isp.classify import TrafficClassifier  # noqa: E402
from repro.isp.netflow import FlowLog, FlowRecord  # noqa: E402
from repro.isp.snmp import SnmpCounters  # noqa: E402
from repro.isp.topology import EyeballIsp, PeeringLink  # noqa: E402
from repro.net.asys import AS_AKAMAI, AS_APPLE, AS_LIMELIGHT, ASN  # noqa: E402
from repro.net.ipv4 import IPv4Address, IPv4Prefix  # noqa: E402

AS_TRANSIT_A, AS_TRANSIT_B = ASN(65001), ASN(65002)
LINKS = {
    "apple-1": AS_APPLE, "akamai-1": AS_AKAMAI, "ll-1": AS_LIMELIGHT,
    "transit-a1": AS_TRANSIT_A, "transit-a2": AS_TRANSIT_A, "transit-b": AS_TRANSIT_B,
}
# (source, operator): own-AS servers, hosted ones behind transit (overflow
# whatever the link), and one address nobody operates.
SOURCES = {
    "17.253.0.1": "Apple", "17.253.0.2": "Apple",
    "23.192.0.1": "Akamai", "92.122.0.1": "Akamai",
    "68.142.64.1": "Limelight", "208.111.160.1": "Limelight",
    "208.111.160.2": "Limelight", "8.8.8.8": None,
}


def eyeball_isp() -> EyeballIsp:
    return EyeballIsp(ASN(64496), "TestISP", IPv4Prefix.parse("89.0.0.0/12"), [
        PeeringLink(link_id, "br", neighbor, 100.0)
        for link_id, neighbor in LINKS.items()
    ])


def classifier(isp: EyeballIsp) -> TrafficClassifier:
    rib = BgpRib(
        BgpRoute(IPv4Prefix.parse(prefix), path, ("apple-1",))
        for prefix, path in (
            ("17.0.0.0/8", (AS_APPLE,)),
            ("23.192.0.0/11", (AS_AKAMAI,)),
            ("92.122.0.0/15", (AS_TRANSIT_A, ASN(64512))),
            ("68.142.64.0/18", (AS_LIMELIGHT,)),
            ("208.111.160.0/19", (AS_TRANSIT_B, ASN(64513))),
        )
    )
    operators = {IPv4Address.parse(src): name for src, name in SOURCES.items()}
    return TrafficClassifier(isp, rib, operators.get)


ISP = eyeball_isp()
CLASSIFIER = classifier(ISP)

# Steps of a 5-minute replay, plus ones that land a second either side
# of an hour edge and jump whole hours, so flows sit on, just before and
# just after the edges of 3 600 s and 21 600 s bins.
gaps = st.sampled_from([0, 0, 0, 300, 300, 1, 3599, 3600, 7200, 21599, 21600])
flows = st.tuples(
    gaps,
    st.sampled_from(sorted(SOURCES)),
    st.sampled_from(sorted(LINKS)),
    st.one_of(st.integers(1, 1000), st.integers(10**9, 10**12)),
)
logs = st.lists(flows, min_size=1, max_size=400)


def build(rows, origin: int = 2_400_000) -> FlowLog:
    log = FlowLog()
    now = origin
    for gap, src, link, size in rows:
        now += gap
        log.append_values(
            float(now), IPv4Address.parse(src).value, 1 + now % 1024, size, link
        )
    return log


def figures(records, operator_bin, overflow_bin):
    classified = list(CLASSIFIER.classify_all(records))
    return (
        operator_series(classified, operator_bin),
        overflow_share_series(classified, overflow_bin, operator="Limelight"),
        overflow_share_series(classified, overflow_bin),
    )


def ordered(figure):
    """A figure with its dict orders made visible (``==`` ignores them)."""
    series, limelight, overall = figure
    return (
        [(name, list(bins.items())) for name, bins in series.items()],
        [(start, list(shares.items())) for start, shares in limelight],
        [(start, list(shares.items())) for start, shares in overall],
    )


@settings(max_examples=120, deadline=None)
@given(rows=logs)
def test_the_figures_read_the_same_off_the_rollup_as_off_every_flow(rows):
    log = build(rows)
    rolled = log.rollup(3600.0)
    assert len(rolled) <= len(log)
    for operator_bin, overflow_bin in ((3600.0, 21600.0), (21600.0, 3600.0)):
        full = figures(log, operator_bin, overflow_bin)
        assert figures(rolled, operator_bin, overflow_bin) == full
        assert ordered(figures(rolled, operator_bin, overflow_bin)) == ordered(full)


@settings(max_examples=120, deadline=None)
@given(rows=logs)
def test_the_report_fold_reads_the_figures_of_the_object_path(rows):
    """``fold_traffic`` over the roll-up's columns is ``summarize_offload``
    and ``summarize_overflow`` over its classified records, to the float
    and to the dict order."""
    rolled = build(rows).rollup(3600.0)
    classified = list(CLASSIFIER.classify_all(rolled))
    series, shares = fold_traffic(CLASSIFIER, rolled)
    expected = (
        operator_series(classified),
        overflow_share_series(classified, operator="Limelight"),
        [],
    )
    # repr, not ==: an int where the object path sums floats differs too.
    assert repr(ordered((series, shares, []))) == repr(ordered(expected))
    release_day = 2_400_000 // 86400 * 86400 + 2 * 86400.0
    assert offload_summary(series, release_day) == summarize_offload(
        classified, release_day
    )
    saturation = (ISP, SnmpCounters(), [release_day + 3600.0])
    assert overflow_summary(shares, AS_TRANSIT_B, *saturation) == (
        summarize_overflow(classified, AS_TRANSIT_B, *saturation)
    )


def test_the_report_fold_of_an_empty_log():
    assert fold_traffic(CLASSIFIER, FlowLog()) == ({}, [])


@settings(max_examples=120, deadline=None)
@given(rows=logs, bin_seconds=st.sampled_from([300.0, 3600.0, 21600.0, 1000.0]))
def test_rollup_is_the_dictionary_fold(rows, bin_seconds):
    log = build(rows)
    folded: dict = {}
    for record in log:
        start = math.floor(record.timestamp / bin_seconds) * bin_seconds
        key = (start, record.src, record.link_id)
        if key in folded:
            folded[key] = (folded[key][0], folded[key][1] + record.bytes)
        else:
            folded[key] = (record.dst, record.bytes)
    # Bins ascending (the log is time-ordered, so insertion order is
    # already that), groups in first-appearance order, first flow's dst.
    expected = [
        FlowRecord(start, src, dst, size, link)
        for (start, src, link), (dst, size) in folded.items()
    ]
    rolled = log.rollup(bin_seconds)
    assert rolled == expected
    assert all(type(size) is int for size in rolled.sizes)
    assert sum(rolled.sizes) == sum(log.sizes)
    assert rolled.rollup(bin_seconds) == rolled  # nothing left to fold


def test_a_rollup_bin_that_does_not_divide_the_analysis_bin_is_not_exact():
    """The claim stops at whole multiples: 2 500 s moves bytes across 3 600 s edges."""
    src = IPv4Address.parse("17.253.0.1").value
    log = FlowLog()
    log.append_values(3000.0, src, 1, 100, "apple-1")  # hour 0; 2 500 s bin [2500, 5000)
    log.append_values(4000.0, src, 1, 50, "apple-1")   # hour 1; the same 2 500 s bin
    full = figures(log, 3600.0, 21600.0)
    assert full[0] == {"Apple": {0.0: 100.0, 3600.0: 50.0}}
    assert figures(log.rollup(2500.0), 3600.0, 21600.0)[0] == {"Apple": {0.0: 150.0}}
    assert figures(log.rollup(3600.0), 3600.0, 21600.0) == full
    assert figures(log.rollup(1800.0), 3600.0, 21600.0) == full


def test_rollup_validation_and_the_empty_log():
    with pytest.raises(ValueError):
        FlowLog().rollup(0.0)
    assert len(FlowLog().rollup(3600.0)) == 0
