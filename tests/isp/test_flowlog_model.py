"""Model test: :class:`~repro.isp.netflow.FlowLog` against a plain list.

The log keeps typed columns and an interned link table and builds a
``FlowRecord`` only for a reader; the oracle is the ``list[FlowRecord]``
it replaced.  A rule-based machine drives two logs at once — so a block
cut from one can be absorbed by the other, whose link table was
interned in another order — through appends, both kinds of ``extend``,
collector absorbs, pickle round trips, tampered states and writes that
go back in time (refused, and the log left as it was), comparing every
read after each step.  Timestamps are stored one per run of equal ones,
so the machine also cuts runs in the middle and joins them again.
"""

import math
import pickle
from array import array

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.dns.policies import stable_fraction  # noqa: E402
from repro.isp.netflow import (  # noqa: E402
    MAX_LINKS,
    FlowLog,
    FlowRecord,
    NetflowCollector,
)
from repro.net.ipv4 import IPv4Address  # noqa: E402

# Few of each, so sources, links and timestamps repeat; steps of zero
# keep several flows on one timestamp, as one engine step does.
sides = st.sampled_from([0, 1])
addresses = st.sampled_from([0, 1, 0x11FD0001, 0x17C00001, 0xFFFFFFFF])
links = st.sampled_from(["apple-1", "akamai-1", "transit-1", "transit-2", "l"])
sizes = st.one_of(st.integers(1, 5), st.sampled_from([10**9, 2**62]))
steps = st.sampled_from([0.0, 0.0, 0.5, 300.0, 3599.5, 3600.0])
cursors = st.integers(0, 12)


def flow(timestamp, src, dst, size, link):
    return FlowRecord(timestamp, IPv4Address(src), IPv4Address(dst), size, link)


def columns(rows):
    """``(src, dst, size, link)`` rows as the four columns an append takes."""
    return tuple(list(column) for column in zip(*rows)) or ([], [], [], [])


def last_time(model):
    return model[-1].timestamp if model else 0.0


def rollup_of(model, bin_seconds):
    """The list oracle of ``FlowLog.rollup``: one record per (bin, source,
    link) in first-appearance order, with its first flow's destination."""
    groups = {}
    for r in model:
        start = math.floor(r.timestamp / bin_seconds) * bin_seconds
        key = (start, r.src, r.link_id)
        if key in groups:
            groups[key] = (groups[key][0], groups[key][1] + r.bytes)
        else:
            groups[key] = (r.dst, r.bytes)
    return [
        FlowRecord(start, src, dst, size, link)
        for (start, src, link), (dst, size) in groups.items()
    ]


def first_at_or_after(model, timestamp):
    return next(
        (row for row, r in enumerate(model) if r.timestamp >= timestamp), len(model)
    )


class FlowLogAgainstList(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = [FlowLog(), FlowLog()]
        self.model = [[], []]

    @rule(side=sides, step=steps, src=addresses, dst=addresses, size=sizes,
          link=links, by_values=st.booleans())
    def append(self, side, step, src, dst, size, link, by_values):
        timestamp = last_time(self.model[side]) + step
        if by_values:
            self.real[side].append_values(timestamp, src, dst, size, link)
        else:
            self.real[side].append(flow(timestamp, src, dst, size, link))
        self.model[side].append(flow(timestamp, src, dst, size, link))

    @rule(side=sides, step=steps,
          rows=st.lists(st.tuples(addresses, addresses, sizes, links), max_size=5),
          bad=st.none() | st.sampled_from([(1 << 32, 1), (-1, 1), (1, 0), (1, 1 << 63)]))
    def append_block(self, side, step, rows, bad):
        timestamp = last_time(self.model[side]) + step
        if bad is not None:
            # One row the columns cannot hold, last: nothing lands.
            src, size = bad
            with pytest.raises((OverflowError, ValueError)):
                self.real[side].append_block(timestamp, *columns(rows + [(src, 7, size, "l")]))
            return
        self.real[side].append_block(timestamp, *columns(rows))
        self.model[side].extend(flow(timestamp, *row) for row in rows)

    @rule(side=sides, back=st.sampled_from([0.5, 300.0]), src=addresses, link=links)
    def append_back_in_time_is_refused(self, side, back, src, link):
        if not self.model[side]:
            return
        with pytest.raises(ValueError, match="time order"):
            self.real[side].append_values(
                last_time(self.model[side]) - back, src, src, 1, link
            )

    @rule(source=sides, cursor=cursors)
    def extend_with_a_block_of_the_other_log(self, source, cursor):
        target = 1 - source
        block = self.real[source][cursor:]
        rows = self.model[source][cursor:]
        held = self.model[target]  # an empty log takes any first timestamp
        if held and rows and rows[0].timestamp < held[-1].timestamp:
            with pytest.raises(ValueError, match="time order"):
                self.real[target].extend(block)
        else:
            self.real[target].extend(block)
            self.model[target].extend(rows)

    @rule(side=sides, src=addresses, link=links, size=sizes,
          offsets=st.lists(st.sampled_from([0.0, 300.0, -300.0]), max_size=4),
          as_generator=st.booleans())
    def extend_with_an_iterable(self, side, src, link, size, offsets, as_generator):
        timestamp = last_time(self.model[side])
        rows = []
        for offset in offsets:
            timestamp += offset
            rows.append(flow(timestamp, src, 7, size, link))
        given = (row for row in rows) if as_generator else tuple(rows)
        times = [r.timestamp for r in self.model[side][-1:] + rows]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            # One record anywhere in the iterable goes back: nothing lands.
            with pytest.raises(ValueError, match="time order"):
                self.real[side].extend(given)
        else:
            self.real[side].extend(given)
            self.model[side].extend(rows)

    @rule(side=sides)
    def pickle_round_trip(self, side):
        self.real[side] = pickle.loads(
            pickle.dumps(self.real[side], pickle.HIGHEST_PROTOCOL)
        )

    @rule(side=sides, index=st.integers(-14, 14))
    def index(self, side, index):
        real, model = self.real[side], self.model[side]
        if -len(model) <= index < len(model):
            assert real[index] == model[index]
        else:
            with pytest.raises(IndexError):
                real[index]

    @rule(side=sides, lo=st.none() | st.integers(-14, 14),
          hi=st.none() | st.integers(-14, 14), step=st.none() | st.integers(1, 3))
    def slice(self, side, lo, hi, step):
        real, model = self.real[side], self.model[side]
        block = real[lo:hi:step]
        assert isinstance(block, FlowLog)
        assert list(block) == model[lo:hi:step]
        assert block == model[lo:hi:step]
        assert block == tuple(model[lo:hi:step])
        with pytest.raises(ValueError):
            real[lo:hi:-1]

    @rule(side=sides, lo=st.integers(-1, 30), width=st.integers(0, 30),
          nudge=st.sampled_from([0.0, 0.25, -0.25]))
    def between(self, side, lo, width, nudge):
        # Bounds on the timestamps themselves (half-open: the start is
        # in, the end is out), and a quarter second either side of them.
        real, model = self.real[side], self.model[side]
        start = lo * 300.0 + nudge
        end = start + width * 300.0
        expected = [r for r in model if start <= r.timestamp < end]
        assert real.span(start, end) == (
            first_at_or_after(model, start), first_at_or_after(model, end)
        )
        assert list(real.rows(*real.span(start, end))) == expected
        for link in ("apple-1", "l", "never-seen"):
            assert real.bytes_between(link, start, end) == sum(
                r.bytes for r in expected if r.link_id == link
            )

    @rule(side=sides, at=st.integers(0, 30))
    def cut_a_run_and_join_it_again(self, side, at):
        # A cut between two rows of one timestamp splits its run; the
        # halves read as the rows, and extending one with the other
        # joins the run again, equal to the uncut log.
        real, model = self.real[side], self.model[side]
        inside = [
            row for row in range(1, len(model))
            if model[row - 1].timestamp == model[row].timestamp
        ]
        if not inside:
            return
        cut = inside[at % len(inside)]
        head, tail = real[:cut], real[cut:]
        assert head == model[:cut] and tail == model[cut:]
        assert head.block_times[-1] == tail.block_times[0]
        head.extend(tail)
        assert head == real
        assert head.block_times == real.block_times
        assert head.block_ends == real.block_ends

    @rule(side=sides, src=addresses, link=links, size=sizes,
          count=st.integers(1, 3), absorb=st.booleans())
    def extend_at_the_last_timestamp(self, side, src, link, size, count, absorb):
        # A block whose first timestamp is the log's last joins its run,
        # through FlowLog.extend or a collector's absorb.
        timestamp = last_time(self.model[side])
        rows = [flow(timestamp, src, 7, size, link)] * count
        rows.append(flow(timestamp + 300.0, src, 7, size, link))
        block = FlowLog(rows)
        if absorb:
            collector = NetflowCollector()
            collector.absorb(self.real[side], 0)
            collector.absorb(block, size)
            self.real[side] = collector.records
        else:
            self.real[side].extend(block)
        self.model[side].extend(rows)

    @rule(side=sides, bin_seconds=st.sampled_from([3600.0, 300.0]))
    def rollup(self, side, bin_seconds):
        expected = rollup_of(self.model[side], bin_seconds)
        if any(r.bytes >= 2**63 for r in expected):
            with pytest.raises(OverflowError):  # a sum the column cannot hold
                self.real[side].rollup(bin_seconds)
            return
        rolled = self.real[side].rollup(bin_seconds)
        assert rolled == expected
        assert list(rolled) == expected
        assert pickle.loads(pickle.dumps(rolled)) == rolled

    @rule(side=sides, tamper=st.sampled_from(
        ["repeat time", "swap times", "nan time", "inf time",
         "repeat end", "zero end", "short end", "long end"]))
    def a_tampered_state_is_refused(self, side, tamper):
        times, ends, *rest = self.real[side].__getstate__()
        times, ends = array("d", times), array("Q", ends)
        if tamper == "repeat time" and len(times) > 1:
            times[1] = times[0]
        elif tamper == "swap times" and len(times) > 1:
            times[0], times[1] = times[1], times[0]
        elif tamper in ("nan time", "inf time") and times:
            times[-1] = math.nan if tamper == "nan time" else math.inf
        elif tamper == "repeat end" and len(ends) > 1:
            ends[0] = ends[1]
        elif tamper == "zero end" and ends:
            ends[0] = 0
        elif tamper == "short end" and ends:
            ends[-1] -= 1
        elif tamper == "long end" and ends:
            ends[-1] += 1
        else:
            return
        with pytest.raises(ValueError, match="flow log"):
            FlowLog.__new__(FlowLog).__setstate__((times, ends, *rest))

    @invariant()
    def reads_agree(self):
        for real, model in zip(self.real, self.model):
            assert len(real) == len(model)
            assert bool(real) == bool(model)
            assert list(real) == model
            # ``==`` both ways, against both sequence types.
            assert real == model and model == real
            assert real == tuple(model) and tuple(model) == real
            assert not (real != model)
            assert real != model + [flow(0.0, 1, 1, 1, "l")]
            assert sum(real.sizes) == sum(r.bytes for r in model)
            # One run per distinct timestamp, ending where the next begins.
            assert list(real.block_times) == sorted({r.timestamp for r in model})
            assert [hi for _, _, hi in real.runs()] == list(real.block_ends)
            by_source = {}
            for r in model:
                by_source[r.src.value] = by_source.get(r.src.value, 0) + r.bytes
            assert real.bytes_by_source() == by_source
        # Two logs are equal exactly when their rows are, whatever order
        # each interned its links in.
        assert (self.real[0] == self.real[1]) == (self.model[0] == self.model[1])


FlowLogAgainstList.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestFlowLogAgainstList = FlowLogAgainstList.TestCase


def rows_on(*link_order):
    return [
        flow(float(i), 10 + i, 20, 100 + i, link) for i, link in enumerate(link_order)
    ]


class TestLinkTables:
    """Link ids are private to a log; names are what is compared."""

    def test_same_rows_interned_in_different_orders_are_equal(self):
        rows = rows_on("b", "a", "c", "a")
        straight = FlowLog(rows)
        primed = FlowLog()
        for link in ("c", "a", "b"):  # a worker that met the links in another order
            primed._intern(link)
        primed.extend(rows)
        assert straight.links != primed.links
        assert straight.link_ids != primed.link_ids
        assert straight == primed and primed == straight
        assert primed == rows

    def test_a_differing_link_makes_them_unequal(self):
        assert FlowLog(rows_on("a", "b")) != FlowLog(rows_on("a", "c"))
        assert FlowLog(rows_on("a", "b")) != FlowLog(rows_on("b", "a"))

    def test_absorbing_a_block_remaps_its_link_ids(self):
        head, tail = rows_on("a", "b")[:2], rows_on("x", "x", "b", "c", "a")[2:]
        log = FlowLog(head)
        block = FlowLog(tail)  # interned b, c, a: ids 0, 1, 2
        assert block.links == ["b", "c", "a"]
        log.extend(block)
        assert log == head + tail
        assert log.links == ["a", "b", "c"]
        assert [log.links[i] for i in log.link_ids] == ["a", "b", "b", "c", "a"]

    def test_a_block_cut_from_the_log_needs_no_remap(self):
        log = FlowLog(rows_on("a", "b", "c"))
        other = FlowLog()
        other.extend(log[1:])
        assert other == log[1:]
        assert other == rows_on("a", "b", "c")[1:]


class TestLimits:
    def test_the_link_table_holds_65536_names_and_refuses_one_more(self):
        log = FlowLog()
        for index in range(MAX_LINKS):
            log.append_values(0.0, 1, 2, 1, f"link-{index}")
        assert len(log.links) == MAX_LINKS == 65536
        assert log[-1].link_id == "link-65535"
        with pytest.raises(ValueError, match="65536 distinct links"):
            log.append_values(0.0, 1, 2, 1, "one-too-many")
        assert len(log) == MAX_LINKS
        log.append_values(0.0, 1, 2, 1, "link-0")  # a known link still appends

    def test_a_value_a_column_cannot_hold_leaves_no_row_behind(self):
        log = FlowLog(rows_on("a"))
        for bad in (
            (1.0, 2**32, 1, 1, "a"),   # source beyond 32 bits
            (1.0, 1, -1, 1, "a"),      # negative destination
            (1.0, 1, 1, 2**63, "a"),   # bytes beyond a signed 64-bit count
        ):
            with pytest.raises(OverflowError):
                log.append_values(*bad)
            assert log == rows_on("a")
            assert {len(c) for c in (log.srcs, log.dsts,
                                     log.sizes, log.link_ids)} == {1}
            assert (log.block_times, log.block_ends) == (
                array("d", [0.0]), array("Q", [1])
            )

    def test_flow_bytes_must_be_positive(self):
        log = FlowLog()
        for size in (0, -5):
            with pytest.raises(ValueError, match="positive"):
                log.append_values(0.0, 1, 2, size, "a")
        assert not log

    def test_columns_of_different_lengths_do_not_unpickle(self):
        log = FlowLog(rows_on("a", "b"))
        state = list(log.__getstate__())
        state[3] = state[3][:1]
        with pytest.raises(ValueError, match="length"):
            FlowLog.__new__(FlowLog).__setstate__(tuple(state))

    def test_a_block_pickles_as_six_arrays_and_a_link_list(self):
        # One timestamp per run: rows at 0, 0 and 1 s are two runs.
        log = FlowLog([flow(0.0, 1, 2, 3, "a"), flow(0.0, 1, 2, 3, "b"),
                       flow(1.0, 1, 2, 3, "a")])
        state = log.__getstate__()
        assert [type(part) for part in state] == [array] * 6 + [list]
        assert [part.typecode for part in state[:6]] == ["d", "Q", "I", "I", "q", "H"]
        assert state[:2] == (array("d", [0.0, 1.0]), array("Q", [2, 3]))
        assert state[6] == ["a", "b"]


def exported_by_rows(timestamp, rows, sampling_rate, flow_bytes):
    """The row-by-row model of one block's export: each row is one record
    at rate 1; at 1-in-N it is ``max(1, round(B / flow_bytes))`` flows
    of ``flow_bytes``, flow ``i`` kept when its stable fraction is
    below ``1 / N``."""
    if sampling_rate == 1:
        return [flow(timestamp, *row) for row in rows]
    return [
        flow(timestamp, src, dst, flow_bytes, link)
        for src, dst, size, link in rows
        for index in range(max(1, round(size / flow_bytes)))
        if stable_fraction(link, timestamp, str(IPv4Address(src)), index)
        < 1.0 / sampling_rate
    ]


def state_of(log):
    """Everything a refused append must leave as it was."""
    return pickle.dumps(log.__getstate__()), dict(log._link_index)


blocks = st.lists(
    st.tuples(
        steps,
        st.lists(
            st.tuples(addresses, addresses, st.integers(1, 5000), links), max_size=6
        ),
    ),
    max_size=6,
)


class TestColumnAppendOracle:
    """Appending a block as four columns equals the row-by-row model."""

    @settings(max_examples=60, deadline=None)
    @given(blocks=blocks, sampling_rate=st.sampled_from([1, 3]))
    def test_columns_equal_the_rows_one_by_one(self, blocks, sampling_rate):
        collector = NetflowCollector(sampling_rate=sampling_rate, flow_bytes=1000)
        log = FlowLog()
        model, sampled, offered, timestamp = [], [], 0, 0.0
        for step, rows in blocks:
            timestamp += step
            exported = exported_by_rows(timestamp, rows, sampling_rate, 1000)
            assert collector.observe_block(timestamp, *columns(rows)) == len(exported)
            log.append_block(timestamp, *columns(rows))
            model.extend(flow(timestamp, *row) for row in rows)
            sampled.extend(exported)
            offered += sum(row[2] for row in rows)
        assert log == model
        assert collector.records == sampled
        assert collector.total_offered_bytes == offered
        assert log.links == list(dict.fromkeys(r.link_id for r in model))

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=blocks.filter(lambda b: any(rows for _, rows in b)),
        sampling_rate=st.sampled_from([1, 3]),
        bad=st.sampled_from(
            ["nan", "inf", "-inf", "zero size", "negative size", "back in time",
             "ragged"]
        ),
    )
    # An empty block after the last flow once set the expected clock.
    @example(blocks=[(0.0, [(0, 0, 1, "apple-1")]), (0.5, [])], sampling_rate=1,
             bad="back in time")
    def test_every_refusal_leaves_the_log_as_it_was(self, blocks, sampling_rate, bad):
        collector = NetflowCollector(sampling_rate=sampling_rate, flow_bytes=1000)
        log = FlowLog()
        timestamp = last_flow = 300.0
        for step, rows in blocks:
            timestamp += step
            collector.observe_block(timestamp, *columns(rows))
            log.append_block(timestamp, *columns(rows))
            if rows:
                last_flow = timestamp
        srcs, dsts, sizes, link_ids = [7, 8], [9, 9], [10, 20], ["new-1", "l"]
        at = timestamp + 300.0
        if bad in ("nan", "inf", "-inf"):
            at = float(bad)
        elif bad == "zero size":
            sizes[1] = 0
        elif bad == "negative size":
            sizes[0] = -1
        elif bad == "back in time":
            # Older than the last flow held: an empty block after it
            # moves no log's clock.
            at = last_flow - 0.5
        else:
            dsts.pop()
        before = state_of(log), state_of(collector.records), collector.total_offered_bytes
        with pytest.raises(ValueError):
            log.append_block(at, srcs, dsts, sizes, link_ids)
        # A sampled collector that holds nothing older than the block, or
        # exports nothing of it, has no time order to break.
        if bad != "back in time" or (
            collector.records
            and at < collector.records.block_times[-1]
            and exported_by_rows(at, list(zip(srcs, dsts, sizes, link_ids)), sampling_rate, 1000)
        ):
            with pytest.raises(ValueError):
                collector.observe_block(at, srcs, dsts, sizes, link_ids)
        after = state_of(log), state_of(collector.records), collector.total_offered_bytes
        assert after == before

    def test_a_block_past_max_links_interns_none_of_them(self):
        log = FlowLog()
        names = [f"link-{index}" for index in range(MAX_LINKS - 1)]
        log.append_block(0.0, [1] * len(names), [2] * len(names), [1] * len(names), names)
        before = state_of(log)
        with pytest.raises(ValueError, match="65536 distinct links"):
            log.append_block(0.0, [1, 1, 1], [2, 2, 2], [1, 1, 1],
                             ["link-0", "room-for-one", "one-too-many"])
        with pytest.raises(ValueError, match="65536 distinct links"):
            log.extend(FlowLog([flow(0.0, 1, 2, 1, "room-for-one"),
                                flow(0.0, 1, 2, 1, "one-too-many")]))
        assert state_of(log) == before
        log.append_block(0.0, [1], [2], [1], ["room-for-one"])
        assert len(log.links) == MAX_LINKS


@st.composite
def repeated_runs(draw):
    """Runs of flows, one per timestamp, many of them repeating the run
    before: the same (source, link) columns with other destinations and
    sizes, as one engine tick repeats the last.  A repeat may also lose
    or gain a row (keys that match a prefix, duplicate keys in a run),
    and steps put repeats on either side of a bin edge."""
    runs, timestamp = [], 0.0
    for _ in range(draw(st.integers(1, 14))):
        timestamp += draw(st.sampled_from([300.0, 300.0, 600.0, 1800.0, 3600.0]))
        kind = draw(st.sampled_from(["fresh", "repeat", "repeat", "resized"]))
        if not runs or kind == "fresh":
            rows = draw(st.lists(
                st.tuples(addresses, addresses, st.integers(1, 5), links),
                min_size=1, max_size=5,
            ))
        else:
            rows = [
                (src, draw(addresses), draw(st.integers(1, 10**9)), link)
                for src, _dst, _size, link in runs[-1][1]
            ]
            if kind == "resized":
                if len(rows) > 1 and draw(st.booleans()):
                    rows.pop()
                else:
                    rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        runs.append((timestamp, rows))
    return runs


class TestRollupOracle:
    """``rollup`` folds a run whose (source, link) columns repeat the run
    before it into that run; it must read as grouping every row."""

    @settings(max_examples=300, deadline=None)
    @given(
        runs=repeated_runs(),
        # Whole multiples of the steps and bins no step divides.
        bin_seconds=st.sampled_from([3600.0, 1800.0, 7200.0, 1000.0, 450.5]),
    )
    def test_rollup_equals_the_per_row_model(self, runs, bin_seconds):
        log, model = FlowLog(), []
        for timestamp, rows in runs:
            log.append_block(timestamp, *columns(rows))
            model.extend(flow(timestamp, *row) for row in rows)
        expected = rollup_of(model, bin_seconds)
        rolled = log.rollup(bin_seconds)
        assert list(rolled) == expected
        # One run per bin, ends included: the encoding of those rows.
        assert rolled == FlowLog(expected)
        assert rolled.links == log.links


class TestTimestamps:
    """Timestamps are finite: a NaN compares False with everything, so it
    would slip past the time-order check and break every read after it."""

    def test_a_non_finite_timestamp_is_refused_everywhere(self):
        log = FlowLog()
        log.append_block(100.0, [1], [2], [10], ["l0"])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                log.append_block(bad, [1], [2], [10], ["l0"])
            with pytest.raises(ValueError, match="finite"):
                log.extend([flow(bad, 1, 2, 10, "l0")])
        with pytest.raises(ValueError, match="time order"):
            log.append_block(50.0, [1], [2], [10], ["l0"])
        log.append_block(150.0, [1], [2], [20], ["l0"])
        assert log.bytes_between("l0", 0, 200) == 30
        assert [r.bytes for r in log.rollup(3600.0)] == [30]

    def test_a_collector_inherits_the_check(self):
        collector = NetflowCollector()
        with pytest.raises(ValueError, match="finite"):
            collector.observe_block(math.nan, [1], [2], [10], ["l0"])
        with pytest.raises(ValueError, match="finite"):
            collector.absorb([flow(math.nan, 1, 2, 10, "l0")], 10)
        assert not collector.records and collector.total_offered_bytes == 0

    def test_a_state_with_a_nan_time_does_not_unpickle(self):
        state = list(FlowLog([flow(0.0, 1, 2, 3, "a")]).__getstate__())
        state[0] = array("d", [math.nan])
        with pytest.raises(ValueError, match="finite"):
            FlowLog.__new__(FlowLog).__setstate__(tuple(state))
