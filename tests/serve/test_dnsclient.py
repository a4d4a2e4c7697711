"""``AsyncDnsClient`` against canned responders: the bytes it sends,
what a bad *response* does, and what a query leaves behind."""

import asyncio
import contextlib
import math
import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import wire
from repro.dns.query import Question
from repro.dns.records import RecordType
from repro.dns.wire import ClientSubnet, WireMessage, decode_message, encode_message
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.obs.trace_context import TraceContext, use_context
from repro.serve.dnsclient import AsyncDnsClient, DnsClientError
from repro.serve.loadgen import LoadConfig
from repro.serve.udp import open_udp

CLIENT = IPv4Address.parse("100.64.7.9")


class _Canned(asyncio.DatagramProtocol):
    """Records every query and answers it with ``reply(query bytes)``;
    a ``reply`` of ``None``, or one that returns ``None``, answers
    nothing."""

    def __init__(self, reply):
        self.reply = reply
        self.datagrams = []

    @property
    def queries(self):
        return len(self.datagrams)

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        self.datagrams.append(data)
        answer = self.reply(data) if self.reply is not None else None
        if answer is not None:
            self.transport.sendto(answer, addr)


def _echo(data: bytes) -> bytes:
    """The query itself with the response flag set."""
    return data[:2] + bytes([data[2] | 0x80]) + data[3:]


@contextlib.asynccontextmanager
async def _served(reply, **kwargs):
    """A client connected to a fresh ``_Canned(reply)`` responder."""
    transport, responder = await open_udp(
        lambda: _Canned(reply), local_addr=("127.0.0.1", 0)
    )
    client = await AsyncDnsClient.open(
        *transport.get_extra_info("sockname")[:2], **kwargs
    )
    try:
        yield client, responder
    finally:
        client.close()
        transport.close()


def reference_query(message_id, name, client, length, trace=None):
    """A query as the client built it before its bytes were memoised."""
    return encode_message(WireMessage(
        message_id=message_id,
        questions=[Question.of(name, RecordType.A)],
        client_subnet=ClientSubnet(IPv4Prefix.containing(client, length)),
        trace_context=trace,
    ))


def _ecs_source_length_40(data: bytes) -> bytes:
    """A response whose ECS option claims a /40 over five address bytes."""
    query = decode_message(data)
    response = encode_message(WireMessage(
        message_id=query.message_id, is_response=True,
        questions=query.questions[:1],
    ))
    option = b"\x00\x08\x00\x09" + b"\x00\x01\x28\x00" + b"\x64\x40\x07\x00\x00"
    opt = b"\x00\x00\x29\x10\x00\x00\x00\x00\x00" + len(option).to_bytes(2, "big")
    return response[:11] + b"\x01" + response[12:] + opt + option


def test_response_with_ecs_source_past_32_is_retried_into_a_client_error():
    # The option used to leave the decoder as AddressError, which
    # ``query`` does not catch: the chase died with a raw exception
    # after one attempt instead of retrying and failing as a client error.
    async def scenario():
        transport, responder = await open_udp(
            lambda: _Canned(_ecs_source_length_40), local_addr=("127.0.0.1", 0)
        )
        client = await AsyncDnsClient.open(
            *transport.get_extra_info("sockname")[:2], timeout=1.0, retries=2
        )
        try:
            with pytest.raises(DnsClientError, match="undecodable response"):
                await client.query("appldnld.apple.com", CLIENT)
        finally:
            client.close()
            transport.close()
        return responder.queries

    assert asyncio.run(scenario()) == 3  # the first attempt and both retries


# ----------------------------------------------------------------------
# The bytes on the wire
# ----------------------------------------------------------------------

labels = st.text(
    alphabet=string.ascii_letters + string.digits, min_size=1, max_size=12
)
names = st.lists(labels, min_size=1, max_size=4).map(".".join)
addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)


@st.composite
def asks(draw):
    """(name, client, message id) triples over a small pool, so names
    and clients repeat and interleave; the clients are one address and
    its one-bit neighbours, which share all but one bit of a network."""
    pool = draw(st.lists(names, min_size=1, max_size=4))
    base = draw(addresses)
    clients = draw(st.lists(
        st.integers(min_value=0, max_value=32).map(
            lambda bit: IPv4Address(base.value ^ (1 << bit >> 1))
        ),
        min_size=1, max_size=3,
    ))
    return draw(st.lists(
        st.tuples(
            st.sampled_from(pool), st.sampled_from(clients),
            st.integers(min_value=1, max_value=0xFFFF),
        ),
        min_size=1, max_size=8,
    ))


def _send_all(asked, **kwargs):
    """Query every ``(name, client[, message id])``; the datagrams sent."""

    async def scenario():
        async with _served(_echo, **kwargs) as (client, responder):
            for name, address, *message_id in asked:
                if message_id:
                    client._last_id = message_id[0] - 1
                await client.query(name, address)
        return responder.datagrams

    return asyncio.run(scenario())


@settings(max_examples=150, deadline=None)
@given(asked=asks(), length=st.integers(min_value=1, max_value=32))
def test_every_query_is_the_bytes_the_reference_construction_sends(asked, length):
    sent = _send_all(asked, source_prefix_len=length)
    assert sent == [
        reference_query(message_id, name, address, length)
        for name, address, message_id in asked
    ]


def test_interleaved_queries_past_the_memo_bound_keep_their_bytes():
    wire._QUERIES.clear()
    fresh = [f"Host{i}.Bound.Example" for i in range(wire._MEMO_BOUND + 40)]
    clients = [IPv4Address(0x64400000 + (i << 8)) for i in range(3)]
    asked = []
    for index, name in enumerate(fresh):
        # A new name, one asked long ago (evicted past the bound) and
        # the first name again (resident or re-filled).
        asked += [
            (name, clients[index % 3]),
            (fresh[index // 2], clients[0]),
            (fresh[0], clients[1]),
        ]
    sent = _send_all(asked)
    assert len(wire._QUERIES) == wire._MEMO_BOUND
    assert sent == [
        reference_query(message_id, name, address, 24)
        for message_id, (name, address) in enumerate(asked, 1)
    ]


def test_a_traced_query_still_carries_its_trace_option():
    context = TraceContext(trace_id=0x5EED, span_id=7)
    trace = context.child(None)  # no span open on the null tracer
    wire._QUERIES.clear()

    async def scenario():
        async with _served(_echo) as (client, responder):
            with use_context(context):
                await client.query("AppLDNLD.apple.com", CLIENT)
                await client.query("AppLDNLD.apple.com", CLIENT)
            await client.query("AppLDNLD.apple.com", CLIENT)
        return responder.datagrams

    sent = asyncio.run(scenario())
    assert sent == [
        reference_query(1, "AppLDNLD.apple.com", CLIENT, 24, trace),
        reference_query(2, "AppLDNLD.apple.com", CLIENT, 24, trace),
        reference_query(3, "AppLDNLD.apple.com", CLIENT, 24),
    ]
    assert decode_message(sent[0]).trace_context == trace
    assert len(wire._QUERIES) == 1  # the untraced one alone


@pytest.mark.parametrize("name", ["a" * 64 + ".apple.com", "x." + "B" * 70])
def test_an_over_long_label_raises_as_before_and_sends_nothing(name):
    with pytest.raises(Exception) as before:
        reference_query(1, name, CLIENT, 24)

    async def scenario():
        async with _served(_echo) as (client, responder):
            for _ in range(2):  # nothing was memoised by the first raise
                with pytest.raises(before.type, match=re.escape(str(before.value))):
                    await client.query(name, CLIENT)
        return responder.datagrams

    assert asyncio.run(scenario()) == []


# ----------------------------------------------------------------------
# Settings that cannot work, and what a query leaves behind
# ----------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    pytest.param(lambda: AsyncDnsClient("127.0.0.1", 53, timeout=0.0), id="timeout-0"),
    pytest.param(lambda: AsyncDnsClient("127.0.0.1", 53, timeout=-1.0), id="timeout-neg"),
    pytest.param(lambda: AsyncDnsClient("127.0.0.1", 53, timeout=math.nan), id="timeout-nan"),
    pytest.param(lambda: AsyncDnsClient("127.0.0.1", 53, timeout=math.inf), id="timeout-inf"),
    pytest.param(lambda: AsyncDnsClient("127.0.0.1", 53, retries=-1), id="retries-neg"),
    pytest.param(lambda: LoadConfig(dns_timeout=0.0), id="config-timeout-0"),
    pytest.param(lambda: LoadConfig(dns_timeout=-1.0), id="config-timeout-neg"),
    pytest.param(lambda: LoadConfig(dns_timeout=math.nan), id="config-timeout-nan"),
    pytest.param(lambda: LoadConfig(dns_timeout=math.inf), id="config-timeout-inf"),
])
def test_a_timeout_or_retry_count_that_cannot_work_is_refused(build):
    with pytest.raises(ValueError, match="timeout|retries"):
        build()


class TestNothingOutlivesAQuery:
    """No registered waiter or task survives a query, however it ended;
    an open client keeps at most its one timer, and ``close()`` takes
    that too."""

    @staticmethod
    def assert_clean(client, deadline_timers):
        assert len(deadline_timers()) <= 1
        assert client._protocol.waiters == {}
        assert asyncio.all_tasks() == {asyncio.current_task()}

    def test_after_an_answered_query(self, deadline_timers):
        async def scenario():
            seen = []
            async with _served(_echo) as (client, responder):
                for _ in range(20):
                    response = await client.query("appldnld.apple.com", CLIENT)
                    self.assert_clean(client, deadline_timers)
                    seen.append(deadline_timers())
            return response, responder.queries, seen, deadline_timers()

        response, queries, seen, after_close = asyncio.run(scenario())
        assert response.questions == [Question.of("appldnld.apple.com")]
        assert queries == 20
        # Twenty answers, one and the same timer throughout.
        assert all(len(timers) == 1 for timers in seen)
        assert len({id(timer) for timers in seen for timer in timers}) == 1
        assert after_close == []

    def test_after_a_dropped_query(self, deadline_timers):
        async def scenario():
            async with _served(None, timeout=0.02, retries=2) as (client, responder):
                with pytest.raises(DnsClientError, match="timeout after 0.02s"):
                    await client.query("appldnld.apple.com", CLIENT)
                self.assert_clean(client, deadline_timers)
                counts = responder.queries, client.timeouts
            assert deadline_timers() == []
            return counts

        assert asyncio.run(scenario()) == (3, 3)  # 1 + retries, each counted

    def test_after_a_caller_cancelled_mid_wait(self, deadline_timers):
        async def scenario():
            async with _served(None, timeout=30.0) as (client, responder):
                caller = asyncio.create_task(
                    client.query("appldnld.apple.com", CLIENT)
                )
                while not client._protocol.waiters:
                    await asyncio.sleep(0)
                assert len(deadline_timers()) == 1
                caller.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await caller
                self.assert_clean(client, deadline_timers)
                counts = responder.queries, client.timeouts
            assert deadline_timers() == []
            return counts

        assert asyncio.run(scenario()) == (1, 0)


# ----------------------------------------------------------------------
# One timer per client: what the queue of waits must hold to
# ----------------------------------------------------------------------


def _drop(name: str):
    """A reply that answers every query except those for ``name``."""
    label = name.split(".")[0].encode()
    return lambda data: None if label in data else _echo(data)


def test_twenty_answered_queries_call_call_at_at_most_once():
    calls = []

    async def scenario():
        loop = asyncio.get_running_loop()
        real = loop.call_at

        def counted(when, callback, *args, **kwargs):
            calls.append(callback)
            return real(when, callback, *args, **kwargs)

        async with _served(_echo) as (client, _responder):
            loop.call_at = counted
            try:
                for _ in range(20):
                    await client.query("appldnld.apple.com", CLIENT)
            finally:
                del loop.call_at

    asyncio.run(scenario())
    assert len(calls) <= 1


def test_an_unanswered_query_times_out_at_its_own_due_time_not_a_newer_one():
    resolution = time.get_clock_info("monotonic").resolution

    async def scenario():
        loop = asyncio.get_running_loop()
        async with _served(_drop("dropped.example"), timeout=0.3, retries=0) as (
            client, _responder,
        ):
            older = asyncio.create_task(client.query("dropped.example", CLIENT))
            while not client._protocol.waiters:
                await asyncio.sleep(0)
            ((due, _waiter),) = client._protocol.waiters.values()
            ended = []
            older.add_done_callback(lambda _task: ended.append(loop.time()))
            await asyncio.sleep(0.1)
            # A newer query, sent and answered while the older one waits.
            await client.query("appldnld.apple.com", CLIENT)
            with pytest.raises(DnsClientError, match="timeout after 0.3s"):
                await older
            return due, ended[0], client.timeouts

    due, ended, timeouts = asyncio.run(scenario())
    # Deliberately tight: the older query ends within the clock's
    # resolution plus 20 ms of its own due time ...
    assert due - resolution <= ended <= due + resolution + 0.02
    # ... and, whatever the host's latency, well before the newer
    # query's, which was sent 0.1 s later.
    assert ended < due + 0.1
    assert timeouts == 1


def test_a_thousand_answered_queries_leave_the_wait_queue_empty():
    async def scenario():
        async with _served(_echo, timeout=30.0) as (client, responder):
            async def ask(times):
                for _ in range(times):
                    await client.query("appldnld.apple.com", CLIENT)

            await ask(500)
            await asyncio.gather(*(ask(50) for _ in range(10)))
            return len(client._protocol.waiters), responder.queries, client.timeouts

    assert asyncio.run(scenario()) == (0, 1000, 0)


def test_a_cancelled_caller_leaves_no_waiter_and_the_timer_fires_harmlessly(
    deadline_timers,
):
    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        async with _served(None, timeout=0.2) as (client, _responder):
            caller = asyncio.create_task(
                client.query("appldnld.apple.com", CLIENT)
            )
            while not client._protocol.waiters:
                await asyncio.sleep(0)
            caller.cancel()
            with pytest.raises(asyncio.CancelledError):
                await caller
            left = dict(client._protocol.waiters)
            pending = len(deadline_timers())
            await asyncio.sleep(0.3)  # past the wait's due time
            return left, pending, deadline_timers(), errors, client.timeouts

    left, pending, after_fire, errors, timeouts = asyncio.run(scenario())
    assert left == {}
    assert pending == 1  # the client's timer, left to lapse
    assert (after_fire, errors, timeouts) == ([], [], 0)


def test_closing_the_client_mid_query_cancels_the_caller():
    async def scenario():
        async with _served(None, timeout=30.0) as (client, _responder):
            caller = asyncio.create_task(
                client.query("appldnld.apple.com", CLIENT)
            )
            while not client._protocol.waiters:
                await asyncio.sleep(0)
            client.close()
            with pytest.raises(asyncio.CancelledError):
                await caller
            return client.timeouts

    assert asyncio.run(scenario()) == 0
