"""Tests for repro.serve.dnsserver — wire DNS over live sockets."""

import asyncio

import pytest

from repro.apple.mapping import ENTRY_TTL, NAMES
from repro.dns.query import RCode
from repro.dns.records import RecordType
from repro.serve import AsyncDnsClient, AsyncDnsServer, ClientDirectory, ZoneFrontend
from repro.serve import dnsserver
from repro.serve.dnsserver import _FALLBACK_UDP_PAYLOAD


def run(coroutine):
    return asyncio.run(coroutine)


class TestZoneFrontend:
    def test_most_specific_zone_wins(self, serve_estate):
        frontend = ZoneFrontend(serve_estate.servers)
        assert frontend.server_for(NAMES.entry_point).operator == "Apple"
        # akadns.net is deeper than apple.com for this owner name.
        assert frontend.server_for(NAMES.akadns_entry).operator == "Akamai"
        assert frontend.server_for(NAMES.selection).operator == "Apple"
        assert frontend.server_for(NAMES.limelight_us_eu).operator == "Limelight"

    def test_uncovered_name_has_no_server(self, serve_estate):
        frontend = ZoneFrontend(serve_estate.servers)
        assert frontend.server_for("www.example.net") is None

    def test_empty_frontend_rejected(self):
        with pytest.raises(ValueError):
            ZoneFrontend([])


class TestAsyncDnsServer:
    def test_entry_point_answer_over_udp(self, serve_estate):
        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            client = await AsyncDnsClient.open(host, port)
            try:
                directory = ClientDirectory()
                address = directory.sample(0).address
                response = await client.query(NAMES.entry_point, address)
                assert response.is_response and response.authoritative
                assert response.rcode is RCode.NOERROR
                cname = response.answers[0]
                assert cname.rtype is RecordType.CNAME
                assert cname.target == NAMES.akadns_entry
                assert cname.ttl == ENTRY_TTL
                # The ECS option comes back scoped to the directory's
                # lookup granularity (/16 vantages), not the client's
                # full /24 source prefix.
                assert response.client_subnet is not None
                assert response.client_subnet.scope_length == 16
            finally:
                client.close()
                await server.stop()

        run(scenario())

    def test_advertised_scope_matches_directory_granularity(self, serve_estate):
        # The server answers from the geography of the *vantage block*
        # the ECS prefix fell into, so the honest scope is the vantage
        # prefix length — and 0 for clients outside every block, where
        # the fallback geography ignores the client entirely.  Echoing
        # the client's full source prefix instead would over-claim and
        # let a shared downstream cache partition answers more finely
        # than they were computed (RFC 7871 §7.3.1).
        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            client = await AsyncDnsClient.open(host, port)
            try:
                directory = ClientDirectory()
                for vantage in directory.vantages:
                    inside = vantage.prefix.host(77)
                    response = await client.query(NAMES.entry_point, inside)
                    assert response.client_subnet.scope_length == vantage.prefix.length
                    assert server._where(response)[2] == vantage.prefix.length
                # Outside the CGNAT vantage range: fallback geography,
                # which consults no bit of the client address.
                from repro.net.ipv4 import IPv4Address

                outside = IPv4Address.parse("203.0.113.5")
                assert directory.vantage_for(outside) is None
                response = await client.query(NAMES.entry_point, outside)
                assert response.client_subnet is not None
                assert response.client_subnet.scope_length == 0
            finally:
                client.close()
                await server.stop()

        run(scenario())

    def test_full_chain_resolution(self, serve_estate):
        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            client = await AsyncDnsClient.open(host, port)
            try:
                directory = ClientDirectory()
                resolution = await client.resolve(
                    NAMES.entry_point, directory.sample(3).address
                )
                assert resolution.addresses
                assert resolution.chain_names[0] == NAMES.entry_point
                assert NAMES.akadns_entry in resolution.chain_names
            finally:
                client.close()
                await server.stop()

        run(scenario())

    def test_uncovered_name_refused(self, serve_estate):
        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            client = await AsyncDnsClient.open(host, port)
            try:
                response = await client.query(
                    "www.example.net", ClientDirectory().sample(0).address
                )
                assert response.rcode is RCode.REFUSED
                assert response.answers == []
            finally:
                client.close()
                await server.stop()

        run(scenario())

    def test_truncation_triggers_tcp_fallback(self, serve_estate, monkeypatch):
        # Cap UDP replies below any real answer so every UDP exchange
        # comes back TC and the client retries over TCP.
        monkeypatch.setattr(dnsserver, "UDP_PAYLOAD_CAP", 40)

        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            client = await AsyncDnsClient.open(host, port)
            try:
                response = await client.query(
                    NAMES.entry_point, ClientDirectory().sample(0).address
                )
                assert client.tcp_fallbacks == 1
                assert not response.truncated
                assert response.answers[0].target == NAMES.akadns_entry
            finally:
                client.close()
                await server.stop()

        run(scenario())

    def test_malformed_datagram_gets_servfail(self, serve_estate):
        server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
        # A recoverable id followed by garbage: SERVFAIL echoing the id.
        reply = server.handle_datagram(b"\x12\x34" + b"\xff" * 20)
        assert reply is not None
        from repro.dns.wire import decode_message

        decoded = decode_message(reply)
        assert decoded.message_id == 0x1234
        assert decoded.rcode is RCode.SERVFAIL

    def test_unrecoverable_garbage_is_dropped(self, serve_estate):
        server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
        assert server.handle_datagram(b"\x01\x02\x03") is None

    def test_no_ecs_uses_fallback_payload_and_geography(self, serve_estate):
        from repro.dns.query import Question
        from repro.dns.wire import WireMessage, decode_message, encode_message

        server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
        query = encode_message(
            WireMessage(message_id=7, questions=[Question(NAMES.entry_point)])
        )
        reply = server.handle_datagram(query)
        decoded = decode_message(reply)
        assert decoded.rcode is RCode.NOERROR
        assert len(encode_message(decoded)) <= _FALLBACK_UDP_PAYLOAD

    def test_endpoint_requires_start(self, serve_estate):
        server = AsyncDnsServer(serve_estate.servers)
        with pytest.raises(RuntimeError):
            _ = server.endpoint


class TestTcpFrames:
    """Length-prefixed queries (RFC 1035 §4.2.2) on the listener's
    protocol path: cut anywhere, answered in order, idle ones closed."""

    def _query(self, message_id, name):
        from repro.dns.query import Question
        from repro.dns.wire import WireMessage, encode_message

        return encode_message(WireMessage(
            message_id=message_id, questions=[Question(name, RecordType.A)],
        ))

    def test_pipelined_frames_cut_anywhere_are_answered_in_order(self, serve_estate):
        from repro.dns.wire import decode_message, frame, read_frame

        stream = b"".join(
            frame(self._query(message_id, name)) for message_id, name in
            ((1, NAMES.entry_point), (2, "www.example.net"), (3, NAMES.selection))
        )

        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for cut in (1, 2, 7, len(stream) // 2, len(stream) - 1, len(stream)):
                    writer.write(stream[:cut])
                    stream_left = stream[cut:]
                    await writer.drain()
                    await asyncio.sleep(0.01)
                    writer.write(stream_left)
                    replies = [
                        decode_message(await asyncio.wait_for(read_frame(reader), 5.0))
                        for _ in range(3)
                    ]
                    assert [reply.message_id for reply in replies] == [1, 2, 3]
                    assert [reply.rcode for reply in replies] == [
                        RCode.NOERROR, RCode.REFUSED, RCode.NOERROR
                    ]
            finally:
                writer.close()
                await server.stop()

        run(scenario())

    def test_an_idle_connection_is_closed_at_the_timeout(self, serve_estate, monkeypatch):
        monkeypatch.setattr(dnsserver, "_TCP_IDLE_TIMEOUT", 0.2)

        async def scenario():
            server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                writer.write(b"\x00")  # half a length prefix, then nothing
                raw = await asyncio.wait_for(reader.read(-1), timeout=5.0)
                return raw, loop.time() - started
            finally:
                writer.close()
                await server.stop()

        raw, elapsed = run(scenario())
        assert raw == b"" and 0.15 <= elapsed < 2.0
