"""``repro.serve.udp``: reads sized to 64 KiB, on every socket, lose nothing."""

import asyncio

from repro.apple.mapping import NAMES
from repro.serve import (
    AsyncDnsClient,
    AsyncDnsServer,
    AsyncHttpEdge,
    ClientDirectory,
    PooledHttpClient,
    dnsclient,
    dnsserver,
    estate_router,
)
from repro.serve.listener import Connection, Listener
from repro.serve.udp import open_tcp, open_udp


class _Sink(asyncio.DatagramProtocol):
    def __init__(self):
        self.received = asyncio.get_running_loop().create_future()

    def datagram_received(self, data, addr):
        self.received.set_result(data)


def test_largest_datagram_arrives_whole():
    # 65507 = 65535 - 8 (UDP header) - 20 (IPv4 header): the most one
    # datagram can carry.
    payload = bytes(range(256)) * 255 + bytes(227)
    assert len(payload) == 65507

    async def scenario():
        server, sink = await open_udp(_Sink, local_addr=("127.0.0.1", 0))
        client, _ = await open_udp(
            asyncio.DatagramProtocol,
            remote_addr=server.get_extra_info("sockname")[:2],
        )
        try:
            assert server.max_size == client.max_size == 65536
            client.sendto(payload)
            return await asyncio.wait_for(sink.received, timeout=5.0)
        finally:
            client.close()
            server.close()

    assert asyncio.run(scenario()) == payload


def test_every_accepted_stream_connection_reads_64k_at_most():
    """Whatever server sits on a ``Listener``: the pin is the listener's."""
    payload = bytes(range(256)) * 1024  # 256 KiB, four reads' worth

    async def scenario():
        sizes = []

        class EchoLength(Connection):
            """Counts what arrives, answers the total, says no more."""

            def __init__(self, listener):
                super().__init__(listener, 5.0)
                self.got = 0

            def connection_made(self, transport):
                super().connection_made(transport)
                sizes.append(transport.max_size)

            def _received(self, data):
                assert 0 < len(data) <= 65536
                self.got += len(data)

            def _next(self):
                if self.got < len(payload):
                    return False
                self.transport.write(b"%d" % self.got)
                self.finish()
                return True

        listener = Listener("probe", connection=EchoLength)
        endpoint = await listener.start()
        try:
            for _ in range(3):
                reader, writer = await open_tcp(*endpoint)
                sizes.append(writer.transport.max_size)
                writer.write(payload)
                assert await reader.read(-1) == b"262144"
                writer.close()
                await writer.wait_closed()
        finally:
            await listener.stop()
        return sizes

    assert asyncio.run(scenario()) == [65536] * 6


def test_a_256k_ranged_get_arrives_whole_over_pinned_connections(serve_estate):
    async def scenario():
        edge = AsyncHttpEdge(estate_router(serve_estate), object_size=262_144)
        host, port = await edge.start()
        client = PooledHttpClient(host, port, pool_size=2)
        vip = serve_estate.apple.sites[0].vip_addresses[0]
        try:
            results = await asyncio.gather(*(
                client.get(
                    f"/content/pinned-{index}.ipsw", host="appldnld.apple.com",
                    vip=vip, client=vip, range_bytes=(0, 262_143),
                )
                for index in range(2)
            ))
            sizes = [c.transport.max_size for c in client._open]
            sizes += [c.transport.max_size for c in edge._listener._connections]
            return [(status, length) for status, _h, length in results], sizes
        finally:
            await client.close()
            await edge.stop()

    results, sizes = asyncio.run(scenario())
    assert results == [(206, 262_144)] * 2
    assert sizes == [65536] * 4  # two client ends, two accepted ends


def test_the_dns_clients_tcp_fallback_connection_is_pinned(serve_estate, monkeypatch):
    opened = []

    async def spying_open_tcp(host, port):
        reader, writer = await open_tcp(host, port)
        opened.append(writer.transport)
        return reader, writer

    monkeypatch.setattr(dnsclient, "open_tcp", spying_open_tcp)
    # UDP replies capped below any real answer: every query comes back
    # truncated and is re-asked over TCP.
    monkeypatch.setattr(dnsserver, "UDP_PAYLOAD_CAP", 40)

    async def scenario():
        server = AsyncDnsServer(serve_estate.servers, clock=lambda: 0.0)
        client = await AsyncDnsClient.open(*await server.start())
        try:
            response = await client.query(
                NAMES.entry_point, ClientDirectory().sample(0).address
            )
            return response.truncated, client.tcp_fallbacks
        finally:
            client.close()
            await server.stop()

    assert asyncio.run(scenario()) == (False, 1)
    assert [transport.max_size for transport in opened] == [65536]
