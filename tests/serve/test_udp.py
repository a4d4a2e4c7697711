"""``open_udp``: reads sized to one datagram lose nothing."""

import asyncio

from repro.serve.udp import open_udp


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
