"""``AsyncDnsClient`` against canned responders: what a bad *response* does."""

import asyncio

import pytest

from repro.dns.wire import WireMessage, decode_message, encode_message
from repro.net.ipv4 import IPv4Address
from repro.serve.dnsclient import AsyncDnsClient, DnsClientError
from repro.serve.udp import open_udp

CLIENT = IPv4Address.parse("100.64.7.9")


class _Canned(asyncio.DatagramProtocol):
    """Answers every query with ``reply(query bytes)``."""

    def __init__(self, reply):
        self.reply = reply
        self.queries = 0

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        self.queries += 1
        self.transport.sendto(self.reply(data), addr)


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
