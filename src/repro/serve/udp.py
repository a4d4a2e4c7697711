"""The UDP endpoint every DNS path of the serving layer opens."""

from __future__ import annotations

import asyncio

__all__ = ["open_udp"]

# No UDP datagram is larger (RFC 768: a 16-bit length field).
_MAX_DATAGRAM = 65536


async def open_udp(protocol_factory, **kwargs):
    """``loop.create_datagram_endpoint`` that reads one datagram's worth.

    asyncio's selector transports hand 256 KiB to every ``recvfrom``;
    CPython allocates that much per datagram and shrinks it to the few
    hundred bytes that arrived.  Whether glibc then trims and regrows
    the heap top around each one (some 20 minor faults and +35 % wall
    time per resolved item) was decided by the heap's layout — checkout
    path length, ``argv`` — not by any line of this package.  64 KiB
    loses nothing and sits under the allocator's thresholds either way.
    """
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        protocol_factory, **kwargs
    )
    transport.max_size = _MAX_DATAGRAM
    return transport, protocol
