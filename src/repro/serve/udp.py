"""The sockets the serving layer opens: every read is at most 64 KiB.

asyncio's selector transports hand 256 KiB to every ``recv`` /
``recvfrom``; CPython allocates that much per read and shrinks it to
what arrived.  Whether glibc then trims and regrows the heap top around
each one (4-25 minor faults per HTTP GET, some 20 and +35 % wall time
per resolved DNS item) was decided by the heap's layout — checkout path
length, ``argv`` — not by any line of this package.  64 KiB sits under
the allocator's thresholds either way and loses nothing: no UDP
datagram is larger (RFC 768: a 16-bit length field), and a TCP stream
just takes another turn of the loop.

This is the one module that opens client connections and sizes reads:
:func:`pin_reads` is what every TCP protocol's ``connection_made``
calls, accepted (:class:`~repro.serve.listener.Connection`) or opened
here (:func:`connect`); :func:`open_tcp` is the stream form the DNS
client's rare TC -> TCP fallback keeps.
"""

from __future__ import annotations

import asyncio

__all__ = ["MAX_READ", "connect", "open_udp", "open_tcp", "pin_reads"]

MAX_READ = 65536


async def open_udp(protocol_factory, **kwargs):
    """``loop.create_datagram_endpoint`` that reads one datagram's worth."""
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        protocol_factory, **kwargs
    )
    transport.max_size = MAX_READ
    return transport, protocol


def pin_reads(transport: asyncio.Transport) -> None:
    """Size the reads of ``transport``'s connection (from its protocol's
    ``connection_made``, before the first read)."""
    transport.max_size = MAX_READ


async def connect(protocol_factory, host: str, port: int):
    """``loop.create_connection``: the protocol's ``connection_made``
    pins its reads (:func:`pin_reads`)."""
    return await asyncio.get_running_loop().create_connection(
        protocol_factory, host, port
    )


async def open_tcp(
    host: str, port: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection`` whose reads are sized the same way."""
    reader, writer = await asyncio.open_connection(host, port)
    pin_reads(writer.transport)
    return reader, writer
