"""The HTTP/1 head on the wire: one reader, one writer, one reason table.

What :mod:`repro.dns.wire` is to DNS messages this module is to HTTP
heads — the start line plus header fields that open every request and
response.  The live edge and the pooled client both speak through it,
so a head is framed, bounded and parsed the same way whichever side of
whichever socket reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .messages import Headers

if TYPE_CHECKING:
    import asyncio

__all__ = ["HeadReader", "encode_head", "status_line"]

# What one ``read()`` asks the stream for: room for any ordinary head.
# The stream has already buffered what the socket delivered, so asking
# for less costs no extra wait; what is read past a head is copied into
# the buffer and out again (:meth:`HeadReader.take`), so asking for a
# body's worth would copy the body twice.
_READ_BYTES = 4096

_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    416: "Range Not Satisfiable",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HeadReader:
    """The heads of one connection, read through one buffer.

    What the stream has is taken one ``read()`` of up to ``_READ_BYTES``
    at a time and appended; a head is cut off the front at its blank
    line, decoded and split once.  Bytes that arrived behind a head stay
    buffered: they are the next pipelined head, or the start of this
    head's body (:meth:`take`).
    """

    __slots__ = ("_reader", "_buffer", "_eof")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = bytearray()
        self._eof = False

    def at_eof(self) -> bool:
        """Whether :meth:`read_head` gave up because the peer closed."""
        return self._eof

    async def read_head(self, limit: int) -> Optional[tuple[str, Headers]]:
        """Read one head: ``(start line, headers)``, or ``None``.

        Lines end in CRLF or a bare LF; blank lines before the start
        line are skipped (RFC 7230 §3.5); a field line without a colon
        is ignored.  ``None`` means no usable head arrived: the peer
        closed first (:meth:`at_eof` tells that case apart) or the head
        passed ``limit`` bytes.  The caller bounds the wait — one
        ``deadline`` around the call covers the whole head.

        The work scales with the head and never with a body behind it:
        the search for the blank line stops at ``limit`` and, once one
        form of it is found, the other is looked for only before that.
        """
        buffer = self._buffer
        searched = 0
        while True:
            begin = 0
            if buffer and buffer[0] in b"\r\n":
                begin = len(buffer) - len(buffer.lstrip(b"\r\n"))
            searched = max(searched, begin)
            crlf = buffer.find(b"\n\r\n", searched, limit)
            lf = buffer.find(b"\n\n", searched, limit if crlf < 0 else crlf + 1)
            if lf >= 0 or crlf >= 0:
                end = lf + 2 if lf >= 0 else crlf + 3
                lines = buffer[begin:end].decode("latin-1").split("\n")
                del buffer[:end]
                headers = Headers()
                for line in lines[1:]:
                    name, colon, value = line.partition(":")
                    if colon:
                        headers.add(name.strip(), value.strip())
                return lines[0].rstrip("\r"), headers
            if len(buffer) > limit:
                return None
            searched = max(begin, len(buffer) - 2)
            data = await self._reader.read(_READ_BYTES)
            if not data:
                self._eof = True
                return None
            buffer += data

    def take(self, count: int) -> bytes:
        """Up to ``count`` buffered bytes: what came with the last head
        of the body behind it."""
        taken = bytes(self._buffer[:count])
        del self._buffer[:count]
        return taken


def status_line(status: int) -> str:
    """The HTTP/1.1 status line for ``status``."""
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"


def encode_head(start_line: str, fields: Iterable[tuple[str, object]]) -> bytes:
    """The wire bytes of one head, blank line included."""
    lines = [start_line]
    lines += [f"{name}: {value}" for name, value in fields]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
