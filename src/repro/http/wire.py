"""The HTTP/1 head on the wire: one reader, one writer, one reason table.

What :mod:`repro.dns.wire` is to DNS messages this module is to HTTP
heads — the start line plus header fields that open every request and
response.  The live edge, the admin plane and the pooled client all
speak through it, so a head is framed, bounded and parsed the same way
whichever side of whichever socket reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .messages import Headers

if TYPE_CHECKING:
    import asyncio

__all__ = ["read_head", "encode_head", "status_line"]

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


async def read_head(
    reader: asyncio.StreamReader, limit: int
) -> Optional[tuple[str, Headers]]:
    """Read one head: ``(start line, headers)``, or ``None``.

    Lines end in CRLF or a bare LF; blank lines before the start line
    are skipped (RFC 7230 §3.5); a field line without a colon is
    ignored.  ``None`` means no usable head arrived: the peer closed
    first (``reader.at_eof()`` tells that case apart), the head passed
    ``limit`` bytes, or a single line passed the stream's own buffer
    limit.  The caller bounds the wait — one ``deadline`` around the
    call covers the whole head.
    """
    start: Optional[str] = None
    headers = Headers()
    total = 0
    while True:
        try:
            chunk = await reader.readline()
        except ValueError:  # one line longer than the StreamReader's limit
            return None
        total += len(chunk)
        if not chunk or total > limit:
            return None
        line = chunk.decode("latin-1").rstrip("\r\n")
        if start is None:
            if line:
                start = line
        elif not line:
            return start, headers
        else:
            name, colon, value = line.partition(":")
            if colon:
                headers.add(name.strip(), value.strip())


def status_line(status: int) -> str:
    """The HTTP/1.1 status line for ``status``."""
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"


def encode_head(start_line: str, fields: Iterable[tuple[str, object]]) -> bytes:
    """The wire bytes of one head, blank line included."""
    lines = [start_line]
    lines += [f"{name}: {value}" for name, value in fields]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
