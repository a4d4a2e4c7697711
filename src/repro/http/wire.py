"""The HTTP/1 head on the wire: one parser, one writer, one reason table.

What :mod:`repro.dns.wire` is to DNS messages this module is to HTTP
heads — the start line plus header fields that open every request and
response.  The live edge and the pooled client both speak through it,
so a head is framed, bounded and parsed the same way whichever side of
whichever socket reads it.

:class:`HeadReader` is a push parser: a protocol's ``data_received``
feeds it what arrived and asks it for the next complete head, so no
task waits on a stream for one.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .messages import Headers

__all__ = ["HeadReader", "HeadTooLarge", "encode_head", "status_line"]

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


class HeadTooLarge(ValueError):
    """The buffered bytes passed the head's byte limit with no blank line."""


class HeadReader:
    """The heads of one connection, cut from the bytes fed to it.

    :meth:`feed` appends what arrived to one buffer; :meth:`read_head`
    cuts a head off its front at the blank line, decoded and split once.
    Bytes behind a head stay buffered: they are the next pipelined head,
    or the start of this head's body (:meth:`skip`).
    """

    __slots__ = ("_buffer", "_searched")

    def __init__(self) -> None:
        self._buffer = bytearray()
        # Where the search for the blank line resumes: the bytes before
        # it were searched and held none.
        self._searched = 0

    def __len__(self) -> int:
        """How many bytes are buffered."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        """Append bytes that arrived."""
        self._buffer += data

    def read_head(self, limit: int) -> Optional[tuple[str, Headers]]:
        """The next head: ``(start line, headers)``, or ``None`` until one
        has arrived whole.

        Lines end in CRLF or a bare LF; blank lines before the start
        line are skipped (RFC 7230 §3.5); a field line without a colon
        is ignored.  A head may take ``limit`` bytes, blank lines before
        it included; once more than that are buffered with no blank line
        among the first ``limit``, :class:`HeadTooLarge` is raised.  The
        caller bounds the wait — one timer per head.

        The work scales with the head and never with a body behind it:
        the search for the blank line stops at ``limit``, resumes where
        the last one stopped and, once one form of the blank line is
        found, looks for the other only before it.
        """
        buffer = self._buffer
        begin = 0
        if buffer and buffer[0] in b"\r\n":
            begin = len(buffer) - len(buffer.lstrip(b"\r\n"))
        searched = max(self._searched, begin)
        crlf = buffer.find(b"\n\r\n", searched, limit)
        lf = buffer.find(b"\n\n", searched, limit if crlf < 0 else crlf + 1)
        if lf < 0 and crlf < 0:
            if len(buffer) > limit:
                raise HeadTooLarge(f"no head within {limit} bytes")
            self._searched = max(begin, len(buffer) - 2)
            return None
        end = lf + 2 if lf >= 0 else crlf + 3
        lines = buffer[begin:end].decode("latin-1").split("\n")
        del buffer[:end]
        self._searched = 0
        fields = []
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if colon:
                fields.append((name.strip(), value.strip()))
        return lines[0].rstrip("\r"), Headers.of(fields)

    def skip(self, count: int) -> int:
        """Drop up to ``count`` buffered bytes — the part of the last
        head's body that came with it — and return how many."""
        buffer = self._buffer
        dropped = min(count, len(buffer))
        if dropped:
            del buffer[:dropped]
            self._searched = 0
        return dropped


def status_line(status: int) -> str:
    """The HTTP/1.1 status line for ``status``."""
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"


def encode_head(start_line: str, fields: Iterable[tuple[str, object]]) -> bytes:
    """The wire bytes of one head, blank line included."""
    lines = [start_line]
    lines += [f"{name}: {value}" for name, value in fields]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
