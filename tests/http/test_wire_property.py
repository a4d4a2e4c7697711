"""Property tests for the HTTP/1 head codec (:mod:`repro.http.wire`).

One contract per branch ``read_head`` documents: what ``encode_head``
writes reads back as written; bare-LF line ends and blank lines before
the start line change nothing; a head cut short, a head past the byte
limit and a single line past the stream's own limit all come back as
``None`` — never as an exception out of the reader.
"""

import asyncio

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.http.wire import encode_head, read_head, status_line  # noqa: E402

_LIMIT = 1 << 20
# Visible ASCII; inner spaces allowed, none at either end (the reader
# strips field names and values, as RFC 7230 §3.2.4 has it).
_visible = st.characters(min_codepoint=0x21, max_codepoint=0x7E)
_text = st.text(st.one_of(_visible, st.just(" ")), min_size=1, max_size=40).map(
    str.strip
).filter(bool)
start_lines = _text
field_names = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E, blacklist_characters=":"),
    min_size=1, max_size=16,
)
field_values = st.one_of(st.just(""), _text)
heads = st.tuples(
    start_lines, st.lists(st.tuples(field_names, field_values), max_size=8)
)


def read(data: bytes, limit: int = _LIMIT, eof: bool = True):
    """``read_head`` over a stream holding exactly ``data``."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        head = await read_head(reader, limit)
        return head, reader.at_eof()

    head, at_eof = asyncio.run(scenario())
    if head is not None:
        head = (head[0], list(head[1]))
    return head, at_eof


@settings(max_examples=150, deadline=None)
@given(head=heads)
def test_what_is_written_reads_back(head):
    start, fields = head
    wire = encode_head(start, fields)
    assert read(wire) == ((start, fields), True)
    # The head ends at its blank line: what follows is the body's.
    got, at_eof = read(wire + b"body")
    assert got == (start, fields) and not at_eof


@settings(max_examples=100, deadline=None)
@given(head=heads, blanks=st.integers(min_value=1, max_value=4))
def test_bare_lf_and_leading_blank_lines_read_the_same(head, blanks):
    start, fields = head
    wire = encode_head(start, fields)
    assert read(wire.replace(b"\r\n", b"\n"))[0] == (start, fields)
    assert read(b"\r\n" * blanks + wire)[0] == (start, fields)
    assert read(b"\n" * blanks + wire)[0] == (start, fields)


@settings(max_examples=100, deadline=None)
@given(head=heads, data=st.data())
def test_a_head_cut_short_is_none_at_eof(head, data):
    wire = encode_head(*head)
    # Up to the blank line's CR: a lone CR at EOF already reads as the
    # blank line (a line ends at LF *or* at EOF, then CR/LF are shed).
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 2))
    assert read(wire[:cut]) == (None, True)


@settings(max_examples=100, deadline=None)
@given(head=heads, data=st.data())
def test_the_byte_limit_is_exact(head, data):
    start, fields = head
    wire = encode_head(start, fields)
    assert read(wire, limit=len(wire))[0] == (start, fields)
    limit = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    assert read(wire, limit=limit)[0] is None


@pytest.mark.parametrize("newline", [b"", b"\r\n\r\n"])
def test_a_line_past_the_stream_limit_is_none_not_an_error(newline):
    wire = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + newline
    # The peer is still connected (no EOF): an overflow, not a hang-up.
    assert read(wire, eof=False) == (None, False)


def test_a_field_line_without_a_colon_is_ignored():
    wire = b"GET / HTTP/1.1\r\nnot a field\r\nHost: x\r\n\r\n"
    assert read(wire)[0] == ("GET / HTTP/1.1", [("Host", "x")])


def test_one_reason_table():
    assert status_line(206) == "HTTP/1.1 206 Partial Content"
    assert status_line(400) == "HTTP/1.1 400 Bad Request"
    assert status_line(299) == "HTTP/1.1 299 Unknown"
