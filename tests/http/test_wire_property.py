"""Property tests for the HTTP/1 head codec (:mod:`repro.http.wire`).

One contract per branch ``HeadReader.read_head`` documents: what
``encode_head`` writes reads back as written; bare-LF line ends and
blank lines before the start line change nothing; a head cut short is
``None`` until the rest is fed, and bytes past the byte limit with no
blank line are :class:`HeadTooLarge` — at once, never a wait for more,
never earlier.  And one per property of the buffer under it: however
the bytes are cut into arrivals — down to a byte at a time — the same
heads come out, in order, and what arrived behind a head stays
buffered as its body, byte for byte.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.http.wire import HeadReader, HeadTooLarge, encode_head, status_line  # noqa: E402

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


def heads_of(chunks, count=None, limit: int = _LIMIT):
    """The first ``count`` heads (every head, by default) of a connection
    fed ``chunks`` one arrival at a time, and the bytes left buffered
    behind the last of them."""
    reader = HeadReader()
    found = []
    for chunk in chunks:
        reader.feed(chunk)
        while count is None or len(found) < count:
            head = reader.read_head(limit)
            if head is None:
                break
            found.append((head[0], list(head[1])))
    return found, bytes(reader._buffer)


def read_all(chunks, count=None):
    return heads_of(chunks, count)


def read(data: bytes, limit: int = _LIMIT):
    """``read_head`` over a connection fed exactly ``data``: the first
    head, or ``None``."""
    reader = HeadReader()
    reader.feed(data)
    head = reader.read_head(limit)
    if head is not None:
        head = (head[0], list(head[1]))
    return head


@settings(max_examples=150, deadline=None)
@given(head=heads)
def test_what_is_written_reads_back(head):
    start, fields = head
    wire = encode_head(start, fields)
    assert read(wire) == (start, fields)
    # The head ends at its first blank line, in either form: what came
    # with it is handed over as its body, exactly.
    for body in (b"body", b"\n\nbody\r\n\r\n", b"\r\n\r\n"):
        assert read_all([wire + body], count=1) == ([(start, fields)], body)
        bare = wire.replace(b"\r\n", b"\n")
        assert read_all([bare + body], count=1) == ([(start, fields)], body)


@settings(max_examples=60, deadline=None)
@given(head=heads)
def test_however_the_bytes_arrive_the_head_is_the_same(head):
    start, fields = head
    wire = encode_head(start, fields)

    whole = heads_of([wire])
    assert whole == ([(start, fields)], b"")
    for cut in range(1, len(wire)):
        assert heads_of([wire[:cut], wire[cut:]]) == whole
    assert heads_of([wire[i:i + 1] for i in range(len(wire))]) == whole


@settings(max_examples=100, deadline=None)
@given(first=heads, second=heads, cut=st.integers(min_value=0))
def test_pipelined_heads_come_out_in_order(first, second, cut):
    wire = encode_head(*first) + encode_head(*second)
    expected = ([(first[0], first[1]), (second[0], second[1])], b"")
    assert read_all([wire]) == expected
    cut %= len(wire)
    assert read_all([wire[:cut], wire[cut:]]) == expected


@settings(max_examples=100, deadline=None)
@given(head=heads, ends=st.lists(st.sampled_from([b"\r\n", b"\n"]), min_size=10,
                                max_size=10))
def test_each_line_ends_in_crlf_or_bare_lf_on_its_own(head, ends):
    start, fields = head
    lines = [start] + [f"{name}: {value}" for name, value in fields] + [""]
    wire = b"".join(
        line.encode("latin-1") + end for line, end in zip(lines, ends)
    )
    assert read(wire) == (start, fields)
    assert read_all([wire + b"tail"], count=1) == ([(start, fields)], b"tail")


@settings(max_examples=100, deadline=None)
@given(head=heads, blanks=st.integers(min_value=1, max_value=4))
def test_bare_lf_and_leading_blank_lines_read_the_same(head, blanks):
    start, fields = head
    wire = encode_head(start, fields)
    assert read(wire.replace(b"\r\n", b"\n")) == (start, fields)
    assert read(b"\r\n" * blanks + wire) == (start, fields)
    assert read(b"\n" * blanks + wire) == (start, fields)


@settings(max_examples=100, deadline=None)
@given(head=heads, data=st.data())
def test_a_head_cut_short_is_none_at_eof(head, data):
    wire = encode_head(*head)
    # Anywhere short of the blank line's LF: a head ends at its blank
    # line, not at EOF.
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    assert read(wire[:cut]) is None
    # Not an error either: the rest completes it.
    assert heads_of([wire[:cut], wire[cut:]]) == ([(head[0], head[1])], b"")


@settings(max_examples=100, deadline=None)
@given(head=heads, data=st.data())
def test_the_byte_limit_is_exact(head, data):
    start, fields = head
    wire = encode_head(start, fields)
    assert read(wire, limit=len(wire)) == (start, fields)
    limit = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    with pytest.raises(HeadTooLarge):
        read(wire, limit=limit)


@settings(max_examples=100, deadline=None)
@given(head=heads, data=st.data())
def test_oversize_is_raised_once_the_limit_is_passed_and_not_before(head, data):
    wire = encode_head(*head)
    limit = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    reader = HeadReader()
    for fed in range(1, len(wire) + 1):  # a byte at a time
        reader.feed(wire[fed - 1:fed])
        if fed <= limit:
            assert reader.read_head(limit) is None
        else:
            with pytest.raises(HeadTooLarge):
                reader.read_head(limit)
            break


@pytest.mark.parametrize("newline", [b"", b"\r\n\r\n"])
def test_a_line_past_the_limit_is_head_too_large_not_a_wait(newline):
    wire = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + newline
    # Under the widest limit any caller passes: an overflow, not a wait
    # for a line end that may never come.
    with pytest.raises(HeadTooLarge):
        read(wire, limit=65536)


def test_a_field_line_without_a_colon_is_ignored():
    wire = b"GET / HTTP/1.1\r\nnot a field\r\nHost: x\r\n\r\n"
    assert read(wire) == ("GET / HTTP/1.1", [("Host", "x")])


def test_one_reason_table():
    assert status_line(206) == "HTTP/1.1 206 Partial Content"
    assert status_line(400) == "HTTP/1.1 400 Bad Request"
    assert status_line(299) == "HTTP/1.1 299 Unknown"
