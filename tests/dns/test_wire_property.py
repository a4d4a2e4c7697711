"""Property tests for the DNS wire codec.

Two contracts: every message the encoder can produce decodes back to
an equivalent message (round-trip), and the decoder never fails with
anything but :class:`WireError` on arbitrary bytes (hardening — a
malformed datagram must not crash the serving loop).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.dns.wire import (  # noqa: E402
    ClientSubnet,
    Question,
    RCode,
    RecordType,
    ResourceRecord,
    WireError,
    WireMessage,
    decode_message,
    encode_message,
)
from repro.net.ipv4 import IPv4Address, IPv4Prefix  # noqa: E402

labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).filter(lambda label: not label.startswith("-") and not label.endswith("-"))
names = st.lists(labels, min_size=1, max_size=5).map(".".join)
addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    value = draw(st.integers(min_value=0, max_value=2**32 - 1))
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return IPv4Prefix(IPv4Address(value & mask), length)


@st.composite
def records(draw):
    rtype = draw(st.sampled_from([RecordType.A, RecordType.CNAME, RecordType.NS]))
    data = draw(addresses) if rtype is RecordType.A else draw(names)
    return ResourceRecord(
        name=draw(names),
        rtype=rtype,
        ttl=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        data=data,
    )


@st.composite
def client_subnets(draw):
    # Nonzero scope_length matters: the scope byte rides next to the
    # source length in the option payload, and an echoing server fills
    # it in — a codec that only round-trips scope 0 hides swapped or
    # dropped fields.
    return ClientSubnet(
        prefix=draw(prefixes()),
        scope_length=draw(st.integers(min_value=0, max_value=32)),
    )


@st.composite
def messages(draw):
    subnet = draw(st.none() | client_subnets())
    return WireMessage(
        message_id=draw(st.integers(min_value=0, max_value=0xFFFF)),
        is_response=draw(st.booleans()),
        authoritative=draw(st.booleans()),
        recursion_desired=draw(st.booleans()),
        recursion_available=draw(st.booleans()),
        rcode=draw(st.sampled_from(list(RCode))),
        questions=tuple(
            Question(name=draw(names)) for _ in range(draw(st.integers(0, 3)))
        ),
        answers=tuple(draw(st.lists(records(), min_size=0, max_size=4))),
        client_subnet=subnet,
    )


def canonical(message: WireMessage):
    """Fields in container-insensitive form (decode returns lists)."""
    return (
        message.message_id,
        message.is_response,
        message.authoritative,
        message.recursion_desired,
        message.recursion_available,
        message.rcode,
        tuple(message.questions),
        tuple(message.answers),
        message.client_subnet,
    )


@settings(max_examples=200, deadline=None)
@given(message=messages())
def test_encode_decode_round_trip(message):
    decoded = decode_message(encode_message(message))
    assert canonical(decoded) == canonical(message)


@settings(max_examples=200, deadline=None)
@given(message=messages())
def test_encoding_is_deterministic(message):
    assert encode_message(message) == encode_message(message)


@settings(max_examples=500, deadline=None)
@given(data=st.binary(min_size=0, max_size=64))
def test_decode_never_crashes_on_garbage(data):
    try:
        decode_message(data)
    except WireError:
        pass  # the one allowed failure mode


@settings(max_examples=200, deadline=None)
@given(subnet=client_subnets())
def test_ecs_option_round_trips_scope(subnet):
    # The option-level codec on its own: source prefix and scope both
    # survive, for every (prefix, scope) pair.
    decoded = ClientSubnet.decode(subnet.encode()[4:])
    assert decoded == subnet


@settings(max_examples=200, deadline=None)
@given(message=messages(), flips=st.data())
def test_decode_survives_corrupted_encodings(message, flips):
    # Corrupting real packets probes deeper structure than pure random
    # bytes (valid headers with broken bodies, truncated names, ...).
    raw = bytearray(encode_message(message))
    if not raw:
        return
    index = flips.draw(st.integers(0, len(raw) - 1))
    raw[index] ^= flips.draw(st.integers(1, 255))
    cut = flips.draw(st.integers(0, len(raw)))
    try:
        decode_message(bytes(raw[:cut]))
    except WireError:
        pass


# ----------------------------------------------------------------------
# the value-keyed memos: each is checked against its own cold path
# ----------------------------------------------------------------------
#
# ``encode_message`` keeps section bytes per ``(questions, answers)``,
# ``decode_message`` keeps decoded fields per ``data[2:]``.  The oracle
# for either is the same function on an emptied memo: whatever the memo
# holds, the answer (bytes, message, or exception type) must not move.

from repro.dns import wire  # noqa: E402
from repro.dns.records import ARecord  # noqa: E402


def cold(function, argument):
    """``function(argument)`` with both memos emptied first."""
    wire._SECTIONS.clear()
    wire._DECODED.clear()
    return outcome(function, argument)


def outcome(function, argument):
    """The result in comparable form, or the exception type raised."""
    try:
        result = function(argument)
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)
    return canonical(result) if isinstance(result, WireMessage) else result


@st.composite
def mangled(draw):
    """A real packet truncated, bit-flipped or given a stray pointer."""
    raw = bytearray(encode_message(draw(messages())))
    how = draw(st.sampled_from(["intact", "cut", "flip", "pointer"]))
    if how == "cut":
        del raw[draw(st.integers(0, len(raw))):]
    elif how == "flip":
        raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
    elif how == "pointer" and len(raw) > 13:
        at = draw(st.integers(12, len(raw) - 2))
        raw[at] = 0xC0 | draw(st.integers(0, 0x3F))
        raw[at + 1] = draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=300, deadline=None)
@given(data=mangled(), others=st.lists(mangled(), max_size=4))
def test_warm_decode_matches_cold_decode(data, others):
    expected = cold(decode_message, data)
    # Refill the memo starting with packets that differ from this one
    # in a single header byte, then unrelated neighbours, then the
    # packet itself — and ask again, twice.
    wire._DECODED.clear()
    twins = [
        data[:at] + bytes([data[at] ^ 0x81]) + data[at + 1:]
        for at in reversed(range(min(12, len(data))))
    ]
    for packet in [*twins, *others, data]:
        outcome(decode_message, packet)
    assert outcome(decode_message, data) == expected
    assert outcome(decode_message, data) == expected
    assert expected is WireError or isinstance(expected, tuple)


@settings(max_examples=300, deadline=None)
@given(message=messages(), others=st.lists(messages(), max_size=4))
def test_warm_encode_matches_cold_encode_byte_for_byte(message, others):
    expected = cold(encode_message, message)
    for other in [message, *others]:
        encode_message(other)
    assert encode_message(message) == expected
    # Same sections under another header and another OPT: the sections
    # come from the memo, everything around them is packed afresh.
    sibling = WireMessage(
        message_id=message.message_id ^ 0xFFFF,
        is_response=not message.is_response,
        rcode=message.rcode,
        questions=list(message.questions),
        answers=list(message.answers),
        client_subnet=None if message.client_subnet else ClientSubnet(
            IPv4Prefix(IPv4Address(0x0A000000), 8), 8
        ),
    )
    warm = encode_message(sibling)
    assert warm == cold(encode_message, sibling)
    assert canonical(decode_message(warm)) == canonical(sibling)


@settings(max_examples=100, deadline=None)
@given(message=messages(), ids=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=8))
def test_memoised_decode_patches_the_id_of_this_datagram(message, ids):
    raw = encode_message(message)
    for message_id in [0, 0xFFFF, *ids]:
        packet = message_id.to_bytes(2, "big") + raw[2:]
        decoded = decode_message(packet)
        assert decoded.message_id == message_id
        assert canonical(decoded)[1:] == canonical(message)[1:]


def test_every_id_of_the_16_bit_range_is_patched():
    raw = encode_message(WireMessage(questions=[Question("every.id.example")]))
    for message_id in range(0x10000):
        packet = message_id.to_bytes(2, "big") + raw[2:]
        assert decode_message(packet).message_id == message_id


@settings(max_examples=100, deadline=None)
@given(message=messages())
def test_mutating_a_decoded_message_never_reaches_a_later_decode(message):
    raw = encode_message(message)
    expected = cold(decode_message, raw)
    for _ in range(2):  # the filling decode, then a memoised one
        decoded = decode_message(raw)
        decoded.questions.append(Question("intruder.example"))
        decoded.answers.clear()
        decoded.message_id = 1
        decoded.rcode = RCode.REFUSED
    again = decode_message(raw)
    assert canonical(again) == expected
    assert again.questions is not decode_message(raw).questions


def test_overflow_past_the_bound_stays_correct():
    wire._SECTIONS.clear()
    wire._DECODED.clear()
    address = IPv4Address.parse("17.253.76.1")

    def message(index):
        name = f"host{index}.overflow.example"
        return WireMessage(
            message_id=index & 0xFFFF, is_response=True,
            questions=[Question(name)],
            answers=[ARecord(name, address, 15)],
        )

    total = 3 * wire._MEMO_BOUND + 7
    packets = [encode_message(message(index)) for index in range(total)]
    for index, packet in enumerate(packets):
        assert canonical(decode_message(packet)) == canonical(message(index))
        assert len(wire._SECTIONS) <= wire._MEMO_BOUND
        assert len(wire._DECODED) <= wire._MEMO_BOUND
    assert len(wire._DECODED) == wire._MEMO_BOUND
    # Long-evicted and still-resident entries alike: same bytes, same
    # messages as the first time round.
    for index in (0, 1, wire._MEMO_BOUND, total - 1):
        assert encode_message(message(index)) == packets[index]
        assert canonical(decode_message(packets[index])) == canonical(message(index))


def test_oversize_and_traced_messages_stay_out_of_the_decode_memo():
    from repro.obs.trace_context import TraceContext

    wire._DECODED.clear()
    address = IPv4Address.parse("17.253.76.1")
    big = encode_message(WireMessage(
        is_response=True,
        answers=[ARecord(f"r{i}.big.example", address, 15) for i in range(80)],
    ))
    assert len(big) > wire._MEMO_MAX_KEY_OCTETS
    traced = encode_message(WireMessage(
        questions=[Question("traced.example")],
        trace_context=TraceContext(trace_id=0xABCDEF, span_id=7),
    ))
    for packet in (big, traced):
        first = decode_message(packet)
        assert canonical(decode_message(packet)) == canonical(first)
    assert decode_message(traced).trace_context == first.trace_context
    assert not wire._DECODED


def test_float_ttl_never_rides_an_equal_int_entry():
    # ttl 15 == 15.0 as records, but only the int packs: the memo entry
    # of one must not turn the other's error into bytes.
    import struct

    address = IPv4Address.parse("17.253.76.1")
    exact = WireMessage(answers=[ARecord("ttl.example", address, 15)])
    loose = WireMessage(answers=[ARecord("ttl.example", address, 15.0)])
    assert exact.answers == loose.answers
    encode_message(exact)
    with pytest.raises(struct.error):
        encode_message(loose)
    assert encode_message(exact) == cold(encode_message, exact)


@settings(max_examples=200, deadline=None)
@given(
    message_id=st.binary(min_size=2, max_size=2),
    header_rest=st.binary(min_size=10, max_size=10),
    target=st.integers(0, 11),
    label=labels,
)
def test_names_pointing_into_the_header_raise(message_id, header_rest, target, label):
    # Whatever the header bytes spell, no name may be read out of them —
    # least of all out of the id, which the decode memo's key leaves out.
    header = bytearray(message_id + header_rest)
    header[4:6] = b"\x00\x01"  # QDCOUNT 1
    name = bytes([len(label)]) + label.encode() + bytes([0xC0, target])
    packet = bytes(header) + name + b"\x00\x01\x00\x01"
    with pytest.raises(WireError):
        decode_message(packet)


def test_the_message_id_is_not_a_label():
    # The defect as found: "\x01a" in the id bytes, a question name
    # ending in a pointer to offset 0 — once decoded as "www.a".
    packet = (
        b"\x01a" + b"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        + b"\x03www\xc0\x00" + b"\x00\x01\x00\x01"
    )
    with pytest.raises(WireError, match="header"):
        decode_message(packet)
