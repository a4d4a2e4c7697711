"""Tests for repro.dns.wire — RFC 1035 encoding with compression + ECS."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.query import Question, QueryContext, RCode
from repro.dns.records import ARecord, CnameRecord, PtrRecord, RecordType
from repro.dns.wire import (
    ClientSubnet,
    WireError,
    WireMessage,
    decode_message,
    decode_name,
    encode_message,
    encode_name,
    servfail_reply,
)
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address, IPv4Prefix

label = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)
name_strategy = st.lists(label, min_size=1, max_size=5).map(".".join)


class TestNames:
    def test_encode_plain(self):
        wire = encode_name("apple.com")
        assert wire == b"\x05apple\x03com\x00"

    def test_round_trip(self):
        wire = encode_name("appldnld.apple.com")
        name, offset = decode_name(wire, 0)
        assert name == "appldnld.apple.com"
        assert offset == len(wire)

    def test_compression_pointer(self):
        compression = {}
        first = encode_name("a.apple.com", compression, offset=12)
        second = encode_name("b.apple.com", compression, offset=12 + len(first))
        # The second name points back at "apple.com" inside the first.
        assert len(second) < len(first)
        assert second[-2] & 0xC0 == 0xC0

    def test_decode_compressed(self):
        compression = {}
        buffer = bytearray(b"\x00" * 12)
        buffer += encode_name("a.apple.com", compression, offset=12)
        start = len(buffer)
        buffer += encode_name("b.apple.com", compression, offset=start)
        name, _ = decode_name(bytes(buffer), start)
        assert name == "b.apple.com"

    def test_pointer_loop_rejected(self):
        # A name that points at itself.
        data = b"\x00" * 12 + b"\xc0\x0c"
        with pytest.raises(WireError):
            decode_name(data, 12)

    def test_truncated_name_rejected(self):
        with pytest.raises(WireError):
            decode_name(b"\x05appl", 0)

    def test_over_long_label_rejected(self):
        # Name validation catches it first; both are ValueErrors.
        with pytest.raises(ValueError):
            encode_name("a" * 64 + ".example")

    @given(name_strategy)
    def test_round_trip_property(self, name):
        wire = encode_name(name)
        decoded, offset = decode_name(wire, 0)
        assert decoded == name
        assert offset == len(wire)


class TestClientSubnet:
    def test_round_trip(self):
        ecs = ClientSubnet(IPv4Prefix.parse("89.0.0.0/12"), scope_length=12)
        raw = ecs.encode()
        # Strip the option header (code + length) before decode.
        decoded = ClientSubnet.decode(raw[4:])
        assert decoded == ecs

    def test_truncated_address_bytes(self):
        # /12 only needs two address bytes on the wire.
        ecs = ClientSubnet(IPv4Prefix.parse("89.0.0.0/12"))
        assert len(ecs.encode()) == 4 + 4 + 2

    def test_bad_scope(self):
        with pytest.raises(WireError):
            ClientSubnet(IPv4Prefix.parse("10.0.0.0/8"), scope_length=40)

    def test_source_length_past_32_is_a_wire_error(self):
        # Five or more address bytes used to reach IPv4Prefix and leave
        # as AddressError, which no wire-level handler catches.
        for source_length in (33, 40, 255):
            payload = bytes([0, 1, source_length, 0]) + bytes(32)
            with pytest.raises(WireError, match="source prefix"):
                ClientSubnet.decode(payload)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
    )
    def test_round_trip_property(self, value, length):
        prefix = IPv4Prefix.containing(IPv4Address(value), length)
        ecs = ClientSubnet(prefix)
        assert ClientSubnet.decode(ecs.encode()[4:]) == ecs


class TestMessages:
    def _message(self):
        return WireMessage(
            message_id=4919,
            is_response=True,
            authoritative=True,
            questions=[Question("appldnld.apple.com")],
            answers=[
                CnameRecord(
                    "appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600
                ),
                ARecord(
                    "appldnld.apple.com.akadns.net",
                    IPv4Address.parse("17.253.0.1"),
                    20,
                ),
                PtrRecord(
                    "1.0.253.17.in-addr.arpa",
                    "usnyc1-vip-bx-001.aaplimg.com",
                    86400,
                ),
            ],
            client_subnet=ClientSubnet(IPv4Prefix.parse("89.0.0.0/12"), 12),
        )

    def test_full_round_trip(self):
        message = self._message()
        decoded = decode_message(encode_message(message))
        assert decoded.message_id == message.message_id
        assert decoded.is_response and decoded.authoritative
        assert decoded.rcode is RCode.NOERROR
        assert decoded.questions == message.questions
        assert decoded.answers == message.answers
        assert decoded.client_subnet == message.client_subnet

    def test_compression_shrinks_messages(self):
        message = self._message()
        compressed_size = len(encode_message(message))
        # Re-encode each record standalone: the sum must exceed the
        # compressed whole (shared apple.com suffixes collapse).
        naive = sum(
            len(encode_message(WireMessage(answers=[record])))
            for record in message.answers
        )
        assert compressed_size < naive

    def test_query_encoding(self):
        query = WireMessage(message_id=1, questions=[Question("mesu.apple.com")])
        decoded = decode_message(encode_message(query))
        assert not decoded.is_response
        assert decoded.recursion_desired
        assert decoded.answers == []

    def test_rcode_carried(self):
        message = WireMessage(
            message_id=2, is_response=True, rcode=RCode.NXDOMAIN,
            questions=[Question("nothing.apple.com")],
        )
        assert decode_message(encode_message(message)).rcode is RCode.NXDOMAIN

    def test_short_message_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"\x00\x01")

    def test_bad_id_rejected(self):
        with pytest.raises(WireError):
            WireMessage(message_id=-1)

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        name_strategy,
        st.lists(
            st.tuples(
                name_strategy,
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=0, max_value=86400),
            ),
            max_size=6,
        ),
    )
    def test_round_trip_property(self, message_id, qname, answer_specs):
        message = WireMessage(
            message_id=message_id,
            is_response=True,
            questions=[Question(qname)],
            answers=[
                ARecord(name, IPv4Address(value), ttl)
                for name, value, ttl in answer_specs
            ],
        )
        decoded = decode_message(encode_message(message))
        assert decoded.questions == message.questions
        assert decoded.answers == message.answers


def answer_bytes(server, payload, context, ecs_scope=None):
    """One wire query answered the way ``AsyncDnsServer`` answers it:
    decode, :meth:`ZoneFrontend.answer`, encode."""
    from repro.serve.dnsserver import ZoneFrontend

    reply = ZoneFrontend([server]).answer(decode_message(payload), context, ecs_scope)
    return encode_message(reply)


class TestAnswerWire:
    def test_end_to_end_over_bytes(self):
        from repro.dns.policies import CnamePolicy
        from repro.dns.zone import AuthoritativeServer, Zone

        zone = Zone("apple.com")
        zone.bind("appldnld.apple.com", CnamePolicy("x.akadns.net", ttl=21600))
        server = AuthoritativeServer("Apple", [zone])
        context = QueryContext(
            client=IPv4Address.parse("89.0.0.7"),
            coordinates=Coordinates(52.52, 13.40),
            continent=Continent.EUROPE,
            country="de",
        )
        query = encode_message(
            WireMessage(
                message_id=7,
                questions=[Question("appldnld.apple.com")],
                client_subnet=ClientSubnet(IPv4Prefix.parse("89.0.0.0/24")),
            )
        )
        response = decode_message(answer_bytes(server, query, context))
        assert response.message_id == 7
        assert response.is_response and response.authoritative
        assert response.answers[0].target == "x.akadns.net"
        # ECS echoed with full scope, like CDN mapping DNS.
        assert response.client_subnet.scope_length == 24

    def test_ecs_scope_override_is_echoed(self):
        # A caller whose context came from a coarser geography lookup
        # passes that lookup's granularity; the echoed ECS must carry
        # it instead of the client's full source prefix length
        # (RFC 7871 §7.3.1 — over-claimed scope poisons shared caches).
        from repro.dns.policies import CnamePolicy
        from repro.dns.zone import AuthoritativeServer, Zone

        zone = Zone("apple.com")
        zone.bind("appldnld.apple.com", CnamePolicy("x.akadns.net", ttl=21600))
        server = AuthoritativeServer("Apple", [zone])
        context = QueryContext(
            client=IPv4Address.parse("89.0.0.7"),
            coordinates=Coordinates(52.52, 13.40),
            continent=Continent.EUROPE,
            country="de",
        )
        query = encode_message(
            WireMessage(
                message_id=9,
                questions=[Question("appldnld.apple.com")],
                client_subnet=ClientSubnet(IPv4Prefix.parse("89.0.0.0/24")),
            )
        )
        scoped = decode_message(answer_bytes(server, query, context, ecs_scope=16))
        assert scoped.client_subnet.scope_length == 16
        assert scoped.client_subnet.prefix == IPv4Prefix.parse("89.0.0.0/24")
        # Scope 0: the answer did not depend on the client at all.
        blind = decode_message(answer_bytes(server, query, context, ecs_scope=0))
        assert blind.client_subnet.scope_length == 0

    def test_question_required(self):
        from repro.dns.zone import AuthoritativeServer

        server = AuthoritativeServer("Apple", [])
        context = QueryContext(
            client=IPv4Address.parse("1.1.1.1"),
            coordinates=Coordinates(0, 0),
            continent=Continent.EUROPE,
            country="de",
        )
        empty = encode_message(WireMessage(message_id=1))
        with pytest.raises(WireError):
            answer_bytes(server, empty, context)


class TestAdversarialBytes:
    """Hardening: hostile compression pointers and truncated labels."""

    def test_two_pointer_cycle_rejected_immediately(self):
        # Pointer at 12 -> 14, pointer at 14 -> 12: a loop the
        # backwards-only rule kills on the very first jump (14 >= 12).
        data = b"\x00" * 12 + b"\xc0\x0e\xc0\x0c"
        with pytest.raises(WireError):
            decode_name(data, 12)

    def test_forward_pointer_rejected(self):
        # A pointer is only legal when it moves strictly backwards.
        data = b"\x00" * 12 + b"\xc0\x10\x00\x00\x01a\x00"
        with pytest.raises(WireError):
            decode_name(data, 12)

    def test_pointer_jump_budget_enforced(self):
        # A strictly descending chain of 40 pointers passes the
        # backwards rule but must hit the jump cap.
        import struct as _struct

        buffer = bytearray(b"\x01a\x00\x00")
        for index in range(40):
            target = 0 if index == 0 else 4 + 2 * (index - 1)
            buffer += _struct.pack("!H", 0xC000 | target)
        with pytest.raises(WireError, match="jumps"):
            decode_name(bytes(buffer), 4 + 2 * 39)

    def test_truncated_pointer_rejected(self):
        data = b"\x00" * 12 + b"\xc0"
        with pytest.raises(WireError, match="truncated"):
            decode_name(data, 12)

    def test_reserved_label_bits_rejected(self):
        for length_byte in (0x40, 0x80):
            with pytest.raises(WireError, match="reserved"):
                decode_name(bytes([length_byte]) + b"abc\x00", 0)

    def test_over_long_name_rejected(self):
        # Five 63-byte labels encode to 321 octets, over the RFC 1035
        # limit of 255 — each label alone is legal.
        label = b"\x3f" + b"a" * 63
        data = label * 5 + b"\x00"
        with pytest.raises(WireError, match="255"):
            decode_name(data, 0)

    def test_non_ascii_label_rejected(self):
        with pytest.raises(WireError, match="ASCII"):
            decode_name(b"\x02\xff\xfe\x00", 0)

    def test_legal_deep_compression_still_decodes(self):
        # Regression guard: a legitimate chain of suffix pointers
        # (each strictly backwards) must keep working.
        compression = {}
        buffer = bytearray(b"\x00" * 12)
        buffer += encode_name("a.b.c.apple.com", compression, offset=12)
        start = len(buffer)
        buffer += encode_name("x.b.c.apple.com", compression, offset=start)
        name, _ = decode_name(bytes(buffer), start)
        assert name == "x.b.c.apple.com"

    @given(st.binary(max_size=512))
    def test_decode_message_never_hangs_or_crashes(self, data):
        # Any byte blob either decodes or raises a ValueError family
        # error; nothing else, and never an infinite pointer chase.
        try:
            decode_message(data)
        except ValueError:
            pass


class TestServfailReply:
    def test_echoes_the_id_of_an_undecodable_payload(self):
        reply = decode_message(servfail_reply(b"\xbe\xef" + b"\xff" * 30))
        assert reply.message_id == 0xBEEF
        assert reply.is_response and reply.rcode is RCode.SERVFAIL
        assert not reply.recursion_desired
        assert not reply.questions and not reply.answers

    def test_no_header_no_reply(self):
        assert servfail_reply(b"") is None
        assert servfail_reply(b"\x00" * 11) is None


class TestTruncationAndPayloadSize:
    def test_tc_bit_round_trip(self):
        message = WireMessage(
            message_id=9, is_response=True, truncated=True,
            questions=[Question("appldnld.apple.com")],
        )
        decoded = decode_message(encode_message(message))
        assert decoded.truncated

    def test_advertised_udp_payload_round_trip(self):
        message = WireMessage(
            message_id=10,
            questions=[Question("appldnld.apple.com")],
            udp_payload_size=1232,
        )
        decoded = decode_message(encode_message(message))
        assert decoded.udp_payload_size == 1232

    def test_ecs_implies_default_payload_size(self):
        # A query carrying ECS gets an OPT record; its class field
        # defaults to the 4096-byte advertisement.
        message = WireMessage(
            message_id=11,
            questions=[Question("appldnld.apple.com")],
            client_subnet=ClientSubnet(IPv4Prefix.parse("100.64.0.0/24")),
        )
        decoded = decode_message(encode_message(message))
        assert decoded.udp_payload_size == 4096
        assert decoded.client_subnet is not None

    def test_no_opt_means_no_payload_size(self):
        message = WireMessage(
            message_id=12, questions=[Question("mesu.apple.com")]
        )
        decoded = decode_message(encode_message(message))
        assert decoded.udp_payload_size is None
