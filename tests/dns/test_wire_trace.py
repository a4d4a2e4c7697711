"""EDNS0 trace-option carriage through the RFC 1035 wire codec.

The trace option (local-use code 65001) must ride alongside ECS
without disturbing it, degrade to ``None`` on any malformation (a
broken trace option must never break resolution — unlike ECS, which
stays strict), and skip unknown local-use options entirely.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.query import Question
from repro.dns.wire import (
    ClientSubnet,
    WireMessage,
    decode_message,
    encode_message,
)
from repro.net.ipv4 import IPv4Prefix
from repro.obs.trace_context import TRACE_OPTION_CODE, TraceContext


def _query(**kwargs) -> WireMessage:
    return WireMessage(
        message_id=77, questions=[Question("appldnld.apple.com")], **kwargs
    )


class TestRoundTrip:
    def test_trace_option_round_trips(self):
        context = TraceContext(trace_id=0xFEED, span_id=0xF00, sampled=True)
        decoded = decode_message(
            encode_message(_query(trace_context=context))
        )
        assert decoded.trace_context == context

    def test_trace_rides_alongside_ecs(self):
        context = TraceContext(trace_id=3, span_id=None, sampled=False)
        ecs = ClientSubnet(IPv4Prefix.parse("89.0.0.0/12"), 12)
        decoded = decode_message(
            encode_message(_query(client_subnet=ecs, trace_context=context))
        )
        assert decoded.client_subnet == ecs
        assert decoded.trace_context == context

    def test_trace_alone_emits_opt(self):
        decoded = decode_message(
            encode_message(_query(trace_context=TraceContext(trace_id=1)))
        )
        assert decoded.udp_payload_size == 4096
        assert decoded.trace_context is not None

    def test_absent_by_default(self):
        decoded = decode_message(encode_message(_query()))
        assert decoded.trace_context is None

    def test_response_echoes_query_context(self):
        from repro.dns.policies import StaticPolicy
        from repro.dns.query import QueryContext
        from repro.dns.zone import AuthoritativeServer, Zone
        from repro.net.geo import Continent, Coordinates
        from repro.net.ipv4 import IPv4Address
        from repro.serve.dnsserver import ZoneFrontend

        zone = Zone("apple.com")
        zone.bind("appldnld.apple.com", StaticPolicy(()))
        frontend = ZoneFrontend([AuthoritativeServer("Apple", [zone])])
        payload = encode_message(
            _query(trace_context=TraceContext(trace_id=8, span_id=2))
        )
        context = QueryContext(
            client=IPv4Address.parse("89.0.0.1"),
            coordinates=Coordinates(50.0, 8.0),
            continent=Continent.EUROPE,
            country="de",
            now=0.0,
        )
        response = decode_message(
            encode_message(frontend.answer(decode_message(payload), context))
        )
        assert response.trace_context == TraceContext(trace_id=8, span_id=2)


class TestAdversarialDecode:
    def _wire_with_option(self, code: int, payload: bytes) -> bytes:
        """A valid query whose OPT carries one hand-built option TLV."""
        base = encode_message(_query(trace_context=TraceContext(trace_id=1)))
        good = TraceContext(trace_id=1).encode_option()
        good_tlv = struct.pack("!HH", TRACE_OPTION_CODE, len(good)) + good
        evil_tlv = struct.pack("!HH", code, len(payload)) + payload
        assert good_tlv in base
        wire = base.replace(good_tlv, evil_tlv)
        # Fix the OPT rdlength to match the new option block size.
        delta = len(evil_tlv) - len(good_tlv)
        if delta:
            marker = wire.find(b"\x00\x00\x29", 12)
            length_at = marker + 3 + 2 + 4  # type + class + ttl
            old = struct.unpack_from("!H", wire, length_at)[0]
            wire = (
                wire[:length_at]
                + struct.pack("!H", old + delta)
                + wire[length_at + 2:]
            )
        return wire

    @pytest.mark.parametrize("size", [0, 1, 8, 16, 18, 40])
    def test_wrong_payload_size_degrades_to_none(self, size):
        decoded = decode_message(
            self._wire_with_option(TRACE_OPTION_CODE, b"\x01" * size)
        )
        assert decoded.trace_context is None

    def test_unknown_option_codes_are_skipped(self):
        decoded = decode_message(
            self._wire_with_option(65123, b"opaque-vendor-data")
        )
        assert decoded.trace_context is None
        assert decoded.questions == [Question("appldnld.apple.com")]

    def test_unknown_option_before_trace_is_passed_over(self):
        base = encode_message(_query(trace_context=TraceContext(trace_id=6)))
        good = TraceContext(trace_id=6).encode_option()
        good_tlv = struct.pack("!HH", TRACE_OPTION_CODE, len(good)) + good
        vendor = struct.pack("!HH", 65100, 3) + b"xyz"
        wire = base.replace(good_tlv, vendor + good_tlv)
        marker = wire.find(b"\x00\x00\x29", 12)
        length_at = marker + 3 + 2 + 4
        old = struct.unpack_from("!H", wire, length_at)[0]
        wire = (
            wire[:length_at]
            + struct.pack("!H", old + len(vendor))
            + wire[length_at + 2:]
        )
        decoded = decode_message(wire)
        assert decoded.trace_context == TraceContext(trace_id=6)

    @given(st.binary(max_size=64))
    def test_arbitrary_option_bytes_never_crash_the_decoder(self, blob):
        # Truncated TLVs, lengths past the rdata end, random codes: the
        # option walker must never raise on trace options (it simply
        # yields no context) — resolution always proceeds.
        base = encode_message(_query(trace_context=TraceContext(trace_id=1)))
        good = TraceContext(trace_id=1).encode_option()
        good_tlv = struct.pack("!HH", TRACE_OPTION_CODE, len(good)) + good
        wire = base.replace(good_tlv, blob)
        delta = len(blob) - len(good_tlv)
        marker = wire.find(b"\x00\x00\x29", 12)
        if marker < 0:
            return  # the blob corrupted the OPT marker itself; skip
        length_at = marker + 3 + 2 + 4
        old = struct.unpack_from("!H", wire, length_at)[0]
        new_length = old + delta
        if new_length < 0:
            return
        wire = (
            wire[:length_at]
            + struct.pack("!H", new_length)
            + wire[length_at + 2:]
        )
        try:
            decoded = decode_message(wire)
        except Exception as exc:  # WireError is fine; others are not
            from repro.dns.wire import WireError

            assert isinstance(exc, WireError)
        else:
            assert decoded.questions == [Question("appldnld.apple.com")]
