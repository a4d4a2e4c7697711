"""DNS wire format: RFC 1035 message encoding and decoding.

The rest of the DNS substrate works on structured objects; this module
provides the byte-level representation — headers, the question section,
resource records with name compression, and the EDNS0 OPT pseudo-record
with the Client-Subnet option (RFC 7871) that real CDN mapping chains
use to learn where the client sits.

Supported RR types are exactly the reproduction's: A, NS, CNAME, SOA,
PTR (plus OPT).  Encoding applies name compression (pointers to earlier
occurrences); decoding follows pointers with loop protection.

A live edge codes the same few thousand distinct messages over and
over (the same probes chase the same chain every five minutes), so
both directions memoise by *value*: :func:`encode_message` keeps the
question + answer section bytes per ``(questions, answers)``,
:func:`decode_message` keeps the decoded fields per ``data[2:]``.  Both
memos are pure functions of their key — nothing ever invalidates them —
and are bounded at ``_MEMO_BOUND`` entries, oldest out first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # the replay imports this module and never asyncio
    import asyncio

from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..obs.trace_context import TRACE_OPTION_CODE, TraceContext
from .query import Question, RCode
from .records import (
    ARecord,
    CnameRecord,
    NameError_,
    RecordType,
    ResourceRecord,
    normalize_name,
)

__all__ = [
    "WireError",
    "WireType",
    "ClientSubnet",
    "WireMessage",
    "encode_message",
    "encode_query",
    "decode_message",
    "encode_name",
    "decode_name",
    "servfail_reply",
    "frame",
    "read_frame",
]

_MAX_MESSAGE = 65535
_HEADER_OCTETS = 12
_MAX_NAME_OCTETS = 255  # RFC 1035 §3.1: total encoded name length
_MAX_POINTER_JUMPS = 32  # far above any legal message's compression depth
_POINTER_MASK = 0xC0
_CLASS_IN = 1
_OPT_TYPE = 41
_ECS_OPTION_CODE = 8
_ECS_FAMILY_IPV4 = 1
_DEFAULT_UDP_PAYLOAD = 4096
# Both wire memos hold at most this many entries (a steady-state edge
# repeats (qname, ECS /24, answer set) well inside the last 512 distinct
# messages, see DESIGN.md "Hot-path cost model"), and the decode memo
# only keeps datagram-sized inputs, so its keys stay under 0.5 MB.
_MEMO_BOUND = 512
_MEMO_MAX_KEY_OCTETS = 1024


class WireError(ValueError):
    """Raised for malformed wire data."""


class WireType(IntEnum):
    """RR type codes for the supported record types."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12

    @classmethod
    def from_record_type(cls, rtype: RecordType) -> "WireType":
        return cls[rtype.value]

    def to_record_type(self) -> RecordType:
        return RecordType[self.name]


@dataclass(frozen=True)
class ClientSubnet:
    """An EDNS Client Subnet option (RFC 7871, IPv4 family)."""

    prefix: IPv4Prefix
    scope_length: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.scope_length <= 32:
            raise WireError(f"bad ECS scope: {self.scope_length}")

    def encode(self) -> bytes:
        """The option payload (family, lengths, truncated address)."""
        address_bytes = bytes(self.prefix.network.octets)
        used = (self.prefix.length + 7) // 8
        payload = struct.pack(
            "!HBB", _ECS_FAMILY_IPV4, self.prefix.length, self.scope_length
        ) + address_bytes[:used]
        return struct.pack("!HH", _ECS_OPTION_CODE, len(payload)) + payload

    @classmethod
    def decode(cls, payload: bytes) -> "ClientSubnet":
        """Parse one ECS option payload (without the option header)."""
        if len(payload) < 4:
            raise WireError("ECS option too short")
        family, source_length, scope_length = struct.unpack("!HBB", payload[:4])
        if family != _ECS_FAMILY_IPV4:
            raise WireError(f"unsupported ECS family {family}")
        if source_length > 32:
            raise WireError(f"bad ECS source prefix length: {source_length}")
        used = (source_length + 7) // 8
        address_bytes = payload[4:4 + used] + b"\x00" * (4 - used)
        if len(payload) < 4 + used:
            raise WireError("ECS address truncated")
        value = int.from_bytes(address_bytes[:4], "big")
        prefix = IPv4Prefix.containing(IPv4Address(value), source_length)
        return cls(prefix=prefix, scope_length=scope_length)


@dataclass
class WireMessage:
    """A decoded (or to-be-encoded) DNS message."""

    message_id: int = 0
    is_response: bool = False
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: RCode = RCode.NOERROR
    questions: list = field(default_factory=list)  # list[Question]
    answers: list = field(default_factory=list)  # list[ResourceRecord]
    client_subnet: Optional[ClientSubnet] = None
    # The EDNS0 advertised UDP payload size (the OPT record's CLASS
    # field); None when the message carries no OPT record.  A server
    # uses it to decide when a UDP response must be truncated.
    udp_payload_size: Optional[int] = None
    # Observability trace context, carried as an EDNS0 option in the
    # local-use code range alongside ECS.  Malformed trace options are
    # dropped on decode rather than failing the message: tracing must
    # never break name resolution.
    trace_context: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if not 0 <= self.message_id <= 0xFFFF:
            raise WireError(f"bad message id: {self.message_id}")


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------

def encode_name(name: str, compression: Optional[dict] = None,
                offset: int = 0) -> bytes:
    """Encode ``name`` with optional compression.

    ``compression`` maps already-emitted suffixes to their offsets;
    ``offset`` is where this name will start in the message.
    """
    labels = normalize_name(name).split(".")
    out = bytearray()
    for index in range(len(labels)):
        suffix = ".".join(labels[index:])
        if compression is not None and suffix in compression:
            pointer = compression[suffix]
            out += struct.pack("!H", 0xC000 | pointer)
            return bytes(out)
        if compression is not None and offset + len(out) < 0x3FFF:
            compression[suffix] = offset + len(out)
        label = labels[index].encode("ascii")
        if len(label) > 63:
            raise WireError(f"label too long: {labels[index]!r}")
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset).

    Hardened against adversarial bytes: every compression pointer must
    land strictly before the previous jump target (a legal encoder only
    ever points at earlier suffixes, and the rule makes pointer loops
    impossible on the first revisit instead of after a long chase) and
    never inside the 12-byte header (no name lives there; a pointer at
    offsets 0-1 would read a label out of the message id), jumps are
    bounded, and the accumulated name may not exceed the RFC 1035 limit
    of 255 octets.  Any violation raises :class:`WireError`; malformed
    input can never hang the decoder.
    """
    labels: list[str] = []
    name_octets = 1  # the terminating zero label
    jumps = 0
    cursor = offset
    lowest_target = offset  # each jump must land strictly before this
    end: Optional[int] = None
    while True:
        if cursor >= len(data):
            raise WireError("name runs past end of message")
        length = data[cursor]
        if length & _POINTER_MASK == _POINTER_MASK:
            if cursor + 1 >= len(data):
                raise WireError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[cursor + 1]
            if end is None:
                end = cursor + 2
            jumps += 1
            if jumps > _MAX_POINTER_JUMPS:
                raise WireError("too many compression pointer jumps")
            if pointer >= lowest_target:
                raise WireError(
                    f"compression pointer at {cursor} does not move "
                    f"backwards (target {pointer})"
                )
            if pointer < _HEADER_OCTETS:
                raise WireError(
                    f"compression pointer at {cursor} lands in the header "
                    f"(target {pointer})"
                )
            lowest_target = pointer
            cursor = pointer
            continue
        if length & _POINTER_MASK:
            raise WireError(f"reserved label type {length:#x}")
        cursor += 1
        if length == 0:
            break
        if cursor + length > len(data):
            raise WireError("label runs past end of message")
        name_octets += 1 + length
        if name_octets > _MAX_NAME_OCTETS:
            raise WireError("name exceeds 255 octets")
        try:
            labels.append(data[cursor:cursor + length].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise WireError("non-ASCII bytes in label") from exc
        cursor += length
    if end is None:
        end = cursor
    if not labels:
        raise WireError("empty (root) name not used in this substrate")
    return ".".join(labels).lower(), end


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------

def _encode_rdata(record: ResourceRecord, compression: dict, offset: int) -> bytes:
    if record.rtype is RecordType.A:
        return bytes(record.address.octets)
    if record.rtype in (RecordType.CNAME, RecordType.NS, RecordType.PTR):
        # Compression inside RDATA is legal for these well-known types.
        return encode_name(record.target, compression, offset)
    if record.rtype is RecordType.SOA:
        raise WireError("SOA encoding is not needed by the reproduction")
    raise WireError(f"cannot encode {record.rtype}")


def _encode_record(record: ResourceRecord, compression: dict, offset: int) -> bytes:
    out = bytearray(encode_name(record.name, compression, offset))
    wire_type = WireType.from_record_type(record.rtype)
    out += struct.pack("!HHI", wire_type, _CLASS_IN, record.ttl)
    rdata_offset = offset + len(out) + 2  # after the RDLENGTH field
    rdata = _encode_rdata(record, compression, rdata_offset)
    out += struct.pack("!H", len(rdata))
    out += rdata
    return bytes(out)


def _decode_record(
    data: bytes, offset: int
) -> tuple[Optional[ResourceRecord], int, Optional[tuple[int, bytes]]]:
    """Returns (record or None-for-OPT, next offset, (OPT class, rdata))."""
    name, cursor = _decode_owner(data, offset)
    if cursor + 10 > len(data):
        raise WireError("truncated record header")
    type_code, class_code, ttl = struct.unpack("!HHI", data[cursor:cursor + 8])
    (rdlength,) = struct.unpack("!H", data[cursor + 8:cursor + 10])
    cursor += 10
    if cursor + rdlength > len(data):
        raise WireError("RDATA runs past end of message")
    rdata = data[cursor:cursor + rdlength]
    next_offset = cursor + rdlength
    if type_code == _OPT_TYPE:
        # For OPT the CLASS field carries the advertised UDP size.
        return None, next_offset, (class_code, rdata)
    try:
        wire_type = WireType(type_code)
    except ValueError as exc:
        raise WireError(f"unsupported RR type {type_code}") from exc
    rtype = wire_type.to_record_type()
    try:
        # A and CNAME go through the interning constructors: a decoded
        # answer is the same object as the one the zone built.
        if rtype is RecordType.A:
            if rdlength != 4:
                raise WireError("A RDATA must be 4 bytes")
            record = ARecord(name, IPv4Address(int.from_bytes(rdata, "big")), ttl)
        elif rtype is RecordType.CNAME:
            record = CnameRecord(name, decode_name(data, cursor)[0], ttl)
        elif rtype in (RecordType.NS, RecordType.PTR):
            record = ResourceRecord(
                name=name, rtype=rtype, ttl=ttl,
                data=decode_name(data, cursor)[0],
            )
        else:
            raise WireError(f"cannot decode {rtype}")
    except NameError_ as exc:
        # Label syntax is validated by the record model; on the decode
        # path a violation is malformed wire input, not a caller bug.
        raise WireError(f"invalid name in record: {exc}") from exc
    return record, next_offset, None


def _decode_owner(data: bytes, offset: int) -> tuple[str, int]:
    # OPT records use the root owner name; handle the lone zero byte.
    if offset < len(data) and data[offset] == 0:
        return "", offset + 1
    return decode_name(data, offset)


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------

# (tuple(questions), tuple(answers)) -> the two sections' bytes.  The
# header is a fixed 12 octets, so compression offsets inside the
# sections do not depend on the id, the flags or the OPT record.
_SECTIONS: dict[tuple, bytes] = {}
# data[2:] -> the decoded fields of an accepted message without a trace
# option; bytes 0-1 are the id and cannot reach anything else, since no
# compression pointer may land in the header.
_DECODED: dict[bytes, tuple] = {}
# (name as asked, ECS source length, client network value) -> an
# untraced A query's bytes from offset 2 on: a stub resolver asks the
# same chain names for the same client networks over and over.
_QUERIES: dict[tuple, bytes] = {}


def _remember(memo: dict, key, value) -> None:
    """Fill a wire memo, the oldest entry making room at the bound."""
    if len(memo) >= _MEMO_BOUND:
        del memo[next(iter(memo))]
    memo[key] = value


def _encode_sections(questions: tuple, answers: tuple) -> bytes:
    """The question and answer sections as they sit after the header."""
    out = bytearray()
    compression: dict[str, int] = {}
    for question in questions:
        out += encode_name(question.name, compression, _HEADER_OCTETS + len(out))
        out += struct.pack(
            "!HH", WireType.from_record_type(question.rtype), _CLASS_IN
        )
    for record in answers:
        out += _encode_record(record, compression, _HEADER_OCTETS + len(out))
    return bytes(out)


def encode_message(message: WireMessage) -> bytes:
    """Serialise a message, compressing names throughout."""
    flags = 0
    if message.is_response:
        flags |= 0x8000
    if message.authoritative:
        flags |= 0x0400
    if message.truncated:
        flags |= 0x0200
    if message.recursion_desired:
        flags |= 0x0100
    if message.recursion_available:
        flags |= 0x0080
    flags |= message.rcode.value & 0x000F

    emit_opt = (
        message.client_subnet is not None
        or message.udp_payload_size is not None
        or message.trace_context is not None
    )
    questions, answers = tuple(message.questions), tuple(message.answers)
    out = bytearray(
        struct.pack(
            "!HHHHHH",
            message.message_id,
            flags,
            len(questions),
            len(answers),
            0,
            1 if emit_opt else 0,
        )
    )
    # Key equality is record equality, under which ttl 15 == 15.0, yet
    # only the int packs: anything but int TTLs bypasses the memo.
    if any(type(record.ttl) is not int for record in answers):
        sections = _encode_sections(questions, answers)
    else:
        sections = _SECTIONS.get((questions, answers))
        if sections is None:
            sections = _encode_sections(questions, answers)
            _remember(_SECTIONS, (questions, answers), sections)
    out += sections
    if emit_opt:
        # OPT pseudo-record: root name, type 41, class = UDP size.
        options = bytearray()
        if message.client_subnet is not None:
            options += message.client_subnet.encode()
        if message.trace_context is not None:
            payload = message.trace_context.encode_option()
            options += struct.pack("!HH", TRACE_OPTION_CODE, len(payload))
            options += payload
        payload_size = message.udp_payload_size or _DEFAULT_UDP_PAYLOAD
        out += b"\x00"
        out += struct.pack("!HHIH", _OPT_TYPE, payload_size, 0, len(options))
        out += options
    if len(out) > _MAX_MESSAGE:
        raise WireError("message exceeds 64 KiB")
    return bytes(out)


def encode_query(message_id: int, name: str, client: IPv4Address,
                 source_length: int,
                 trace_context: Optional[TraceContext]) -> bytes:
    """An A query for ``name`` whose ECS option names ``client``'s
    ``/source_length`` network.

    An untraced query seen before is its memoised bytes behind this
    query's id; everything else is :func:`encode_message`, whose output
    (minus the id) the memo keeps.  A name that raises is never stored.
    """
    if trace_context is None:
        shift = 32 - source_length
        key = (name, source_length, client.value >> shift << shift)
        tail = _QUERIES.get(key)
        if tail is not None:
            return message_id.to_bytes(2, "big") + tail
    payload = encode_message(
        WireMessage(
            message_id=message_id,
            questions=[Question.of(name, RecordType.A)],
            client_subnet=ClientSubnet(
                IPv4Prefix.containing(client, source_length)
            ),
            trace_context=trace_context,
        )
    )
    if trace_context is None:
        _remember(_QUERIES, key, payload[2:])
    return payload


def decode_message(data: bytes) -> WireMessage:
    """Parse a wire message back into structured form.

    Bytes seen before (from offset 2 on) skip the parse: the caller gets
    a fresh message with its own lists and the id of *this* datagram.
    """
    body = data[2:]
    known = _DECODED.get(body)
    if known is not None:
        fields, questions, answers = known
        return WireMessage(
            message_id=(data[0] << 8) | data[1],
            questions=list(questions),
            answers=list(answers),
            **fields,
        )
    message = _decode_message(data)
    # Trace options are unique per query: they would only churn the memo.
    if message.trace_context is None and len(data) <= _MEMO_MAX_KEY_OCTETS:
        fields = {
            name: value for name, value in vars(message).items()
            if name not in ("message_id", "questions", "answers")
        }
        _remember(_DECODED, body, (
            fields, tuple(message.questions), tuple(message.answers),
        ))
    return message


def _decode_message(data: bytes) -> WireMessage:
    """The validating decoder behind :func:`decode_message`'s memo."""
    if len(data) < 12:
        raise WireError("message shorter than the 12-byte header")
    message_id, flags, qdcount, ancount, nscount, arcount = struct.unpack(
        "!HHHHHH", data[:12]
    )
    try:
        rcode = RCode(flags & 0x000F)
    except ValueError as exc:
        raise WireError(f"unsupported RCODE {flags & 0xF}") from exc
    message = WireMessage(
        message_id=message_id,
        is_response=bool(flags & 0x8000),
        authoritative=bool(flags & 0x0400),
        truncated=bool(flags & 0x0200),
        recursion_desired=bool(flags & 0x0100),
        recursion_available=bool(flags & 0x0080),
        rcode=rcode,
    )
    cursor = 12
    for _ in range(qdcount):
        name, cursor = decode_name(data, cursor)
        if cursor + 4 > len(data):
            raise WireError("truncated question")
        (type_code, class_code) = struct.unpack("!HH", data[cursor:cursor + 4])
        cursor += 4
        if class_code != _CLASS_IN:
            raise WireError(f"unsupported class {class_code}")
        try:
            rtype = WireType(type_code).to_record_type()
        except ValueError as exc:
            raise WireError(f"unsupported question type {type_code}") from exc
        try:
            message.questions.append(Question.of(name, rtype))
        except NameError_ as exc:
            raise WireError(f"invalid name in question: {exc}") from exc
    for section_count in (ancount, nscount + arcount):
        for _ in range(section_count):
            record, cursor, opt = _decode_record(data, cursor)
            if record is not None:
                message.answers.append(record)
            elif opt is not None:
                payload_size, opt_rdata = opt
                message.udp_payload_size = payload_size
                if opt_rdata:
                    ecs, trace = _decode_options(opt_rdata)
                    message.client_subnet = ecs
                    message.trace_context = trace
    return message


def _decode_options(
    opt_rdata: bytes,
) -> tuple[Optional[ClientSubnet], Optional[TraceContext]]:
    """Walk the OPT RDATA's option list; unknown codes are skipped.

    ECS keeps its strict semantics (a malformed ECS raises, since the
    answer depends on it); the trace option degrades to ``None`` on any
    malformation, including truncation by the ``length`` field running
    past the RDATA.
    """
    ecs: Optional[ClientSubnet] = None
    trace: Optional[TraceContext] = None
    cursor = 0
    while cursor + 4 <= len(opt_rdata):
        code, length = struct.unpack("!HH", opt_rdata[cursor:cursor + 4])
        payload = opt_rdata[cursor + 4:cursor + 4 + length]
        if code == _ECS_OPTION_CODE:
            ecs = ClientSubnet.decode(payload)
        elif code == TRACE_OPTION_CODE and len(payload) == length:
            trace = TraceContext.decode_option(payload)
        cursor += 4 + length
    return ecs, trace


def reply_message(query: WireMessage, response, ecs_scope=None) -> WireMessage:
    """The wire reply carrying ``response`` back to ``query``'s sender.

    An ECS option in the query is echoed back with ``ecs_scope`` as its
    scope — the granularity the answer actually depended on.  ``None``
    keeps the legacy full-source-scope echo for callers whose query
    context really is per-client; callers that derived the context
    from a coarser geography lookup must pass that lookup's
    granularity: over-claiming makes downstream shared caches partition
    answers more finely than they were computed (diluting their hit
    rate), under-claiming leaks one geography's steering answer to
    another (RFC 7871 §7.3.1).  The trace option is echoed too, so a
    captured response still names the chain it belonged to.
    """
    ecs = None
    if query.client_subnet is not None:
        ecs = ClientSubnet(
            prefix=query.client_subnet.prefix,
            scope_length=(
                query.client_subnet.prefix.length
                if ecs_scope is None else ecs_scope
            ),
        )
    return WireMessage(
        message_id=query.message_id,
        is_response=True,
        authoritative=response.authoritative,
        recursion_desired=query.recursion_desired,
        rcode=response.rcode,
        questions=query.questions[:1],
        answers=list(response.answers),
        client_subnet=ecs,
        trace_context=query.trace_context,
    )


def servfail_reply(payload: bytes) -> Optional[bytes]:
    """A bare SERVFAIL echoing ``payload``'s message id.

    What a server sends back for a datagram it could not decode or
    answer; ``None`` when not even the 12-byte header (hence an id) is
    there to echo.
    """
    if len(payload) < _HEADER_OCTETS:
        return None
    return encode_message(
        WireMessage(
            message_id=(payload[0] << 8) | payload[1],
            is_response=True,
            rcode=RCode.SERVFAIL,
            recursion_desired=False,
        )
    )


def frame(message: bytes) -> bytes:
    """``message`` behind the two-octet length TCP carries it with
    (RFC 1035 §4.2.2)."""
    return struct.pack("!H", len(message)) + message


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next length-prefixed message off a TCP stream.

    ``None`` when the peer closed instead, between messages or part-way
    through one.  The caller bounds the wait with one deadline.
    """
    try:
        (length,) = struct.unpack("!H", await reader.readexactly(2))
        return await reader.readexactly(length)
    except EOFError:  # asyncio.IncompleteReadError is one
        return None
