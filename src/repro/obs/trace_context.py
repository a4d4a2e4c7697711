"""Wire-level trace context: one id that follows a request everywhere.

A *trace* is the causal chain of one logical client request — the DNS
resolution that steered it, the broker selection behind that answer,
the TCP connect and HTTP fetch it produced, and the cache verdict at
the edge.  Each hop records spans into its tracer; the
:class:`TraceContext` carried on the wire is what lets those spans be
stitched back into a single chain afterwards.

Three representations of the same context:

* **ambient** — a :class:`contextvars.ContextVar` scoped to the current
  asyncio task (:func:`current_context` / :func:`use_context`), which
  the tracer consults for trace ids and remote parentage;
* **DNS** — an EDNS0 option in the local-use code range
  (:data:`TRACE_OPTION_CODE`), encoded next to ECS in the OPT
  pseudo-record by :mod:`repro.dns.wire`;
* **HTTP** — a ``traceparent``-style header
  (``00-<32 hex trace>-<16 hex span>-<2 hex flags>``).

Sampling is deterministic per trace id (:func:`sample_trace`): the id
is hashed and compared against the rate, so every hop — client and
servers alike — makes the *same* keep/drop decision without
coordination, and a given seed always samples the same requests.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional

from .tracer import TraceRecord, _ambient_context

__all__ = [
    "TRACE_OPTION_CODE",
    "TraceContext",
    "TraceChain",
    "current_context",
    "use_context",
    "new_trace_id",
    "sample_trace",
    "assemble_chains",
]

# EDNS0 option code for the trace context, from the local/experimental
# range (65001-65534, RFC 6891 §9) so it can never collide with an
# IANA-assigned option such as ECS (8).
TRACE_OPTION_CODE = 65001

# struct layout of the option payload / traceparent fields:
# 8-byte trace id, 8-byte parent span id (0 = none), 1 flag byte.
_PAYLOAD = struct.Struct("!QQB")
_FLAG_SAMPLED = 0x01
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of one logical request.

    ``trace_id`` names the chain (64-bit, non-zero); ``span_id`` is the
    sender's currently open span — the remote parent that receiver-side
    spans attach under; ``sampled`` is the deterministic keep/drop
    decision made once at the root and honoured by every hop.
    """

    trace_id: int
    span_id: Optional[int] = None
    sampled: bool = True

    # ----- EDNS0 option payload ----------------------------------------

    def encode_option(self) -> bytes:
        """The raw EDNS0 option payload (17 bytes)."""
        return _PAYLOAD.pack(
            self.trace_id & _MASK64,
            (self.span_id or 0) & _MASK64,
            _FLAG_SAMPLED if self.sampled else 0,
        )

    @staticmethod
    def decode_option(payload: bytes) -> Optional["TraceContext"]:
        """Parse an option payload; ``None`` for malformed/truncated data.

        Tracing is observability, not protocol: a mangled trace option
        must never fail the query that carries it, so bad payloads are
        dropped silently instead of raising.
        """
        if len(payload) != _PAYLOAD.size:
            return None
        trace_id, span_id, flags = _PAYLOAD.unpack(payload)
        if trace_id == 0:
            return None
        return TraceContext(
            trace_id=trace_id,
            span_id=span_id or None,
            sampled=bool(flags & _FLAG_SAMPLED),
        )

    # ----- traceparent header ------------------------------------------

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent``-style header value."""
        return "00-{:032x}-{:016x}-{:02x}".format(
            self.trace_id & _MASK64,
            (self.span_id or 0) & _MASK64,
            _FLAG_SAMPLED if self.sampled else 0,
        )

    @staticmethod
    def from_traceparent(value: Optional[str]) -> Optional["TraceContext"]:
        """Parse a header value; ``None`` when absent or malformed."""
        if not value:
            return None
        parts = value.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_hex, span_hex, flags_hex = parts
        if len(version) != 2 or len(trace_hex) != 32 or len(span_hex) != 16:
            return None
        try:
            trace_id = int(trace_hex, 16)
            span_id = int(span_hex, 16)
            flags = int(flags_hex, 16)
        except ValueError:
            return None
        if trace_id == 0:
            return None
        return TraceContext(
            trace_id=trace_id & _MASK64,
            span_id=(span_id & _MASK64) or None,
            sampled=bool(flags & _FLAG_SAMPLED),
        )

    def child(self, span_id: Optional[int]) -> "TraceContext":
        """The same trace, re-parented under ``span_id`` for the next hop."""
        return TraceContext(self.trace_id, span_id, self.sampled)


# ----- ambient context -------------------------------------------------

# The variable itself lives in repro.obs.tracer (the hot recording path
# reads it); a ContextVar, not a module global, so each asyncio task
# sees its own value and concurrent loadgen workers / server handlers
# cannot clobber each other's request identity.


def current_context() -> Optional[TraceContext]:
    """The trace context of the current task, if any."""
    return _ambient_context.get()


@contextmanager
def use_context(context: Optional[TraceContext]):
    """Scope ``context`` to a ``with`` block (task-local)."""
    token = _ambient_context.set(context)
    try:
        yield context
    finally:
        _ambient_context.reset(token)


# ----- deterministic ids and sampling ----------------------------------


def new_trace_id(key: str) -> int:
    """A stable non-zero 64-bit trace id derived from ``key``.

    Deterministic by design: re-running the same workload yields the
    same trace ids, so traces can be diffed across runs.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    return value or 1


def sample_trace(trace_id: int, rate: float) -> bool:
    """The keep/drop decision for ``trace_id`` at sampling ``rate``.

    Hashes the id (salted, so sampling is independent of id
    derivation) into [0, 1) and keeps traces below ``rate``.  Every
    participant computes the same answer for the same id.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        struct.pack("!Q", trace_id & _MASK64),
        digest_size=8,
        person=b"trc-sampl",
    ).digest()
    fraction = int.from_bytes(digest, "big") / float(1 << 64)
    return fraction < rate


# ----- chain assembly --------------------------------------------------


@dataclass(frozen=True)
class TraceChain:
    """All buffered spans of one trace, in completion order."""

    trace_id: int
    spans: tuple[TraceRecord, ...]

    @property
    def complete(self) -> bool:
        """True once the root span (no parent) has closed."""
        return any(r.parent_id is None for r in self.spans)

    def named(self, name: str) -> Optional[TraceRecord]:
        """The first span called ``name``, if any."""
        for record in self.spans:
            if record.name == name:
                return record
        return None

    def to_json(self) -> dict:
        """One JSON object per chain (the ``/traces`` line format)."""
        return {
            "trace_id": "{:016x}".format(self.trace_id & _MASK64),
            "complete": self.complete,
            "spans": [r.to_json() for r in self.spans],
        }


def assemble_chains(
    records: Iterable[TraceRecord],
    complete_only: bool = False,
) -> list[TraceChain]:
    """Group buffered span records into per-trace chains.

    Chains are ordered by the buffer position of their newest record
    (oldest chain first), so ``chains[-N:]`` is the natural ``tail=N``.
    """
    grouped: dict[int, list[TraceRecord]] = {}
    order: dict[int, int] = {}
    for index, record in enumerate(records):
        if record.kind != "span" or record.trace_id is None:
            continue
        grouped.setdefault(record.trace_id, []).append(record)
        order[record.trace_id] = index
    chains = [
        TraceChain(trace_id=trace_id, spans=tuple(spans))
        for trace_id, spans in grouped.items()
    ]
    chains.sort(key=lambda chain: order[chain.trace_id])
    if complete_only:
        chains = [chain for chain in chains if chain.complete]
    return chains
