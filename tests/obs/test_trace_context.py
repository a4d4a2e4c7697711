"""Wire-level trace context: encoding, sampling, chain assembly."""

import asyncio

import pytest

from repro.obs import EventTracer, use_tracer
from repro.obs.trace_context import (
    TRACE_OPTION_CODE,
    TraceContext,
    assemble_chains,
    current_context,
    new_trace_id,
    sample_trace,
    use_context,
)


class TestTraceIds:
    def test_deterministic(self):
        assert new_trace_id("loadgen|7") == new_trace_id("loadgen|7")

    def test_distinct_keys_distinct_ids(self):
        ids = {new_trace_id(f"loadgen|{seq}") for seq in range(200)}
        assert len(ids) == 200

    def test_never_zero(self):
        assert all(new_trace_id(f"k{i}") != 0 for i in range(1000))


class TestSampling:
    def test_rate_one_keeps_everything(self):
        assert all(sample_trace(new_trace_id(f"s{i}"), 1.0) for i in range(50))

    def test_rate_zero_drops_everything(self):
        assert not any(
            sample_trace(new_trace_id(f"s{i}"), 0.0) for i in range(50)
        )

    def test_deterministic_per_trace_id(self):
        # Every hop must make the same keep/drop decision for a given
        # trace id — that is what makes chains all-or-nothing.
        for i in range(100):
            trace_id = new_trace_id(f"s{i}")
            first = sample_trace(trace_id, 0.5)
            assert all(
                sample_trace(trace_id, 0.5) == first for _ in range(5)
            )

    def test_rate_is_roughly_honoured(self):
        kept = sum(
            sample_trace(new_trace_id(f"s{i}"), 0.25) for i in range(2000)
        )
        assert 0.15 < kept / 2000 < 0.35


class TestOptionPayload:
    def test_round_trip(self):
        context = TraceContext(trace_id=0xDEAD, span_id=0xBEEF, sampled=True)
        decoded = TraceContext.decode_option(context.encode_option())
        assert decoded == context

    def test_no_parent_round_trip(self):
        context = TraceContext(trace_id=5, span_id=None, sampled=False)
        decoded = TraceContext.decode_option(context.encode_option())
        assert decoded == context

    @pytest.mark.parametrize("length", range(17))
    def test_truncated_payload_degrades_to_none(self, length):
        payload = TraceContext(trace_id=9, span_id=3).encode_option()
        assert TraceContext.decode_option(payload[:length]) is None

    def test_oversized_payload_degrades_to_none(self):
        payload = TraceContext(trace_id=9).encode_option() + b"\x00"
        assert TraceContext.decode_option(payload) is None

    def test_zero_trace_id_rejected(self):
        payload = TraceContext(trace_id=1).encode_option()
        zeroed = b"\x00" * 8 + payload[8:]
        assert TraceContext.decode_option(zeroed) is None

    def test_option_code_is_local_use(self):
        # RFC 6891 section 9 reserves 65001-65534 for local use.
        assert 65001 <= TRACE_OPTION_CODE <= 65534


class TestTraceparent:
    def test_round_trip(self):
        context = TraceContext(trace_id=0xABC, span_id=0x123, sampled=True)
        assert TraceContext.from_traceparent(context.to_traceparent()) == context

    def test_unsampled_flag_round_trips(self):
        context = TraceContext(trace_id=7, span_id=8, sampled=False)
        assert TraceContext.from_traceparent(context.to_traceparent()) == context

    @pytest.mark.parametrize("value", [
        None,
        "",
        "garbage",
        "00-zz-11-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # zero trace id
        "00-abc",  # too few fields
    ])
    def test_malformed_degrades_to_none(self, value):
        assert TraceContext.from_traceparent(value) is None

    def test_child_reparents_for_next_hop(self):
        context = TraceContext(trace_id=10, span_id=1)
        child = context.child(42)
        assert child.trace_id == 10
        assert child.span_id == 42
        assert child.sampled == context.sampled


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None

    def test_use_context_scopes(self):
        context = TraceContext(trace_id=3)
        with use_context(context):
            assert current_context() is context
        assert current_context() is None

    def test_isolated_between_asyncio_tasks(self):
        async def worker(trace_id):
            with use_context(TraceContext(trace_id=trace_id)):
                await asyncio.sleep(0.001)
                return current_context().trace_id

        async def main():
            return await asyncio.gather(*(worker(i + 1) for i in range(8)))

        assert asyncio.run(main()) == [1, 2, 3, 4, 5, 6, 7, 8]


class TestAssembleChains:
    def _traced_run(self):
        tracer = EventTracer()
        for trace_id in (1, 2):
            with use_context(TraceContext(trace_id=trace_id)):
                with tracer.span("client.request", ts=0.0):
                    with tracer.span("client.fetch", ts=0.1):
                        pass
        return tracer

    def test_groups_by_trace_id(self):
        chains = assemble_chains(self._traced_run().records())
        assert [c.trace_id for c in chains] == [1, 2]
        assert all(len(c.spans) == 2 for c in chains)

    def test_complete_requires_a_root(self):
        tracer = self._traced_run()
        chains = assemble_chains(tracer.records())
        assert all(c.complete for c in chains)
        # A chain whose root span never arrived is incomplete: simulate
        # by keeping only the child span records.
        children = tuple(
            r for r in tracer.records() if r.name == "client.fetch"
        )
        partial = assemble_chains(children)
        assert partial and not any(c.complete for c in partial)

    def test_untraced_records_are_ignored(self):
        tracer = EventTracer()
        with tracer.span("engine.step", ts=0.0):
            pass
        assert assemble_chains(tracer.records()) == []


class TestTracerIntegration:
    def test_server_span_adopts_remote_parent(self):
        tracer = EventTracer()
        remote = TraceContext(trace_id=77, span_id=1234)
        with use_context(remote):
            with tracer.span("serve.dns.query", ts=0.0):
                pass
        record = tracer.records()[0]
        assert record.trace_id == 77
        assert record.parent_id == 1234

    def test_unsampled_context_drops_spans(self):
        tracer = EventTracer()
        with use_context(TraceContext(trace_id=9, sampled=False)):
            with tracer.span("serve.dns.query", ts=0.0) as span:
                span.annotate(ignored=True)
            tracer.event("offload_engaged", ts=0.0)
        assert tracer.records() == ()
        assert tracer.stats()["sampled_out"] == 2

    def test_ambient_tracer_pairs_with_context(self):
        tracer = EventTracer()
        with use_tracer(tracer), use_context(TraceContext(trace_id=5)):
            with tracer.span("a", ts=0.0):
                pass
        assert tracer.records()[0].trace_id == 5
