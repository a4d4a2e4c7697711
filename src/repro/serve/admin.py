"""Live admin plane: scrape metrics, health and traces off a running cluster.

:class:`AdminServer` is a deliberately tiny asyncio HTTP/1.0-style
endpoint (one request per connection, always ``Connection: close``)
that exposes the cluster's observability state while it serves:

* ``GET /metrics`` — the registry in Prometheus text exposition, the
  same bytes :func:`repro.obs.export.render_exposition` writes to
  files, so any scrape tool (or ``repro top``) can poll it live;
* ``GET /healthz`` — the :class:`~repro.faults.health.CdnHealthMonitor`
  member states as JSON; HTTP 200 while every member is healthy, 503
  once any member is marked down (load-balancer semantics);
* ``GET /traces?tail=N`` — the most recent N *completed* causal chains
  from the tracer's ring buffer, one JSON object per line (see
  :func:`repro.obs.trace_context.assemble_chains`).

The admin listener is separate from the serving sockets: scraping must
never contend with the data path's accept queue.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from ..http.wire import HeadReader, encode_head, status_line
from ..obs import assemble_chains, get_registry, get_tracer, render_exposition
from .deadline import deadline
from .listener import Listener

__all__ = ["AdminServer"]

_READ_TIMEOUT = 10.0
_MAX_HEAD_BYTES = 8192
_DEFAULT_TAIL = 20
_MAX_TAIL = 1000


class AdminServer:
    """Serves ``/metrics``, ``/healthz`` and ``/traces`` for one cluster."""

    def __init__(
        self,
        registry=None,
        tracer=None,
        health_monitor=None,
    ) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._health = health_monitor
        self._listener = Listener("admin server", stream=self._handle)

    @property
    def endpoint(self) -> tuple:
        """(host, port) once started."""
        return self._listener.endpoint

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Start listening; returns the bound endpoint."""
        return await self._listener.start(host, port)

    async def stop(self) -> None:
        """Stop accepting and drain in-flight scrapes."""
        await self._listener.stop()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        # One deadline for the whole head (nothing in the header block
        # matters here, but it is read, and bounded, all the same).
        heads = HeadReader(reader)
        with deadline(_READ_TIMEOUT):
            head = await heads.read_head(_MAX_HEAD_BYTES)
        if head is None and heads.at_eof():
            return
        self._listener.busy.add(writer)
        if head is None:
            reply = 400, "text/plain", "request head too large\n"
        else:
            parts = head[0].split()
            if len(parts) < 2 or parts[0] != "GET":
                reply = 405, "text/plain", "only GET is supported\n"
            else:
                reply = self._route(parts[1])
        await self._send(writer, *reply)

    def _route(self, target: str) -> tuple:
        split = urlsplit(target)
        path = split.path
        if path == "/metrics":
            return (200, "text/plain; version=0.0.4",
                    render_exposition(self._registry))
        if path == "/healthz":
            return self._healthz()
        if path == "/traces":
            return self._traces(parse_qs(split.query))
        return 404, "text/plain", f"no route for {path}\n"

    def _healthz(self) -> tuple:
        members: dict = {}
        unhealthy = 0
        if self._health is not None:
            for member in self._health.members:
                state = self._health.state(member)
                members[member] = state.value
                if state.name != "HEALTHY":
                    unhealthy += 1
        payload = {
            "status": "ok" if unhealthy == 0 else "degraded",
            "members": members,
        }
        status = 200 if unhealthy == 0 else 503
        return status, "application/json", json.dumps(payload) + "\n"

    def _traces(self, query: dict) -> tuple:
        try:
            tail = int(query.get("tail", [str(_DEFAULT_TAIL)])[0])
        except ValueError:
            return 400, "text/plain", "tail must be an integer\n"
        tail = max(1, min(tail, _MAX_TAIL))
        chains = assemble_chains(self._tracer.records(), complete_only=True)
        lines = [json.dumps(chain.to_json()) for chain in chains[-tail:]]
        body = "\n".join(lines) + ("\n" if lines else "")
        return 200, "application/x-ndjson", body

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        head = encode_head(status_line(status), [
            ("Content-Type", content_type),
            ("Content-Length", len(payload)),
            ("Connection", "close"),
        ])
        writer.write(head + payload)
        await writer.drain()
