"""Live serving layer: the modelled Meta-CDN behind real sockets.

Everything the rest of the repository models in memory — the Figure 2
authoritative DNS estate, the vip → edge-bx → edge-lx cache hierarchy,
the flash-crowd workload — is made network-reachable here:

* :mod:`repro.serve.dnsserver` — an asyncio authoritative DNS server
  (UDP with TCP fallback for truncated responses) over RFC 1035 wire
  bytes, honouring EDNS Client Subnet;
* :mod:`repro.serve.httpserver` — an asyncio HTTP/1.1 edge emitting the
  ``Via``/``X-Cache`` chains the §3.3 header inference parses;
* :mod:`repro.serve.dnsclient` — the wire DNS client (UDP, TCP
  fallback, ECS, retries, hedging, the CNAME chase) every asking
  component shares;
* :mod:`repro.serve.httpclient` — the pooled keep-alive HTTP client;
* :mod:`repro.serve.loadgen` — a closed-loop load generator replaying
  the workload model as concurrent wire resolutions and ranged
  downloads over those two clients;
* :mod:`repro.serve.clients` — the shared client-address ⇄ geography
  contract both ends rely on;
* :mod:`repro.serve.udp` — the one UDP endpoint opener of the DNS paths
  (reads sized to a datagram, not to asyncio's 256 KiB default);
* :mod:`repro.serve.listener` — the one listener lifecycle (bind,
  endpoint, connection tracking, drain) under all three servers;
* :mod:`repro.serve.resolverfront` — a caching public-resolver front
  (shared POP caches, honest ECS scopes) the loadgen's public share
  resolves through;
* :mod:`repro.serve.cluster` — the one-call loopback topology;
* :mod:`repro.serve.harness` — the one place per concern (standing
  edge, load run, selftest, watched drill) that runs the edge, always
  in one process.

:mod:`repro.serve.fleet` and :mod:`repro.serve.snapshot` (a forked
``SO_REUSEPORT`` fleet and its checksummed spec) serve only the perf
ledger's fleet row; no command boots them.
"""

from .clients import DEFAULT_VANTAGES, ClientDirectory, SampledClient, Vantage
from .cluster import ClusterConfig, ServeCluster, build_serve_estate
from .dnsclient import AsyncDnsClient, DnsClientError, WireResolution
from .dnsserver import AsyncDnsServer, ZoneFrontend
from .fleet import FleetConfig, ServeFleet, fleet_supported
from .harness import SelftestReport, ShapeError, drive_load, selftest, serve_forever
from .httpclient import PooledHttpClient
from .httpserver import AsyncHttpEdge, estate_router
from .loadgen import LoadConfig, LoadGenerator, LoadReport, merge_load_reports
from .resilience import BackoffPolicy, CircuitBreaker, HedgePolicy
from .resolverfront import PublicResolverFront
from .snapshot import FleetSpec, estate_signature, load_snapshot, write_snapshot

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "HedgePolicy",
    "Vantage",
    "SampledClient",
    "ClientDirectory",
    "DEFAULT_VANTAGES",
    "ZoneFrontend",
    "AsyncDnsServer",
    "AsyncHttpEdge",
    "estate_router",
    "AsyncDnsClient",
    "DnsClientError",
    "WireResolution",
    "PooledHttpClient",
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
    "PublicResolverFront",
    "ClusterConfig",
    "build_serve_estate",
    "ServeCluster",
    "merge_load_reports",
    "FleetSpec",
    "estate_signature",
    "write_snapshot",
    "load_snapshot",
    "FleetConfig",
    "ServeFleet",
    "fleet_supported",
    "ShapeError",
    "serve_forever",
    "drive_load",
    "SelftestReport",
    "selftest",
]
