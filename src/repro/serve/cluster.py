"""One-call topology: the whole Meta-CDN estate behind live sockets.

:class:`ServeCluster` boots the serving layer on loopback — the
authoritative DNS estate (Apple, Akamai and Limelight zones behind one
:class:`~repro.serve.dnsserver.AsyncDnsServer`) plus the HTTP edge
fronting every delivery fleet — and can drive the closed-loop load
generator against itself (:func:`repro.serve.harness.selftest` wraps
boot, drive, tear down and verdict in one call).

The default estate is sized for loopback (a few third-party servers per
metro instead of dozens) but structurally identical to the full
scenario estate: the same Figure 2 chain, policies, TTLs and cache
hierarchy — just fewer cache servers behind each GSLB answer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..apple.deployment import AppleCdn
from ..apple.mapping import MetaCdnEstate, build_meta_cdn
from ..apple.policy import MetaCdnController
from ..cdn.thirdparty import AKAMAI_PLAN, LIMELIGHT_PLAN, build_third_party
from ..faults import CdnHealthMonitor, FailoverConfig, FailoverLoop, FaultInjector, FaultSchedule
from ..net.asys import ASN
from ..net.geo import MappingRegion
from ..net.locode import LocodeDatabase
from ..obs import get_registry, get_tracer
from ..resolver import check_population
from .clients import ClientDirectory
from .dnsserver import AsyncDnsServer
from .httpserver import AsyncHttpEdge, estate_router
from .listener import RunClock
from .loadgen import LoadConfig, LoadGenerator, LoadReport

__all__ = [
    "ClusterConfig",
    "build_serve_estate",
    "ServeCluster",
]

# Hosting ASs for the third-party "other AS" caches (the serve layer
# does not model BGP; any distinct ASNs work).
_AS_HOSTER_AKAMAI = ASN(64512)
_AS_HOSTER_LIMELIGHT = ASN(64513)

_SERVE_METROS = (
    "usnyc", "uslax", "defra", "uklon", "jptyo", "sgsin", "ausyd", "brsao",
)
_APPLE_EDGE_GBPS = 14.0
# Apple's own fill target, and the share its standing contracts keep on
# the third parties even with no demand observed (so a load run
# exercises Apple GSLB, Akamai and Limelight resolutions side by side).
_TARGET_UTILIZATION = 0.95
_MIN_THIRD_PARTY_SHARE = 0.35


@dataclass
class ClusterConfig:
    """One edge, described once: size, faults, resolvers.

    Every edge is built from it — :class:`ServeCluster` for ``repro
    serve`` / ``selftest`` and the chaos drill's edge — and construction
    refuses what no edge can run.
    """

    object_size: int = 262_144
    servers_per_metro: int = 8
    # Scheduled faults in run-relative seconds, and the health loop
    # that reacts to them.
    faults: Optional[FaultSchedule] = None
    failover: FailoverConfig = FailoverConfig()
    # Resolver population: "isp" keeps the classic per-client path;
    # "mixed" boots a PublicResolverFront (shared POP caches) the load
    # generator resolves through for the public share.
    resolver_population: str = "isp"
    public_resolver_share: float = 0.5
    public_resolver_ecs: bool = True
    public_resolver_scope: int = 24

    def __post_init__(self) -> None:
        if self.object_size <= 0:
            raise ValueError("object_size must be positive")
        if self.servers_per_metro <= 0:
            raise ValueError("servers_per_metro must be positive")
        check_population(
            self.resolver_population,
            self.public_resolver_share,
            self.public_resolver_scope,
        )

    @property
    def loadgen_resolver_share(self) -> float:
        """The client fraction that resolves through the front."""
        if self.resolver_population == "isp":
            return 0.0
        return self.public_resolver_share

    def loadgen_config(self, load: Optional[LoadConfig] = None) -> LoadConfig:
        """``load`` as driven against this edge: a public resolver share
        of None becomes :attr:`loadgen_resolver_share`."""
        load = load if load is not None else LoadConfig()
        if load.public_resolver_share is not None:
            return load
        return replace(load, public_resolver_share=self.loadgen_resolver_share)


def build_serve_estate(
    config: Optional[ClusterConfig] = None,
    health_monitor: Optional[CdnHealthMonitor] = None,
) -> MetaCdnEstate:
    """A loopback-sized Meta-CDN estate with the full Figure 2 chain.

    ``health_monitor`` hooks the selection policies to the failover
    plane (see :mod:`repro.faults.health`).
    """
    config = config if config is not None else ClusterConfig()
    locations = LocodeDatabase.builtin()
    apple = AppleCdn.build(locations, edge_bx_gbps=_APPLE_EDGE_GBPS)
    metros = [locations.get(code) for code in _SERVE_METROS]
    akamai = build_third_party(
        replace(AKAMAI_PLAN, servers_per_metro=config.servers_per_metro),
        metros,
        other_as=_AS_HOSTER_AKAMAI,
    )
    limelight = build_third_party(
        replace(LIMELIGHT_PLAN, servers_per_metro=config.servers_per_metro),
        metros,
        other_as=_AS_HOSTER_LIMELIGHT,
    )
    controller = MetaCdnController(
        {
            region: apple.deployment.region_capacity_gbps(region)
            for region in MappingRegion
        },
        target_utilization=_TARGET_UTILIZATION,
        min_third_party_share=_MIN_THIRD_PARTY_SHARE,
    )
    return build_meta_cdn(
        apple, akamai, limelight, controller, health_monitor=health_monitor
    )


class ServeCluster:
    """The serving topology on loopback: DNS + HTTP + shared directory.

    Usable as an async context manager::

        async with ServeCluster() as cluster:
            report = await cluster.drive(LoadConfig(requests=500))

    :attr:`clock` is the edge's one clock — ``clock`` when given, else
    seconds since :meth:`start` — and everything time-dependent reads
    it: DNS contexts, the front's cache expiry, span stamps on both
    servers and the fault plane.
    """

    def __init__(
        self,
        estate: Optional[MetaCdnEstate] = None,
        directory: Optional[ClientDirectory] = None,
        config: Optional[ClusterConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.config = config = config if config is not None else ClusterConfig()
        self.directory = (
            directory if directory is not None else ClientDirectory.from_adoption()
        )
        registry = metrics if metrics is not None else get_registry()
        tracer = tracer if tracer is not None else get_tracer()
        self._tracer = tracer
        self.clock = clock if clock is not None else RunClock()
        faults: Optional[FaultInjector] = None
        self.health_monitor: Optional[CdnHealthMonitor] = None
        self.failover_loop: Optional[FailoverLoop] = None
        self._failover_task: Optional[asyncio.Task] = None
        if config.faults is not None and len(config.faults):
            if estate is not None:
                raise ValueError(
                    "pass a ClusterConfig, not a prebuilt estate, when "
                    "injecting faults (health hooks are wired at build time)"
                )
            self.failover_loop = FailoverLoop.build(
                config.faults, config.failover,
                clock=self.clock, metrics=registry, tracer=tracer,
            )
            self.health_monitor = self.failover_loop.monitor
            faults = self.failover_loop.injector
            self.estate = build_serve_estate(
                config, health_monitor=self.health_monitor
            )
            self.estate.apple.install_fault_injector(faults)
        else:
            self.estate = (
                estate if estate is not None else build_serve_estate(config)
            )
        self.dns = AsyncDnsServer(
            self.estate.servers,
            directory=self.directory,
            clock=self.clock,
            metrics=registry,
            faults=faults,
            tracer=tracer,
        )
        self.http = AsyncHttpEdge(
            estate_router(self.estate),
            object_size=config.object_size,
            metrics=registry,
            faults=faults,
            operator_for=self.estate.deployment_at,
            tracer=tracer,
            clock=self.clock,
        )
        # A public-resolver front between the loadgen and the DNS
        # server, when the config asks for a public population.
        self.resolver_front = None
        if config.resolver_population != "isp":
            from .resolverfront import PublicResolverFront

            self.resolver_front = PublicResolverFront(
                directory=self.directory,
                ecs=config.public_resolver_ecs,
                scope=config.public_resolver_scope,
                metrics=registry,
                clock=self.clock,
            )
        self._registry = registry

    async def _failover_runner(self, interval: float) -> None:
        assert self.failover_loop is not None
        while True:
            self.failover_loop.advance(self.clock())
            await asyncio.sleep(interval)

    async def start(self, host: str = "127.0.0.1", dns_port: int = 0,
                    http_port: int = 0, resolver_port: int = 0,
                    reuse_port: bool = False, *,
                    admin_port: None = None) -> "ServeCluster":
        """Boot both servers (ephemeral ports by default).

        ``reuse_port`` binds the sockets ``SO_REUSEPORT`` so sibling
        workers can share the same ports.  ``resolver_port`` binds the
        public-resolver front (when the config enables one).  A bind
        that fails stops what was already bound, then re-raises.
        """
        # Only the frozen perf ledger passes it (None); ledger v2 drops it.
        if admin_port is not None:
            raise ValueError("the edge has no admin endpoint")
        if isinstance(self.clock, RunClock):
            self.clock.start()
        try:
            await self.dns.start(host=host, port=dns_port, reuse_port=reuse_port)
            await self.http.start(host=host, port=http_port, reuse_port=reuse_port)
            if self.resolver_front is not None:
                await self.resolver_front.start(
                    self.dns.endpoint,
                    host=host, port=resolver_port, reuse_port=reuse_port,
                )
        except BaseException:
            await self.stop()
            raise
        if self.failover_loop is not None:
            interval = max(0.05, self.config.failover.probe_interval / 2.0)
            self._failover_task = asyncio.create_task(
                self._failover_runner(interval)
            )
        return self

    async def stop(self) -> None:
        """Tear both servers down."""
        if self._failover_task is not None:
            self._failover_task.cancel()
            try:
                await self._failover_task
            except asyncio.CancelledError:
                pass
            self._failover_task = None
        if self.resolver_front is not None:
            await self.resolver_front.stop()
        await self.http.stop()
        await self.dns.stop()

    async def __aenter__(self) -> "ServeCluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def drive(self, config: Optional[LoadConfig] = None) -> LoadReport:
        """Run the load generator against this cluster's endpoints.

        A config that leaves the public resolver share unset takes the
        cluster's (:meth:`ClusterConfig.loadgen_config`), so a public
        population reaches the shared POP caches.
        """
        front = self.resolver_front
        generator = LoadGenerator(
            dns_endpoint=self.dns.endpoint,
            http_endpoint=self.http.endpoint,
            directory=self.directory,
            config=self.config.loadgen_config(config),
            metrics=self._registry,
            tracer=self._tracer,
            resolver_endpoint=front.endpoint if front is not None else None,
        )
        return await generator.run()
