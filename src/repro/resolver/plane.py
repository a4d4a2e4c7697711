"""The resolver-population plane: shared POP caches behind probe stubs.

Determinism is the design constraint here.  Sharded engine runs build
one scenario replica per worker and each replica measures a slice of
the probes, so anything a shared cache answers must be a pure function
of (campaign, POP, partition, tick) — never of which other probes
happen to share the worker.  Two rules enforce that:

* **Canonical contexts.**  Every query a POP sends upstream uses a
  context derived from the *full* probe population at build time, not
  from the querying probe: the POP's own geography when ECS is off,
  or a canonical representative (lowest probe id) of the scope-prefix
  partition when ECS is on.  Whichever probe of a partition touches
  the cache first in some replica, the authoritative chain sees the
  same question from the same place at the same time.

* **Per-campaign caches.**  Campaigns tick on different lattices (the
  global RIPE set every 30 min, the ISP set every 12 h); mixing them
  in one cache would make an entry's age depend on which campaigns a
  replica hosts.  Each (campaign, POP) pair gets its own shared
  resolver, mirroring how the real measurement sets hit disjoint
  resolver frontends.

Per-probe hit/miss *flags* still depend on intra-replica order — which
is why :class:`~repro.atlas.results.DnsMeasurement` records only the
chain and addresses, and all cache-behaviour aggregates are recomputed
analytically by :class:`~repro.analysis.resolver_accuracy.ResolverAccuracy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..atlas.probe import AtlasProbe
from ..dns.policies import stable_fraction
from ..dns.query import QueryContext
from ..dns.resolver import (
    RecursiveResolver,
    Resolution,
    ResolverCacheStats,
)
from ..dns.zone import AuthoritativeServer
from ..net.ipv4 import IPv4Address, IPv4Prefix
from .pops import DEFAULT_POPS, POP_CACHE_CAPACITY, ResolverPop, nearest_pop

__all__ = [
    "POPULATIONS",
    "PopGroup",
    "PopStubResolver",
    "ResolverPlane",
    "check_population",
    "is_public_client",
]

_ASSIGNMENT_SALT = "resolver-population"

# Who resolves for the clients: their own ISP-path resolvers, or a
# fixed share behind shared public-resolver POP caches (share 1.0 puts
# every client there).
POPULATIONS = ("isp", "mixed")


def is_public_client(key, share: float) -> bool:
    """Whether client ``key`` resolves through a public resolver.

    The one population rule: a stable draw per key under ``share``, so
    the engine's plane (keyed by probe id) and the live load generator
    (keyed by sequence number) split the same way in every scenario
    replica and every generator process.
    """
    return stable_fraction(_ASSIGNMENT_SALT, key) < share


def check_population(population: str, share: float, scope: int) -> None:
    """Reject a resolver population, public share or ECS scope that
    neither the engine's plane nor the live front runs."""
    if population not in POPULATIONS:
        raise ValueError(
            f"unknown resolver population {population!r} "
            f"(valid: {', '.join(POPULATIONS)})"
        )
    if not 0.0 <= share <= 1.0:
        raise ValueError("public_resolver_share must be within [0, 1]")
    if not 0 <= scope <= 32:
        raise ValueError("public_resolver_scope must be within [0, 32]")


class PopStubResolver:
    """A probe-side stand-in routing resolutions through a shared POP cache.

    Quacks like the slice of :class:`~repro.dns.resolver.RecursiveResolver`
    the campaign machinery uses (``servers``, ``resolve``, ``chases_as``),
    but holds no cache of its own: every chase is reframed onto the
    plane's canonical context — only the wall-clock ``now`` of the
    querying probe survives — and runs on the POP's shared resolver.
    """

    def __init__(self, shared: RecursiveResolver, canonical: QueryContext) -> None:
        self._shared = shared
        self._canonical = canonical

    @property
    def servers(self) -> tuple[AuthoritativeServer, ...]:
        """The shared resolver's authoritative universe."""
        return self._shared.servers

    @property
    def shared(self) -> RecursiveResolver:
        """The POP-level resolver actually doing the work."""
        return self._shared

    def reframe(self, context: QueryContext) -> QueryContext:
        """The canonical context at the querying probe's time."""
        return self._canonical.at(context.now)

    def resolve(self, name: str, context: QueryContext) -> Resolution:
        return self._shared.resolve(name, self.reframe(context))

    def chases_as(
        self, context: QueryContext
    ) -> tuple[RecursiveResolver, QueryContext]:
        """The shared resolver, asked from the reframed ``context``."""
        return self._shared, self.reframe(context)

    def cache_stats(self) -> ResolverCacheStats:
        """The shared cache's counters (POP-level, not per-probe)."""
        return self._shared.cache_stats()


@dataclass(frozen=True)
class PopGroup:
    """One shared-cache partition: who shares it and as whom it asks.

    ``partition`` is the scope-truncated network the POP announces via
    ECS, or ``None`` when ECS is off (the POP-wide partition).
    """

    campaign: str
    pop: ResolverPop
    partition: Optional[IPv4Address]
    canonical: QueryContext
    member_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.member_ids)


class ResolverPlane:
    """Assigns probes to public-resolver POPs and installs the stubs.

    ``populations`` maps campaign names to their probe lists; each
    campaign gets its own per-POP shared caches (see the module
    docstring for why).  A stable ``public_share`` fraction of the
    probes resolves through a POP (all of them at 1.0); the rest keep
    their ISP-path resolvers untouched.
    """

    def __init__(
        self,
        servers: Iterable[AuthoritativeServer],
        populations: dict[str, Sequence[AtlasProbe]],
        public_share: float = 0.5,
        ecs: bool = True,
        scope: int = 24,
    ) -> None:
        check_population("mixed", public_share, scope)
        self.public_share = public_share
        self.ecs = ecs
        self.scope = scope
        self._servers = list(servers)
        self._populations = {
            name: tuple(probes) for name, probes in populations.items()
        }
        self.pop_of: dict[int, ResolverPop] = {}
        self._caches: dict[tuple[str, str], RecursiveResolver] = {}
        self._groups: dict[str, tuple[PopGroup, ...]] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def is_public(self, probe_id: int) -> bool:
        """Whether ``probe_id`` resolves through a public POP.

        Keyed by probe id alone so the split is identical in every
        scenario replica and independent of campaign membership.
        """
        return is_public_client(probe_id, self.public_share)

    def _partition_of(self, probe: AtlasProbe) -> Optional[IPv4Address]:
        if not self.ecs:
            return None
        return IPv4Prefix.containing(probe.address, self.scope).network

    def _build(self) -> None:
        for campaign, probes in self._populations.items():
            members: dict[tuple[str, Optional[IPv4Address]], list[AtlasProbe]] = {}
            order: list[tuple[str, Optional[IPv4Address]]] = []
            for probe in probes:
                if not self.is_public(probe.probe_id):
                    continue
                pop = nearest_pop(probe.coordinates, DEFAULT_POPS)
                self.pop_of[probe.probe_id] = pop
                key = (pop.pop_id, self._partition_of(probe))
                if key not in members:
                    members[key] = []
                    order.append(key)
                members[key].append(probe)
            groups: list[PopGroup] = []
            pops_by_id = {pop.pop_id: pop for pop in DEFAULT_POPS}
            for key in order:
                pop_id, partition = key
                pop = pops_by_id[pop_id]
                group = sorted(members[key], key=lambda p: p.probe_id)
                representative = group[0]
                if partition is None:
                    canonical = pop.context()
                else:
                    # The chain sees the announced ECS prefix with the
                    # representative's geography: deterministic because
                    # the representative is chosen from the full
                    # population, before any sharding.
                    canonical = QueryContext(
                        client=partition,
                        coordinates=representative.coordinates,
                        continent=representative.continent,
                        country=representative.country,
                        now=0.0,
                    )
                groups.append(
                    PopGroup(
                        campaign=campaign,
                        pop=pop,
                        partition=partition,
                        canonical=canonical,
                        member_ids=tuple(p.probe_id for p in group),
                    )
                )
            self._groups[campaign] = tuple(groups)

    def shared_resolver(self, campaign: str, pop: ResolverPop) -> RecursiveResolver:
        """The one shared cache for (``campaign``, ``pop``)."""
        key = (campaign, pop.pop_id)
        resolver = self._caches.get(key)
        if resolver is None:
            resolver = RecursiveResolver(
                self._servers,
                cache=True,
                cache_scope=self.scope if self.ecs else 0,
                cache_capacity=POP_CACHE_CAPACITY,
            )
            self._caches[key] = resolver
        return resolver

    def install(self) -> int:
        """Rebind every public probe's resolver to its POP stub.

        Returns the number of probes rerouted.  Probes on the ISP path
        keep the per-client resolver they were placed with.
        """
        installed = 0
        for campaign, probes in self._populations.items():
            canonical_by_id: dict[int, QueryContext] = {}
            for group in self._groups[campaign]:
                for probe_id in group.member_ids:
                    canonical_by_id[probe_id] = group.canonical
            for probe in probes:
                canonical = canonical_by_id.get(probe.probe_id)
                if canonical is None:
                    continue
                pop = self.pop_of[probe.probe_id]
                probe.resolver = PopStubResolver(
                    self.shared_resolver(campaign, pop), canonical
                )
                installed += 1
        return installed

    # ------------------------------------------------------------------
    # lookups used by analyses and the admin plane
    # ------------------------------------------------------------------

    @property
    def campaigns(self) -> tuple[str, ...]:
        return tuple(self._populations)

    def probes(self, campaign: str) -> tuple[AtlasProbe, ...]:
        """All probes of ``campaign`` (public and ISP-path alike)."""
        return self._populations[campaign]

    def groups(self, campaign: str) -> tuple[PopGroup, ...]:
        """The shared-cache partitions of ``campaign``, build order."""
        return self._groups[campaign]

    def live_pops(self) -> tuple[ResolverPop, ...]:
        """POPs with at least one assigned probe, by pop id."""
        seen = {pop.pop_id: pop for pop in self.pop_of.values()}
        return tuple(seen[pop_id] for pop_id in sorted(seen))

    def cache_stats(self) -> dict[str, ResolverCacheStats]:
        """Per-(campaign, POP) shared-cache counters, sorted by key."""
        return {
            f"{campaign}/{pop_id}": resolver.cache_stats()
            for (campaign, pop_id), resolver in sorted(self._caches.items())
        }
