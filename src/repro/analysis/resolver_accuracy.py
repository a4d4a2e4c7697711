"""Mapping accuracy under public-resolver populations.

The paper's probes resolve on their own ISP path, so the Meta-CDN's
location-based DNS sees every client exactly.  Behind a shared public
resolver it sees the POP (ECS off) or a truncated prefix (ECS on) —
three measurable effects this module quantifies from a finished run:

* **Mis-mapping distance** — how much farther the selected edge is
  from each client than the nearest edge in rotation would have been
  (reusing :func:`~repro.net.geo.great_circle_km`), for probes behind
  POPs vs probes on the ISP path.
* **Selection responsiveness** — how long after the release-time
  weight flip a shared cache first re-resolves the terminal selection
  hop, per POP (the TTL-15 re-steer seen through a shared cache).
* **Cache-hit dilution** — the shared cache's hit ratio against the
  ISP-path counterfactual for the same probes over the same tick grid.

All aggregates are *recomputed analytically* by replaying the cache
timeline over each campaign's measured tick grid with fresh resolvers,
never read from runtime counters: per-probe hit/miss flags depend on
intra-worker ordering, so runtime counters are shard-dependent while
this replay — like the measurements themselves — is a pure function of
the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from ..dns.resolver import RecursiveResolver, ResolutionError
from ..net.geo import Coordinates, great_circle_km
from ..obs import NullRegistry
from ..resolver import POP_CACHE_CAPACITY

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.scenario import Sep2017Scenario

__all__ = ["ResolverAccuracy"]


def _nearest_km(origin: Coordinates, candidates: list[Coordinates]) -> float:
    best = float("inf")
    for coordinates in candidates:
        km = great_circle_km(origin, coordinates)
        if km < best:
            best = km
    return best


@dataclass(frozen=True)
class ResolverAccuracy:
    """Run-level mapping-accuracy aggregates for the resolver plane."""

    population: str
    public_share: float
    ecs: bool
    scope: int
    pops_live: int = 0
    partitions: int = 0
    public_probes: int = 0
    isp_probes: int = 0
    # Mean km from client to the edges it was handed vs the nearest
    # edge observed in rotation; the delta is the mapping price of the
    # resolver path.
    public_mismap_km: float = 0.0
    public_nearest_km: float = 0.0
    public_mismap_delta_km: float = 0.0
    isp_mismap_km: float = 0.0
    isp_nearest_km: float = 0.0
    isp_mismap_delta_km: float = 0.0
    # Shared-cache behaviour vs the ISP-path counterfactual.
    shared_hits: int = 0
    shared_misses: int = 0
    isp_hits: int = 0
    isp_misses: int = 0
    public_hit_ratio: float = 0.0
    isp_hit_ratio: float = 0.0
    cache_hit_dilution: float = 0.0  # public minus counterfactual
    # Seconds from the release-time weight flip until a shared cache
    # first re-resolved the terminal selection hop.
    propagation_by_pop: dict = field(default_factory=dict)
    propagation_seconds: float = 0.0
    isp_propagation_seconds: float = 0.0

    @classmethod
    def from_scenario(cls, scenario: "Sep2017Scenario") -> "ResolverAccuracy":
        """Fold a finished run's stores and resolver plane (empty is fine)."""
        plane = scenario.resolver_plane
        if plane is None:
            raise ValueError(
                "scenario has no resolver plane "
                "(resolver_population is 'isp')"
            )
        config = scenario.config
        campaigns = {
            "ripe-global": scenario.global_campaign,
            "ripe-isp": scenario.isp_campaign,
        }
        coordinates_of = _server_coordinates(scenario)
        quiet = NullRegistry()
        flip = scenario.timeline.ios_11_0_release

        public_sel: list[float] = []
        public_near: list[float] = []
        isp_sel: list[float] = []
        isp_near: list[float] = []
        shared_hits = shared_misses = 0
        isp_hits = isp_misses = 0
        propagation: dict[str, list[float]] = {}
        isp_propagation: list[float] = []
        partitions = 0
        public_probes: set[int] = set()
        isp_path_probes: set[int] = set()

        for name, campaign in campaigns.items():
            if name not in plane.campaigns:
                continue
            probes_by_id = {p.probe_id: p for p in plane.probes(name)}
            for probe in plane.probes(name):
                if probe.probe_id in plane.pop_of:
                    public_probes.add(probe.probe_id)
                else:
                    isp_path_probes.add(probe.probe_id)

            # --- mis-mapping from the recorded measurements -----------
            # "Nearest" is judged against the edges this campaign
            # actually saw in rotation, not the whole estate.
            candidates = sorted(
                {
                    address
                    for address in campaign.store.unique_addresses()
                    if address in coordinates_of
                }
            )
            candidate_coords = [coordinates_of[a] for a in candidates]
            grid: set[float] = set()
            for measurement in campaign.store.dns:
                grid.add(measurement.timestamp)
                probe = probes_by_id.get(measurement.probe_id)
                if probe is None or not measurement.addresses:
                    continue
                known = [
                    coordinates_of[a]
                    for a in measurement.addresses
                    if a in coordinates_of
                ]
                if not known or not candidate_coords:
                    continue
                selected = sum(
                    great_circle_km(probe.coordinates, c) for c in known
                ) / len(known)
                nearest = _nearest_km(probe.coordinates, candidate_coords)
                if measurement.probe_id in plane.pop_of:
                    public_sel.append(selected)
                    public_near.append(nearest)
                else:
                    isp_sel.append(selected)
                    isp_near.append(nearest)

            # --- cache replay over the measured tick grid -------------
            ticks = sorted(grid)
            if not ticks:
                partitions += len(plane.groups(name))
                continue
            groups_by_pop: dict[str, list] = {}
            for group in plane.groups(name):
                groups_by_pop.setdefault(group.pop.pop_id, []).append(group)
            partitions += len(plane.groups(name))
            for pop_id, groups in groups_by_pop.items():
                shared = RecursiveResolver(
                    scenario.estate.servers,
                    cache=True,
                    metrics=quiet,
                    cache_scope=plane.scope if plane.ecs else 0,
                    cache_capacity=POP_CACHE_CAPACITY,
                )
                flipped: dict[int, bool] = {i: False for i in range(len(groups))}
                for tick in ticks:
                    for index, group in enumerate(groups):
                        context = replace(group.canonical, now=tick)
                        try:
                            outcome = shared.resolve(campaign.target, context)
                        except ResolutionError:
                            continue
                        hops = len(outcome.steps)
                        fresh = sum(
                            1 for s in outcome.steps if not s.from_cache
                        )
                        shared_misses += fresh
                        shared_hits += (hops - fresh) + (group.size - 1) * hops
                        terminal_fresh = (
                            outcome.steps and not outcome.steps[-1].from_cache
                        )
                        if (
                            not flipped[index]
                            and tick >= flip
                            and terminal_fresh
                        ):
                            flipped[index] = True
                            propagation.setdefault(pop_id, []).append(
                                tick - flip
                            )
                # ISP-path counterfactual: the same clients with
                # per-client caches walk an identical TTL lattice, so
                # one replay per partition scales by its size.
                for group in groups:
                    private = RecursiveResolver(
                        scenario.estate.servers, cache=True, metrics=quiet
                    )
                    seen_flip = False
                    for tick in ticks:
                        context = replace(group.canonical, now=tick)
                        try:
                            outcome = private.resolve(campaign.target, context)
                        except ResolutionError:
                            continue
                        hops = len(outcome.steps)
                        fresh = sum(
                            1 for s in outcome.steps if not s.from_cache
                        )
                        isp_misses += fresh * group.size
                        isp_hits += (hops - fresh) * group.size
                        if (
                            not seen_flip
                            and tick >= flip
                            and outcome.steps
                            and not outcome.steps[-1].from_cache
                        ):
                            seen_flip = True
                            isp_propagation.append(tick - flip)

        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        shared_total = shared_hits + shared_misses
        isp_total = isp_hits + isp_misses
        public_ratio = shared_hits / shared_total if shared_total else 0.0
        isp_ratio = isp_hits / isp_total if isp_total else 0.0
        all_propagation = [s for pop in propagation.values() for s in pop]
        return cls(
            population=config.resolver_population,
            public_share=config.public_resolver_share,
            ecs=plane.ecs,
            scope=plane.scope,
            pops_live=len(plane.live_pops()),
            partitions=partitions,
            public_probes=len(public_probes),
            isp_probes=len(isp_path_probes),
            public_mismap_km=mean(public_sel),
            public_nearest_km=mean(public_near),
            public_mismap_delta_km=mean(public_sel) - mean(public_near),
            isp_mismap_km=mean(isp_sel),
            isp_nearest_km=mean(isp_near),
            isp_mismap_delta_km=mean(isp_sel) - mean(isp_near),
            shared_hits=shared_hits,
            shared_misses=shared_misses,
            isp_hits=isp_hits,
            isp_misses=isp_misses,
            public_hit_ratio=public_ratio,
            isp_hit_ratio=isp_ratio,
            cache_hit_dilution=public_ratio - isp_ratio,
            propagation_by_pop={
                pop_id: mean(values)
                for pop_id, values in sorted(propagation.items())
            },
            propagation_seconds=mean(all_propagation),
            isp_propagation_seconds=mean(isp_propagation),
        )

    def to_json_dict(self) -> dict:
        """Canonical JSON form (sorted keys, rounded floats)."""
        return {
            "population": self.population,
            "public_share": round(self.public_share, 6),
            "ecs": self.ecs,
            "scope": self.scope,
            "pops_live": self.pops_live,
            "partitions": self.partitions,
            "public_probes": self.public_probes,
            "isp_probes": self.isp_probes,
            "public_mismap_km": round(self.public_mismap_km, 3),
            "public_nearest_km": round(self.public_nearest_km, 3),
            "public_mismap_delta_km": round(self.public_mismap_delta_km, 3),
            "isp_mismap_km": round(self.isp_mismap_km, 3),
            "isp_nearest_km": round(self.isp_nearest_km, 3),
            "isp_mismap_delta_km": round(self.isp_mismap_delta_km, 3),
            "shared_hits": self.shared_hits,
            "shared_misses": self.shared_misses,
            "isp_hits": self.isp_hits,
            "isp_misses": self.isp_misses,
            "public_hit_ratio": round(self.public_hit_ratio, 6),
            "isp_hit_ratio": round(self.isp_hit_ratio, 6),
            "cache_hit_dilution": round(self.cache_hit_dilution, 6),
            "propagation_by_pop": {
                pop: round(seconds, 3)
                for pop, seconds in sorted(self.propagation_by_pop.items())
            },
            "propagation_seconds": round(self.propagation_seconds, 3),
            "isp_propagation_seconds": round(self.isp_propagation_seconds, 3),
        }

    def render(self) -> str:
        """A human-readable block for reports and the CLI."""
        lines = [
            f"population: {self.population} "
            f"(public share {self.public_share:.2f}, "
            f"ecs {'on' if self.ecs else 'off'}, scope /{self.scope})",
            f"POPs live: {self.pops_live}, shared-cache partitions: "
            f"{self.partitions}",
            f"probes: {self.public_probes} public, {self.isp_probes} "
            "ISP-path",
            "mis-mapping (selected vs nearest in-rotation edge):",
            f"  public: {self.public_mismap_km:8.1f} km selected, "
            f"{self.public_nearest_km:8.1f} km nearest "
            f"(delta {self.public_mismap_delta_km:+.1f} km)",
            f"  isp:    {self.isp_mismap_km:8.1f} km selected, "
            f"{self.isp_nearest_km:8.1f} km nearest "
            f"(delta {self.isp_mismap_delta_km:+.1f} km)",
            f"cache hits: shared {self.shared_hits}/{self.shared_misses} "
            f"(ratio {self.public_hit_ratio:.3f}) vs isp-path "
            f"{self.isp_hits}/{self.isp_misses} "
            f"(ratio {self.isp_hit_ratio:.3f}); "
            f"dilution {self.cache_hit_dilution:+.3f}",
            f"weight-flip propagation: {self.propagation_seconds:.0f} s "
            f"mean via POPs vs {self.isp_propagation_seconds:.0f} s "
            "ISP-path",
        ]
        for pop_id, seconds in sorted(self.propagation_by_pop.items()):
            lines.append(f"  {pop_id}: {seconds:8.0f} s")
        return "\n".join(lines)


def _server_coordinates(scenario: "Sep2017Scenario") -> dict:
    """Address -> coordinates for every placed edge (plus Apple VIPs)."""
    coordinates = {}
    for deployment in scenario.estate.deployments.values():
        for placed in deployment.servers:
            coordinates[placed.server.address] = placed.location.coordinates
    for site in scenario.estate.apple.sites:
        for vip in site.vip_addresses:
            coordinates[vip] = site.location.coordinates
    return coordinates
