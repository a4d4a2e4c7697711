"""Device-level micro-simulation.

The engine treats demand as fluid; this module runs actual
:class:`~repro.apple.device.IosDevice` agents through the full stack —
hourly manifest polls against ``mesu.apple.com``, update discovery at
the release instant, user-initiated downloads resolved through the
Figure 2 chain, and delivery through whichever CDN the Meta-CDN picked.

Its purpose is validation: the population-level operator split the
agents experience must match what the Meta-CDN controller dictates, and
every mechanism (device behaviour, DNS policies, cache hierarchies)
gets exercised together at individual-request granularity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..apple.device import CHECK_INTERVAL_SECONDS, DeviceState, IosDevice
from ..apple.manifest import UpdateManifest, build_manifest
from ..dns.query import QueryContext
from ..dns.resolver import RecursiveResolver, ResolutionError
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.locode import Location
from .scenario import Sep2017Scenario

__all__ = ["DeviceAgent", "MicroSimulation", "MicroSimStats"]

_AGENT_PREFIX = IPv4Prefix.parse("100.64.0.0/10")
# Every agent is an iPhone 7 on iOS 10.3, offered 11.0, in a European
# metro.
_DEVICE_MODEL = "iPhone9,1"
_INSTALLED_VERSION = "10.3"
CONTINENT = Continent.EUROPE


@dataclass
class DeviceAgent:
    """One simulated handset: a device plus its network placement."""

    device: IosDevice
    address: IPv4Address
    location: Location
    resolver: RecursiveResolver
    adoption_delay: float  # seconds after discovery until the user taps
    discovered_at: Optional[float] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    served_by: Optional[str] = None
    cache_address: Optional[IPv4Address] = None

    def context(self, now: float) -> QueryContext:
        """The DNS context this handset presents."""
        return QueryContext(
            client=self.address,
            coordinates=self.location.coordinates,
            continent=self.location.continent,
            country=self.location.country,
            now=now,
        )


@dataclass
class MicroSimStats:
    """Aggregate outcome of a micro-simulation run."""

    agents: int
    discovered: int
    downloads_completed: int
    operator_downloads: dict = field(default_factory=dict)
    manifest_polls: int = 0
    failed_resolutions: int = 0

    def operator_share(self, operator: str) -> float:
        """Fraction of completed downloads served by ``operator``."""
        if self.downloads_completed == 0:
            return 0.0
        return self.operator_downloads.get(operator, 0) / self.downloads_completed


class MicroSimulation:
    """Agents running the §3.1 loop against a scenario's estate.

    The scenario's controller/exposure state must be driven separately
    (run a :class:`~repro.simulation.engine.SimulationEngine` in
    lockstep, or pin controller demand by hand) — the agents only
    *consume* the mapping; they are too few to *constitute* the load.
    """

    def __init__(
        self,
        scenario: Sep2017Scenario,
        agent_count: int = 200,
        mean_adoption_delay: float = 4 * 3600.0,
        seed: int = 20170919,
    ) -> None:
        if agent_count <= 0:
            raise ValueError("agent_count must be positive")
        self.scenario = scenario
        rng = random.Random(seed)
        cities = list(scenario.locations.on_continent(CONTINENT))
        self.old_manifest = build_manifest(target_version=_INSTALLED_VERSION)
        self.new_manifest: UpdateManifest = build_manifest()
        self.agents: list[DeviceAgent] = []
        for index in range(agent_count):
            self.agents.append(
                DeviceAgent(
                    device=IosDevice(_DEVICE_MODEL, _INSTALLED_VERSION),
                    address=_AGENT_PREFIX.host(index + 1),
                    location=rng.choice(cities),
                    resolver=scenario.estate.resolver(cache=True),
                    adoption_delay=rng.expovariate(1.0 / mean_adoption_delay),
                )
            )
        self._stagger = {
            agent.address: rng.uniform(0, CHECK_INTERVAL_SECONDS)
            for agent in self.agents
        }

    def run(
        self,
        start: float,
        end: float,
        release_time: float,
        step_seconds: float = 900.0,
    ) -> MicroSimStats:
        """Advance the agent population from ``start`` to ``end``."""
        if end <= start:
            raise ValueError("end must be after start")
        stats = MicroSimStats(
            agents=len(self.agents), discovered=0, downloads_completed=0
        )
        now = start
        while now < end:
            for agent in self.agents:
                self._advance_agent(agent, now, release_time, stats)
            now += step_seconds
        return stats

    def _advance_agent(
        self,
        agent: DeviceAgent,
        now: float,
        release_time: float,
        stats: MicroSimStats,
    ) -> None:
        device = agent.device
        # Hourly manifest poll (staggered per device, as real fleets are).
        poll_due = device.needs_check(now - self._stagger[agent.address])
        if poll_due and device.state in (DeviceState.IDLE, DeviceState.UP_TO_DATE,
                                         DeviceState.UPDATE_AVAILABLE):
            stats.manifest_polls += 1
            manifest = (
                self.new_manifest if now >= release_time else self.old_manifest
            )
            entry = device.check(manifest, now)
            if entry is not None and agent.discovered_at is None:
                agent.discovered_at = now
                stats.discovered += 1
        # The user taps "install" after their personal adoption delay.
        if (
            agent.discovered_at is not None
            and agent.started_at is None
            and now >= agent.discovered_at + agent.adoption_delay
        ):
            self._download(agent, now, stats)

    def _download(self, agent: DeviceAgent, now: float, stats: MicroSimStats) -> None:
        request = agent.device.start_update(client_address=str(agent.address))
        agent.started_at = now
        try:
            resolution = agent.resolver.resolve(
                request.host, agent.context(now)
            )
        except ResolutionError:
            stats.failed_resolutions += 1
            return
        if not resolution.succeeded():
            stats.failed_resolutions += 1
            return
        cache = resolution.addresses[0]
        pending = agent.device.pending
        size = pending.size_bytes if pending is not None else 2_800_000_000
        response = self.scenario.http_fetch(cache, request, size)
        if response is None or not response.ok:
            stats.failed_resolutions += 1
            return
        agent.device.finish_update()
        agent.completed_at = now
        agent.cache_address = cache
        agent.served_by = self.scenario.operator_of(cache)
        stats.downloads_completed += 1
        stats.operator_downloads[agent.served_by] = (
            stats.operator_downloads.get(agent.served_by, 0) + 1
        )
