"""The chaos drill: scheduled faults against the live cluster + engine.

``repro chaos`` runs two phases and gates on what the paper's
mechanisms promise under failure:

1. **Live phase** — boot a loopback :class:`~repro.serve.cluster.ServeCluster`
   with a fault schedule (by default: a fifth of Apple's vips dark from
   t=1 s, a total Limelight blackout from t=3 s, both clearing at
   t=9 s) and a fast health-check loop.  Closed-loop load runs
   throughout; a watcher resolves the Figure 2 chain for clients known
   to map to Limelight and times how quickly the 15 s selection step
   re-steers them away and, once the fault clears, back.  Re-steer and
   recovery are judged from the wire alone.
2. **Simulation phase** — replay the same failure shape in engine time
   (a Limelight blackout one hour after the iOS 11 release) and check
   the ISP classifier sees the consequence: the EU split drops
   Limelight to zero, the spill lands on Akamai, and non-zero overflow
   bytes are attributed to the failed-over CDN.

Both phases are deterministic under a fixed seed: every probabilistic
fault decision and every jittered backoff resolves through the same
BLAKE2b ``stable_fraction`` hash.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

from ..obs import (
    EventTracer,
    MetricsRegistry,
    get_flight_recorder,
    use_registry,
    use_tracer,
)
from ..anycast.plane import check_steering
from ..apple.mapping import NAMES
from ..workload.timeline import TIMELINE
from .health import FailoverConfig
from .schedule import FaultKind, FaultSchedule, FaultWindow

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "default_chaos_schedule",
    "anycast_drill_schedule",
    "run_chaos",
]


def default_chaos_schedule() -> FaultSchedule:
    """The standard drill: partial Apple vip outage + Limelight blackout.

    Times are seconds since cluster start.  Everything clears by t=9 so
    the recovery half of the health loop is exercised inside the run.
    """
    return FaultSchedule(
        [
            FaultWindow(1.0, 9.0, "Apple", FaultKind.VIP_OUTAGE, severity=0.2),
            FaultWindow(3.0, 9.0, "Limelight", FaultKind.CDN_BLACKOUT),
        ]
    )


def anycast_drill_schedule() -> FaultSchedule:
    """The route-flap drill: withdraw the busiest catchment mid-run.

    Routing-plane only — no DNS or cache fault — so the acceptance
    question is inverted from the blackout drill: traffic must *move*
    (catchments shift to the next-best site) while the health monitor
    sees *nothing* (zero unhealthy events, zero re-steers).
    """
    from ..serve.clients import ClientDirectory
    from ..serve.cluster import ClusterConfig, build_serve_estate
    from ..serve.steering import build_serve_plane

    plane = build_serve_plane(
        build_serve_estate(ClusterConfig(servers_per_metro=2)),
        ClientDirectory.from_adoption(),
    )
    shares = plane.catchment_map(0.0).share_by_site()
    site_id = max(shares, key=lambda site: shares[site])
    return FaultSchedule(
        [FaultWindow(1.0, 5.0, site_id, FaultKind.ROUTE_WITHDRAW)]
    )


# Routing-plane faults: catchments move, health probes see nothing.
_ROUTE_KINDS = (FaultKind.ROUTE_WITHDRAW, FaultKind.ROUTE_PREPEND)
# Acceptance: the chain must steer away within one selection-step TTL,
# and the client error rate must stay below this share.
_RESTEER_BUDGET = 15.0
_ERROR_BUDGET = 0.02
# The live health loop probes every member this often, and re-probes
# one it marked unhealthy after this cooldown.
_PROBE_INTERVAL = 0.25
_PROBE_COOLDOWN = 0.5
# The watcher scans this many directory clients for Limelight-mapped
# ones, tracks at most this many of them, and resolves them this often.
_WATCH_CANDIDATES = 64
_WATCH_CLIENTS = 8
_WATCH_INTERVAL = 0.3
# The live edge's third-party servers per metro.
_SERVERS_PER_METRO = 4
# Requests per load batch, and how long the live phase runs past the
# schedule's last window.
_BATCH_REQUESTS = 150
_RECOVERY_MARGIN = 5.0


@dataclass
class ChaosConfig:
    """Knobs for one chaos drill."""

    seed: int = 7
    schedule: Optional[FaultSchedule] = None  # None = default_chaos_schedule()
    concurrency: int = 16
    run_simulation: bool = True
    workers: int = 1                  # worker processes for the simulation phase
    steering: str = "dns"             # dns | anycast

    def __post_init__(self) -> None:
        check_steering(self.steering)
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class ChaosReport:
    """What the drill measured, live and simulated.

    The live phase's numbers are fields (a drill without a live phase
    leaves their defaults); every drill that ran contributes its own
    block of ``lines`` and its own acceptance ``checks``, in run order.
    """

    schedule: str
    requests: int = 0
    ok: int = 0
    errors: int = 0
    error_rate: float = 0.0
    retries: int = 0
    resteer_seconds: Optional[float] = None
    recovery_seconds: Optional[float] = None
    unhealthy_events: int = 0
    lines: tuple = field(default_factory=tuple)
    checks: tuple = field(default_factory=tuple)

    def passed(self) -> bool:
        """True when every acceptance check held."""
        return all(ok for _label, ok in self.checks)

    def render(self) -> str:
        """A terminal-friendly verdict block."""
        lines = [
            "chaos drill",
            "-----------",
            "schedule:",
        ]
        lines += [f"  {line}" for line in self.schedule.splitlines()]
        lines += self.lines
        lines.append("")
        for label, ok in self.checks:
            lines.append(f"{'PASS' if ok else 'FAIL'}  {label}")
        lines.append("")
        lines.append("chaos " + ("PASSED" if self.passed() else "FAILED"))
        return "\n".join(lines)


@dataclass(frozen=True)
class _Section:
    """What one drill contributes to the report."""

    lines: list
    checks: list
    # The ChaosReport fields the drill measured (the live phase's).
    fields: dict = field(default_factory=dict)


def _counter_total(registry, name: str) -> int:
    """The sum over every child of one counter family (0 if absent)."""
    family = registry.get(name)
    if family is None:
        return 0
    return int(sum(child.value for _labels, child in family.children()))


async def _watch_resteer(dns_endpoint, directory, clock, registry,
                         blackout: Optional[FaultWindow],
                         stop_at: float, rounds: list) -> int:
    """Resolve Limelight-mapped clients on a cadence; record sightings.

    Returns how many watched clients mapped to Limelight pre-fault.
    Each round appends ``(t, limelight_seen)`` to ``rounds`` until
    ``stop_at`` — past the end of the fault window, so the caller reads
    both the re-steer and the recovery off the wire alone.
    """
    from ..serve.dnsclient import AsyncDnsClient, DnsClientError

    dns = await AsyncDnsClient.open(
        *dns_endpoint, timeout=1.0, retries=1, metrics=registry
    )
    try:
        entry = NAMES.entry_point
        watched = []
        for index in range(_WATCH_CANDIDATES):
            client = directory.sample(index)
            try:
                resolution = await dns.resolve(entry, client.address)
            except DnsClientError:
                continue
            if any("llnw" in name for name in resolution.chain_names):
                watched.append(client.address)
            if len(watched) >= _WATCH_CLIENTS:
                break
        if not watched or blackout is None:
            return len(watched)
        while clock() < stop_at:
            seen = False
            for address in watched:
                try:
                    resolution = await dns.resolve(entry, address)
                except DnsClientError:
                    continue
                if any("llnw" in name for name in resolution.chain_names):
                    seen = True
                    break
            rounds.append((clock(), seen))
            await asyncio.sleep(_WATCH_INTERVAL)
        return len(watched)
    finally:
        dns.close()


def _resteer_from_rounds(rounds, blackout: Optional[FaultWindow]) -> Optional[float]:
    """Seconds from blackout start until the chain stopped answering
    Limelight (and stayed away until the fault cleared)."""
    if blackout is None:
        return None
    in_window = [(t, seen) for t, seen in rounds
                 if blackout.start <= t < blackout.end]
    steered_at: Optional[float] = None
    for t, seen in in_window:
        if seen:
            steered_at = None
        elif steered_at is None:
            steered_at = t
    if steered_at is None:
        return None
    return steered_at - blackout.start


def _recovery_from_rounds(rounds, blackout: Optional[FaultWindow]) -> Optional[float]:
    """Seconds from the fault clearing until Limelight answered again."""
    if blackout is None:
        return None
    for t, seen in rounds:
        if t >= blackout.end and seen:
            return t - blackout.end
    return None


def _blackout_in(schedule: FaultSchedule) -> Optional[FaultWindow]:
    """The third-party blackout window the re-steer is timed against."""
    return next(
        (w for w in schedule
         if w.kind is FaultKind.CDN_BLACKOUT and w.target != "Apple"),
        None,
    )


def _live_section(config: ChaosConfig, schedule: FaultSchedule, load,
                  watched: int, resteer: Optional[float],
                  recovery: Optional[float], unhealthy: int,
                  anycast_routed: int = 0,
                  catchment_shift: tuple = ()) -> _Section:
    """The live drill's block and checks from what it measured."""
    error_rate = load.errors / load.requests if load.requests else 1.0
    steered = (
        f"{resteer:.2f} s after blackout ({watched} watched Limelight clients)"
        if resteer is not None else "not observed"
    )
    recovered = (
        f"healthy {recovery:.2f} s after the fault cleared"
        if recovery is not None else "not observed"
    )
    lines = [
        "",
        f"live requests   {load.requests}  (ok {load.ok}, errors {load.errors}, "
        f"rate {error_rate:.2%})",
    ]
    lines += [
        f"resilience      {load.retries} retries, "
        f"{load.reresolutions} TTL re-resolutions, {load.hedged} hedged lookups",
        f"failovers       {unhealthy} member(s) marked unhealthy",
        f"re-steer        {steered}",
        f"recovery        {recovered}",
    ]
    checks = [
        (f"client error rate below {_ERROR_BUDGET:.0%}",
         error_rate < _ERROR_BUDGET),
        ("load kept flowing throughout the schedule", load.requests > 0),
    ]
    if _blackout_in(schedule) is not None:
        checks += [
            (f"re-steered within one {_RESTEER_BUDGET:.0f} s TTL",
             resteer is not None and resteer <= _RESTEER_BUDGET),
            ("recovery to healthy reported after the fault cleared",
             recovery is not None),
        ]
    if config.steering != "dns":
        lines += [
            "",
            f"anycast ({config.steering} steering)",
            f"  catchment-routed     {anycast_routed} connections",
        ]
        checks.append(
            ("anycast: connections routed by catchment", anycast_routed > 0)
        )
        if catchment_shift:
            lines.append(
                f"  flap shifted         {len(catchment_shift)} "
                f"client group(s): {', '.join(catchment_shift)}"
            )
            checks.append(("anycast: route flap shifted catchments", True))
    if all(w.kind in _ROUTE_KINDS for w in schedule):
        checks.append(
            ("anycast: flap invisible to health monitor (zero unhealthy "
             "events, zero re-steers)",
             unhealthy == 0 and resteer is None)
        )
    return _Section(lines, checks, {
        "requests": load.requests, "ok": load.ok, "errors": load.errors,
        "error_rate": error_rate, "retries": load.retries,
        "resteer_seconds": resteer, "recovery_seconds": recovery,
        "unhealthy_events": unhealthy,
    })


def _live_phase(config: ChaosConfig, schedule: FaultSchedule,
                registry, tracer) -> _Section:
    """The live drill: the faults bite while load flows and a watcher resolves.

    Re-steer and recovery come from the watcher's wire rounds, unhealthy
    events from ``cdn_failovers_total``; the load is closed-loop batches
    on the cluster's own loop (:func:`repro.serve.harness.drive_watched`).
    """
    from ..serve.cluster import ClusterConfig, build_serve_estate
    from ..serve.harness import drive_watched
    from ..serve.loadgen import LoadConfig
    from ..serve.steering import build_serve_plane

    blackout = _blackout_in(schedule)
    cluster_config = ClusterConfig(
        servers_per_metro=_SERVERS_PER_METRO,
        steering=config.steering,
        faults=schedule,
        failover=FailoverConfig(
            probe_interval=_PROBE_INTERVAL,
            cooldown=_PROBE_COOLDOWN,
            fault_seed=config.seed,
        ),
    )
    load_config = LoadConfig(
        requests=_BATCH_REQUESTS,
        concurrency=config.concurrency,
        http_retries=2,
        dns_timeout=1.0,
    )
    end_at = schedule.end_time() + _RECOVERY_MARGIN
    rounds: list = []

    def watch(dns_endpoint, directory, clock):
        return _watch_resteer(
            dns_endpoint, directory, clock, registry, blackout, end_at, rounds,
        )

    load, watched, directory = drive_watched(
        cluster_config, load_config, end_at, watch, registry, tracer,
    )
    # Anycast bookkeeping: how many connections the catchment router
    # placed, and which client groups a route flap moved.  The shift is
    # evaluated against the same schedule the live window ran (the
    # catchment map is a pure function of estate, vantages and schedule).
    anycast_routed = 0
    catchment_shift: tuple[str, ...] = ()
    if config.steering != "dns":
        anycast_routed = _counter_total(registry, "serve_anycast_routed_total")
        flaps = [w for w in schedule if w.kind in _ROUTE_KINDS]
        if flaps:
            window = flaps[0]
            plane = build_serve_plane(
                build_serve_estate(cluster_config), directory, schedule=schedule
            )
            before = plane.catchment_map(window.start - 1.0)
            during = plane.catchment_map((window.start + window.end) / 2.0)
            catchment_shift = before.diff(during)
    return _live_section(
        config, schedule, load, watched,
        _resteer_from_rounds(rounds, blackout),
        _recovery_from_rounds(rounds, blackout),
        _counter_total(registry, "cdn_failovers_total"),
        anycast_routed, catchment_shift,
    )


def _drill_engine(config: ChaosConfig, faults=None, **overrides) -> tuple:
    """(scenario, engine) of the small Sep-2017 world the engine-time
    drills replay: 32/16/2 probes at 1800 s steps."""
    from ..simulation.engine import SimulationEngine
    from ..simulation.scenario import ScenarioConfig, Sep2017Scenario

    scenario = Sep2017Scenario(
        ScenarioConfig(
            global_probe_count=32,
            isp_probe_count=16,
            traceroute_probe_count=2,
            fault_seed=config.seed,
            **overrides,
        ),
        faults=faults,
    )
    return scenario, SimulationEngine(scenario, step_seconds=1800.0)


def _blackout_replay_section(pre: float, blackout: float, after: float,
                             overflow_akamai: int) -> _Section:
    return _Section(
        [
            "",
            "simulation (Limelight blackout, release+1h .. release+6h)",
            f"  EU Limelight split   pre {pre:.0f} Gbps"
            f" -> blackout {blackout:.0f} Gbps"
            f" -> after {after:.0f} Gbps",
            f"  overflow to Akamai   {overflow_akamai:,} bytes",
        ],
        [
            ("simulation: Limelight split dropped to zero during blackout",
             pre > 0.0 and blackout == 0.0),
            ("simulation: Limelight split restored after recovery", after > 0.0),
            ("simulation: overflow bytes attributed to Akamai",
             overflow_akamai > 0),
        ],
    )


def _simulation_phase(config: ChaosConfig) -> _Section:
    from ..isp.classify import TrafficClassifier

    release = TIMELINE.ios_11_0_release
    fault_start = release + 3600.0
    fault_end = release + 6 * 3600.0
    schedule = FaultSchedule(
        [FaultWindow(fault_start, fault_end, "Limelight", FaultKind.CDN_BLACKOUT)]
    )
    scenario, engine = _drill_engine(config, schedule)
    reports: list = []
    engine.run(
        release - 1800.0, release + 8 * 3600.0,
        progress=reports.append, workers=config.workers,
    )

    def limelight_peak(lo: float, hi: float) -> float:
        return max(
            (r.operator_gbps.get("Limelight", 0.0)
             for r in reports if lo <= r.now < hi),
            default=0.0,
        )

    classifier = TrafficClassifier(scenario.isp, scenario.rib, scenario.operator_of)
    overflow_akamai = sum(
        c.flow.bytes
        for c in classifier.overflow_traffic(
            scenario.netflow.records_between(fault_start, fault_end), "Akamai"
        )
    )
    return _blackout_replay_section(
        limelight_peak(release - 1800.0, fault_start),
        # the health loop needs k_failures probes to flip, so judge the
        # steady blackout state from one step past the fault start
        limelight_peak(fault_start + 3600.0, fault_end),
        limelight_peak(fault_end + 3600.0, release + 8 * 3600.0),
        int(overflow_akamai),
    )


def _flap_replay_section(site_id: str, map_changes: int, break_rate: float,
                         shifted_gbps: float, unhealthy_members: int) -> _Section:
    return _Section(
        [
            "",
            "simulation (route flap, release+1h .. release+3h)",
            f"  withdrawn site       {site_id}",
            f"  catchment changes    {map_changes}",
            f"  shifted traffic      {shifted_gbps:.0f} Gbps",
        ],
        [
            ("simulation: mid-event flap shifted catchments and reverted",
             map_changes >= 2 and break_rate > 0.0),
            ("simulation: shifted traffic volume is non-zero", shifted_gbps > 0.0),
            ("simulation: zero members unhealthy after the flap",
             unhealthy_members == 0),
        ],
    )


def _anycast_simulation_phase(config: ChaosConfig) -> _Section:
    """Replay a mid-event route flap in engine time under anycast.

    The flap must shift catchments (affinity breaks, shifted traffic)
    while the DNS failover plane records nothing: route kinds never
    reach the health probes.
    """
    from ..anycast.analysis import CatchmentAnalysis

    release = TIMELINE.ios_11_0_release
    flap_start = release + 3600.0
    flap_end = release + 3 * 3600.0
    # Find the busiest catchment first (pure function of the config),
    # then rebuild the world with that site's announcement withdrawn
    # mid-event.
    probe_plane = _drill_engine(config, steering="anycast")[0].anycast
    shares = probe_plane.catchment_map(0.0).share_by_site()
    site_id = max(shares, key=lambda site: shares[site])
    schedule = FaultSchedule(
        [FaultWindow(flap_start, flap_end, site_id, FaultKind.ROUTE_WITHDRAW)]
    )
    scenario, engine = _drill_engine(config, schedule, steering="anycast")
    engine.run(
        release - 1800.0, release + 5 * 3600.0, workers=config.workers
    )
    analysis = CatchmentAnalysis.from_plane(scenario.anycast)
    unhealthy = 0
    if scenario.failover is not None:
        unhealthy = len(scenario.failover.monitor.unhealthy_members())
    return _flap_replay_section(
        site_id, analysis.map_changes, analysis.affinity_break_rate,
        analysis.shifted_gbps_total, unhealthy,
    )


def _report(schedule: FaultSchedule, sections: list) -> ChaosReport:
    """One report out of what each drill that ran contributed."""
    fields: dict = {}
    for section in sections:
        fields.update(section.fields)
    return ChaosReport(
        schedule=schedule.describe(),
        lines=tuple(line for section in sections for line in section.lines),
        checks=tuple(check for section in sections for check in section.checks),
        **fields,
    )


def run_chaos(
    config: Optional[ChaosConfig] = None,
) -> tuple[ChaosReport, MetricsRegistry, EventTracer]:
    """Run the full drill; returns (report, registry, tracer)."""
    config = config if config is not None else ChaosConfig()
    if config.schedule is not None:
        schedule = config.schedule
    elif config.steering == "anycast":
        schedule = anycast_drill_schedule()
    else:
        schedule = default_chaos_schedule()
    if not len(schedule):
        raise ValueError("a chaos drill needs at least one fault window")
    registry = MetricsRegistry()
    tracer = EventTracer()
    with use_registry(registry), use_tracer(tracer):
        sections = [_live_phase(config, schedule, registry, tracer)]
        if config.run_simulation:
            simulate = (
                _anycast_simulation_phase if config.steering == "anycast"
                else _simulation_phase
            )
            sections.append(simulate(config))
    report = _report(schedule, sections)
    if not report.passed():
        recorder = get_flight_recorder()
        if recorder is not None:
            recorder.trip("chaos-failure", tracer)
    return report, registry, tracer
