"""Replay workloads: the Sep 17-21 run plus ``generate_report``.

``replay_serial`` is ``repro report`` at the paper's 5-minute cadence;
``replay_sharded`` is the same inputs over ``min(2, nproc)`` worker
processes, so the pair is the keep-or-delete number for
``simulation.concurrency``.  Everything is driven through
``SimulationEngine.run`` and ``generate_report``; per-step timing comes
from the ``progress`` callback, per-phase timing (traced run only) from
the ``engine_phase_seconds`` histograms the engine already exports.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from hashlib import blake2b

from repro.analysis import CdnCategorizer
from repro.analysis.report import generate_report
from repro.analysis.unique_ips import windowed_unique_ip_series
from repro.atlas.columnar import DnsColumns
from repro.obs import NULL_REGISTRY, MetricsRegistry, use_registry
from repro.simulation import (
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.checkpoint import capture_checkpoint
from repro.workload import TIMELINE

from harness import (
    OUT_DIR,
    HostSpeed,
    Outcome,
    Spans,
    children_cpu_seconds,
    counter_total,
    cpu_seconds,
    median_setup,
    peak_rss_mb,
    percentile,
    scratch_dir,
    spread,
)

STEP_SECONDS = 300.0          # the paper's 5-minute cadence
WINDOW_STEPS = 16             # = the sharded engine's chunk_ticks
NOMINAL_STEPS = 1152          # Sep 17 00:00 - Sep 21 00:00
# Share of the window that lies before the release, so a scaled-down
# replay still straddles Sep 19 17:00 the way the full one does.
_LEAD_SHARE = 65.0 / 96.0
_SETUP_REPEATS = 5
_REPORT_SECTIONS = (
    "Figure 2 — request-mapping infrastructure",
    "Figure 3 / Table 1 — Apple CDN sites",
    "Figure 4 — unique cache IPs (worldwide probes)",
    "Figure 5 — unique cache IPs (eyeball-ISP probes)",
    "Figures 6-8 — ISP traffic: offload and overflow",
)


@dataclass
class _Observed:
    """What the harness saw of one replay, for the per-layer rows."""

    t0: float
    stamps: list            # one per step, on the paused clock
    windows: list           # ms per step, one per 16-step window
    spilled: list           # global store's spilled-segment count per step
    reports: list           # the StepReport stream
    replay_wall: float
    own_cpu: float          # coordinator CPU during the replay
    children_cpu: float
    report_s: float


def workers_for(workload: str) -> int:
    if workload == "replay_serial":
        return 1
    return min(2, os.cpu_count() or 1)


def make_config(seed: int, spill_dir: str) -> ScenarioConfig:
    """The seed's scenario: perturbed demand, never a different size.

    Probe counts, cadence, segment size and spill budget are fixed (so
    every seed does the same amount of work); the seed moves demand
    amplitudes, the ISP's slice of EU demand and the ``a1015`` rollout
    delay, which changes *which* answers the probes see.
    """
    rng = random.Random(seed)

    def jitter(value: float, rel: float) -> float:
        return value * (1.0 + rng.uniform(-rel, rel))

    config = ScenarioConfig(
        global_dns_interval=STEP_SECONDS,
        traceroute_probe_count=16,
        store_memory_budget_bytes=4 << 20,
        store_spill_dir=spill_dir,
    )
    config.baseline_gbps = {
        region: jitter(gbps, 0.03) for region, gbps in config.baseline_gbps.items()
    }
    config.surge_peak_gbps = {
        region: jitter(gbps, 0.03)
        for region, gbps in config.surge_peak_gbps.items()
    }
    config.isp_share_of_eu = jitter(config.isp_share_of_eu, 0.05)
    config.a1015_delay_seconds = 6 * 3600.0 + STEP_SECONDS * rng.randint(-6, 6)
    return config


def _inputs_fingerprint(config: ScenarioConfig) -> str:
    parts = [
        sorted((r.value, v) for r, v in config.baseline_gbps.items()),
        sorted((r.value, v) for r, v in config.surge_peak_gbps.items()),
        config.isp_share_of_eu,
        config.a1015_delay_seconds,
    ]
    return blake2b(repr(parts).encode(), digest_size=8).hexdigest()


def _window(steps: int) -> tuple[float, float]:
    # Whole steps before the release keep every tick on the 5-min grid;
    # at the nominal size this is exactly Sep 17 00:00 - Sep 21 00:00.
    lead_steps = int(steps * _LEAD_SHARE)
    start = TIMELINE.ios_11_0_release - lead_steps * STEP_SECONDS
    return start, start + steps * STEP_SECONDS


def _steps_for(scale: float) -> int:
    windows = max(2, round(NOMINAL_STEPS * scale / WINDOW_STEPS))
    return windows * WINDOW_STEPS


def _phase_seconds(registry) -> dict[str, dict[str, float]]:
    """``engine_phase_seconds`` sums as {phase: {worker: seconds}}."""
    family = registry.get("engine_phase_seconds")
    phases: dict[str, dict[str, float]] = {}
    if family is not None:
        for (phase, worker), child in family.children():
            phases.setdefault(phase, {})[worker] = child.sum
    return phases


def _timeit_ms(call, repeats: int = 3) -> float:
    """Median wall of ``call()`` in milliseconds."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000.0


def run(workload: str, seed: int, scale: float, trace: bool,
        import_s: float = 0.0, overhead_probe: bool = True) -> Outcome:
    """Run one replay workload; returns its :class:`Outcome`."""
    workers = workers_for(workload)
    steps_expected = _steps_for(scale)
    start, end = _window(steps_expected)
    spill_root = scratch_dir(f"spill-{workload}")
    try:
        untraced_prefix = None
        if trace and overhead_probe:
            # Like-for-like tracing tax: the first quarter of the run,
            # untraced, against the same windows of the traced run.
            untraced_prefix = _prefix_wall(
                seed, spill_root, workers, start, steps_expected // 4
            )
        return _run(workload, seed, trace, import_s, workers,
                    steps_expected, start, end, spill_root, untraced_prefix)
    finally:
        shutil.rmtree(spill_root, ignore_errors=True)


def _prefix_wall(seed, spill_root, workers, start, steps) -> tuple[int, float, dict]:
    """Untraced first quarter: (steps, wall, checkpoint rows of its state).

    The checkpoint is timed on this quarter-run state rather than the
    full one: a full-run ``RCKPT`` is ~70 MB and takes ~15 s to write
    and read back, which the traced run's time budget cannot carry.
    """
    steps = max(WINDOW_STEPS, steps - steps % WINDOW_STEPS)
    config = make_config(seed, str(spill_root / "prefix"))
    engine = SimulationEngine(Sep2017Scenario(config), step_seconds=STEP_SECONDS)
    reports: list = []
    end = start + steps * STEP_SECONDS
    began = time.perf_counter()
    engine.run(start, end, progress=reports.append, workers=workers)
    wall = time.perf_counter() - began
    return steps, wall, _checkpoint_rows(engine, start, end, reports, spill_root)


def _checkpoint_rows(engine, start, end, reports, spill_root) -> dict:
    checkpoint = capture_checkpoint(
        engine, start=start, end=end, next_tick=end, reports=reports
    )
    path = spill_root / "ledger.rckpt"
    rows = {
        "simulation.checkpoint.save_ms": _timeit_ms(
            lambda: save_checkpoint(checkpoint, path), repeats=1
        ),
        "simulation.checkpoint.bytes": float(path.stat().st_size),
        "simulation.checkpoint.load_ms": _timeit_ms(
            lambda: load_checkpoint(path), repeats=1
        ),
    }
    path.unlink()
    return rows


def _run(workload, seed, trace, import_s, workers, steps_expected,
         start, end, spill_root, untraced_prefix) -> Outcome:
    config = make_config(seed, str(spill_root / "run"))
    registry = MetricsRegistry() if trace else NULL_REGISTRY

    def build():
        # Instruments bind at construction, so the registry must be
        # ambient here; the untraced run builds under the null registry.
        with use_registry(registry):
            scenario = Sep2017Scenario(config)
            return SimulationEngine(scenario, step_seconds=STEP_SECONDS)

    build_s, engine = median_setup(build, 1 if trace else _SETUP_REPEATS)
    scenario = engine.scenario
    gc.collect()
    setup_s = import_s + build_s

    probes_per_tick = len(scenario.global_probes)
    stamps: list[float] = []
    spill_stamps: list[int] = []
    reports: list = []
    short_steps = 0
    global_store = scenario.global_campaign.store

    speed = HostSpeed()

    def progress(report) -> None:
        nonlocal short_steps
        # Stamps run on a clock that stops during host-speed samples.
        stamps.append(time.perf_counter() - speed.wall)
        if report.measurements < probes_per_tick:
            short_steps += 1
        if len(stamps) % WINDOW_STEPS == 0:
            speed.sample()
        if trace:
            spill_stamps.append(global_store.spilled_segment_count)
            reports.append(report)

    children_cpu_before = children_cpu_seconds()
    cpu_before = cpu_seconds() - speed.cpu
    own_cpu_before = time.process_time() - speed.cpu
    t0 = time.perf_counter() - speed.wall
    steps = engine.run(start, end, progress=progress, workers=workers)
    t_replayed = time.perf_counter() - speed.wall
    own_cpu_replayed = time.process_time() - speed.cpu
    report_text = generate_report(scenario)
    t_end = time.perf_counter() - speed.wall
    cpu_after = cpu_seconds() - speed.cpu
    speed.close()

    # ---- correctness ------------------------------------------------
    failures: list[str] = []
    failed = 0
    if steps != steps_expected or len(stamps) != steps_expected:
        missing = abs(steps_expected - min(steps, len(stamps)))
        failed += max(1, missing)
        failures.append(f"ran {steps} of {steps_expected} steps")
    if short_steps:
        failed += short_steps
        failures.append(f"{short_steps} steps fired fewer than "
                        f"{probes_per_tick} global measurements")
    for title in _REPORT_SECTIONS:
        if title not in report_text:
            failed += 1
            failures.append(f"report lacks section {title!r}")
    for line in report_text.splitlines():
        if line.startswith("(no "):
            failed += 1
            failures.append(f"report section is empty: {line}")
    digest = blake2b(report_text.encode(), digest_size=8).hexdigest()

    # ---- end-to-end metrics -----------------------------------------
    edges = [t0] + stamps
    windows = [
        (edges[i + WINDOW_STEPS] - edges[i]) / WINDOW_STEPS * 1000.0
        for i in range(0, len(stamps) - WINDOW_STEPS + 1, WINDOW_STEPS)
    ] or [(t_replayed - t0) / max(1, steps) * 1000.0]
    items = max(1, steps)
    children = workers if workers > 1 else 0
    raw = {
        "wall_ms_per_item": (t_end - t0) / items * 1000.0,
        "cpu_ms_per_item": (cpu_after - cpu_before) / items * 1000.0,
        "item_p50_ms": statistics.median(windows),
        "item_p90_ms": percentile(windows, 0.90),
    }
    correction = speed.correction()
    e2e = {name: value * correction for name, value in raw.items()}
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = peak_rss_mb(children)
    stores = (
        scenario.global_campaign.store,
        scenario.isp_campaign.store,
        scenario.traceroute_campaign.store,
    )
    exact = {
        "steps": steps,
        "dns_rows": sum(store.dns_count for store in stores),
        "traceroutes": scenario.traceroute_campaign.store.traceroute_count,
        "flows": len(scenario.netflow),
        "segments": sum(store.segment_count for store in stores),
        "spilled_segments": sum(store.spilled_segment_count for store in stores),
        "report_digest": digest,
    }
    outcome = Outcome(
        workload=workload,
        attempted=steps_expected,
        failed=failed,
        e2e=e2e,
        exact=exact,
        inputs=_inputs_fingerprint(config),
        raw=raw,
        block_spread={"window_ms_per_step": spread(windows), "windows": windows},
        host_speed=speed.summary(),
        failures=failures,
    )
    if trace:
        seen = _Observed(
            t0=t0, stamps=stamps, windows=windows, spilled=spill_stamps,
            reports=reports, replay_wall=t_replayed - t0,
            own_cpu=own_cpu_replayed - own_cpu_before,
            children_cpu=children_cpu_seconds() - children_cpu_before,
            report_s=t_end - t_replayed,
        )
        outcome.layers = _layers(
            workload, engine, registry, workers, seen, start, end,
            spill_root, untraced_prefix,
        )
    return outcome


def _layers(workload, engine, registry, workers, seen: _Observed, start, end,
            spill_root, untraced_prefix) -> dict:
    """Per-layer rows of the traced run (see README for what each moves)."""
    scenario = engine.scenario
    phases = _phase_seconds(registry)
    windows, stamps, replay_wall = seen.windows, seen.stamps, seen.replay_wall

    def slowest(phase: str) -> float:
        # The copy on the critical path: the coordinator's for the
        # serial loop, the slowest process's for a sharded run.
        return max(phases.get(phase, {}).values(), default=0.0)

    layers = {
        "simulation.engine.arrivals_s": slowest("arrivals"),
        "simulation.engine.selection_s": slowest("selection"),
        "simulation.engine.campaigns_s": slowest("campaigns"),
        "simulation.engine.traffic_s": slowest("traffic"),
        "analysis.report_s": seen.report_s,
    }
    if workers > 1:
        layers["simulation.concurrency.digest_s"] = slowest("digest")
        layers["simulation.concurrency.merge_s"] = phases.get("merge", {}).get(
            "main", 0.0
        )
        layers["simulation.concurrency.worker_busy_share"] = (
            seen.children_cpu / (workers * replay_wall) if replay_wall else 0.0
        )
        by_worker: dict[str, float] = {}
        for per_process in phases.values():
            for process, seconds in per_process.items():
                if process != "main":
                    by_worker[process] = by_worker.get(process, 0.0) + seconds
        layers["simulation.concurrency.slowest_worker_s"] = max(
            by_worker.values(), default=0.0
        )

    # ---- spans: step -> phase ---------------------------------------
    spans = Spans()
    edges = [seen.t0] + stamps
    for index in range(len(stamps)):
        spans.add(index, "step", None, edges[index], edges[index + 1])
    main_phases = sum(
        per_process.get("main", 0.0) for per_process in phases.values()
    )
    covered = main_phases
    # Run-level children of the step spans (item -1): totals, not intervals.
    spans.add(-1, "phases.main", "step", 0.0, main_phases)
    if workers > 1:
        # From the coordinator's seat a sharded step is three disjoint
        # parts: wall spent off-CPU waiting for worker chunks, the
        # engine phases it times itself, and the rest of its CPU —
        # which in ``run_sharded`` is chunk unpickling plus netflow /
        # SNMP / metric absorption, i.e. the IPC bill of sharding.
        wait_workers = max(0.0, replay_wall - seen.own_cpu)
        ipc = max(0.0, seen.own_cpu - main_phases)
        layers["simulation.concurrency.ipc_absorb_s"] = ipc
        layers["simulation.concurrency.wait_workers_s"] = wait_workers
        spans.add(-1, "wait_workers", "step", 0.0, wait_workers)
        spans.add(-1, "ipc_absorb", "step", 0.0, ipc)
        covered += wait_workers + ipc
    layers["bench.trace_coverage"] = covered / replay_wall if replay_wall else 0.0
    spans.dump(OUT_DIR / f"trace-{workload}.jsonl")

    # ---- stores -----------------------------------------------------
    layers["atlas.results.seals"] = counter_total(
        registry, "store_segments_sealed_total"
    )
    layers["atlas.results.spills"] = counter_total(
        registry, "store_segments_spilled_total"
    )
    spilled_before = 0
    stall_windows = []
    for index, window_ms in enumerate(windows):
        last = min(len(seen.spilled), (index + 1) * WINDOW_STEPS) - 1
        spilled = seen.spilled[last] if last >= 0 else 0
        if spilled > spilled_before:
            stall_windows.append(window_ms)
        spilled_before = spilled
    layers["atlas.results.stall_ms"] = (
        max(0.0, statistics.mean(stall_windows) - statistics.median(windows))
        if stall_windows else 0.0
    )
    hits = counter_total(registry, "dns_cache_hits_total")
    misses = counter_total(registry, "dns_cache_misses_total")
    layers["dns.resolver.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["latency.item_p99_ms"] = percentile(windows, 0.99)
    layers["latency.item_p999_ms"] = percentile(windows, 0.999)

    if untraced_prefix is not None:
        prefix_steps, untraced_wall, checkpoint_rows = untraced_prefix
        traced_wall = stamps[prefix_steps - 1] - seen.t0
        layers["bench.trace_overhead_pct"] = (
            (traced_wall / untraced_wall - 1.0) * 100.0 if untraced_wall else 0.0
        )
        layers.update(checkpoint_rows)
    else:
        layers.update(
            _checkpoint_rows(engine, start, end, seen.reports, spill_root)
        )

    layers["obs.registry.snapshot_ms"] = _timeit_ms(registry.snapshot)

    # ---- micro-timings of public calls, after the results are final --
    global_store = scenario.global_campaign.store
    categorizer = CdnCategorizer(scenario.estate.deployments)
    layers["analysis.unique_ips.windowed_ms"] = _timeit_ms(
        lambda: windowed_unique_ip_series(
            global_store, categorizer.category, 7200.0,
            start=max(start, end - 86400.0), end=end,
        )
    )
    # Counted after the windowed scan, which is what reads spilled
    # segments back; the engine itself only appends.
    layers["atlas.results.reloads"] = counter_total(
        registry, "store_segment_reloads_total"
    )
    columns = next(global_store.dns_segments())[0]
    payload = columns.to_bytes()
    layers["atlas.columnar.encode_ms_per_segment"] = _timeit_ms(columns.to_bytes)
    layers["atlas.columnar.decode_ms_per_segment"] = _timeit_ms(
        lambda: DnsColumns.from_bytes(payload)
    )

    campaign = scenario.global_campaign
    probe = scenario.global_probes[0]
    resolve_samples = []
    tick_samples = []
    for extra in range(1, 4):
        now = end + extra * STEP_SECONDS
        context = probe.context(now)
        began = time.perf_counter()
        probe.resolver.resolve(campaign.target, context)
        resolve_samples.append(time.perf_counter() - began)
        began = time.perf_counter()
        campaign.maybe_run(now)
        tick_samples.append(time.perf_counter() - began)
    layers["dns.resolver.resolve_us"] = statistics.median(resolve_samples) * 1e6
    layers["atlas.campaign.tick_ms"] = statistics.median(tick_samples) * 1e3
    return layers
