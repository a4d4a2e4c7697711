"""Tests for the command-line interface."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import build_parser, flags, main
from repro.obs import parse_exposition


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.start == "9-17"
        assert args.probes == 60

    def test_simulate_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "--start", "9-18", "--end", "9-19", "--probes", "5"]
        )
        assert args.start == "9-18"
        assert args.probes == 5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_telemetry_flags_on_both_run_commands(self):
        for command in ("simulate", "report"):
            args = build_parser().parse_args(
                [command, "--metrics-out", "m.prom",
                 "--trace-out", "t.jsonl", "--verbose"]
            )
            assert args.metrics_out == "m.prom"
            assert args.trace_out == "t.jsonl"
            assert args.verbose is True


class TestCommands:
    def test_simulate_runs_and_reports(self, capsys):
        code = main(
            ["simulate", "--start", "9-18", "--end", "9-19",
             "--probes", "4", "--isp-probes", "3", "--step", "3600"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "EU demand" in captured
        assert "DNS measurements" in captured

    def test_bad_date_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--start", "bogus"])

    def test_survey_prints_all_three_analyses(self, capsys):
        code = main(["survey"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "decision points" in captured              # Figure 2
        assert "34 Apple edge sites" in captured          # Figure 3
        assert "origin -> edge-lx -> edge-bx" in captured # Section 3.3

    def test_simulate_verbose_prints_per_step_lines(self, capsys):
        code = main(
            ["simulate", "--start", "9-18", "--end", "9-19",
             "--probes", "3", "--isp-probes", "2", "--step", "3600",
             "--verbose"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        # one line per engine step, with the split and the flow count
        step_lines = [l for l in captured.splitlines() if "flows=" in l]
        assert len(step_lines) == 24
        assert "Apple=" in step_lines[0]
        # and the closing metrics summary table
        assert "engine_steps_total" in captured

    def test_simulate_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.prom"
        trace_path = tmp_path / "t.jsonl"
        code = main(
            ["simulate", "--start", "9-19", "--end", "9-20",
             "--probes", "4", "--isp-probes", "3", "--step", "3600",
             "--metrics-out", str(metrics_path),
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        families = parse_exposition(metrics_path.read_text())
        assert families["engine_steps_total"].value() == 24
        assert "dns_queries_total" in families
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        names = {record["name"] for record in records}
        assert "offload_engaged" in names
        assert "link_saturated" in names
        assert "release" in names

    def test_report_covers_every_figure(self, capsys):
        code = main(
            ["report", "--probes", "6", "--isp-probes", "4", "--step", "3600"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        for marker in (
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figures 6-8",
            "Offload impact",
            "Overflow by handover AS",
        ):
            assert marker in captured, marker


CATCHMENTS = [
    "catchments", "--start", "9-19", "--end", "9-20", "--step", "3600",
    "--probes", "6", "--isp-probes", "4",
    "--fault", "route-withdraw@itmil-1:3600-10800",
]
CATCHMENTS_TEXT = """\
catchment map at Sep 20 (anycast steering, 10 client groups, 34 sites, signature 32edbccd43ea30dc):
  defra-1       10.0%  (eu) ####
  frpar-1       10.0%  (eu) ####
  itmil-1       20.0%  (eu) ########
  nlams-1       10.0%  (eu) ####
  semma-1       20.0%  (eu) ########
  uklon-1       20.0%  (eu) ########
  usatl-1       10.0%  (us) ####

ticks observed        24
sites live            8 / 34
catchment-map changes 2
affinity-break rate   0.0167 (group-moves per group per tick)
shifted traffic       1765.2 Gbps
mapping distance      908 km mean (nearest-site ideal 190 km, anycast cost +717 km)
"""
FINAL_SHARES = {
    "defra-1": 0.1, "frpar-1": 0.1, "itmil-1": 0.2, "nlams-1": 0.1,
    "semma-1": 0.2, "uklon-1": 0.2, "usatl-1": 0.1,
}
CATCHMENTS_JSON = {
    "catchments": {
        "affinity_break_rate": 0.016667,
        "map_changes": 2,
        "mapping_distance_delta_km": 717.493,
        "mapping_distance_km": 907.546,
        "nearest_distance_km": 190.052,
        "peak_share_by_site": dict(FINAL_SHARES, **{"esmad-1": 0.1, "nlams-1": 0.2}),
        "shifted_gbps_total": 1765.155693,
        "sites_live": 8,
        "ticks": 24,
    },
    "final_map": {
        "assignments": {
            "probe-1000": "itmil-1", "probe-1001": "semma-1",
            "probe-1002": "itmil-1", "probe-1003": "frpar-1",
            "probe-1004": "semma-1", "probe-1005": "usatl-1",
            "probe-20000": "uklon-1", "probe-20001": "nlams-1",
            "probe-20002": "defra-1", "probe-20003": "uklon-1",
        },
        "share_by_site": FINAL_SHARES,
        "signature": "32edbccd43ea30dc",
    },
    "steering": "anycast",
}


class TestCatchmentsCommand:
    """``repro catchments`` output, pinned over a window with a
    withdrawn site (so the churn lines are not all zero)."""

    def test_text(self, capsys):
        assert main(CATCHMENTS) == 0
        assert capsys.readouterr().out == CATCHMENTS_TEXT

    def test_json(self, capsys):
        assert main([*CATCHMENTS, "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == CATCHMENTS_JSON
        assert out == json.dumps(CATCHMENTS_JSON, indent=2, sort_keys=True) + "\n"


PROBES = ["--probes", "4", "--isp-probes", "3"]
WINDOW = ["--start", "9-18", "--end", "9-20", *PROBES]


class TestCheckpointFlags:
    """A checkpoint flag that cannot do what it says is one line on
    exit, before any work — never a silent no-op, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["--checkpoint-every", "8"],
         "--checkpoint-every needs --checkpoint-dir"),
        (["--checkpoint-dir", "DIR"],
         "--checkpoint-dir needs --checkpoint-every"),
        (["--checkpoint-every", "-1", "--checkpoint-dir", "DIR"],
         "--checkpoint-every must be a positive tick count"),
    ], ids=["every-without-dir", "dir-without-every", "negative-every"])
    def test_simulate_rejects_half_a_plan(
        self, tmp_path, argv, message
    ):
        directory = tmp_path / "ckpts"
        argv = [str(directory) if word == "DIR" else word for word in argv]
        with pytest.raises(SystemExit) as caught:
            main(["simulate", *WINDOW, *argv])
        assert caught.value.code == message
        assert not directory.exists()

    def test_resume_from_a_directory_keeps_checkpointing_into_it(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "ckpts"
        argv = ["--checkpoint-every", "24", "--checkpoint-dir", str(directory)]
        one_day = ["--start", "9-18", "--end", "9-19", *PROBES]
        assert main(["simulate", *one_day, *argv]) == 0
        assert sorted(p.name for p in directory.iterdir()) == [
            "ckpt-00000024.rckpt", "ckpt-00000048.rckpt"
        ]
        with pytest.raises(SystemExit) as caught:
            main(["resume", "--from", str(directory),
                  "--checkpoint-dir", str(directory)])
        assert caught.value.code == "--checkpoint-dir needs --checkpoint-every"
        code = main(["resume", "--from", str(directory), "--end", "9-20",
                     "--checkpoint-every", "24"])
        assert code == 0
        assert "resumed from step 48" in capsys.readouterr().out
        assert "ckpt-00000096.rckpt" in {p.name for p in directory.iterdir()}


class TestReplayFlagValues:
    """A flag value the replay refuses is one line on exit,
    ``<command>: <message>``, before the engine runs: no traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", *PROBES, "--step", "0"],
         "simulate: step_seconds must be positive"),
        (["simulate", "--probes", "-1", "--isp-probes", "3"],
         "simulate: count must be positive"),
        (["simulate", *PROBES, "--workers", "0"],
         "simulate: workers must be >= 1"),
        (["simulate", *PROBES, "--public-resolver-share", "2"],
         "simulate: public_resolver_share must be within [0, 1]"),
        (["simulate", *PROBES, "--start", "9-20", "--end", "9-18"],
         "simulate: end must be after start"),
        (["report", *PROBES, "--step", "0"],
         "report: step_seconds must be positive"),
        (["catchments", *PROBES, "--workers", "0"],
         "catchments: workers must be >= 1"),
        (["resolvers", *PROBES, "--step", "0"],
         "resolvers: step_seconds must be positive"),
        (["profile", *PROBES, "--start", "9-20", "--end", "9-18"],
         "profile: end must be after start"),
    ], ids=["simulate-step", "simulate-probes", "simulate-workers",
            "simulate-share", "simulate-window", "report-step",
            "catchments-workers", "resolvers-step", "profile-window"])
    def test_exits_as_one_line_before_running(self, monkeypatch, argv, message):
        from repro.simulation import SimulationEngine

        def run(*_args, **_kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(SimulationEngine, "run", run)
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == message


class TestLostWorker:
    def test_a_lost_worker_is_exit_3_and_one_line_then_resume_finishes(
        self, tmp_path, capsys, monkeypatch
    ):
        assert main(["simulate", *WINDOW]) == 0
        uninterrupted = capsys.readouterr().out.splitlines()[-1]
        assert uninterrupted.startswith("96 steps; ")

        before = {p.pid for p in multiprocessing.active_children()}
        steps = []

        def kill_a_worker_at_step_20(report):
            steps.append(report.now)
            if len(steps) == 20:
                children = {p.pid for p in multiprocessing.active_children()}
                os.kill(min(children - before), signal.SIGKILL)

        monkeypatch.setattr(flags, "print_step", kill_a_worker_at_step_20)
        directory = tmp_path / "ckpts"
        code = main(["simulate", *WINDOW, "--workers", "2", "--verbose",
                     "--checkpoint-every", "64",
                     "--checkpoint-dir", str(directory)])
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("repro simulate: shard ")
        assert "worker process died" in line
        assert f"`repro resume --from {directory}`" in line
        assert {p.pid for p in multiprocessing.active_children()} <= before

        assert main(["resume", "--from", str(directory), "--workers", "2"]) == 0
        resumed = capsys.readouterr().out.splitlines()[-1]
        assert resumed.startswith(f"resumed from step {len(steps)} ")
        assert resumed.endswith(uninterrupted.partition("; ")[2])


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.dns_port == 5333
        assert args.http_port == 8080

    def test_loadgen_requires_endpoints(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])

    def test_loadgen_bad_endpoint_exits(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--dns", "nonsense", "--http", "127.0.0.1:1",
                  "--requests", "1"])

    def test_serve_refuses_object_size_before_booting(self, monkeypatch):
        from repro.serve import harness

        def edge(*_args, **_kwargs):
            raise AssertionError("an edge was booted")

        monkeypatch.setattr(harness, "ServeCluster", edge)
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--object-size", "0"])
        assert caught.value.code == "serve: object_size must be positive"

    @pytest.mark.parametrize("argv,message", [
        (["serve", "--dns-port", "70000"],
         "serve: --dns-port must be in 0..65535, got 70000"),
        (["serve", "--http-port", "-1"],
         "serve: --http-port must be in 0..65535, got -1"),
        (["serve", "--admin-port", "99999"],
         "serve: --admin-port must be in 0..65535, got 99999"),
        (["serve", "--resolver-port", "65536"],
         "serve: --resolver-port must be in 0..65535, got 65536"),
        (["loadgen", "--dns", "127.0.0.1:70000", "--http", "127.0.0.1:1"],
         "loadgen: the port of '127.0.0.1:70000' must be in 1..65535, got 70000"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:0"],
         "loadgen: the port of '127.0.0.1:0' must be in 1..65535, got 0"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1",
          "--resolver", "127.0.0.1:65536"],
         "loadgen: the port of '127.0.0.1:65536' must be in 1..65535, got 65536"),
        (["top", "--endpoint", "127.0.0.1:99999"],
         "top: the port of '127.0.0.1:99999' must be in 1..65535, got 99999"),
    ])
    def test_out_of_range_port_exits_as_one_line_before_binding(
        self, monkeypatch, argv, message
    ):
        # These used to die in bind() / connect() with an OverflowError
        # traceback.
        from repro.serve import harness

        def no_socket(*_args, **_kwargs):
            raise AssertionError("a socket was opened for a port it must refuse")

        for name in ("ServeCluster", "LoadGenerator"):
            monkeypatch.setattr(harness, name, no_socket)
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == message

    @pytest.fixture
    def recorded_loads(self, monkeypatch):
        """The configs `repro loadgen` hands the in-process generator
        (nothing is sent: each run answers one request at once)."""
        from repro.serve import LoadReport, harness

        seen = []

        class Recorder:
            def __init__(self, **kwargs):
                seen.append(kwargs["config"])

            async def run(self):
                return LoadReport(
                    requests=1, ok=1, errors=0, elapsed_seconds=1.0,
                    dns_queries=1, dns_timeouts=0, tcp_fallbacks=0,
                    body_bytes=1,
                )

        monkeypatch.setattr(harness, "LoadGenerator", Recorder)
        return seen

    LOADGEN = ["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1"]

    @pytest.mark.parametrize("requests,span", [(1000, 2.0), (5000, 10.0)])
    def test_loadgen_arrival_span_is_the_harness_rule(
        self, recorded_loads, capsys, requests, span
    ):
        # No --duration: max(2, requests / 500) s, as every open loop.
        assert main([*self.LOADGEN, "--requests", str(requests),
                     "--arrival", "flash-crowd"]) == 0
        (config,) = recorded_loads
        assert config.arrival.total_requests == requests
        assert config.arrival.duration == span

    @pytest.mark.parametrize("flags,message", [
        (["--arrival", "flash-crowd", "--duration", "0"],
         "loadgen: duration must be positive and finite"),
        (["--arrival", "uniform", "--duration", "-2"],
         "loadgen: duration must be positive and finite"),
        (["--duration", "2"], "loadgen: --duration requires --arrival"),
    ])
    def test_loadgen_bad_duration_exits_before_any_load(
        self, recorded_loads, flags, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.LOADGEN, *flags])
        assert str(exit_info.value) == message
        assert recorded_loads == []

    def test_selftest_parser_defaults(self):
        args = build_parser().parse_args(["selftest"])
        assert args.requests == 5000
        assert args.concurrency == 64
        assert args.qps_floor == 1000.0

    def test_selftest_small_run_passes(self, capsys):
        code = main(
            ["selftest", "--requests", "150", "--concurrency", "12",
             "--qps-floor", "10"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "loadgen report" in captured
        assert "selftest PASSED" in captured
        assert "cache lookups" in captured
        assert "FAIL" not in captured

    def test_selftest_unreachable_qps_floor_fails(self, capsys):
        code = main(
            ["selftest", "--requests", "60", "--concurrency", "8",
             "--qps-floor", "100000000"]
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "selftest FAILED" in captured


class TestObservabilityParser:
    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.endpoint == "127.0.0.1:9900"
        assert args.interval == 2.0
        assert args.iterations == 0

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.workers == 4
        assert args.start == "9-18"

    def test_serve_admin_port(self):
        args = build_parser().parse_args(["serve", "--admin-port", "9123"])
        assert args.admin_port == 9123

    def test_trace_sample_on_load_commands(self):
        for command, extra in (
            ("loadgen", ["--dns", "127.0.0.1:1", "--http", "127.0.0.1:2"]),
            ("selftest", []),
        ):
            args = build_parser().parse_args(
                [command, *extra, "--trace-sample", "0.25"]
            )
            assert args.trace_sample == 0.25

    def test_flight_dir_on_engine_commands(self):
        for command in ("simulate", "report", "chaos", "profile"):
            args = build_parser().parse_args(
                [command, "--flight-dir", "flights"]
            )
            assert args.flight_dir == "flights"


class TestTopPanel:
    def _families(self, dns=100.0, http=80.0, errors=0.0):
        from repro.obs import MetricsRegistry, render_exposition

        registry = MetricsRegistry()
        registry.counter("serve_dns_queries_total").inc(dns)
        status = registry.counter("serve_http_requests_total", "", ("status",))
        status.labels("206").inc(http - errors)
        if errors:
            status.labels("502").inc(errors)
        cache = registry.counter("cache_requests_total", "", ("outcome",))
        cache.labels("hit").inc(30)
        cache.labels("miss").inc(10)
        hist = registry.histogram(
            "serve_http_handle_seconds", buckets=(0.001, 0.01, 0.1)
        ).labels()
        for value in (0.0005, 0.005, 0.05):
            hist.observe(value)
        return parse_exposition(render_exposition(registry))

    def test_first_frame_has_no_rates(self):
        from repro.cli import render_top_panel

        panel = render_top_panel(self._families(), None, 0.0)
        assert "dns        - qps" in panel
        assert "cache hit  75.0%" in panel

    def test_second_frame_computes_rates(self):
        from repro.cli import render_top_panel

        previous = self._families(dns=100.0, http=80.0)
        current = self._families(dns=300.0, http=180.0)
        panel = render_top_panel(current, previous, 2.0)
        assert "dns    100.0 qps" in panel
        assert "http     50.0 rps" in panel

    def test_error_rate_from_status_labels(self):
        from repro.cli import render_top_panel

        panel = render_top_panel(
            self._families(http=100.0, errors=5.0), None, 0.0
        )
        assert "errors   5.0%" in panel

    def test_percentile_lines(self):
        from repro.cli import render_top_panel

        panel = render_top_panel(self._families(), None, 0.0)
        assert "http handle ms" in panel
        assert "p999" in panel
        assert "dns handle ms" in panel
        assert "(no samples yet)" in panel  # no dns histogram above


class TestProfileCommand:
    def test_render_profile_empty_registry(self):
        from repro.cli import render_profile
        from repro.obs import MetricsRegistry

        assert "no phase timings" in render_profile(MetricsRegistry())

    def test_profile_reports_per_worker_phases(self, capsys):
        code = main(
            ["profile", "--start", "9-18", "--end", "9-19",
             "--step", "3600", "--probes", "4", "--isp-probes", "3",
             "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "workers=2" in out
        for needle in ("worker", "phase", "p95 ms", "share",
                       "w0", "w1", "main", "arrivals", "merge"):
            assert needle in out, needle


class TestTopCommand:
    def test_top_polls_a_live_admin_endpoint(self, capsys):
        import asyncio
        import threading

        from repro.obs import EventTracer, MetricsRegistry, use_registry
        from repro.serve import (
            ClientDirectory,
            ClusterConfig,
            LoadConfig,
            ServeCluster,
            build_serve_estate,
        )

        ready = threading.Event()
        done = threading.Event()
        box = {}

        async def serve_forever():
            registry = MetricsRegistry()
            with use_registry(registry):
                estate = build_serve_estate(ClusterConfig(servers_per_metro=2))
                cluster = ServeCluster(
                    estate=estate,
                    directory=ClientDirectory.from_adoption(),
                    metrics=registry,
                    tracer=EventTracer(),
                )
                async with cluster:
                    await cluster.drive(
                        LoadConfig(requests=40, concurrency=8)
                    )
                    box["endpoint"] = cluster.admin.endpoint
                    ready.set()
                    while not done.is_set():
                        await asyncio.sleep(0.02)

        thread = threading.Thread(
            target=lambda: asyncio.run(serve_forever()), daemon=True
        )
        thread.start()
        assert ready.wait(timeout=30), "cluster never came up"
        host, port = box["endpoint"]
        try:
            code = main(
                ["top", "--endpoint", f"{host}:{port}",
                 "--iterations", "2", "--interval", "0.05"]
            )
        finally:
            done.set()
            thread.join(timeout=10)
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("frame") == 2
        assert "qps" in out and "cache hit" in out

    def test_top_unreachable_endpoint_exits(self):
        with pytest.raises(SystemExit):
            main(["top", "--endpoint", "127.0.0.1:1",
                  "--iterations", "1"])


class TestTraceOut:
    def test_selftest_writes_trace_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        code = main(
            ["selftest", "--requests", "60", "--concurrency", "8",
             "--qps-floor", "10", "--trace-sample", "1.0",
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines
        names = {json.loads(line)["name"] for line in lines}
        assert "client.fetch" in names
        assert "serve.dns.query" in names

    def test_selftest_sampling_reports_drops(self, capsys):
        code = main(
            ["selftest", "--requests", "60", "--concurrency", "8",
             "--qps-floor", "10", "--trace-sample", "0.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sampled out" in out
