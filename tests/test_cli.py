"""Tests for the command-line interface."""

import errno
import json
import multiprocessing
import os
import signal
import socket

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
         "simulate: --checkpoint-every must be >= 0"),
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


BAD_FAULT = (
    "unknown fault kind 'bogus' (valid: dns-drop, dns-delay, dns-servfail, "
    "dns-stale, vip-outage, edge-crash, slow-start, cdn-blackout, cdn-brownout)"
)


class TestReplayFlagValues:
    """A flag value the replay refuses is one line on exit,
    ``<command>: <message>``, before the engine runs: no traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", *PROBES, "--step", "0"],
         "simulate: step_seconds must be positive"),
        (["simulate", "--probes", "-1", "--isp-probes", "3"],
         "simulate: global_probe_count must be positive"),
        (["simulate", "--probes", "4", "--isp-probes", "0"],
         "simulate: isp_probe_count must be positive"),
        (["simulate", *PROBES, "--workers", "0"],
         "simulate: workers must be >= 1"),
        (["simulate", *PROBES, "--start", "9-20", "--end", "9-18"],
         "simulate: end must be after start"),
        (["report", *PROBES, "--step", "0"],
         "report: step_seconds must be positive"),
        (["run", *PROBES, "--workers", "0"],
         "run: workers must be >= 1"),
        *(([command, "--fault", "bogus@x:1-2"], f"{command}: {BAD_FAULT}")
          for command in ("simulate", "run", "chaos")),
        (["simulate", *PROBES, "--step", "nan"],
         "simulate: step_seconds must be positive"),
        (["run", *PROBES, "--step", "inf"],
         "run: step_seconds must be finite"),
        (["report", *PROBES, "--step", "inf"],
         "report: step_seconds must be finite"),
        *((["report", *PROBES, "--store-budget-mb", value],
           "report: --store-budget-mb must be a finite number >= 0")
          for value in ("inf", "nan", "-1")),
        (["chaos", "--concurrency", "0"],
         "chaos: concurrency must be positive"),
        (["chaos", "--workers", "0"],
         "chaos: workers must be >= 1"),
        *((["resume", "--from", "no-such-dir", "--workers", value],
           "resume: workers must be >= 1")
          for value in ("0", "-1")),
        (["resume", "--from", "no-such.rckpt"],
         "resume: cannot read checkpoint no-such.rckpt: "
         "[Errno 2] No such file or directory: 'no-such.rckpt'"),
    ], ids=["simulate-step", "simulate-probes", "simulate-isp-probes",
            "simulate-workers", "simulate-window", "report-step",
            "run-workers",
            "simulate-fault", "run-fault", "chaos-fault",
            "simulate-step-nan", "run-step-inf", "report-step-inf",
            "report-budget-inf", "report-budget-nan", "report-budget-negative",
            "chaos-concurrency", "chaos-workers",
            "resume-workers-zero", "resume-workers-negative", "resume-unreadable"])
    def test_exits_as_one_line_before_running(self, monkeypatch, argv, message):
        from repro.cli import chaos
        from repro.simulation import SimulationEngine

        def run(*_args, **_kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(SimulationEngine, "run", run)
        monkeypatch.setattr(chaos, "run_chaos", run)
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
        (["serve", "--dns-port", "65536"],
         "serve: --dns-port must be in 0..65535, got 65536"),
        (["serve", "--resolver-port", "65536"],
         "serve: --resolver-port must be in 0..65535, got 65536"),
        (["loadgen", "--dns", "127.0.0.1:70000", "--http", "127.0.0.1:1"],
         "loadgen: the port of '127.0.0.1:70000' must be in 1..65535, got 70000"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:0"],
         "loadgen: the port of '127.0.0.1:0' must be in 1..65535, got 0"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1",
          "--resolver", "127.0.0.1:65536"],
         "loadgen: the port of '127.0.0.1:65536' must be in 1..65535, got 65536"),
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

    @pytest.mark.parametrize("argv,held,prefix", [
        (["serve", "--dns-port", "0", "--http-port", "{busy}"],
         socket.SOCK_STREAM, "serve: cannot bind TCP 127.0.0.1:{busy}: "),
        (["serve", "--dns-port", "{busy}", "--http-port", "0"],
         socket.SOCK_STREAM, "serve: cannot bind TCP 127.0.0.1:{busy}: "),
        (["serve", "--dns-port", "{busy}", "--http-port", "0"],
         socket.SOCK_DGRAM, "serve: cannot bind UDP 127.0.0.1:{busy}: "),
        (["selftest", "--requests", "1"], socket.SOCK_STREAM,
         "selftest: cannot bind TCP 127.0.0.1:{busy}: "),
    ], ids=["serve-http-port", "serve-dns-port", "serve-dns-port-udp",
            "selftest"])
    def test_a_port_in_use_exits_as_one_line(self, monkeypatch, argv, held,
                                             prefix):
        from repro.serve import ServeCluster

        with socket.socket(socket.AF_INET, held) as taken:
            taken.bind(("127.0.0.1", 0))
            if held == socket.SOCK_STREAM:
                taken.listen()
            busy = taken.getsockname()[1]
            if argv[0] == "selftest":
                # The selftest binds ephemeral ports: its HTTP one is taken.
                start = ServeCluster.start

                async def start_on_busy(cluster, **kwargs):
                    return await start(cluster, **kwargs, http_port=busy)

                monkeypatch.setattr(ServeCluster, "start", start_on_busy)
            with pytest.raises(SystemExit) as caught:
                main([arg.format(busy=busy) for arg in argv])
        assert caught.value.code.startswith(
            prefix.format(busy=busy) + f"[Errno {errno.EADDRINUSE}]"
        )

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

    @pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
    def test_selftest_refuses_a_qps_floor_before_booting(self, monkeypatch, floor):
        # A NaN or infinite floor used to boot the edge, drive the whole
        # load and then print "selftest FAILED".
        from repro.serve import harness

        def edge(*_args, **_kwargs):
            raise AssertionError("an edge was booted")

        monkeypatch.setattr(harness, "ServeCluster", edge)
        with pytest.raises(SystemExit) as caught:
            main(["selftest", "--qps-floor", floor])
        assert caught.value.code == (
            "selftest: --qps-floor must be a finite number >= 0"
        )

    def test_selftest_unreachable_qps_floor_fails(self, capsys):
        code = main(
            ["selftest", "--requests", "60", "--concurrency", "8",
             "--qps-floor", "100000000"]
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "selftest FAILED" in captured


class TestObservabilityParser:
    def test_trace_sample_on_load_commands(self):
        for command, extra in (
            ("loadgen", ["--dns", "127.0.0.1:1", "--http", "127.0.0.1:2"]),
            ("selftest", []),
        ):
            args = build_parser().parse_args(
                [command, *extra, "--trace-sample", "0.25"]
            )
            assert args.trace_sample == 0.25


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
