"""The one selftest: one verdict for both shapes of edge, no dropped flags.

``selftest(workers=1)`` is the in-process single loop, ``workers >= 2``
the forked fleet; both return a :class:`SelftestReport` and the checks
they share are computed by the same lines.  A flag the chosen shape
cannot honour exits non-zero naming it — before anything is booted.
"""

import re

import pytest

from repro.cli import main
from repro.obs import EventTracer
from repro.serve import (
    ClusterConfig,
    LoadConfig,
    ShapeError,
    drive_load,
    fleet_supported,
    selftest,
)

needs_fleet = pytest.mark.skipif(
    not fleet_supported(), reason="platform lacks SO_REUSEPORT fork fleets"
)

SMALL = ["--requests", "90", "--concurrency", "12", "--qps-floor", "1"]


@needs_fleet
def test_single_loop_and_fleet_share_check_labels():
    config = ClusterConfig(resolver_population="mixed")
    single = selftest(
        workers=1, requests=200, concurrency=16, cluster_config=config
    )
    fleet = selftest(
        workers=2, requests=200, concurrency=16, cluster_config=config
    )
    single_labels = [label for label, _ in single.checks(qps_floor=1.0)]
    fleet_checks = fleet.checks(qps_floor=1.0)
    fleet_labels = [label for label, _ in fleet_checks]
    # Every single-loop check is a fleet check, same label, same order;
    # the fleet then adds its own on top.
    assert fleet_labels[:len(single_labels)] == single_labels
    assert len(fleet_labels) == len(single_labels) + 3
    assert "cache hit metrics present" in single_labels
    assert "public-resolver cache-dilution metrics present" in single_labels
    # The two the fleet used not to carry are read off the merged
    # registry and hold there.
    assert dict(fleet_checks)["cache hit metrics present"]
    assert dict(fleet_checks)["public-resolver cache-dilution metrics present"]
    assert single.passed(qps_floor=1.0), single.render(qps_floor=1.0)
    assert fleet.passed(qps_floor=1.0), fleet.render(qps_floor=1.0)
    assert "\nselftest PASSED" in single.render(qps_floor=1.0)
    assert "\nfleet selftest PASSED" in fleet.render(qps_floor=1.0)
    assert fleet.workers == 2 and fleet.processes == 2
    assert fleet.reference is not None and fleet.speedup > 0.0
    assert single.reference is None and single.speedup == 0.0


class TestNoFlagDroppedSilently:
    """Each (flag, mode) pair the parent commit ignored without a word."""

    def test_fleet_trace_out_is_refused(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest", "--workers", "2", *SMALL,
                  "--trace-out", str(tmp_path / "t.jsonl")])
        assert "--trace-out" in str(exit_info.value)
        assert exit_info.value.code != 0
        assert not (tmp_path / "t.jsonl").exists()

    def test_fleet_trace_sample_is_refused(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest", "--workers", "2", *SMALL,
                  "--trace-sample", "0.5"])
        assert "--trace-sample" in str(exit_info.value)

    def test_single_loop_processes_is_refused(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest", "--workers", "1", *SMALL, "--processes", "2"])
        assert "--processes" in str(exit_info.value)

    def test_single_loop_arrival_and_duration_are_honoured(self, capsys):
        code = main(["selftest", *SMALL,
                     "--arrival", "uniform", "--duration", "1.5"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "selftest PASSED" in out
        # An open loop cannot finish before its last scheduled arrival;
        # 90 closed-loop requests take a fraction of that.
        elapsed = float(re.search(r"elapsed\s+([\d.]+) s", out).group(1))
        assert elapsed >= 1.2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_duration_without_arrival_is_refused(self, workers):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest", "--workers", workers, *SMALL,
                  "--duration", "2"])
        assert "--duration" in str(exit_info.value)

    def test_single_loop_explicit_one_process_is_fine(self, capsys):
        assert main(["selftest", *SMALL, "--processes", "1"]) == 0
        assert "selftest PASSED" in capsys.readouterr().out

    def test_loadgen_fleet_tracing_is_refused(self, tmp_path):
        endpoints = ["--dns", "127.0.0.1:1", "--http", "127.0.0.1:1"]
        for tracing in (["--trace-out", str(tmp_path / "t.jsonl")],
                        ["--trace-sample", "0.5"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["loadgen", *endpoints, "--processes", "2", *tracing])
            assert tracing[0] in str(exit_info.value)

    def test_library_raises_shape_error(self):
        with pytest.raises(ShapeError, match="--trace-out"):
            selftest(workers=2, tracer=EventTracer())
        with pytest.raises(ShapeError, match="--processes"):
            selftest(workers=1, processes=3)
        with pytest.raises(ShapeError, match="--trace-out"):
            drive_load(("127.0.0.1", 1), ("127.0.0.1", 1), LoadConfig(),
                       processes=2, tracer=EventTracer())
