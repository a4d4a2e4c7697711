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
from repro.serve import harness
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
    assert len(fleet_labels) == len(single_labels) + 2
    assert not any("speedup" in label for label in fleet_labels)
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
    assert (single.workers, fleet.workers) == (1, 2)


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_positive_duration_is_refused_before_boot(
        self, workers, monkeypatch
    ):
        def no_boot(*_args, **_kwargs):
            raise AssertionError("an edge booted for a run it must refuse")

        monkeypatch.setattr(harness, "ServeCluster", no_boot)
        monkeypatch.setattr(harness, "ServeFleet", no_boot)
        for duration in ("0", "-1"):
            with pytest.raises(SystemExit) as exit_info:
                main(["selftest", "--workers", workers, *SMALL,
                      "--arrival", "flash-crowd", "--duration", duration])
            assert str(exit_info.value) == (
                "selftest: --duration must be positive"
            )

    @pytest.mark.parametrize("argv, message", [
        (["selftest", "--workers", "0"], "selftest: --workers must be positive"),
        (["selftest", "--workers", "-2"], "selftest: --workers must be positive"),
        (["selftest", "--concurrency", "0"],
         "selftest: concurrency must be positive"),
        (["selftest", "--requests", "0"], "selftest: requests must be positive"),
        (["selftest", "--trace-sample", "1.5"],
         "selftest: trace_sample must be in [0, 1]"),
        (["serve", "--workers", "0"], "serve: --workers must be positive"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1",
          "--requests", "0"], "loadgen: requests must be positive"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1",
          "--concurrency", "-1"], "loadgen: concurrency must be positive"),
    ])
    def test_bad_value_is_refused_before_boot(self, argv, message, monkeypatch):
        def no_boot(*_args, **_kwargs):
            raise AssertionError("an edge or a generator started for a run "
                                 "it must refuse")

        for name in ("ServeCluster", "ServeFleet", "LoadGenerator"):
            monkeypatch.setattr(harness, name, no_boot)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value) == message

    def test_library_raises_shape_error(self):
        with pytest.raises(ShapeError, match="--trace-out"):
            selftest(workers=2, tracer=EventTracer())
        with pytest.raises(ShapeError, match="--workers"):
            selftest(workers=0)
        with pytest.raises(ShapeError, match="--duration"):
            drive_load(("127.0.0.1", 1), ("127.0.0.1", 1), LoadConfig(),
                       duration=2.0)
