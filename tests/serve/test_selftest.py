"""The one selftest: one edge, one verdict, no dropped flags.

``selftest()`` boots the in-process single loop, drives it and returns a
:class:`SelftestReport` whose checks are the verdict.  A flag value the
run cannot honour exits non-zero naming it — before anything is booted.
"""

import re

import pytest

from repro.cli import main
from repro.serve import harness
from repro.serve import (
    ClusterConfig,
    LoadConfig,
    ShapeError,
    drive_load,
    selftest,
)

SMALL = ["--requests", "90", "--concurrency", "12", "--qps-floor", "1"]


def test_single_loop_checks_cover_cache_and_resolver_metrics():
    config = ClusterConfig(resolver_population="mixed")
    result = selftest(requests=200, concurrency=16, cluster_config=config)
    labels = [label for label, _ in result.checks(qps_floor=1.0)]
    assert "cache hit metrics present" in labels
    assert "public-resolver cache-dilution metrics present" in labels
    assert not any("speedup" in label for label in labels)
    assert result.passed(qps_floor=1.0), result.render(qps_floor=1.0)
    assert "\nselftest PASSED" in result.render(qps_floor=1.0)


class TestNoFlagDroppedSilently:
    """Each (flag, value) pair an earlier commit ignored without a word."""

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

    def test_duration_without_arrival_is_refused(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest", *SMALL, "--duration", "2"])
        assert "--duration" in str(exit_info.value)

    def test_non_positive_duration_is_refused_before_boot(self, monkeypatch):
        def no_boot(*_args, **_kwargs):
            raise AssertionError("an edge booted for a run it must refuse")

        monkeypatch.setattr(harness, "ServeCluster", no_boot)
        for duration in ("0", "-1"):
            with pytest.raises(SystemExit) as exit_info:
                main(["selftest", *SMALL,
                      "--arrival", "flash-crowd", "--duration", duration])
            assert str(exit_info.value) == (
                "selftest: duration must be positive and finite"
            )

    @pytest.mark.parametrize("argv, message", [
        (["selftest", "--resolver-population", "mixed",
          "--public-resolver-share", "1.5"],
         "selftest: public_resolver_share must be within [0, 1]"),
        (["selftest", "--resolver-population", "mixed",
          "--public-resolver-scope", "33"],
         "selftest: public_resolver_scope must be within [0, 32]"),
        (["selftest", "--concurrency", "0"],
         "selftest: concurrency must be positive"),
        (["selftest", "--requests", "0"], "selftest: requests must be positive"),
        (["selftest", "--trace-sample", "1.5"],
         "selftest: trace_sample must be in [0, 1]"),
        (["serve", "--resolver-population", "mixed",
          "--public-resolver-share", "2"],
         "serve: public_resolver_share must be within [0, 1]"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1",
          "--requests", "0"], "loadgen: requests must be positive"),
        (["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1",
          "--concurrency", "-1"], "loadgen: concurrency must be positive"),
    ])
    def test_bad_value_is_refused_before_boot(self, argv, message, monkeypatch):
        def no_boot(*_args, **_kwargs):
            raise AssertionError("an edge or a generator started for a run "
                                 "it must refuse")

        for name in ("ServeCluster", "LoadGenerator"):
            monkeypatch.setattr(harness, name, no_boot)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value) == message

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["selftest", *SMALL],
        ["loadgen", "--dns", "127.0.0.1:1", "--http", "127.0.0.1:1"],
    ], ids=["selftest", "loadgen"])
    def test_non_finite_duration_is_refused_before_boot(
        self, command, duration, monkeypatch
    ):
        # A NaN span used to pass the positivity check and shed most of
        # the run; an infinite one died dividing by it.
        def no_boot(*_args, **_kwargs):
            raise AssertionError("an edge or a generator started for a run "
                                 "it must refuse")

        for name in ("ServeCluster", "LoadGenerator"):
            monkeypatch.setattr(harness, name, no_boot)
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--arrival", "flash-crowd", f"--duration={duration}"])
        assert str(exit_info.value) == (
            f"{command[0]}: duration must be positive and finite"
        )

    def test_library_raises_shape_error(self):
        with pytest.raises(ShapeError, match="--duration"):
            drive_load(("127.0.0.1", 1), ("127.0.0.1", 1), LoadConfig(),
                       duration=2.0)
        with pytest.raises(ShapeError, match="--duration"):
            selftest(duration=2.0)
