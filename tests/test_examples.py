"""Smoke tests keeping every example runnable.

Each example is executed in-process (``runpy``) with stdout captured;
the assertions pin the headline strings so a regression in any layer
surfaces here, not in a user's terminal.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "34 sites, 1072 edge-bx servers" in out
        assert "appldnld.apple.com 21600 IN CNAME" in out
        assert "Hit from cloudfront" in out
        assert "hit-fresh" in out

    def test_device_update_cycle(self, capsys):
        out = run_example("device_update_cycle.py", capsys)
        assert "1806 entries" in out
        assert "user notified: update-available" in out
        assert "iOS 11.0, up-to-date" in out

    def test_cdn_mapping_survey(self, capsys):
        out = run_example("cdn_mapping_survey.py", capsys)
        assert "decision points" in out
        assert "34 Apple edge sites" in out
        assert "edge-bx per vip" in out

    @pytest.mark.slow
    def test_ios_update_event(self, capsys):
        out = run_example("ios_update_event.py", capsys)
        assert "Figure 4 (Europe)" in out
        assert "peak traffic ratio" in out
        assert "AS65004" in out  # AS D appears in the overflow series

    @pytest.mark.slow
    def test_isp_offload_analysis(self, capsys):
        out = run_example("isp_offload_analysis.py", capsys)
        assert "SATURATED" in out
        assert "Update-attributable traffic" in out

    def test_whatif_no_offload(self, capsys):
        out = run_example("whatif_no_offload.py", capsys)
        assert "Apple only (no Meta-CDN)" in out
        assert "Meta-CDN (with offload)" in out
        assert "Offloading cuts the mean download time" in out

    @pytest.mark.slow
    def test_telemetry_dashboard(self, capsys):
        out = run_example("telemetry_dashboard.py", capsys)
        assert "five moments" in out
        assert "offload_engaged" in out
        assert "link_saturated" in out
        assert "cname_rollout" in out
        assert "engine_steps_total" in out

    def test_live_mapping_survey(self, capsys):
        out = run_example("live_mapping_survey.py", capsys)
        assert "per-vantage wire chains for appldnld.apple.com" in out
        assert "de-frankfurt" in out and "za-johannesburg" in out
        assert "operators answering:" in out and "Apple" in out
        assert "HTTP 206" in out
        assert "Content-Range: bytes 0-4095/" in out
        assert "edge-lx" in out  # the §3.3 Via chain came over the wire

    @pytest.mark.slow
    def test_release_day_closeup(self, capsys):
        out = run_example("release_day_closeup.py", capsys)
        assert "delegation trace" in out
        assert "device stories" in out
        assert "downloads by CDN" in out
