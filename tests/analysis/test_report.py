"""Tests for repro.analysis.report — the one-shot reproduction report."""

from repro.analysis.report import generate_report, measure, render
from repro.simulation import ScenarioConfig, Sep2017Scenario


class TestGenerateReport:
    def test_full_run_report(self, event_run):
        scenario, _, _ = event_run
        report = generate_report(scenario)
        for marker in (
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figures 6-8",
            "decision points",
            "34 Apple edge sites",
            "Offload impact",
            "Overflow by handover AS",
            "availability checks passed",
            "min-RTT geolocation",
        ):
            assert marker in report, marker

    def test_figure4_rows_per_continent(self, event_run):
        scenario, _, _ = event_run
        report = generate_report(scenario)
        for continent in ("Europe", "North America", "Asia"):
            assert continent in report

    def test_traffic_section_reads_the_same_off_every_flow(self, event_run):
        """The report classifies the hourly roll-up; ``classified`` is all flows."""
        from repro.analysis.offload import summarize_offload
        from repro.analysis.overflow import summarize_overflow
        from repro.simulation import AS_TRANSIT_D

        scenario, _, classified = event_run
        assert len(scenario.netflow.records.rollup(3600.0)) < len(classified)
        tl = scenario.timeline
        release = tl.ios_11_0_release
        report = generate_report(scenario)
        assert summarize_offload(classified, tl.day_start(release)).render() in report
        overflow = summarize_overflow(
            classified,
            new_as=AS_TRANSIT_D,
            isp=scenario.isp,
            snmp=scenario.snmp,
            peak_probe_times=[release + hour * 3600.0 for hour in range(48)],
        )
        assert overflow.render(label_time=tl.date_label) in report

    def test_no_flow_object_outlives_run_and_report(self, monkeypatch):
        """The run's growing state is columns: a run, its figure set and
        its report leave no per-flow or per-traceroute object, and every
        answer pool is an array of address values.  Measuring the figures
        does not even build one: Figures 7/8 fold the roll-up's columns.

        The regression this guards against is the flow log (or the
        report) going back to one live ``FlowRecord`` / ``ClassifiedFlow``
        per flow, the traceroute log to one ``TracerouteMeasurement``
        and its ``TracerouteHop``s per trace, or a deployment's pool
        memo to tuples of addresses — at replay scale the cyclic
        collector's passes over such a heap were a quarter of the run.
        """
        import gc
        from array import array

        from repro.atlas import TracerouteHop, TracerouteMeasurement
        from repro.isp import ClassifiedFlow, FlowRecord
        from repro.simulation import SimulationEngine
        from repro.workload import TIMELINE

        per_row = (FlowRecord, ClassifiedFlow, TracerouteMeasurement, TracerouteHop)

        def per_flow_objects():
            gc.collect()
            return {
                id(obj) for obj in gc.get_objects() if isinstance(obj, per_row)
            }

        before = per_flow_objects()  # other tests' fixtures may hold some
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=4, isp_probe_count=3)
        )
        engine = SimulationEngine(scenario, step_seconds=1800.0)
        assert engine.run(TIMELINE.at(9, 18), TIMELINE.at(9, 20)) == 96
        built = {FlowRecord: 0, ClassifiedFlow: 0}
        for cls in built:
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        figures = measure(scenario)  # held across the check below
        assert built == {FlowRecord: 0, ClassifiedFlow: 0}
        assert scenario.netflow.records[0].bytes > 0  # the probe sees this one
        assert built[FlowRecord] == 1
        monkeypatch.undo()
        assert "Offload impact" in render(figures)
        assert len(scenario.netflow) > 10_000
        assert scenario.traceroute_campaign.store.traceroute_count > 100
        assert not per_flow_objects() - before
        pools = []
        for deployment in scenario.estate.deployments.values():
            # One memo entry per vantage, holding one pool: the memo is
            # bounded by the vantages, not by the counts they saw.
            for (region, _coordinates), memo in deployment._vantages.items():
                assert memo.count <= len(deployment.servers_in_region(region))
                pools.append(memo.pool)
        assert pools
        assert all(type(pool) is array and pool.typecode == "I" for pool in pools)

    def test_report_without_any_run(self):
        """A fresh scenario (no engine run) degrades gracefully."""
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=1, isp_probe_count=1)
        )
        report = generate_report(scenario)
        assert "(no AWS-VM measurements in this run)" in report
        assert "(no global campaign measurements in this run)" in report
        assert "(no ISP traffic collected in this run)" in report
        # Site discovery needs no measurements: it still appears.
        assert "34 Apple edge sites" in report


class TestScoreboard:
    # The event run's measured values, recorded before the scoreboard read
    # the report's figure set (when it still classified every flow itself).
    EVENT_RUN_VALUES = {
        "apple-sites": 34,
        "apple-edge-bx": 1072,
        "fig7-apple-peak-ratio": 2.102450669675811,
        "fig7-limelight-peak-ratio": 4.260328913022804,
        "fig7-akamai-peak-ratio": 1.2014817742535469,
        "fig7-excess-apple": 0.342180740541266,
        "fig7-excess-limelight": 0.49267867627084583,
        "fig7-excess-akamai": 0.1651405831878882,
        "fig8-asd-peak-overflow-share": 0.55,
        "fig8-asd-saturated-links": 2,
        "fig4-europe-spike-factor": 3.041036717062635,
    }

    def test_all_targets_pass_on_event_run(self, event_run):
        from repro.analysis.report import measure
        from repro.analysis.scoreboard import evaluate_scoreboard, render_scoreboard

        scenario, _, _ = event_run
        checks = evaluate_scoreboard(measure(scenario))
        assert {check.name: check.measured for check in checks} == self.EVENT_RUN_VALUES
        failing = [check.name for check in checks if not check.passed]
        assert not failing, failing
        text = render_scoreboard(checks)
        assert f"{len(checks)}/{len(checks)} targets in band" in text

    def test_a_target_the_run_cannot_measure_is_a_failing_row(self):
        """No run: only the estate's structure is measurable, and every
        other target still gets its row, counted against the full list."""
        from repro.analysis.report import measure
        from repro.analysis.scoreboard import (
            PAPER_TARGETS,
            evaluate_scoreboard,
            render_scoreboard,
        )

        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=1, isp_probe_count=1)
        )
        checks = evaluate_scoreboard(measure(scenario))
        assert [check.name for check in checks] == list(PAPER_TARGETS)
        unmeasured = [check for check in checks if check.measured is None]
        assert {check.name for check in checks if check not in unmeasured} == {
            "apple-sites", "apple-edge-bx",
        }
        assert not any(check.passed for check in unmeasured)
        text = render_scoreboard(checks)
        assert text.startswith(f"Reproduction scoreboard: 2/{len(PAPER_TARGETS)} ")
        assert text.count("not measured") == len(PAPER_TARGETS) - 2

    def test_target_check_bounds(self):
        from repro.analysis.scoreboard import TargetCheck

        inside = TargetCheck("x", "1", measured=1.0, low=0.5, high=1.5)
        outside = TargetCheck("x", "1", measured=2.0, low=0.5, high=1.5)
        missing = TargetCheck("x", "1", measured=None, low=0.5, high=1.5)
        assert inside.passed
        assert not outside.passed
        assert not missing.passed
        assert "FAIL" in outside.render()
        assert "ok" in inside.render()
        assert "FAIL" in missing.render() and "not measured" in missing.render()
