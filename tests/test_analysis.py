"""Tests for the analysis subpackage (timelines and reports)."""

import pytest

from repro.analysis.report import (
    OPERATING_POINT_HEADERS,
    format_markdown_table,
    format_operating_points,
    format_table,
    format_trace_comparison,
    operating_point_rows,
    trace_comparison_rows,
)
from repro.analysis.timeline import (
    adaptation_events,
    application_timeline,
    phase_boundaries_from_scenario,
)
from repro.rtm.operating_points import OperatingPoint
from repro.sim.trace import JobRecord, SimulationTrace
from repro.workloads import fig2_scenario


def _job(app_id, release, cluster, configuration, dropped=False, violations=()):
    return JobRecord(
        app_id=app_id,
        job_index=0,
        release_ms=release,
        start_ms=release,
        finish_ms=release + 10.0,
        latency_ms=10.0,
        energy_mj=5.0,
        configuration=configuration,
        accuracy_percent=71.2,
        cluster=cluster,
        cores=1,
        frequency_mhz=1000.0,
        violations=violations,
        dropped=dropped,
    )


class TestTimeline:
    def test_phase_boundaries_from_scenario(self, trained_dnn):
        scenario = fig2_scenario(trained_factory=lambda: trained_dnn)
        boundaries = phase_boundaries_from_scenario(scenario)
        assert boundaries[0] == 0.0
        assert boundaries[-1] == scenario.duration_ms
        assert 5000.0 in boundaries and 15000.0 in boundaries and 25000.0 in boundaries

    def test_application_timeline_windows(self):
        trace = SimulationTrace(duration_ms=4000.0)
        trace.record_job(_job("a", 500.0, "a15", 1.0))
        trace.record_job(_job("a", 1500.0, "a7", 0.5))
        trace.record_job(_job("a", 2500.0, "a7", 0.5, dropped=True))
        phases = application_timeline(trace, "a", boundaries=[0.0, 1000.0, 2000.0, 4000.0])
        assert len(phases) == 3
        assert phases[0].clusters == ("a15",)
        assert phases[1].clusters == ("a7",)
        assert phases[1].mean_configuration == pytest.approx(0.5)
        assert phases[2].dropped == 1
        assert phases[2].violation_rate == 1.0

    def test_application_timeline_default_quarters(self):
        trace = SimulationTrace(duration_ms=4000.0)
        trace.record_job(_job("a", 100.0, "a15", 1.0))
        phases = application_timeline(trace, "a")
        assert len(phases) == 4

    def test_application_timeline_requires_two_boundaries(self):
        trace = SimulationTrace(duration_ms=1000.0)
        with pytest.raises(ValueError):
            application_timeline(trace, "a", boundaries=[0.0])

    def test_adaptation_events_detect_cluster_and_width_changes(self):
        trace = SimulationTrace(duration_ms=3000.0)
        trace.record_job(_job("a", 0.0, "mali_gpu", 1.0))
        trace.record_job(_job("a", 1000.0, "a7", 1.0))
        trace.record_job(_job("a", 2000.0, "a7", 0.5))
        events = adaptation_events(trace, "a")
        kinds = [event.kind for event in events]
        assert kinds == ["cluster", "configuration"]
        assert "mali_gpu -> a7" in str(events[0])

    def test_adaptation_events_all_apps_sorted(self):
        trace = SimulationTrace(duration_ms=3000.0)
        trace.record_job(_job("b", 0.0, "a15", 1.0))
        trace.record_job(_job("b", 2000.0, "a7", 1.0))
        trace.record_job(_job("a", 0.0, "a15", 1.0))
        trace.record_job(_job("a", 1000.0, "a7", 1.0))
        events = adaptation_events(trace)
        assert [event.app_id for event in events] == ["a", "b"]
        assert events[0].time_ms <= events[1].time_ms


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.2345], ["long-name", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text

    def test_format_markdown_table(self):
        text = format_markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "| a | b |"
        assert "|---|---|" in text

    def test_operating_point_rows_and_format(self):
        point = OperatingPoint(
            cluster_name="a7",
            frequency_mhz=900.0,
            cores=1,
            configuration=1.0,
            latency_ms=401.0,
            power_mw=193.0,
            energy_mj=77.4,
            accuracy_percent=71.2,
            confidence_percent=73.0,
        )
        rows = operating_point_rows([point])
        assert rows[0][0] == "a7"
        assert rows[0][1] == 100
        text = format_operating_points([point])
        assert "a7" in text and str(OPERATING_POINT_HEADERS[0]) in text
        markdown = format_operating_points([point], markdown=True)
        assert markdown.startswith("| cluster")

    def test_format_operating_points_limit(self):
        point = OperatingPoint("a7", 900.0, 1, 1.0, 400.0, 200.0, 80.0, 71.2, 73.0)
        text = format_operating_points([point, point, point], limit=1)
        assert text.count("a7") == 1

    def test_trace_comparison(self):
        trace = SimulationTrace(duration_ms=1000.0)
        trace.record_job(_job("a", 0.0, "a15", 1.0))
        rows = trace_comparison_rows({"rtm": trace})
        assert rows[0][0] == "rtm"
        text = format_trace_comparison({"rtm": trace})
        assert "violation rate" in text
        markdown = format_trace_comparison({"rtm": trace}, markdown=True)
        assert markdown.startswith("| manager")
