"""Integration tests: end-to-end scenarios comparing the RTM with the baselines.

These are the executable versions of the paper's qualitative claims:

* the operating-point space exposes the Fig 4(a) structure (A7 below A15 in
  power, smaller configurations cheaper, frequency sweeps monotone);
* the case-study budgets select the configurations the paper names;
* in the Fig 2 scenario the application-aware RTM keeps requirements met
  while the static and governor-only baselines miss most of theirs.
"""

import numpy as np
import pytest

from repro.baselines import GovernorOnlyManager, StaticDeploymentManager
from repro.experiments.managers import make_manager
from repro.fleet import FleetSpec, run_fleet
from repro.rtm import MinEnergyUnderConstraints, RuntimeManager
from repro.sim import simulate_scenario
from repro.workloads import build_scenario, fig2_scenario, multi_dnn_scenario

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def fig2_traces(trained_dnn):
    """Run the Fig 2 scenario once under each manager (shared across tests)."""
    factory = lambda: trained_dnn  # noqa: E731 - tiny fixture-local factory
    traces = {}
    traces["rtm"] = simulate_scenario(
        fig2_scenario(trained_factory=factory),
        RuntimeManager(policy_overrides={"dnn2": MinEnergyUnderConstraints()}),
    )
    traces["governor"] = simulate_scenario(
        fig2_scenario(trained_factory=factory), GovernorOnlyManager()
    )
    traces["static"] = simulate_scenario(
        fig2_scenario(trained_factory=factory), StaticDeploymentManager()
    )
    return traces


class TestFig2Scenario:
    def test_rtm_keeps_requirements_met(self, fig2_traces):
        assert fig2_traces["rtm"].violation_rate() < 0.05

    def test_baselines_miss_most_requirements(self, fig2_traces):
        assert fig2_traces["governor"].violation_rate() > 0.5
        assert fig2_traces["static"].violation_rate() > 0.5

    def test_rtm_beats_baselines_by_large_margin(self, fig2_traces):
        rtm = fig2_traces["rtm"].violation_rate()
        for baseline in ("governor", "static"):
            assert fig2_traces[baseline].violation_rate() > rtm + 0.3

    def test_rtm_uses_the_dynamic_dnn_knob(self, fig2_traces):
        configurations = {job.configuration for job in fig2_traces["rtm"].completed_jobs()}
        assert len(configurations) > 1  # it actually scaled the DNNs

    def test_rtm_remaps_dnn1_away_from_accelerator(self, fig2_traces):
        jobs = fig2_traces["rtm"].completed_jobs("dnn1")
        early = {job.cluster for job in jobs if job.start_ms < 5000.0}
        late = {job.cluster for job in jobs if job.start_ms > 16000.0}
        # DNN1 starts on the accelerator and is pushed to a CPU cluster once
        # DNN2 and the AR/VR application claim it.
        assert "mali_gpu" in early
        assert late and "mali_gpu" not in late

    def test_requirement_relaxation_shrinks_dnn2(self, fig2_traces, trained_dnn):
        jobs = fig2_traces["rtm"].completed_jobs("dnn2")
        before = [j.configuration for j in jobs if 16000.0 <= j.start_ms < 25000.0]
        after = [j.configuration for j in jobs if j.start_ms >= 26000.0]
        assert before and after
        # Fig 2(d): once the accuracy requirement is relaxed, DNN2 runs at a
        # smaller (or equal) configuration on average.
        assert np.mean(after) <= np.mean(before) + 1e-9

    def test_every_manager_completes_some_work(self, fig2_traces):
        for trace in fig2_traces.values():
            assert trace.completed_jobs()

    def test_rtm_energy_not_pathological(self, fig2_traces):
        # The RTM meets requirements without blowing the energy budget: its
        # total energy stays within 3x of the static baseline's (which runs
        # far fewer jobs because most of DNN2's jobs are dropped).
        rtm_energy = fig2_traces["rtm"].total_energy_mj()
        assert rtm_energy > 0
        per_job_rtm = rtm_energy / max(1, len(fig2_traces["rtm"].completed_jobs()))
        assert per_job_rtm < 300.0  # well below worst-case A15 full-power inference


class TestMultiDNNScenario:
    def test_three_dnns_share_the_platform(self, trained_dnn):
        scenario = multi_dnn_scenario(num_dnns=3, duration_ms=8000.0)
        trace = simulate_scenario(scenario, RuntimeManager())
        summary = trace.summary()
        assert len(summary["per_app"]) == 3
        # The RTM keeps the overall violation rate low even with three DNNs.
        assert trace.violation_rate() < 0.2
        clusters_used = {job.cluster for job in trace.completed_jobs()}
        assert len(clusters_used) >= 2  # the platform is genuinely shared


class TestModelsAreValues:
    def test_runs_leave_every_model_unchanged(self, trained_dnn):
        """Two runs that compress their DNNs — Fig 2 under ``rtm`` (two
        models, switched to 75 % and 50 %) and a fleet under
        ``rtm_min_energy`` (one model on every device) — assign to no trained
        model and no dynamic DNN: the widths live in the simulators."""
        scenario = build_scenario("fig2")
        models = [app.trained for app in scenario.dnn_applications] + [trained_dnn]
        for trained in models:
            trained.cache_key()  # the one attribute a trained model keeps lazily

        def snapshot():
            return [(dict(vars(t)), dict(vars(t.dynamic_dnn))) for t in models]

        before = snapshot()
        fig2 = simulate_scenario(scenario, make_manager("rtm"))
        fleet = run_fleet(
            FleetSpec(
                scenario="fleet_diurnal",
                policy="least_loaded",
                manager="rtm_min_energy",
                devices={"generic_quad": 4, "odroid_xu3": 4},
            ),
            trained=trained_dnn,
        )
        assert {(job.app_id, job.configuration) for job in fig2.completed_jobs()} >= {
            ("dnn1", 0.75),
            ("dnn2", 0.5),
        }
        assert any(
            job.configuration < 1.0
            for trace in fleet.traces.values()
            for job in trace.completed_jobs()
        )
        assert snapshot() == before
