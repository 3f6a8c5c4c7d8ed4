"""Tests for the named-scenario registry."""

import pytest

from repro.workloads import (
    SCENARIO_REGISTRY,
    Scenario,
    build_scenario,
    register_scenario,
    scenario_summaries,
)


class TestRegistryContents:
    def test_paper_and_synthetic_scenarios_registered(self):
        expected = {
            "fig2",
            "single_dnn",
            "multi_dnn",
            "thermal_stress",
            "steady",
            "bursty",
            "rush_hour",
            "multi_app_contention",
            "accuracy_critical",
            "battery_saver",
            "mixed_criticality",
            "overload",
        }
        assert expected <= set(SCENARIO_REGISTRY)

    def test_composition_layer_registered(self):
        composition_layer = {
            "compose",
            "trace",
            "fuzzed",
            "rush_hour_then_battery_saver",
            "steady_then_overload",
            "mixed_criticality_overload",
            "battery_saver_accuracy_critical",
            "fig2_bursty",
            "double_rush_hour",
            "bursty_x2_exynos",
            "overload_slow_motion",
            "thermal_stress_jittered",
        }
        assert composition_layer <= set(SCENARIO_REGISTRY)
        assert len(SCENARIO_REGISTRY) >= 20

    def test_every_entry_has_a_summary(self):
        summaries = scenario_summaries()
        assert set(summaries) == set(SCENARIO_REGISTRY)
        for name, summary in summaries.items():
            assert summary, name

    def test_every_entry_builds_a_valid_scenario(self):
        from repro.workloads import scenario_is_seeded

        for name in SCENARIO_REGISTRY:
            scenario = build_scenario(name, seed=1 if scenario_is_seeded(name) else 0)
            assert isinstance(scenario, Scenario), name
            assert scenario.duration_ms > 0, name
            assert scenario.applications, name

    def test_entries_are_zero_argument_callables(self):
        # The CLI `scenario` command and legacy callers invoke builders with
        # no arguments; every registered builder must default its parameters.
        scenario = SCENARIO_REGISTRY["steady"]()
        assert isinstance(scenario, Scenario)


class TestSeeding:
    def test_same_seed_is_deterministic(self):
        a = build_scenario("bursty", seed=3)
        b = build_scenario("bursty", seed=3)
        assert [app.app_id for app in a.applications] == [app.app_id for app in b.applications]
        assert [app.arrival_time_ms for app in a.applications] == [
            app.arrival_time_ms for app in b.applications
        ]
        assert [app.requirements.target_fps for app in a.applications] == [
            app.requirements.target_fps for app in b.applications
        ]

    def test_different_seeds_differ(self):
        a = build_scenario("bursty", seed=1)
        b = build_scenario("bursty", seed=2)
        assert [app.arrival_time_ms for app in a.applications] != [
            app.arrival_time_ms for app in b.applications
        ]

    def test_seeded_flag_marks_generator_scenarios(self):
        from repro.workloads import scenario_is_seeded

        assert scenario_is_seeded("bursty")
        assert scenario_is_seeded("steady")
        # The hand-written paper timelines ignore the seed.
        for name in ("fig2", "single_dnn", "multi_dnn", "thermal_stress"):
            assert not scenario_is_seeded(name), name
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_is_seeded("nope")

    def test_platform_name_is_forwarded(self):
        scenario = build_scenario("steady", seed=0, platform_name="jetson_nano")
        assert scenario.platform_name == "jetson_nano"
        assert scenario.build_platform().name == "jetson_nano"

    def test_platform_pinned_scenario_rejects_other_boards(self):
        # The scenario's name promises the Exynos board; running it elsewhere
        # must fail loudly instead of mislabelling the experiment.
        with pytest.raises(ValueError, match="pinned to the odroid_xu3"):
            build_scenario("bursty_x2_exynos", seed=0, platform_name="jetson_nano")


class TestErrors:
    def test_unknown_scenario_raises_with_available_names(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'.*steady"):
            build_scenario("nope")

    def test_typoed_param_raises_instead_of_vanishing(self):
        # A misspelled scenario_param used to disappear into the builder's
        # **kwargs (or surface as an unrelated TypeError deep inside); it now
        # fails loudly at the registry boundary, listing what is accepted.
        with pytest.raises(ValueError, match=r"does not accept params \['durations_ms'\]"):
            build_scenario("steady", durations_ms=5000.0)
        with pytest.raises(ValueError, match="does not accept params"):
            build_scenario("rush_hour", duration_ms=5000.0)  # takes no extras at all

    def test_accepted_params_still_forward(self):
        from repro.workloads import accepted_scenario_params

        assert "duration_ms" in (accepted_scenario_params("steady") or set())
        scenario = build_scenario("steady", seed=0, duration_ms=5000.0)
        assert scenario.duration_ms == 5000.0

    def test_seed_on_deterministic_scenario_warns(self):
        with pytest.warns(UserWarning, match="ignores seed=7"):
            build_scenario("fig2", seed=7)

    def test_seed_zero_and_seeded_scenarios_stay_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_scenario("fig2", seed=0)
            build_scenario("bursty", seed=7)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scenario("steady")
            def clash(seed=0, platform_name="odroid_xu3"):
                """Duplicate of an existing name."""

    def test_docstring_required(self):
        with pytest.raises(ValueError, match="docstring"):

            @register_scenario("undocumented")
            def undocumented(seed=0, platform_name="odroid_xu3"):
                pass


class TestScenarioShapes:
    def test_mixed_criticality_has_the_critical_app(self):
        scenario = build_scenario("mixed_criticality", seed=0)
        critical = scenario.application("critical")
        assert critical.requirements.priority == 9
        assert critical.requirements.max_latency_ms == 60.0

    def test_battery_saver_budgets_every_dnn(self):
        scenario = build_scenario("battery_saver", seed=0)
        assert scenario.dnn_applications
        for app in scenario.dnn_applications:
            assert app.requirements.max_energy_mj is not None
            assert app.requirements.max_energy_mj <= 60.0

    def test_rush_hour_wave_departs(self):
        scenario = build_scenario("rush_hour", seed=0)
        wave = [app for app in scenario.applications if app.app_id.startswith("cam")]
        assert len(wave) == 3
        assert all(app.departure_time_ms == 25000.0 for app in wave)
        assert scenario.application("nav").departure_time_ms is None

    def test_overload_oversubscribes(self):
        scenario = build_scenario("overload", seed=0)
        assert len(scenario.dnn_applications) == 6
