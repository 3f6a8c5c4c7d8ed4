"""Tests for the scenario composition algebra, arrival traces and the fuzzer.

The tentpole contracts:

* every composition operator returns a plain, valid ``Scenario`` built from
  copies (no aliased mutable state with the sources);
* ``ArrivalTrace`` save -> load -> replay is bit-identical in simulated
  behaviour to the recording run;
* every new composed/trace/fuzzed scenario flows through the
  ``ExperimentSpec`` machinery: TOML round-trips preserve the spec id, and
  executed specs reproduce the golden fingerprints.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSpec, dump_specs, load_specs, run, run_many
from repro.workloads import (
    ArrivalTrace,
    ScenarioFuzzer,
    TraceFormatError,
    build_scenario,
    mix,
    perturb,
    scale,
    splice,
    with_platform,
)
from repro.workloads.scenarios import ScenarioEventKind

from tests.test_golden_traces import GOLDEN_FINGERPRINTS

#: Scenarios this PR added to the registry (the composition layer).
NEW_SCENARIOS = [
    "battery_saver_accuracy_critical",
    "bursty_x2_exynos",
    "compose",
    "double_rush_hour",
    "fig2_bursty",
    "fuzzed",
    "mixed_criticality_overload",
    "overload_slow_motion",
    "rush_hour_then_battery_saver",
    "steady_then_overload",
    "thermal_stress_jittered",
    "trace",
]


def _timeline(scenario):
    """Comparable shape of a scenario's workload timeline."""
    return [
        (
            app.app_id,
            app.kind.value,
            app.arrival_time_ms,
            app.departure_time_ms,
            app.requirements,
        )
        for app in scenario.applications
    ]


# ------------------------------------------------------------------ operators


class TestMix:
    def test_union_of_applications_and_events(self):
        a = build_scenario("fig2")
        b = build_scenario("bursty", seed=1)
        mixed = mix(a, b)
        assert len(mixed.applications) == len(a.applications) + len(b.applications)
        assert len(mixed.extra_events) == len(a.extra_events) + len(b.extra_events)
        assert mixed.platform_name == a.platform_name
        assert mixed.duration_ms == max(a.duration_ms, b.duration_ms)

    def test_colliding_ids_renamed_consistently(self):
        a = build_scenario("fig2")
        mixed = mix(a, build_scenario("fig2"))
        ids = [app.app_id for app in mixed.applications]
        assert len(ids) == len(set(ids))
        assert "dnn2_2" in ids
        # The second fig2's requirement-change event follows its renamed app.
        renamed_events = [event for event in mixed.extra_events if event.app_id == "dnn2_2"]
        assert len(renamed_events) == 1
        assert renamed_events[0].kind is ScenarioEventKind.REQUIREMENT_CHANGE

    def test_sources_are_not_aliased(self):
        a = build_scenario("steady", seed=0)
        mixed = mix(a, build_scenario("bursty", seed=0))
        mixed.applications[0].requirements = mixed.applications[0].requirements.with_changes(
            priority=9
        )
        assert a.applications[0].requirements.priority != 9


class TestScale:
    def test_timeline_scaled_with_duration(self):
        base = build_scenario("bursty", seed=0)
        scaled = scale(base, arrival_factor=0.5)
        for original, result in zip(base.applications, scaled.applications):
            assert result.arrival_time_ms == pytest.approx(original.arrival_time_ms * 0.5)
            if original.departure_time_ms is not None:
                assert result.departure_time_ms == pytest.approx(
                    original.departure_time_ms * 0.5
                )
        assert scaled.duration_ms == pytest.approx(base.duration_ms * 0.5)

    def test_duration_factor_overrides_window(self):
        base = build_scenario("steady", seed=0)
        scaled = scale(base, arrival_factor=0.5, duration_factor=1.0)
        assert scaled.duration_ms == base.duration_ms

    def test_extra_events_scaled(self):
        base = build_scenario("fig2")
        scaled = scale(base, arrival_factor=2.0)
        assert scaled.extra_events[0].time_ms == pytest.approx(
            base.extra_events[0].time_ms * 2.0
        )

    @pytest.mark.parametrize("kwargs", [{"arrival_factor": 0.0}, {"duration_factor": -1.0}])
    def test_invalid_factors_raise(self, kwargs):
        with pytest.raises(ValueError):
            scale(build_scenario("steady"), **{"arrival_factor": 1.0, **kwargs})

    def test_truncating_factor_combination_warns(self):
        # Stretching arrivals past the (less-stretched) window silently drops
        # the late applications from the simulation; that must be loud.
        base = build_scenario("bursty", seed=0)
        with pytest.warns(UserWarning, match="past the .* horizon"):
            scale(base, arrival_factor=50.0, duration_factor=1.0)

    def test_every_scaled_composite_keeps_all_arrivals_inside_the_window(self):
        for name in ("overload_slow_motion", "bursty_x2_exynos"):
            scenario = build_scenario(name, seed=0)
            assert all(
                app.arrival_time_ms < scenario.duration_ms for app in scenario.applications
            ), name


class TestSplice:
    def test_phase_change_semantics(self):
        a = build_scenario("rush_hour", seed=0)
        b = build_scenario("battery_saver", seed=0)
        spliced = splice(a, b, at_ms=18000.0)
        first = [app for app in spliced.applications if app.arrival_time_ms < 18000.0]
        second = [app for app in spliced.applications if app.arrival_time_ms >= 18000.0]
        assert first and second
        for app in first:
            assert app.departure_time_ms is not None and app.departure_time_ms <= 18000.0
        assert len(second) == len(b.applications)
        assert spliced.duration_ms == pytest.approx(18000.0 + b.duration_ms)

    def test_first_phase_late_arrivals_dropped(self):
        a = build_scenario("rush_hour", seed=0)  # cam arrivals at 8-9.3 s
        spliced = splice(a, build_scenario("steady", seed=0), at_ms=5000.0)
        first_ids = {app.app_id for app in spliced.applications if app.arrival_time_ms < 5000.0}
        assert first_ids == {"nav"}

    def test_invalid_splice_point_raises(self):
        with pytest.raises(ValueError):
            splice(build_scenario("steady"), build_scenario("bursty"), at_ms=0.0)


class TestWithPlatform:
    def test_platform_replaced(self):
        moved = with_platform(build_scenario("steady", seed=0), "jetson_nano")
        assert moved.platform_name == "jetson_nano"
        assert moved.build_platform().name == "jetson_nano"

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError, match="unknown platform"):
            with_platform(build_scenario("steady"), "pixel_zero")


class TestPerturb:
    def test_deterministic_per_seed(self):
        base = build_scenario("bursty", seed=0)
        assert _timeline(perturb(base, seed=7)) == _timeline(perturb(base, seed=7))
        assert _timeline(perturb(base, seed=7)) != _timeline(perturb(base, seed=8))

    def test_preserves_validity_and_lifetimes(self):
        base = build_scenario("multi_app_contention", seed=3)
        jittered = perturb(base, seed=1)
        for original, result in zip(base.applications, jittered.applications):
            assert result.arrival_time_ms >= 0.0
            assert result.requirements.priority == original.requirements.priority
            if original.departure_time_ms is not None:
                original_lifetime = original.departure_time_ms - original.arrival_time_ms
                lifetime = result.departure_time_ms - result.arrival_time_ms
                assert lifetime == pytest.approx(original_lifetime)
            accuracy = result.requirements.min_accuracy_percent
            if accuracy is not None:
                assert 0.0 <= accuracy <= 100.0

    def test_zero_jitter_is_identity_on_the_timeline(self):
        base = build_scenario("bursty", seed=2)
        unmoved = perturb(base, seed=5, arrival_jitter_ms=0.0, requirement_jitter=0.0)
        assert _timeline(unmoved) == _timeline(base)

    def test_invalid_jitter_raises(self):
        with pytest.raises(ValueError):
            perturb(build_scenario("steady"), seed=0, requirement_jitter=1.5)

    def test_events_stay_inside_their_applications_lifetime(self):
        # The simulator silently drops events for applications that are not
        # live, so jitter must never push a requirement switch outside its
        # app's window — even at jitter magnitudes larger than the gaps.
        from repro.workloads import Requirements, Scenario, make_dnn_application
        from repro.workloads.scenarios import ScenarioEvent, ScenarioEventKind
        from repro.workloads.tasks import DNNApplication

        base = build_scenario("fig2")
        template = base.applications[0]
        assert isinstance(template, DNNApplication)
        app = make_dnn_application(
            app_id="short",
            trained=template.trained,
            requirements=Requirements(target_fps=5.0),
            arrival_time_ms=2000.0,
            departure_time_ms=3000.0,
        )
        event = ScenarioEvent(
            time_ms=2900.0,
            kind=ScenarioEventKind.REQUIREMENT_CHANGE,
            app_id="short",
            new_requirements=Requirements(target_fps=2.0),
        )
        scenario = Scenario(
            name="short_lived",
            platform_name="odroid_xu3",
            applications=[app],
            duration_ms=10000.0,
            extra_events=[event],
            description="One short-lived app with a late requirement switch.",
        )
        for seed in range(8):
            jittered = perturb(scenario, seed=seed, arrival_jitter_ms=5000.0)
            moved = jittered.applications[0]
            moved_event = jittered.extra_events[0]
            assert moved.arrival_time_ms <= moved_event.time_ms < moved.departure_time_ms


class TestComposeScenario:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown compose op"):
            build_scenario("compose", op="transmogrify")

    def test_operand_params_reach_the_operator(self):
        spliced = build_scenario(
            "compose", op="splice", a="steady", b="overload", at_ms=6000.0
        )
        assert spliced.duration_ms == pytest.approx(6000.0 + 20000.0)

    def test_seeded_operands_draw_distinct_seeds(self):
        mixed = build_scenario("compose", op="mix", a="bursty", b="bursty", seed=4)
        arrivals = [app.arrival_time_ms for app in mixed.applications]
        # a at seed 4, b at seed 5: the two halves are different draws.
        half = len(arrivals) // 2
        assert arrivals[:half] != arrivals[half:]

    def test_operator_irrelevant_params_rejected(self):
        # A leftover at_ms on a spec edited from splice to mix must not
        # silently describe a different experiment.
        with pytest.raises(ValueError, match=r"op 'mix' does not use params \['at_ms'\]"):
            build_scenario("compose", op="mix", a="steady", b="bursty", at_ms=18000.0)
        with pytest.raises(ValueError, match=r"op 'scale' does not use params \['b'\]"):
            build_scenario("compose", op="scale", a="steady", b="bursty", arrival_factor=0.5)
        with pytest.raises(ValueError, match="op 'perturb' does not use params"):
            build_scenario("compose", op="perturb", a="steady", b_seed=3)


# -------------------------------------------------------------- arrival trace


class TestArrivalTraceRoundTrip:
    @pytest.mark.parametrize("name", ["fig2", "thermal_stress", "bursty"])
    def test_file_round_trip_preserves_the_timeline(self, tmp_path, name):
        source = build_scenario(name, seed=0)
        path = tmp_path / f"{name}.jsonl"
        ArrivalTrace.from_scenario(source).save(path)
        replayed = ArrivalTrace.load(path).to_scenario()
        assert _timeline(replayed) == _timeline(source)
        assert replayed.duration_ms == source.duration_ms
        assert replayed.platform_name == source.platform_name
        assert [
            (event.time_ms, event.kind, event.app_id, event.new_requirements)
            for event in replayed.extra_events
        ] == [
            (event.time_ms, event.kind, event.app_id, event.new_requirements)
            for event in source.extra_events
        ]

    @pytest.mark.parametrize(
        "name,seed,manager",
        [("bursty", 2, "rtm"), ("thermal_stress", 0, "governor_only")],
    )
    def test_replay_is_bit_identical_to_the_recording_run(self, tmp_path, name, seed, manager):
        path = tmp_path / "trace.jsonl"
        ArrivalTrace.from_scenario(build_scenario(name, seed=seed)).save(path)
        direct = run(ExperimentSpec(scenario=name, seed=seed, manager=manager))
        replayed = run(
            ExperimentSpec(
                scenario="trace", manager=manager, scenario_params={"path": str(path)}
            )
        )
        assert replayed.trace.fingerprint() == direct.trace.fingerprint()

    def test_model_sharing_structure_recorded(self):
        shared = ArrivalTrace.from_scenario(build_scenario("rush_hour", seed=0))
        refs = {r["model_ref"] for r in shared.applications if "model_ref" in r}
        assert refs == {0}  # rush_hour's DNNs co-scale one model
        separate = ArrivalTrace.from_scenario(build_scenario("fig2"))
        refs = {r["model_ref"] for r in separate.applications if "model_ref" in r}
        assert refs == {0, 1}  # fig2's DNNs are independent models

    def test_records_input_size_and_requirement_switches(self):
        trace = ArrivalTrace.from_scenario(build_scenario("fig2"))
        dnn_records = [r for r in trace.applications if r["kind"] == "dnn_inference"]
        assert all(r["input_size"] == [3, 32, 32] for r in dnn_records)
        assert len(trace.events) == 1
        assert trace.events[0]["kind"] == "requirement_change"
        assert trace.events[0]["requirements"]["min_accuracy_percent"] == 56.0

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        # Regression: a crash mid-save used to leave a truncated trace at the
        # destination; the same-directory-temp + os.replace scheme keeps the
        # original readable through any failure before the final rename.
        import os

        path = tmp_path / "trace.jsonl"
        ArrivalTrace.from_scenario(build_scenario("fig2")).save(path)
        original = path.read_text()
        monkeypatch.setattr(os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            ArrivalTrace.from_scenario(build_scenario("bursty", seed=1)).save(path)
        assert path.read_text() == original
        assert ArrivalTrace.load(path) is not None


class TestArrivalTraceErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="empty"):
            ArrivalTrace.load(path)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "something-else"}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError, match="not a repro-arrival-trace"):
            ArrivalTrace.load(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"format": "repro-arrival-trace", "version": 99, "duration_ms": 1000.0}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match="version 99"):
            ArrivalTrace.load(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-arrival-trace", "version": 1, "duration_ms": 1000.0}\n'
            '{"record": "mystery"}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match="unknown record type"):
            ArrivalTrace.load(path)

    def test_conflicting_model_refs_rejected(self):
        trace = ArrivalTrace.from_scenario(build_scenario("rush_hour", seed=0))
        trace.applications[1]["num_increments"] = 2
        with pytest.raises(TraceFormatError, match="conflicting increment counts"):
            trace.to_scenario()

    def test_missing_duration_rejected_as_format_error(self, tmp_path):
        path = tmp_path / "no_duration.jsonl"
        path.write_text('{"format": "repro-arrival-trace", "version": 1}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError, match="invalid trace header"):
            ArrivalTrace.load(path)

    def test_non_numeric_version_rejected_as_format_error(self, tmp_path):
        path = tmp_path / "bad_version.jsonl"
        path.write_text(
            '{"format": "repro-arrival-trace", "version": "abc", "duration_ms": 1.0}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match="invalid trace header"):
            ArrivalTrace.load(path)

    def test_non_table_record_rejected_as_format_error(self, tmp_path):
        path = tmp_path / "array_record.jsonl"
        path.write_text(
            '{"format": "repro-arrival-trace", "version": 1, "duration_ms": 1.0}\n[1, 2]\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match="non-table record"):
            ArrivalTrace.load(path)

    def test_foreign_dnn_family_rejected_at_replay(self):
        # Replay reconstitutes the case-study network; a trace recorded from
        # a different model must fail loudly, not silently diverge.
        trace = ArrivalTrace.from_scenario(build_scenario("bursty", seed=0))
        for record in trace.applications:
            if record["kind"] == "dnn_inference":
                record["input_size"] = [3, 224, 224]
        with pytest.raises(TraceFormatError, match="cannot be reconstituted"):
            trace.to_scenario()

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            ArrivalTrace.load(tmp_path / "does_not_exist.jsonl")

    def test_non_utf8_file_reported(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00binary")
        with pytest.raises(TraceFormatError, match="cannot read"):
            ArrivalTrace.load(path)


# -------------------------------------------------------------------- fuzzer


class TestScenarioFuzzer:
    def test_equal_seeds_replay_identically(self):
        assert _timeline(ScenarioFuzzer(seed=11).scenario()) == _timeline(
            ScenarioFuzzer(seed=11).scenario()
        )

    def test_seeds_explore_the_space(self):
        timelines = {repr(_timeline(ScenarioFuzzer(seed=s).scenario())) for s in range(6)}
        assert len(timelines) == 6

    def test_forcing_the_platform_keeps_the_workload(self):
        free = ScenarioFuzzer(seed=3).scenario()
        forced = ScenarioFuzzer(seed=3).scenario(platform_name="jetson_nano")
        assert forced.platform_name == "jetson_nano"
        assert _timeline(forced) == _timeline(free)

    def test_children_are_distinct(self):
        children = ScenarioFuzzer(seed=0).scenarios(4)
        assert len({repr(_timeline(child)) for child in children}) == 4

    def test_adjacent_roots_do_not_share_children(self):
        first = [_timeline(s) for s in ScenarioFuzzer(seed=0).scenarios(3)]
        second = [_timeline(s) for s in ScenarioFuzzer(seed=1).scenarios(3)]
        assert all(timeline not in first for timeline in second)

    def test_scenarios_validates_count(self):
        with pytest.raises(ValueError):
            ScenarioFuzzer(seed=0).scenarios(0)

    def test_needs_platforms(self):
        with pytest.raises(ValueError):
            ScenarioFuzzer(seed=0, platforms=())


# ------------------------------------------------- spec round trip (tentpole)


class TestComposedScenariosThroughSpecs:
    def test_every_new_scenario_round_trips_through_toml(self, tmp_path):
        specs = [ExperimentSpec(scenario=name).validate() for name in NEW_SCENARIOS]
        path = tmp_path / "composed.toml"
        dump_specs(specs, path)
        loaded = load_specs(path)
        assert loaded == specs
        assert [spec.spec_id() for spec in loaded] == [spec.spec_id() for spec in specs]

    @pytest.mark.parametrize(
        "name", ["rush_hour_then_battery_saver", "fuzzed", "bursty_x2_exynos"]
    )
    def test_toml_loaded_spec_reproduces_the_golden_fingerprint(self, tmp_path, name):
        path = tmp_path / "spec.toml"
        ExperimentSpec(scenario=name, manager="rtm").save(path)
        loaded = load_specs(path)[0]
        assert loaded.spec_id() == ExperimentSpec(scenario=name, manager="rtm").spec_id()
        result = run(loaded)
        assert result.trace.fingerprint() == GOLDEN_FINGERPRINTS[(name, "rtm")]

    def test_compose_params_are_validated_by_specs(self):
        from repro.experiments import SpecError

        with pytest.raises(SpecError, match="does not accept"):
            ExperimentSpec(scenario="compose", scenario_params={"opp": "mix"}).validate()
        ExperimentSpec(
            scenario="compose", scenario_params={"op": "splice", "at_ms": 5000.0}
        ).validate()

    def test_spec_replay_rejects_silent_platform_mismatch(self, tmp_path):
        # A spec's platform field always has a value, so replaying a trace
        # recorded on another board must fail loudly unless the re-targeting
        # is marked deliberate.
        path = tmp_path / "nano.jsonl"
        ArrivalTrace.from_scenario(
            build_scenario("steady", seed=1, platform_name="jetson_nano")
        ).save(path)
        mismatched = ExperimentSpec(scenario="trace", scenario_params={"path": str(path)})
        with pytest.raises(TraceFormatError, match="recorded on 'jetson_nano'"):
            run(mismatched)
        matched = run(
            ExperimentSpec(
                scenario="trace",
                platform="jetson_nano",
                manager="governor_only",
                scenario_params={"path": str(path)},
            )
        )
        direct = run(
            ExperimentSpec(
                scenario="steady", seed=1, platform="jetson_nano", manager="governor_only"
            )
        )
        assert matched.trace.fingerprint() == direct.trace.fingerprint()
        replatformed = run(
            ExperimentSpec(
                scenario="trace",
                manager="governor_only",
                scenario_params={"path": str(path), "replatform": True},
            )
        )
        assert replatformed.trace.fingerprint() != direct.trace.fingerprint()

    def test_missing_model_refs_get_independent_models(self):
        # External traces that omit model_ref must not silently co-scale all
        # DNNs on one shared model.
        trace = ArrivalTrace.from_scenario(build_scenario("bursty", seed=0))
        for record in trace.applications:
            record.pop("model_ref", None)
        rebuilt = trace.to_scenario()
        dnns = rebuilt.dnn_applications
        assert len(dnns) >= 2
        assert dnns[0].trained is not dnns[1].trained
        # With the recorded refs intact the sharing structure is preserved.
        shared = ArrivalTrace.from_scenario(build_scenario("bursty", seed=0)).to_scenario()
        assert shared.dnn_applications[0].trained is shared.dnn_applications[1].trained

    def test_batched_equals_serial_on_shared_and_private_models(self, tmp_path):
        # The two traces differ only in which DNN apps co-scale: all six
        # share one model in the recording, each has its own in the copy.
        # The batched replicas must tell them apart as the serial runs do.
        trace = ArrivalTrace.from_scenario(build_scenario("overload", seed=0))
        assert {r["model_ref"] for r in trace.applications if "model_ref" in r} == {0}
        shared = tmp_path / "shared.jsonl"
        trace.save(shared)
        for record in trace.applications:
            record.pop("model_ref", None)
        private = tmp_path / "private.jsonl"
        trace.save(private)
        specs = [
            ExperimentSpec(
                scenario="trace",
                manager="rtm_min_energy",
                scenario_params={"path": str(path)},
                name=path.stem,
            )
            for path in (shared, private)
        ]
        fingerprints = {
            backend: {
                label: result.trace.fingerprint()
                for label, result in run_many(specs, backend=backend).results.items()
            }
            for backend in ("serial", "batched")
        }
        assert fingerprints["serial"]["shared"] != fingerprints["serial"]["private"]
        assert fingerprints["batched"] == fingerprints["serial"]

    def test_trace_path_param_is_spec_addressable(self, tmp_path):
        path = tmp_path / "steady.jsonl"
        ArrivalTrace.from_scenario(build_scenario("steady", seed=1)).save(path)
        spec = ExperimentSpec(
            scenario="trace", manager="governor_only", scenario_params={"path": str(path)}
        ).validate()
        round_tripped = ExperimentSpec.from_dict(spec.to_dict())
        assert round_tripped.spec_id() == spec.spec_id()
        result = run(round_tripped)
        direct = run(ExperimentSpec(scenario="steady", seed=1, manager="governor_only"))
        assert result.trace.fingerprint() == direct.trace.fingerprint()
