"""Tests for the declarative experiment layer.

Covers the generic registry, spec round-tripping (dict / TOML / JSON),
content-hash stability across process boundaries, spec execution parity with
the serial registry grid (golden fingerprints), and worker-count-independent
replay of committed spec files — the reproducibility contract of the API.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    MANAGER_REGISTRY,
    ExperimentBatch,
    ExperimentSpec,
    SpecError,
    dump_specs,
    grid_specs,
    load_specs,
    make_manager,
    run,
    run_many,
)
from repro.registry import Registry
from repro.rtm import RuntimeManager
from tests.test_golden_traces import GOLDEN_FINGERPRINTS


class TestRegistry:
    def make(self) -> Registry:
        registry = Registry("widget")
        registry.register("alpha", lambda: "a", colour="red")

        @registry.register("beta")
        def beta():
            """A beta widget."""
            return "b"

        return registry

    def test_mapping_protocol(self):
        registry = self.make()
        assert sorted(registry) == ["alpha", "beta"]
        assert "alpha" in registry and "gamma" not in registry
        assert len(registry) == 2
        assert registry["alpha"]() == "a"

    def test_get_with_default_behaves_like_mapping_get(self):
        registry = self.make()
        assert registry.get("gamma", None) is None
        assert registry.get("alpha")() == "a"

    def test_unknown_name_lists_available(self):
        registry = self.make()
        with pytest.raises(KeyError, match="unknown widget 'gamma'.*alpha, beta"):
            registry.get("gamma")

    def test_near_miss_gets_a_suggestion(self):
        registry = self.make()
        with pytest.raises(KeyError, match="did you mean 'alpha'"):
            registry.get("alpah")

    def test_duplicate_registration_rejected(self):
        registry = self.make()
        with pytest.raises(ValueError, match="widget 'alpha' is already registered"):
            registry.register("alpha", lambda: "again")

    def test_metadata_and_summary(self):
        registry = self.make()
        assert registry.metadata("alpha") == {"colour": "red"}
        assert registry.entry("beta").summary == "A beta widget."
        names = [entry.name for entry in registry.list()]
        assert names == ["alpha", "beta"]

    def test_unregister(self):
        registry = self.make()
        registry.unregister("alpha")
        assert "alpha" not in registry


class TestManagerRegistry:
    def test_known_managers(self):
        assert {"rtm", "rtm_min_energy", "governor_only", "static_deployment"} <= set(
            MANAGER_REGISTRY
        )

    def test_make_manager_builds_fresh_instances(self):
        a = make_manager("rtm")
        b = make_manager("rtm")
        assert isinstance(a, RuntimeManager)
        assert a is not b

    def test_unknown_manager_raises_with_available_names(self):
        with pytest.raises(KeyError, match="unknown manager 'nope'.*rtm"):
            make_manager("nope")


FULL_SPEC = ExperimentSpec(
    name="custom",
    scenario="rush_hour",
    manager="rtm",
    platform="jetson_nano",
    seed=7,
    policy="min_latency",
    policy_overrides={"dnn2": "min_energy"},
    rtm={"enable_dvfs": False, "temperature_bucket_width_c": 2.5},
    simulator={"decision_interval_ms": 250.0, "max_backlog": 3},
    use_op_cache=False,
)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [ExperimentSpec(scenario="steady"), FULL_SPEC],
        ids=["minimal", "full"],
    )
    def test_dict_round_trip(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_round_trip(self, tmp_path, suffix):
        path = tmp_path / f"spec{suffix}"
        FULL_SPEC.save(path)
        assert ExperimentSpec.load(path) == FULL_SPEC

    def test_batch_round_trip(self, tmp_path):
        specs = [FULL_SPEC, ExperimentSpec(scenario="steady"), ExperimentSpec(scenario="bursty")]
        for suffix in (".toml", ".json"):
            path = tmp_path / f"batch{suffix}"
            dump_specs(specs, path)
            assert load_specs(path) == specs

    def test_load_rejects_batch_file_for_single_loader(self, tmp_path):
        path = tmp_path / "batch.toml"
        dump_specs([FULL_SPEC, ExperimentSpec(scenario="steady")], path)
        with pytest.raises(SpecError, match="holds 2 experiments"):
            ExperimentSpec.load(path)

    def test_tuple_params_round_trip_as_lists(self, tmp_path):
        # Tuples are normalised to lists (the JSON/TOML-canonical form) at
        # construction, so a spec built with tuple values compares equal to
        # its reloaded form and shares its spec_id.
        spec = ExperimentSpec(scenario="steady", scenario_params={"fps_range": (3.0, 8.0)})
        assert spec.scenario_params == {"fps_range": [3.0, 8.0]}
        for suffix in (".toml", ".json"):
            path = tmp_path / f"tuples{suffix}"
            dump_specs([spec], path)
            reloaded = load_specs(path)[0]
            assert reloaded == spec
            assert reloaded.spec_id() == spec.spec_id()

    def test_defaults_are_restored_for_omitted_keys(self, tmp_path):
        path = tmp_path / "sparse.toml"
        path.write_text('scenario = "steady"\n')
        spec = ExperimentSpec.load(path)
        assert spec == ExperimentSpec(scenario="steady")
        assert spec.manager == "rtm" and spec.use_op_cache is True

    def test_label_defaults_and_respects_name(self):
        assert ExperimentSpec(scenario="steady", seed=2).label == "steady/rtm/seed2"
        assert FULL_SPEC.label == "custom"


class TestTomlStringEscaping:
    """Regression: ``_toml_value`` used to emit raw control characters.

    A spec whose name held a newline (or tab, carriage return, any
    U+0000-U+001F) serialised to a TOML basic string with the character
    embedded verbatim — invalid TOML that ``tomllib`` refused to parse back,
    breaking save/load round-trips.  Strings must escape per the TOML
    basic-string rules (short escapes where they exist, ``\\uXXXX``
    otherwise).
    """

    def _round_trip(self, tmp_path, name: str) -> ExperimentSpec:
        spec = ExperimentSpec(scenario="steady", name=name)
        path = tmp_path / "spec.toml"
        spec.save(path)
        return ExperimentSpec.load(path)

    def test_newline_in_name_round_trips(self, tmp_path):
        # The original failure mode: "line1\nline2" produced unparseable TOML.
        reloaded = self._round_trip(tmp_path, "line1\nline2")
        assert reloaded.name == "line1\nline2"

    @pytest.mark.parametrize(
        "name",
        ["tab\there", "cr\rhere", "bell\x07", "nul\x00", "del\x7f", 'quote" and \\ slash'],
        ids=["tab", "carriage-return", "bell", "nul", "del", "quote-backslash"],
    )
    def test_control_and_special_chars_round_trip(self, tmp_path, name):
        assert self._round_trip(tmp_path, name).name == name

    def test_hypothesis_arbitrary_strings_round_trip(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            name=st.text(
                alphabet=st.characters(
                    codec="utf-8", categories=("L", "N", "P", "S", "Z", "Cc")
                ),
                min_size=1,
                max_size=40,
            )
        )
        @settings(max_examples=80, deadline=None)
        def check(name: str) -> None:
            spec = ExperimentSpec(scenario="steady", name=name)
            path = tmp_path / "hypothesis_spec.toml"
            spec.save(path)
            reloaded = ExperimentSpec.load(path)
            assert reloaded.name == name
            assert reloaded.spec_id() == spec.spec_id()

        check()

    def test_control_chars_in_scenario_params_round_trip(self, tmp_path):
        spec = ExperimentSpec(
            scenario="steady", scenario_params={"note": "a\tb\nc"}
        )
        path = tmp_path / "params.toml"
        dump_specs([spec], path)
        assert load_specs(path)[0].scenario_params["note"] == "a\tb\nc"


class TestAtomicSpecWrites:
    """``save``/``dump_specs`` must replace files atomically.

    A crash mid-write used to leave a truncated file at the destination;
    with the same-directory-temp + ``os.replace`` scheme the original
    survives any failure before the final rename.
    """

    def test_failed_save_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.toml"
        ExperimentSpec(scenario="steady").save(path)
        original = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            ExperimentSpec(scenario="bursty").save(path)
        assert path.read_text() == original
        # The aborted temp file must not linger next to the destination.
        assert [p.name for p in tmp_path.iterdir()] == ["spec.toml"]

    def test_failed_dump_specs_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "batch.toml"
        dump_specs([ExperimentSpec(scenario="steady")], path)
        original = path.read_text()
        monkeypatch.setattr(os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            dump_specs([FULL_SPEC], path)
        assert path.read_text() == original


class TestSpecValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown experiment spec keys \\['senario'\\]"):
            ExperimentSpec.from_dict({"senario": "steady"})

    def test_bad_field_types_rejected(self):
        with pytest.raises(SpecError, match="'seed' must be an integer"):
            ExperimentSpec.from_dict({"scenario": "steady", "seed": "three"})
        with pytest.raises(SpecError, match="'rtm' must be a table"):
            ExperimentSpec.from_dict({"scenario": "steady", "rtm": ["enable_dvfs"]})

    def test_unknown_registry_names_rejected_with_suggestion(self):
        with pytest.raises(SpecError, match="unknown scenario 'rush_our'.*did you mean 'rush_hour'"):
            ExperimentSpec(scenario="rush_our").validate()
        with pytest.raises(SpecError, match="unknown manager"):
            ExperimentSpec(scenario="steady", manager="rtmm").validate()
        with pytest.raises(SpecError, match="unknown platform preset"):
            ExperimentSpec(scenario="steady", platform="pixel9000").validate()
        with pytest.raises(SpecError, match="unknown policy"):
            ExperimentSpec(scenario="steady", policy="min_enrgy").validate()

    def test_unknown_override_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown rtm override keys \\['enable_warp'\\]"):
            ExperimentSpec(scenario="steady", rtm={"enable_warp": True}).validate()
        with pytest.raises(SpecError, match="unknown simulator override keys"):
            ExperimentSpec(scenario="steady", simulator={"tick": 1.0}).validate()
        # Neither is an RTMConfig field: the epoch period is a simulator
        # tunable and the throttle margin a constant of the allocator.
        for key in ("decision_interval_ms", "thermal_margin_c"):
            with pytest.raises(SpecError, match=f"keys \\['{key}'\\]; RTMConfig fields"):
                ExperimentSpec(scenario="steady", rtm={key: 1.0}).validate()

    def test_baselines_reject_rtm_overrides(self):
        with pytest.raises(SpecError, match="not configurable"):
            ExperimentSpec(
                scenario="steady", manager="governor_only", rtm={"enable_dvfs": False}
            ).validate()

    def test_valid_spec_passes_and_chains(self):
        assert FULL_SPEC.validate() is FULL_SPEC


class TestSpecId:
    def test_equal_specs_share_an_id(self):
        a = ExperimentSpec(scenario="steady", seed=1)
        b = ExperimentSpec(scenario="steady", seed=1)
        assert a.spec_id() == b.spec_id()

    def test_any_field_change_changes_the_id(self):
        base = ExperimentSpec(scenario="steady")
        variants = [
            ExperimentSpec(scenario="bursty"),
            ExperimentSpec(scenario="steady", seed=1),
            ExperimentSpec(scenario="steady", manager="governor_only"),
            ExperimentSpec(scenario="steady", platform="jetson_nano"),
            ExperimentSpec(scenario="steady", rtm={"enable_dvfs": False}),
            ExperimentSpec(scenario="steady", use_op_cache=False),
        ]
        ids = {spec.spec_id() for spec in [base, *variants]}
        assert len(ids) == len(variants) + 1

    def test_spec_id_is_stable_across_process_boundaries(self):
        """The content hash must not depend on the Python hash seed or process."""
        spec = FULL_SPEC
        code = (
            "import json, sys\n"
            "from repro.experiments import ExperimentSpec\n"
            "spec = ExperimentSpec.from_dict(json.load(sys.stdin))\n"
            "print(spec.spec_id())\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": "12345"}
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(spec.to_dict()),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == spec.spec_id()


#: Spec-driven golden pairs: one per manager, including the pair the
#: acceptance criterion names (rush_hour x rtm).
GOLDEN_SPEC_PAIRS = [
    ("rush_hour", "rtm"),
    ("steady", "governor_only"),
    ("fig2", "rtm_min_energy"),
    ("single_dnn", "static_deployment"),
]


class TestSpecExecution:
    @pytest.mark.parametrize("scenario,manager", GOLDEN_SPEC_PAIRS)
    def test_run_reproduces_golden_fingerprints(self, scenario, manager):
        result = run(ExperimentSpec(scenario=scenario, manager=manager, seed=0))
        assert result.trace.fingerprint() == GOLDEN_FINGERPRINTS[(scenario, manager)]

    def test_spec_run_is_bit_identical_to_the_serial_grid(self, registry_grid_cached):
        """Acceptance: run(spec) of rush_hour x rtm == its serial run_many grid row."""
        spec_trace = run(ExperimentSpec(scenario="rush_hour", manager="rtm", seed=0)).trace
        grid_trace = registry_grid_cached.traces["rush_hour/rtm/seed0"]
        assert spec_trace.fingerprint() == grid_trace.fingerprint()

    def test_rtm_policy_and_overrides_reach_the_manager(self):
        from repro.experiments import build_manager_from_spec
        from repro.rtm import MinEnergyUnderConstraints, MinLatencyUnderPowerCap

        manager = build_manager_from_spec(
            ExperimentSpec(
                scenario="fig2",
                policy="min_latency",
                policy_overrides={"dnn2": "min_energy"},
                rtm={"enable_dnn_scaling": False, "max_cores_per_app": 2},
            )
        )
        assert isinstance(manager.policy, MinLatencyUnderPowerCap)
        assert manager.config.enable_dnn_scaling is False
        assert manager.allocator.max_cores_per_app == 2
        assert isinstance(
            manager.allocator.policy_overrides["dnn2"], MinEnergyUnderConstraints
        )

    def test_scenario_params_reach_the_builder(self):
        result = run(
            ExperimentSpec(scenario="single_dnn", scenario_params={"duration_ms": 4000.0})
        )
        assert result.trace.duration_ms == 4000.0

    def test_scenario_params_override_generator_defaults(self):
        result = run(
            ExperimentSpec(scenario="steady", scenario_params={"duration_ms": 5000.0})
        )
        assert result.trace.duration_ms == 5000.0

    def test_scenario_params_rejected_when_the_builder_takes_none(self):
        # rush_hour is hand-written and takes no extra parameters; validate()
        # must refuse up front instead of failing deep inside a worker.
        with pytest.raises(SpecError, match="'rush_hour' does not accept scenario_params"):
            ExperimentSpec(
                scenario="rush_hour", scenario_params={"duration_ms": 1000.0}
            ).validate()

    def test_misspelled_generator_param_rejected_up_front(self):
        # The generator-backed builders declare their accepted params in the
        # registry metadata, so a typo fails validation (exit 2 in the CLI)
        # rather than as a TypeError inside a worker.
        with pytest.raises(SpecError, match="does not accept scenario_params \\['duratoin_ms'\\]"):
            ExperimentSpec(
                scenario="steady", scenario_params={"duratoin_ms": 500.0}
            ).validate()

    def test_wrong_typed_overrides_rejected(self):
        with pytest.raises(SpecError, match="'enable_dvfs' must be a bool"):
            ExperimentSpec(scenario="steady", rtm={"enable_dvfs": "false"}).validate()
        with pytest.raises(SpecError, match="'decision_interval_ms' must be a float"):
            ExperimentSpec(
                scenario="steady", simulator={"decision_interval_ms": "250"}
            ).validate()
        with pytest.raises(SpecError, match="'max_backlog' must be a int"):
            ExperimentSpec(scenario="steady", simulator={"max_backlog": 2.5}).validate()
        # Ints are acceptable for float fields.
        ExperimentSpec(scenario="steady", simulator={"decision_interval_ms": 250}).validate()

    def test_simulator_overrides_are_applied(self):
        fast = run(
            ExperimentSpec(scenario="single_dnn", simulator={"decision_interval_ms": 250.0})
        ).trace
        slow = run(ExperimentSpec(scenario="single_dnn")).trace
        assert len(fast.decisions) > len(slow.decisions)

    def test_cached_and_uncached_specs_are_bit_identical(self):
        cached = run(ExperimentSpec(scenario="single_dnn", use_op_cache=True)).trace
        uncached = run(ExperimentSpec(scenario="single_dnn", use_op_cache=False)).trace
        assert cached.fingerprint() == uncached.fingerprint()
        assert cached.cache_counters()["hits"] > 0
        assert uncached.cache_counters() == {"hits": 0, "misses": 0}

    def test_run_validates_by_default(self):
        with pytest.raises(SpecError, match="unknown scenario"):
            run(ExperimentSpec(scenario="nope"))


#: Every execution backend, with the worker count each one runs at.
BACKENDS = [("serial", 1), ("process", 2), ("batched", 1)]

#: Keeps the generated scenarios of the backend tests short.
SHORT = {"duration_ms": 2000.0}


class TestRunMany:
    def test_rejects_duplicate_labels(self):
        spec = ExperimentSpec(scenario="steady")
        with pytest.raises(ValueError, match="duplicate experiment labels"):
            run_many([spec, spec])

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_many([ExperimentSpec(scenario="steady")], workers=0)

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_errors_are_captured_per_spec(self, backend, workers):
        specs = [
            ExperimentSpec(name="bad", scenario="steady", platform="not_a_platform"),
            ExperimentSpec(scenario="single_dnn"),
        ]
        batch = run_many(specs, backend=backend, workers=workers, validate=False)
        assert list(batch.errors) == ["bad"]
        # The first line names the exception; tracebacks may follow it.
        assert batch.errors["bad"].splitlines()[0].startswith(
            "KeyError: \"unknown platform preset 'not_a_platform'"
        )
        assert list(batch.traces) == ["single_dnn/rtm/seed0"]

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_unknown_registry_names_fail_only_their_spec(self, backend, workers):
        # Unvalidated, a misspelled scenario fails while the scenario is
        # built, inside the backend, and must not take its neighbours along.
        specs = [
            ExperimentSpec(name="bad", scenario="not_a_scenario"),
            ExperimentSpec(scenario="single_dnn", scenario_params=SHORT),
            ExperimentSpec(scenario="single_dnn", manager="governor_only", scenario_params=SHORT),
        ]
        batch = run_many(specs, backend=backend, workers=workers, validate=False)
        assert list(batch.errors) == ["bad"]
        assert "unknown scenario 'not_a_scenario'" in batch.errors["bad"]
        assert list(batch.traces) == ["single_dnn/rtm/seed0", "single_dnn/governor_only/seed0"]

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_results_come_back_in_submission_order(self, backend, workers):
        # Submitted out of label order, so sorting would show.
        specs = [
            ExperimentSpec(scenario="steady", manager="rtm", seed=1, scenario_params=SHORT),
            ExperimentSpec(scenario="single_dnn", manager="governor_only", scenario_params=SHORT),
            ExperimentSpec(
                scenario="steady", manager="governor_only", seed=0, scenario_params=SHORT
            ),
            ExperimentSpec(scenario="single_dnn", manager="rtm", scenario_params=SHORT),
        ]
        batch = run_many(specs, backend=backend, workers=workers)
        assert not batch.errors
        assert list(batch.traces) == [spec.label for spec in specs]
        assert all(len(trace.jobs) > 0 for trace in batch.traces.values())

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_simulator_overrides_reach_every_backend(self, backend, workers):
        specs = [
            ExperimentSpec(
                name="fast",
                scenario="single_dnn",
                scenario_params=SHORT,
                simulator={"decision_interval_ms": 250.0},
            ),
            ExperimentSpec(name="default", scenario="single_dnn", scenario_params=SHORT),
        ]
        batch = run_many(specs, backend=backend, workers=workers)
        assert not batch.errors
        # More decision epochs in the same simulated time.
        assert len(batch.traces["fast"].decisions) > len(batch.traces["default"].decisions)

    @pytest.mark.parametrize("backend,workers", [("process", 3), ("batched", 1)])
    def test_aggregates_match_the_serial_batch(self, backend, workers):
        specs = [
            ExperimentSpec(scenario="single_dnn", manager="rtm", scenario_params=SHORT),
            ExperimentSpec(
                name="rtm_no_dvfs",
                scenario="single_dnn",
                manager="rtm",
                scenario_params=SHORT,
                rtm={"enable_dvfs": False},
            ),
            ExperimentSpec(scenario="single_dnn", manager="governor_only", scenario_params=SHORT),
        ]
        serial = run_many(specs, backend="serial")
        other = run_many(specs, backend=backend, workers=workers)
        assert not serial.errors and not other.errors
        assert list(serial.traces) == list(other.traces)
        assert serial.violation_rates() == other.violation_rates()
        assert serial.energies_mj() == other.energies_mj()
        assert serial.mean_accuracies() == other.mean_accuracies()
        assert serial.best_case() == other.best_case()

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_failed_specs_drop_out_of_the_aggregates(self, backend, workers):
        specs = [
            ExperimentSpec(scenario="steady", seed=1, scenario_params=SHORT),
            ExperimentSpec(
                name="steady/rtm/seed2",
                scenario="steady",
                seed=2,
                scenario_params={**SHORT, "not_a_param": 1},
            ),
            ExperimentSpec(scenario="steady", seed=3, scenario_params=SHORT),
        ]
        batch = run_many(specs, backend=backend, workers=workers, validate=False)
        survivors = ["steady/rtm/seed1", "steady/rtm/seed3"]
        assert "not_a_param" in batch.errors["steady/rtm/seed2"]
        assert list(batch.violation_rates()) == survivors
        assert list(batch.energies_mj()) == survivors
        assert list(batch.mean_accuracies()) == survivors
        assert batch.best_case() in survivors

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_every_spec_failing_leaves_no_best_case(self, backend, workers):
        specs = [
            ExperimentSpec(scenario="steady", seed=seed, scenario_params={"not_a_param": 1})
            for seed in (1, 2)
        ]
        batch = run_many(specs, backend=backend, workers=workers, validate=False)
        assert list(batch.errors) == ["steady/rtm/seed1", "steady/rtm/seed2"]
        assert not batch.results
        with pytest.raises(ValueError, match="no results"):
            batch.best_case()

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_empty_spec_list_yields_an_empty_batch(self, backend, workers):
        batch = run_many([], backend=backend, workers=workers)
        assert len(batch) == 0
        assert not batch.errors and not batch.skipped
        assert batch.violation_rates() == {}

    def test_empty_batch_best_case_raises(self):
        with pytest.raises(ValueError, match="no results"):
            ExperimentBatch().best_case()

    def test_spec_file_replay_is_worker_count_independent(self, tmp_path):
        """Acceptance: a sweep from a spec file re-runs identically on 1 and N workers."""
        path = tmp_path / "sweep.toml"
        dump_specs(grid_specs(["single_dnn", "steady"], ["rtm", "governor_only"], [0]), path)

        first = run_many(load_specs(path), workers=1)
        second = run_many(load_specs(path), workers=2)
        assert not first.errors and not second.errors
        assert list(first.traces) == list(second.traces)
        fingerprints_one = {k: t.fingerprint() for k, t in first.traces.items()}
        fingerprints_two = {k: t.fingerprint() for k, t in second.traces.items()}
        assert fingerprints_one == fingerprints_two
        assert first.violation_rates() == second.violation_rates()
        assert first.energies_mj() == second.energies_mj()
        assert first.mean_accuracies() == second.mean_accuracies()
        assert first.best_case() == second.best_case()

    def test_grid_specs_labels(self):
        specs = grid_specs(["steady"], ["rtm", "governor_only"], [0, 1])
        assert [spec.label for spec in specs] == [
            "steady/rtm/seed0",
            "steady/rtm/seed1",
            "steady/governor_only/seed0",
            "steady/governor_only/seed1",
        ]


class TestBatchAggregates:
    """A batch's aggregates answer the paper's comparisons: managers on one
    scenario, and one manager across seeds."""

    def test_manager_grid_compares_managers_on_one_scenario(self):
        batch = run_many(grid_specs(["single_dnn"], ["rtm", "governor_only"], [0]))
        labels = {"single_dnn/rtm/seed0", "single_dnn/governor_only/seed0"}
        assert not batch.errors
        assert set(batch.traces) == labels
        assert set(batch.violation_rates()) == labels
        assert batch.best_case() in labels
        assert all(energy >= 0 for energy in batch.energies_mj().values())
        assert all(0 <= accuracy <= 100 for accuracy in batch.mean_accuracies().values())

    def test_seed_grid_runs_each_seed_on_its_own_workload(self):
        batch = run_many(grid_specs(["steady"], ["rtm"], [1, 2]))
        assert not batch.errors
        assert list(batch.traces) == ["steady/rtm/seed1", "steady/rtm/seed2"]
        assert all(0.0 <= rate <= 1.0 for rate in batch.violation_rates().values())
        # A seeded scenario draws a different workload for every seed.
        assert len({trace.fingerprint() for trace in batch.traces.values()}) == 2


class TestCommittedExampleSpecs:
    EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"

    @pytest.mark.parametrize("filename", ["fig2_managers.toml", "rush_hour_rtm.toml"])
    def test_committed_spec_files_load_and_validate(self, filename):
        specs = load_specs(self.EXAMPLES / filename)
        assert specs
        for spec in specs:
            spec.validate()
