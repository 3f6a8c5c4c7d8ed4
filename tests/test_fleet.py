"""Fleet orchestration tests: specs, invariants, goldens, policy quality.

The heart of the file is the module-scoped ``fleet_grid`` fixture — one
batched fleet run per (scenario, policy, manager) row of ``GRID`` on small
pinned device mixes — shared by the conservation invariant, the golden fleet
fingerprint table, the orchestrated-beats-static assertion and the migration
checks.  Backend and device-order identity get their own (serial / permuted)
runs, every golden is reproduced once more with each device on the
unmemoised reference engine (``tests/reference_engine.py``), and every
device of every row is replayed alone, with a model of its own
(``TestDeviceIndependence``).

Regenerate the golden table after an intentional behaviour change with::

    PYTHONPATH=src python -m tests.test_fleet
"""

from __future__ import annotations

import gc
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.dnn import IncrementalTrainer, make_dynamic_cifar_dnn
from repro.experiments.managers import make_manager
from repro.fleet import (
    FLEET_POLICY_REGISTRY,
    FleetSpec,
    FleetSpecError,
    DeviceTelemetry,
    build_fleet_scenario,
    dump_fleet_specs,
    fleet_specs_to_toml,
    load_fleet_specs,
    make_fleet_policy,
    run_fleet,
)
from repro.fleet import orchestrator as orchestrator_module
from repro.fleet.bench import bench_device_mix
from repro.fleet.orchestrator import FleetOrchestrator, FleetResult
from repro.fleet.policies import LeastLoadedPlacement
from repro.sim.engine import Simulator
from repro.workloads.tasks import DNNApplication, make_dnn_application
from tests.reference_engine import ReferenceSimulator

#: Small pinned device mixes: big enough for placement to matter, small
#: enough that the whole grid stays test-suite friendly.
SMALL_MIXES: Dict[str, Dict[str, int]] = {
    "fleet_rush_hour_regional": {"generic_quad": 6, "odroid_xu3": 6},
    "fleet_device_churn": {"generic_quad": 4, "odroid_xu3": 4},
    "fleet_stragglers": {"generic_quad": 4, "jetson_nano": 2},
    "fleet_mixed_platforms": {"generic_quad": 2, "jetson_nano": 2, "odroid_xu3": 2},
    "fleet_diurnal": {"generic_quad": 4, "odroid_xu3": 4},
}

GRID_POLICIES = ("static", "round_robin", "least_loaded", "thermal_headroom", "random")

#: (scenario, policy, manager) rows: every policy under ``rtm``, and the
#: baseline and the load-aware placement under ``rtm_min_energy``, whose
#: devices compress their DNNs (``rtm`` keeps the full model almost always).
GRID: Tuple[Tuple[str, str, str], ...] = tuple(
    (scenario, policy, manager)
    for scenario in sorted(SMALL_MIXES)
    for manager, policies in (
        ("rtm", GRID_POLICIES),
        ("rtm_min_energy", ("static", "least_loaded")),
    )
    for policy in policies
)

# Golden fleet fingerprints of the grid above (seed 0, batched backend).  A
# changed digest means fleet *behaviour* changed — placement, migration
# timing, per-device simulation — and must be deliberate, exactly like
# tests/test_golden_traces.py.  Regenerate with the module's __main__ hook.
GOLDEN_FLEET_FINGERPRINTS: Dict[Tuple[str, str, str], str] = {
    ("fleet_device_churn", "least_loaded", "rtm"): "04355d6ba672e4cd",
    ("fleet_device_churn", "least_loaded", "rtm_min_energy"): "3a6801d3b56b498f",
    ("fleet_device_churn", "random", "rtm"): "2b5fadf4d8353ef8",
    ("fleet_device_churn", "round_robin", "rtm"): "eeb5a8284dbdec15",
    ("fleet_device_churn", "static", "rtm"): "627f7d23b9bc4039",
    ("fleet_device_churn", "static", "rtm_min_energy"): "116f03668d11947c",
    ("fleet_device_churn", "thermal_headroom", "rtm"): "b35712c10828ed85",
    ("fleet_diurnal", "least_loaded", "rtm"): "7233d7e898056018",
    ("fleet_diurnal", "least_loaded", "rtm_min_energy"): "df979872890d76a3",
    ("fleet_diurnal", "random", "rtm"): "73334ff117840af0",
    ("fleet_diurnal", "round_robin", "rtm"): "5746a85778a47b48",
    ("fleet_diurnal", "static", "rtm"): "37195436c2b84ade",
    ("fleet_diurnal", "static", "rtm_min_energy"): "97b483b338ad7d41",
    ("fleet_diurnal", "thermal_headroom", "rtm"): "107d8669163babc5",
    ("fleet_mixed_platforms", "least_loaded", "rtm"): "90c6165e479cea91",
    ("fleet_mixed_platforms", "least_loaded", "rtm_min_energy"): "2a595a73722e9d8e",
    ("fleet_mixed_platforms", "random", "rtm"): "72c36a3f5be431ea",
    ("fleet_mixed_platforms", "round_robin", "rtm"): "492ba892072aabe1",
    ("fleet_mixed_platforms", "static", "rtm"): "2459660fbb0946c6",
    ("fleet_mixed_platforms", "static", "rtm_min_energy"): "bde12b5c5b03348c",
    ("fleet_mixed_platforms", "thermal_headroom", "rtm"): "91172f9e0d44f45e",
    ("fleet_rush_hour_regional", "least_loaded", "rtm"): "6daad25fdebdfa3a",
    ("fleet_rush_hour_regional", "least_loaded", "rtm_min_energy"): "809993efcfa9aaf1",
    ("fleet_rush_hour_regional", "random", "rtm"): "21a2d01cc835b0d4",
    ("fleet_rush_hour_regional", "round_robin", "rtm"): "90210ce554cf77d8",
    ("fleet_rush_hour_regional", "static", "rtm"): "6daf92538a383b5e",
    ("fleet_rush_hour_regional", "static", "rtm_min_energy"): "b022611cd1d54d31",
    ("fleet_rush_hour_regional", "thermal_headroom", "rtm"): "9f5f925fc9d7df8b",
    ("fleet_stragglers", "least_loaded", "rtm"): "28328ebfbbcc5c99",
    ("fleet_stragglers", "least_loaded", "rtm_min_energy"): "046905210ce75d9a",
    ("fleet_stragglers", "random", "rtm"): "5157f9dd107b384d",
    ("fleet_stragglers", "round_robin", "rtm"): "9e468b5bff074730",
    ("fleet_stragglers", "static", "rtm"): "d297648783108c69",
    ("fleet_stragglers", "static", "rtm_min_energy"): "5628e222b131f3fa",
    ("fleet_stragglers", "thermal_headroom", "rtm"): "efbb40d04b967976",
}


def _grid_spec(row: Tuple[str, str, str]) -> FleetSpec:
    scenario, policy, manager = row
    return FleetSpec(
        scenario=scenario, policy=policy, manager=manager, devices=SMALL_MIXES[scenario]
    )


@pytest.fixture(scope="module")
def fleet_grid(trained_dnn) -> Dict[Tuple[str, str, str], FleetResult]:
    """One batched fleet run per ``GRID`` row on the pinned mixes."""
    return {
        row: run_fleet(_grid_spec(row), backend="batched", trained=trained_dnn)
        for row in GRID
    }


# ------------------------------------------------------------------- specs


class TestFleetSpec:
    def test_toml_round_trip(self, tmp_path):
        spec = FleetSpec(
            scenario="fleet_rush_hour_regional",
            policy="thermal_headroom",
            seed=3,
            devices={"odroid_xu3": 4, "generic_quad": 2},
            epoch_ms=500.0,
            policy_params={},
        )
        path = tmp_path / "fleet.toml"
        spec.save(path)
        assert load_fleet_specs(path) == [spec]

    def test_json_round_trip(self, tmp_path):
        spec = FleetSpec(scenario="fleet_stragglers", name="straggler_case")
        path = tmp_path / "fleet.json"
        spec.save(path)
        loaded = load_fleet_specs(path)
        assert loaded == [spec]
        assert loaded[0].label == "straggler_case"

    def test_batch_round_trip_preserves_order(self, tmp_path):
        specs = [
            FleetSpec(scenario="fleet_device_churn", policy="static"),
            FleetSpec(scenario="fleet_device_churn", policy="least_loaded"),
        ]
        path = tmp_path / "batch.toml"
        dump_fleet_specs(specs, path)
        assert "[[fleet]]" in path.read_text()
        assert load_fleet_specs(path) == specs

    def test_json_batch_round_trip_is_a_top_level_array(self, tmp_path):
        import json

        specs = [
            FleetSpec(scenario="fleet_device_churn", policy="static"),
            FleetSpec(scenario="fleet_device_churn", policy="least_loaded"),
        ]
        path = tmp_path / "batch.json"
        dump_fleet_specs(specs, path)
        assert isinstance(json.loads(path.read_text()), list)
        assert load_fleet_specs(path) == specs
        # The earlier {"fleet": [...]} form of a JSON batch still loads.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"fleet": [spec.to_dict() for spec in specs]}))
        assert load_fleet_specs(legacy) == specs

    def test_fleet_id_ignores_device_insertion_order(self):
        forward = FleetSpec(
            scenario="fleet_mixed_platforms",
            devices={"generic_quad": 2, "odroid_xu3": 3},
        )
        backward = FleetSpec(
            scenario="fleet_mixed_platforms",
            devices={"odroid_xu3": 3, "generic_quad": 2},
        )
        assert forward.fleet_id() == backward.fleet_id()

    def test_fleet_id_sees_every_field(self):
        base = FleetSpec(scenario="fleet_stragglers")
        assert base.fleet_id() != FleetSpec(scenario="fleet_stragglers", seed=1).fleet_id()
        assert (
            base.fleet_id()
            != FleetSpec(scenario="fleet_stragglers", epoch_ms=2000.0).fleet_id()
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(FleetSpecError, match="unknown fleet spec keys"):
            FleetSpec.from_dict({"scenario": "fleet_stragglers", "epoch": 5})
        with pytest.raises(FleetSpecError, match="unknown fleet spec keys \\['use_cache'\\]"):
            FleetSpec.from_dict(
                {"scenario": "fleet_stragglers", "use_op_cache": True, "use_cache": 1}
            )

    def test_fleet_id_minted_with_the_retired_cache_switch_holds(self):
        # Fleet stores were keyed while every spec carried ``use_op_cache``.
        assert FleetSpec(scenario="fleet_device_churn").fleet_id() == "663d3bbf92936145"

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_toml_with_the_retired_cache_switch_loads(self, tmp_path, value):
        path = tmp_path / "legacy.toml"
        path.write_text(f'scenario = "fleet_device_churn"\nuse_op_cache = {value}\n')
        assert load_fleet_specs(path) == [FleetSpec(scenario="fleet_device_churn")]

    def test_to_toml_no_longer_writes_the_retired_cache_switch(self):
        spec = FleetSpec(scenario="fleet_device_churn")
        assert "use_op_cache" not in fleet_specs_to_toml([spec])
        assert "use_op_cache" not in spec.to_dict()

    @pytest.mark.parametrize(
        "policy, params",
        [("least_loaded", {"seed": 3}), ("random", {"seed": "x"})],
        ids=["unaccepted-param", "bad-value"],
    )
    def test_validate_rejects_policy_params_the_policy_cannot_take(self, policy, params):
        spec = FleetSpec(scenario="fleet_stragglers", policy=policy, policy_params=params)
        with pytest.raises(FleetSpecError, match=f"policy {policy!r} rejects policy_params"):
            spec.validate()

    def test_validate_suggests_for_typos(self):
        with pytest.raises(FleetSpecError, match="least_loaded"):
            FleetSpec(scenario="fleet_stragglers", policy="least_loded").validate()
        with pytest.raises(FleetSpecError):
            FleetSpec(scenario="fleet_stragglerz").validate()

    def test_bad_shapes_rejected(self):
        with pytest.raises(FleetSpecError, match="positive integer"):
            FleetSpec.from_dict(
                {"scenario": "fleet_stragglers", "devices": {"odroid_xu3": 0}}
            )
        with pytest.raises(FleetSpecError, match="epoch_ms"):
            FleetSpec.from_dict({"scenario": "fleet_stragglers", "epoch_ms": -1.0})

    def test_single_spec_toml_has_no_header(self):
        text = fleet_specs_to_toml([FleetSpec(scenario="fleet_stragglers")])
        assert "[[fleet]]" not in text
        assert 'scenario = "fleet_stragglers"' in text


# ---------------------------------------------------------------- policies


def _telemetry(device_id: str, **overrides) -> DeviceTelemetry:
    payload = dict(
        device_id=device_id,
        preset="generic_quad",
        time_ms=0.0,
        assigned_apps=0,
        online_cores=4,
        total_cores=4,
        utilisation=0.0,
        thermal_headroom_c=20.0,
        recent_violation_rate=0.0,
        recent_jobs=0,
    )
    payload.update(overrides)
    return DeviceTelemetry(**payload)


class TestPolicies:
    def test_registry_holds_all_five(self):
        assert set(FLEET_POLICY_REGISTRY.names()) == {
            "static",
            "round_robin",
            "least_loaded",
            "thermal_headroom",
            "random",
        }

    def test_static_hashes_over_the_full_table_and_never_rebalances(self):
        policy = make_fleet_policy("static")
        policy.bind(["a", "b", "c"])
        assert policy.rebalances is False
        first = policy.place("app-1", [])
        assert first in {"a", "b", "c"}
        assert policy.place("app-1", []) == first  # pure content hash

    def test_round_robin_cycles_candidates(self):
        policy = make_fleet_policy("round_robin")
        policy.bind(["a", "b"])
        candidates = [_telemetry("a"), _telemetry("b")]
        placed = [policy.place(f"app-{i}", candidates) for i in range(4)]
        assert placed == ["a", "b", "a", "b"]

    def test_least_loaded_prefers_low_load_and_breaks_ties_on_id(self):
        policy = make_fleet_policy("least_loaded")
        policy.bind(["a", "b", "c"])
        candidates = [
            _telemetry("a", assigned_apps=2),
            _telemetry("b", assigned_apps=1),
            _telemetry("c", assigned_apps=1),
        ]
        assert policy.place("app", candidates) == "b"

    def test_thermal_headroom_ranks_occupancy_then_coolness(self):
        policy = make_fleet_policy("thermal_headroom")
        policy.bind(["a", "b", "c"])
        candidates = [
            _telemetry("a", assigned_apps=1, thermal_headroom_c=30.0),
            _telemetry("b", assigned_apps=0, thermal_headroom_c=10.0),
            _telemetry("c", assigned_apps=0, thermal_headroom_c=25.0),
        ]
        assert policy.place("app", candidates) == "c"

    def test_random_is_seeded_and_reset_by_bind(self):
        policy = make_fleet_policy("random", {"seed": 7})
        candidates = [_telemetry(d) for d in ("a", "b", "c", "d")]
        policy.bind([t.device_id for t in candidates])
        first = [policy.place(f"app-{i}", candidates) for i in range(6)]
        policy.bind([t.device_id for t in candidates])
        again = [policy.place(f"app-{i}", candidates) for i in range(6)]
        assert first == again

    def test_empty_candidates_reject(self):
        for name in ("round_robin", "least_loaded", "thermal_headroom", "random"):
            policy = make_fleet_policy(name)
            policy.bind([])
            assert policy.place("app", []) is None

    def test_unknown_policy_suggests(self):
        with pytest.raises(KeyError, match="least_loaded"):
            make_fleet_policy("least_loadedd")


def _reference_least_loaded(candidates):
    """The least-loaded choice, spelled out from the raw telemetry fields."""
    return min(
        candidates,
        key=lambda t: (t.assigned_apps / max(t.online_cores, 1) + t.utilisation, t.device_id),
    ).device_id


# Small value sets make equal scores common (2 apps on 4 cores + 0.0 ties
# 0 apps + 0.5); online_cores 0 is a fully failed device.
_DEVICE_ROWS = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(0, 4),
        st.one_of(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestLeastLoadedRanking:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=_DEVICE_ROWS,
        updates=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 8)), max_size=6),
        order=st.randoms(use_true_random=False),
    )
    def test_place_matches_the_reference_ranking(self, rows, updates, order):
        candidates = [
            _telemetry(f"dev-{i:02d}", assigned_apps=apps, online_cores=cores, utilisation=util)
            for i, (apps, cores, util) in enumerate(rows)
        ]
        for index, apps in updates:
            candidates[index % len(candidates)].set_assigned(apps)
        order.shuffle(candidates)  # the ranking must not lean on input order
        for t in candidates:
            assert t.load_score == t.assigned_apps / max(t.online_cores, 1) + t.utilisation
        policy = make_fleet_policy("least_loaded")
        policy.bind(sorted(t.device_id for t in candidates))
        assert policy.place("app", tuple(candidates)) == _reference_least_loaded(candidates)


# -------------------------------------------------------------- invariants


class TestFleetInvariants:
    def test_job_conservation(self, fleet_grid):
        """Fleet-wide accounting: every arrival is placed, rejected or gone."""
        for row, result in fleet_grid.items():
            counts = result.app_counts
            assert counts["arrived"] == (
                counts["rejected"]
                + counts["departed"]
                + counts["resident"]
                + counts["in_migration"]
            ), (row, counts)
            assert counts["placed"] == counts["arrived"] - counts["rejected"]
            scenario = row[0]
            templates = len(build_fleet_scenario(scenario, devices=SMALL_MIXES[scenario]).arrivals)
            assert counts["arrived"] == templates

    def test_device_metrics_sum_to_totals(self, fleet_grid):
        for result in fleet_grid.values():
            assert result.total_jobs() == sum(
                int(m["jobs"]) for m in result.device_metrics.values()
            )
            assert set(result.device_metrics) == set(result.device_ids)

    def test_fingerprint_ignores_device_table_order(self, trained_dnn):
        scenario = "fleet_rush_hour_regional"
        forward = FleetSpec(
            scenario=scenario, devices={"generic_quad": 6, "odroid_xu3": 6}
        )
        backward = FleetSpec(
            scenario=scenario, devices={"odroid_xu3": 6, "generic_quad": 6}
        )
        assert (
            run_fleet(forward, backend="batched", trained=trained_dnn).fingerprint()
            == run_fleet(backward, backend="batched", trained=trained_dnn).fingerprint()
        )

    @pytest.mark.parametrize(
        "scenario, manager",
        [
            ("fleet_stragglers", "rtm"),
            ("fleet_device_churn", "rtm"),
            ("fleet_device_churn", "rtm_min_energy"),
        ],
    )
    def test_serial_and_batched_backends_agree(self, fleet_grid, trained_dnn, scenario, manager):
        """The fleet digest is bit-identical across execution backends:
        memo stores private to each device or shared fleet-wide."""
        row = (scenario, "least_loaded", manager)
        serial = run_fleet(_grid_spec(row), backend="serial", trained=trained_dnn)
        batched = fleet_grid[row]
        assert serial.fingerprint() == batched.fingerprint()
        assert serial.app_counts == batched.app_counts

    def test_migrations_happen_under_faults(self, fleet_grid):
        """Churn evacuates dying devices; the rush overloads and sheds.

        Stragglers, notably, do NOT migrate under ``least_loaded``: the
        per-device RTM absorbs the frequency cap by dropping to cheaper
        operating points, so capped devices never cross the eviction
        threshold — fleet-level eviction only fires where device-level
        adaptation is not enough.
        """
        churn = fleet_grid[("fleet_device_churn", "least_loaded", "rtm")]
        assert churn.migrations
        assert {record.reason for record in churn.migrations} == {"churn"}
        rush = fleet_grid[("fleet_rush_hour_regional", "least_loaded", "rtm")]
        assert rush.migrations
        assert "overload" in {record.reason for record in rush.migrations}
        assert not fleet_grid[("fleet_stragglers", "least_loaded", "rtm")].migrations
        # Static placement never migrates anything, by construction.
        for (_, policy, _), result in fleet_grid.items():
            assert policy != "static" or not result.migrations

    def test_migration_arrivals_carry_the_latency_penalty(self, fleet_grid):
        spec_latency = FleetSpec(scenario="fleet_stragglers").migration_latency_ms
        for scenario in ("fleet_device_churn", "fleet_rush_hour_regional"):
            for record in fleet_grid[(scenario, "least_loaded", "rtm")].migrations:
                assert record.arrival_ms == pytest.approx(record.time_ms + spec_latency)
                assert record.source != record.target


# ------------------------------------------------------ garbage collection


class _CollectorProbe(LeastLoadedPlacement):
    """Least-loaded placement that records the collector's state per call."""

    def bind(self, device_ids):
        super().bind(device_ids)
        self.collector_states = []

    def place(self, app_id, candidates):
        self.collector_states.append(gc.isenabled())
        return super().place(app_id, candidates)


class _FailingPlacement(LeastLoadedPlacement):
    def place(self, app_id, candidates):
        raise RuntimeError("placement failed")


class _SnapshotProbe(LeastLoadedPlacement):
    """Least-loaded placement that checks every candidate it is handed
    against the orchestrator's live state (``orchestrator`` is set by the
    test after construction)."""

    def bind(self, device_ids):
        super().bind(device_ids)
        self.orchestrator = None
        self.calls = []  # (number of candidates, snapshot time) per call
        self.problems = []

    def place(self, app_id, candidates):
        orchestrator = self.orchestrator
        positions = [orchestrator.device_ids.index(t.device_id) for t in candidates]
        if positions != sorted(positions):
            self.problems.append((app_id, "candidates out of canonical order"))
        for t in candidates:
            device_id = t.device_id
            if t is not orchestrator._telemetry[device_id]:
                self.problems.append((app_id, device_id, "stale snapshot"))
            if not orchestrator._eligible[device_id]:
                self.problems.append((app_id, device_id, "ineligible candidate"))
            if t.assigned_apps != orchestrator._assigned[device_id]:
                self.problems.append((app_id, device_id, "assigned count behind"))
            if t.load_score != t.assigned_apps / max(t.online_cores, 1) + t.utilisation:
                self.problems.append((app_id, device_id, "stale load score"))
        self.calls.append((len(candidates), candidates[0].time_ms if candidates else None))
        return super().place(app_id, candidates)


@pytest.fixture
def throwaway_policies():
    """Register the test-only placement policies for one test."""
    probes = {
        "collector_probe": _CollectorProbe,
        "failing": _FailingPlacement,
        "snapshot_probe": _SnapshotProbe,
    }
    for name, factory in probes.items():
        FLEET_POLICY_REGISTRY.register(name, factory, rebalances=True)
    try:
        yield
    finally:
        for name in probes:
            FLEET_POLICY_REGISTRY.unregister(name)


def _probe_spec(policy: str) -> FleetSpec:
    return FleetSpec(
        scenario="fleet_device_churn",
        policy=policy,
        devices={"generic_quad": 2, "odroid_xu3": 2},
    )


@pytest.mark.parametrize("backend", ["serial", "batched"])
class TestCollectorSuspension:
    """Building and running a fleet suspend the cyclic collector and leave it
    as they found it, on return and on raise."""

    def test_off_inside_construction_and_run_then_restored(
        self, backend, collector_enabled, trained_dnn, throwaway_policies, monkeypatch
    ):
        factory_states = []
        factory = orchestrator_module.Simulator

        def spy(*args, **kwargs):
            factory_states.append(gc.isenabled())
            return factory(*args, **kwargs)

        monkeypatch.setattr(orchestrator_module, "Simulator", spy)
        orchestrator = FleetOrchestrator(
            _probe_spec("collector_probe"), backend=backend, trained=trained_dnn
        )
        assert gc.isenabled() is collector_enabled
        result = orchestrator.run()
        assert gc.isenabled() is collector_enabled
        assert factory_states == [False] * len(result.device_ids)
        placements = orchestrator.policy.collector_states
        assert placements and not any(placements)

    def test_restored_when_placement_raises(
        self, backend, collector_enabled, trained_dnn, throwaway_policies
    ):
        orchestrator = FleetOrchestrator(
            _probe_spec("failing"), backend=backend, trained=trained_dnn
        )
        with pytest.raises(RuntimeError, match="placement failed"):
            orchestrator.run()
        assert gc.isenabled() is collector_enabled

    def test_restored_when_construction_raises(
        self, backend, collector_enabled, trained_dnn, monkeypatch
    ):
        def broken_factory(*args, **kwargs):
            raise RuntimeError("simulator construction failed")

        monkeypatch.setattr(orchestrator_module, "Simulator", broken_factory)
        with pytest.raises(RuntimeError, match="simulator construction failed"):
            FleetOrchestrator(_probe_spec("least_loaded"), backend=backend, trained=trained_dnn)
        assert gc.isenabled() is collector_enabled


# ------------------------------------------------------- placement snapshots


class TestPlacementCandidates:
    def test_candidates_are_the_live_snapshots(self, trained_dnn, throwaway_policies):
        """Every candidate a policy sees is the orchestrator's current snapshot
        of an eligible device, with its assigned count and load score up to
        date after the epoch's earlier placements and migrations."""
        scenario = "fleet_device_churn"
        spec = FleetSpec(
            scenario=scenario, policy="snapshot_probe", devices=SMALL_MIXES[scenario]
        )
        orchestrator = FleetOrchestrator(spec, backend="batched", trained=trained_dnn)
        probe = orchestrator.policy
        probe.orchestrator = orchestrator
        result = orchestrator.run()
        assert not probe.problems, probe.problems[:5]
        # Placements over several epochs, with and without exclusions, and
        # the least-loaded outcome unchanged by the probing.
        assert len({time_ms for _, time_ms in probe.calls}) > 1
        assert len({size for size, _ in probe.calls}) > 1
        assert any(record.reason == "churn" for record in result.migrations)
        assert result.fingerprint() == GOLDEN_FLEET_FINGERPRINTS[
            (scenario, "least_loaded", "rtm")
        ]

    def test_unexcluded_candidates_are_one_shared_tuple(self, trained_dnn):
        orchestrator = FleetOrchestrator(
            _probe_spec("least_loaded"), backend="serial", trained=trained_dnn
        )
        shared = orchestrator._candidates()
        assert isinstance(shared, tuple)
        assert orchestrator._candidates() is shared
        excluded = orchestrator._candidates(exclude={orchestrator.device_ids[0]})
        assert [t.device_id for t in excluded] == orchestrator.device_ids[1:]
        assert orchestrator._candidates() is shared


# ------------------------------------------------------- orchestration wins


class TestOrchestrationQuality:
    def test_least_loaded_beats_static_on_rush_hour(self, fleet_grid):
        """The ISSUE's acceptance criterion, asserted deterministically."""
        orchestrated = fleet_grid[("fleet_rush_hour_regional", "least_loaded", "rtm")]
        static = fleet_grid[("fleet_rush_hour_regional", "static", "rtm")]
        assert orchestrated.violation_rate() < static.violation_rate()

    def test_least_loaded_beats_static_everywhere(self, fleet_grid):
        for scenario in SMALL_MIXES:
            orchestrated = fleet_grid[(scenario, "least_loaded", "rtm")]
            static = fleet_grid[(scenario, "static", "rtm")]
            assert orchestrated.violation_rate() < static.violation_rate(), scenario


# ----------------------------------------------------------------- goldens


class TestGoldenFleetFingerprints:
    def test_every_combination_is_locked(self, fleet_grid):
        observed = {combo: result.fingerprint() for combo, result in fleet_grid.items()}
        assert set(observed) == set(GOLDEN_FLEET_FINGERPRINTS), (
            "fleet grid changed: regenerate GOLDEN_FLEET_FINGERPRINTS "
            "(PYTHONPATH=src python -m tests.test_fleet)"
        )
        mismatches = {
            combo: (fingerprint, GOLDEN_FLEET_FINGERPRINTS[combo])
            for combo, fingerprint in observed.items()
            if fingerprint != GOLDEN_FLEET_FINGERPRINTS[combo]
        }
        assert not mismatches, (
            f"fleet behaviour changed for {sorted(mismatches)}; if intentional, "
            "regenerate GOLDEN_FLEET_FINGERPRINTS "
            "(PYTHONPATH=src python -m tests.test_fleet)"
        )

    def test_fingerprint_is_recomputable_from_the_result(self, fleet_grid):
        result = fleet_grid[("fleet_mixed_platforms", "least_loaded", "rtm")]
        assert result.fingerprint() == result.fingerprint()

    def test_every_combination_reproduces_on_the_reference_engine(
        self, trained_dnn, monkeypatch
    ):
        """The unmemoised reference engine, run as every device, reproduces
        each golden: the memos are checked against independent code."""
        monkeypatch.setattr(orchestrator_module, "Simulator", ReferenceSimulator)
        mismatches = {}
        for row, golden in sorted(GOLDEN_FLEET_FINGERPRINTS.items()):
            orchestrator = FleetOrchestrator(_grid_spec(row), trained=trained_dnn)
            assert {type(s) for s in orchestrator.simulators.values()} == {ReferenceSimulator}
            fingerprint = orchestrator.run().fingerprint()
            if fingerprint != golden:
                mismatches[row] = (fingerprint, golden)
        assert not mismatches, mismatches


class _TimelineSimulator(Simulator):
    """A device simulator that logs the orchestrator's calls, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.timeline = []

    def inject_arrival(self, application, time_ms):
        self.timeline.append(("inject_arrival", application, time_ms))
        super().inject_arrival(application, time_ms)

    def inject_departure(self, app_id, time_ms):
        self.timeline.append(("inject_departure", app_id, time_ms))
        super().inject_departure(app_id, time_ms)

    def advance_to(self, time_ms):
        self.timeline.append(("advance_to", time_ms))
        super().advance_to(time_ms)


def _replay_alone(device: _TimelineSimulator, spec: FleetSpec) -> str:
    """Fingerprint of one device's logged timeline replayed on its own.

    A fresh simulator on private stores, under a fresh manager, whose DNN
    apps are rebuilt on one model trained for this device alone.
    """
    own = IncrementalTrainer().train(make_dynamic_cifar_dnn())
    replay = Simulator(device.scenario, make_manager(spec.manager))
    replay.prime()
    for call, *args in device.timeline:
        if call == "inject_arrival" and isinstance(args[0], DNNApplication):
            application = args[0]
            args[0] = make_dnn_application(
                application.app_id,
                own,
                application.requirements,
                arrival_time_ms=application.arrival_time_ms,
            )
        getattr(replay, call)(*args)
    return replay.trace.fingerprint()


class TestDeviceIndependence:
    @pytest.mark.parametrize("row", GRID, ids="/".join)
    def test_every_device_replays_alone(self, trained_dnn, monkeypatch, row):
        """A device shares nothing with the rest of its fleet but its
        placement decisions: its own arrivals, departures and strides,
        replayed on a simulator and a model of its own, reproduce its trace.
        The fleet's one trained model serves every device."""
        monkeypatch.setattr(orchestrator_module, "Simulator", _TimelineSimulator)
        spec = _grid_spec(row)
        orchestrator = FleetOrchestrator(spec, trained=trained_dnn)
        result = orchestrator.run()
        assert result.fingerprint() == GOLDEN_FLEET_FINGERPRINTS[row]
        mismatches = [
            device_id
            for device_id, device in orchestrator.simulators.items()
            if _replay_alone(device, spec) != result.device_metrics[device_id]["fingerprint"]
        ]
        assert not mismatches, f"{len(mismatches)} of {len(result.device_ids)}: {mismatches}"


# ------------------------------------------------------------------- bench


class TestFleetBenchHelpers:
    def test_bench_device_mix_sums_and_is_deterministic(self):
        assert sum(bench_device_mix(1000).values()) == 1000
        assert sum(bench_device_mix(7).values()) == 7
        assert bench_device_mix(50) == bench_device_mix(50)
        assert all(count > 0 for count in bench_device_mix(3).values())

    def test_bench_device_mix_rejects_empty_fleets(self):
        with pytest.raises(ValueError):
            bench_device_mix(0)

    def test_fleet_gate_flags_regressions_and_skips_other_grids(self):
        from repro.analysis.bench import compare_bench, gate_cases
        from repro.fleet.bench import BENCH_KIND_FLEET, FleetBenchResult

        result = FleetBenchResult(
            devices=100,
            scenario="fleet_mixed_platforms",
            policy="least_loaded",
            orchestrated_s=2.0,
            static_s=1.0,
            serial_s=3.0,
            fingerprints_identical=True,
            orchestrated_violation_rate=0.01,
            static_violation_rate=0.2,
            migrations=3,
            orchestrated_fingerprint="aa",
            static_fingerprint="bb",
        )

        def gate(baseline, max_regression):
            # The fleet verb's gate: orchestrated_s, on the same size and scenario.
            grid = ("devices", "scenario")
            current, base = gate_cases(BENCH_KIND_FLEET, result.as_dict(), baseline, grid)
            return compare_bench(current, base, ("orchestrated_s",), max_regression)

        baseline = {"results": {"devices": 100, "scenario": "fleet_mixed_platforms", "orchestrated_s": 1.0}}
        regressions = gate(baseline, max_regression=0.25)
        assert len(regressions) == 1 and regressions[0].metric == "orchestrated_s"
        assert not gate(baseline, max_regression=2.0)
        # A baseline from a different fleet size is not comparable.
        other = {"results": {"devices": 10, "scenario": "fleet_mixed_platforms", "orchestrated_s": 1.0}}
        assert not gate(other, max_regression=0.0)


# --------------------------------------------------------------------- CLI


class TestFleetCLI:
    def test_policies_list(self, capsys):
        assert main(["fleet", "policies", "list"]) == 0
        output = capsys.readouterr().out
        assert "least_loaded" in output and "static" in output

    def test_scenarios_list(self, capsys):
        assert main(["fleet", "scenarios", "list"]) == 0
        assert "fleet_rush_hour_regional" in capsys.readouterr().out

    def test_run_spec_file_with_store_and_resume(self, capsys, tmp_path):
        spec = FleetSpec(
            scenario="fleet_mixed_platforms",
            policy="round_robin",
            devices={"generic_quad": 2},
        )
        path = tmp_path / "fleet.toml"
        spec.save(path)
        store = tmp_path / "fleet.sqlite"
        assert main(["fleet", "run", str(path), "--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert spec.fleet_id() in first
        assert "1 fleet result(s) streamed" in first
        # Resuming replays the stored aggregate without recomputing.
        assert main(["fleet", "run", str(path), "--store", str(store), "--resume"]) == 0
        second = capsys.readouterr().out
        assert "1 fleet(s) skipped (already stored), 0 computed" in second
        fingerprint = next(
            line for line in first.splitlines() if spec.fleet_id() in line
        ).split()[-1]
        assert fingerprint in second

    def test_run_rejects_unknown_policy(self, capsys):
        assert main(["fleet", "run", "--policy", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy, seed",
        [("least_loaded", "3"), ("random", '"x"')],
        ids=["unaccepted-param", "bad-value"],
    )
    def test_run_rejects_policy_params_the_policy_cannot_take(
        self, capsys, tmp_path, policy, seed
    ):
        path = tmp_path / "fleet.toml"
        path.write_text(
            f'scenario = "fleet_mixed_platforms"\npolicy = "{policy}"\n'
            f"[devices]\ngeneric_quad = 2\n[policy_params]\nseed = {seed}\n"
        )
        assert main(["fleet", "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"invalid fleet spec: policy '{policy}' rejects")
        assert captured.out == ""

    def test_run_accepts_a_seed_for_random(self, capsys, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(
            'scenario = "fleet_mixed_platforms"\npolicy = "random"\n'
            "[devices]\ngeneric_quad = 2\n[policy_params]\nseed = 7\n"
        )
        assert main(["fleet", "run", str(path)]) == 0
        assert "fleet_mixed_platforms/random/seed0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--scenario", "--policy"])
    def test_bench_rejects_unknown_names_before_running(self, capsys, flag):
        argv = ["fleet", "bench", "--devices", "5", "--no-serial-check", flag, "nope"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid fleet spec: unknown fleet ")
        assert "'nope'" in captured.err
        assert captured.out == ""

    def test_run_rejects_bad_device_mix(self, capsys):
        assert main(["fleet", "run", "--devices", "generic_quad"]) == 2
        assert "PRESET=COUNT" in capsys.readouterr().err
        assert main(["fleet", "run", "--devices", "generic_quad=0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_resume_without_store_fails(self, capsys):
        assert main(["fleet", "run", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err


def _regenerate() -> None:  # pragma: no cover - maintenance hook
    trained = IncrementalTrainer().train(make_dynamic_cifar_dnn())
    for row in sorted(GRID):
        result = run_fleet(_grid_spec(row), backend="batched", trained=trained)
        print(f'    ("{row[0]}", "{row[1]}", "{row[2]}"): "{result.fingerprint()}",')


if __name__ == "__main__":  # pragma: no cover - maintenance hook
    _regenerate()
