"""Golden-trace regression harness.

Locks a compact fingerprint of the simulation trace of every registry
scenario under every registered manager at seed 0.  A change in any of these
digests means simulated *behaviour* changed — job timing, placement,
configuration choices, power/thermal trajectories or decision cadence — and
must be deliberate: refactors that intend to be behaviour-preserving (like
the operating-point cache) must keep this table bit-for-bit stable, and PRs
that intentionally change policy behaviour must update the table in the same
commit, making the change loud and reviewable.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m tests.test_golden_traces
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.trace import DecisionRecord, SimulationTrace

# Fingerprints of every (scenario, manager) registry combination at seed 0 on
# the default platform.  Regenerate with the module's __main__ hook.
GOLDEN_FINGERPRINTS: Dict[Tuple[str, str], str] = {
    ("accuracy_critical", "governor_only"): "0880432a318bffdf",
    ("accuracy_critical", "rtm"): "a248943b58ba5362",
    ("accuracy_critical", "rtm_min_energy"): "0d3aef99708e903c",
    ("accuracy_critical", "static_deployment"): "55e6d24ba56de66a",
    ("battery_saver", "governor_only"): "4afe8967fdb38795",
    ("battery_saver", "rtm"): "ccb9c346881509c1",
    ("battery_saver", "rtm_min_energy"): "86a25ef9923baca5",
    ("battery_saver", "static_deployment"): "029822f9099df0c6",
    ("battery_saver_accuracy_critical", "governor_only"): "d0b152cfdfb80d77",
    ("battery_saver_accuracy_critical", "rtm"): "6ae0e56810325745",
    ("battery_saver_accuracy_critical", "rtm_min_energy"): "86cae8c9d1b54574",
    ("battery_saver_accuracy_critical", "static_deployment"): "e676b2998c657e97",
    ("bursty", "governor_only"): "98bf7c3992d9fdde",
    ("bursty", "rtm"): "f9a9999dc96b79f4",
    ("bursty", "rtm_min_energy"): "75beffb9dbb4d2b2",
    ("bursty", "static_deployment"): "39e7f51fad0da6a8",
    ("bursty_x2_exynos", "governor_only"): "73baaff0ddb61deb",
    ("bursty_x2_exynos", "rtm"): "e148b21026d85302",
    ("bursty_x2_exynos", "rtm_min_energy"): "722b06ae811223da",
    ("bursty_x2_exynos", "static_deployment"): "9facc33d4e73720d",
    ("chaos_bursty_transient_crashes", "governor_only"): "a50a2cd395f758dd",
    ("chaos_bursty_transient_crashes", "rtm"): "7c64c29387087595",
    ("chaos_bursty_transient_crashes", "rtm_min_energy"): "31952d2206959697",
    ("chaos_bursty_transient_crashes", "static_deployment"): "73551e0bc5ec1b0c",
    ("chaos_double_fault", "governor_only"): "4f16461a367b4526",
    ("chaos_double_fault", "rtm"): "1e1c989c5cee885b",
    ("chaos_double_fault", "rtm_min_energy"): "6ea90e3cd729f701",
    ("chaos_double_fault", "static_deployment"): "d2096afe9d019d65",
    ("chaos_flaky_npu", "governor_only"): "799e4e89cd1b2fe1",
    ("chaos_flaky_npu", "rtm"): "5ff574336e027afa",
    ("chaos_flaky_npu", "rtm_min_energy"): "4d48614432db0c1c",
    ("chaos_flaky_npu", "static_deployment"): "871b9d34fb5cbd64",
    ("chaos_overload_freq_cap", "governor_only"): "d489e2463251fb31",
    ("chaos_overload_freq_cap", "rtm"): "1d7b75145cc93b6b",
    ("chaos_overload_freq_cap", "rtm_min_energy"): "4845001eecf43eb0",
    ("chaos_overload_freq_cap", "static_deployment"): "d89a713cf38e3f4c",
    ("chaos_rush_hour_core_failure", "governor_only"): "e233ee351364d5eb",
    ("chaos_rush_hour_core_failure", "rtm"): "975ba1e5d9f65662",
    ("chaos_rush_hour_core_failure", "rtm_min_energy"): "aa44c97a9dbf4b32",
    ("chaos_rush_hour_core_failure", "static_deployment"): "092bd5d0bb18d79f",
    ("chaos_thermal_sensor_dropout", "governor_only"): "b147b96574823c66",
    ("chaos_thermal_sensor_dropout", "rtm"): "aaaacd49da60ac50",
    ("chaos_thermal_sensor_dropout", "rtm_min_energy"): "a675e3492d8e8829",
    ("chaos_thermal_sensor_dropout", "static_deployment"): "803b0b73f8507938",
    ("compose", "governor_only"): "28567e4707cef379",
    ("compose", "rtm"): "86f7fc946685f69a",
    ("compose", "rtm_min_energy"): "7597df3aa69fd193",
    ("compose", "static_deployment"): "eed2edaa3d4e9a91",
    ("diurnal", "governor_only"): "e5e1bcb3e6ee18f6",
    ("diurnal", "rtm"): "f0711c79f50e3783",
    ("diurnal", "rtm_min_energy"): "17a31875012742e1",
    ("diurnal", "static_deployment"): "70fb34d19f0db117",
    ("double_rush_hour", "governor_only"): "f2a5331c52a11950",
    ("double_rush_hour", "rtm"): "50de5cadd431f113",
    ("double_rush_hour", "rtm_min_energy"): "902057663c1d8745",
    ("double_rush_hour", "static_deployment"): "c2af9de410473875",
    ("fig2", "governor_only"): "b3f79d01863fc094",
    ("fig2", "rtm"): "ae3a41ea769ecf8c",
    ("fig2", "rtm_min_energy"): "9d0e9d729e270640",
    ("fig2", "static_deployment"): "6401c0058e7cb6ac",
    ("fig2_bursty", "governor_only"): "42b6cbd929a7cd0c",
    ("fig2_bursty", "rtm"): "6f98c50d53c0916e",
    ("fig2_bursty", "rtm_min_energy"): "9301fe32e2e9faa2",
    ("fig2_bursty", "static_deployment"): "94fde0cdc1f316da",
    ("fuzzed", "governor_only"): "3477cf7e5586912c",
    ("fuzzed", "rtm"): "d44f46f6f50429b4",
    ("fuzzed", "rtm_min_energy"): "195be4aada52e86b",
    ("fuzzed", "static_deployment"): "850ba610009ed671",
    ("mixed_criticality", "governor_only"): "8956ac5e01be6e8b",
    ("mixed_criticality", "rtm"): "3493d7b90a14d56a",
    ("mixed_criticality", "rtm_min_energy"): "ef413349ac009b4f",
    ("mixed_criticality", "static_deployment"): "741211ce3e1feea2",
    ("mixed_criticality_overload", "governor_only"): "3b99dac09d3c761c",
    ("mixed_criticality_overload", "rtm"): "6d0e9cabadea15d1",
    ("mixed_criticality_overload", "rtm_min_energy"): "9dd2ee58627ef109",
    ("mixed_criticality_overload", "static_deployment"): "445f570367646e4a",
    ("multi_app_contention", "governor_only"): "6cb7331797126123",
    ("multi_app_contention", "rtm"): "d9969b1272b84f16",
    ("multi_app_contention", "rtm_min_energy"): "45467befb982dcc3",
    ("multi_app_contention", "static_deployment"): "c0840cc8bb9a89bf",
    ("multi_dnn", "governor_only"): "a694d76ba8d61ca0",
    ("multi_dnn", "rtm"): "05b5b46c74e83e6e",
    ("multi_dnn", "rtm_min_energy"): "9270c7eb5ab2d02d",
    ("multi_dnn", "static_deployment"): "0799914e790f7aba",
    ("overload", "governor_only"): "ca6caf043c2ac3dc",
    ("overload", "rtm"): "dc1afb1139355c27",
    ("overload", "rtm_min_energy"): "00518213d59560b3",
    ("overload", "static_deployment"): "01986dbe1c004f38",
    ("overload_slow_motion", "governor_only"): "7881d4845e1762ce",
    ("overload_slow_motion", "rtm"): "85ee5a237f806416",
    ("overload_slow_motion", "rtm_min_energy"): "a7c6e3f284a38b63",
    ("overload_slow_motion", "static_deployment"): "47cd6c68a5048ad3",
    ("rush_hour", "governor_only"): "a95030ad9358e856",
    ("rush_hour", "rtm"): "f6a57349578bc914",
    ("rush_hour", "rtm_min_energy"): "abbaa578a30393a9",
    ("rush_hour", "static_deployment"): "0d72aaa800ed55c2",
    ("rush_hour_then_battery_saver", "governor_only"): "40d460d7ec95be41",
    ("rush_hour_then_battery_saver", "rtm"): "0d85ffd4691ff921",
    ("rush_hour_then_battery_saver", "rtm_min_energy"): "fccd4a7d8a319def",
    ("rush_hour_then_battery_saver", "static_deployment"): "15d999e2eae19e7c",
    ("single_dnn", "governor_only"): "281244cd26fa352b",
    ("single_dnn", "rtm"): "7f71ab5f7d35f5cd",
    ("single_dnn", "rtm_min_energy"): "98e5ff6aef9b9476",
    ("single_dnn", "static_deployment"): "8a07ca660a1b0ffc",
    ("steady", "governor_only"): "6655b1c0546c8ee0",
    ("steady", "rtm"): "f007a5d255a0ea13",
    ("steady", "rtm_min_energy"): "551bd3f241b9a2a9",
    ("steady", "static_deployment"): "e14f02dabeb160bc",
    ("steady_then_overload", "governor_only"): "59637371d30f4703",
    ("steady_then_overload", "rtm"): "df0d1b392c89e203",
    ("steady_then_overload", "rtm_min_energy"): "490e47d3ba9363e0",
    ("steady_then_overload", "static_deployment"): "190fa2657c558fb2",
    ("thermal_stress", "governor_only"): "2f8fb8a27958d834",
    ("thermal_stress", "rtm"): "650d8207a230513d",
    ("thermal_stress", "rtm_min_energy"): "7e5368abe28ba5d5",
    ("thermal_stress", "static_deployment"): "53961bb17add0232",
    ("thermal_stress_jittered", "governor_only"): "1cd78aa0dda97ea1",
    ("thermal_stress_jittered", "rtm"): "90a735f9edadc357",
    ("thermal_stress_jittered", "rtm_min_energy"): "f073c25242d4caa8",
    ("thermal_stress_jittered", "static_deployment"): "20359bb60315d4f3",
    ("trace", "governor_only"): "a95030ad9358e856",
    ("trace", "rtm"): "f6a57349578bc914",
    ("trace", "rtm_min_energy"): "abbaa578a30393a9",
    ("trace", "static_deployment"): "0d72aaa800ed55c2",
}


class TestFingerprint:
    def test_fingerprint_is_deterministic(self, registry_grid_cached):
        trace = registry_grid_cached.traces["fig2/rtm/seed0"]
        assert trace.fingerprint() == trace.fingerprint()

    def test_fingerprint_distinguishes_managers(self, registry_grid_cached):
        assert (
            registry_grid_cached.traces["fig2/rtm/seed0"].fingerprint()
            != registry_grid_cached.traces["fig2/governor_only/seed0"].fingerprint()
        )

    def test_fingerprint_ignores_cache_counters(self):
        plain = SimulationTrace(duration_ms=100.0)
        plain.record_decision(DecisionRecord(time_ms=1.0, num_actions=2, trigger="epoch"))
        counted = SimulationTrace(duration_ms=100.0)
        counted.record_decision(
            DecisionRecord(
                time_ms=1.0, num_actions=2, trigger="epoch", cache_hits=7, cache_misses=3
            )
        )
        assert plain.fingerprint() == counted.fingerprint()

    def test_fingerprint_sees_behavioural_changes(self):
        base = SimulationTrace(duration_ms=100.0)
        base.record_decision(DecisionRecord(time_ms=1.0, num_actions=2, trigger="epoch"))
        changed = SimulationTrace(duration_ms=100.0)
        changed.record_decision(DecisionRecord(time_ms=1.0, num_actions=3, trigger="epoch"))
        assert base.fingerprint() != changed.fingerprint()


class TestGoldenTraces:
    def test_every_combination_is_locked(self, registry_grid_cached):
        observed = {
            tuple(name.rsplit("/seed0", 1)[0].split("/")): trace.fingerprint()
            for name, trace in registry_grid_cached.traces.items()
        }
        assert set(observed) == set(GOLDEN_FINGERPRINTS), (
            "registry changed: regenerate GOLDEN_FINGERPRINTS "
            "(PYTHONPATH=src python -m tests.test_golden_traces)"
        )
        mismatches = {
            combo: (fingerprint, GOLDEN_FINGERPRINTS[combo])
            for combo, fingerprint in observed.items()
            if fingerprint != GOLDEN_FINGERPRINTS[combo]
        }
        assert not mismatches, (
            f"behaviour changed for {sorted(mismatches)}; if intentional, regenerate "
            "GOLDEN_FINGERPRINTS (PYTHONPATH=src python -m tests.test_golden_traces)"
        )


class TestTraceReplayGoldens:
    """The ``trace`` scenario is a lossless replay of its default source.

    Its builder records ``rush_hour`` (seed 0) to an in-memory
    :class:`~repro.workloads.traces.ArrivalTrace` and replays the
    reconstitution, so under every manager its fingerprint must equal the
    source's — the golden table carries the proof, and this test keeps the
    two rows from drifting apart independently.
    """

    def test_trace_golden_rows_equal_rush_hour_rows(self):
        managers = {manager for _, manager in GOLDEN_FINGERPRINTS}
        for manager in sorted(managers):
            assert (
                GOLDEN_FINGERPRINTS[("trace", manager)]
                == GOLDEN_FINGERPRINTS[("rush_hour", manager)]
            ), f"trace replay diverged from its source under {manager}"

    def test_live_trace_rows_match_source_rows(self, registry_grid_cached):
        traces = registry_grid_cached.traces
        for manager in ("rtm", "governor_only"):
            assert (
                traces[f"trace/{manager}/seed0"].fingerprint()
                == traces[f"rush_hour/{manager}/seed0"].fingerprint()
            )


def _regenerate() -> None:  # pragma: no cover - maintenance hook
    from repro.experiments import MANAGER_REGISTRY, grid_specs, run_many
    from repro.workloads.scenarios import SCENARIO_REGISTRY

    batch = run_many(
        grid_specs(sorted(SCENARIO_REGISTRY), sorted(MANAGER_REGISTRY), [0]),
        backend="serial",
    )
    assert not batch.errors, batch.errors
    for name, trace in batch.traces.items():
        scenario, manager = name.rsplit("/seed0", 1)[0].split("/")
        print(f'    ("{scenario}", "{manager}"): "{trace.fingerprint()}",')


if __name__ == "__main__":  # pragma: no cover - maintenance hook
    _regenerate()
