"""Tests for the deterministic fault-injection subsystem and chaos harness.

Covers the declarative :class:`~repro.sim.faults.FaultPlan` (TOML/JSON/dict
round trips, spec integration, content hashing), the seeded transient
job-crash model, graceful degradation under core loss (the RTM remaps and
keeps meeting requirements where static baselines keep dropping jobs),
equal-time event ordering, bit-identical fingerprints across all three
execution backends on chaos specs, and the crash-tolerant process-pool
harness: SIGKILL-ed workers, the per-spec timeout watchdog, retries on the
serial and batched backends, store-backed resume of failed specs, and
failure messages that carry the same traceback on every backend.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time

import pytest

import repro.experiments.runner as runner_module
from repro.experiments import ExperimentSpec, grid_specs, run, run_many
from repro.sim.faults import (
    FAULT_EVENT_KINDS,
    CoreFailure,
    CoreRecovery,
    FaultPlan,
    FaultPlanError,
    JobCrashProfile,
    crash_roll,
    fault_event_from_dict,
)
from repro.store import ResultsStore
from repro.workloads import build_scenario

PLAN_TOML = """
[[events]]
kind = "core_failure"
time_ms = 8000.0
cluster = "a15"
cores = 2

[[events]]
kind = "core_recovery"
time_ms = 16000.0
cluster = "a15"
cores = 2

[job_crashes]
probability = 0.05
seed = 7
max_retries = 2
"""


def _reference_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            CoreFailure(time_ms=8000.0, cluster="a15", cores=2),
            CoreRecovery(time_ms=16000.0, cluster="a15", cores=2),
        ),
        job_crashes=JobCrashProfile(probability=0.05, seed=7, max_retries=2),
    )


# --------------------------------------------------------------- plan formats


class TestFaultPlanRoundTrips:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "plan.toml"
        path.write_text(PLAN_TOML)
        plan = FaultPlan.from_file(path)
        assert plan == _reference_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_reference_plan().to_dict()))
        assert FaultPlan.from_file(path) == _reference_plan()

    def test_content_key_stable_across_load_paths(self, tmp_path):
        toml_path = tmp_path / "plan.toml"
        toml_path.write_text(PLAN_TOML)
        json_path = tmp_path / "plan.json"
        json_path.write_text(json.dumps(_reference_plan().to_dict()))
        assert (
            FaultPlan.from_file(toml_path).content_key()
            == FaultPlan.from_file(json_path).content_key()
            == _reference_plan().content_key()
        )

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            fault_event_from_dict({"kind": "meteor_strike", "time_ms": 1.0})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"events": [{"kind": "nope", "time_ms": 1.0}]})

    def test_every_registered_kind_round_trips(self):
        samples = {
            "core_failure": {"time_ms": 5.0, "cluster": "a15", "cores": 2},
            "core_recovery": {"time_ms": 6.0, "cluster": "a15", "cores": 2},
            "freq_cap": {"time_ms": 7.0, "cluster": "a15", "max_frequency_mhz": 1200.0},
            "freq_cap_release": {"time_ms": 8.0, "cluster": "a15"},
            "sensor_bias": {"time_ms": 9.0, "bias_c": -4.0},
            "sensor_dropout": {"time_ms": 10.0},
            "sensor_restore": {"time_ms": 11.0},
        }
        assert set(samples) == set(FAULT_EVENT_KINDS), "keep samples exhaustive"
        for kind, payload in samples.items():
            event = fault_event_from_dict({"kind": kind, **payload})
            assert event.kind == kind
            assert fault_event_from_dict(event.to_dict()) == event

    def test_describe_is_human_readable(self):
        text = _reference_plan().describe()
        assert "core_failure" in text
        assert "core_recovery" in text


class TestSpecIntegration:
    def test_fault_free_spec_ids_unchanged(self):
        spec = ExperimentSpec(scenario="steady", manager="rtm")
        assert "faults" not in spec.to_dict()
        assert spec.spec_id() == ExperimentSpec(scenario="steady", manager="rtm", faults={}).spec_id()

    def test_faults_change_the_spec_id(self):
        base = ExperimentSpec(scenario="steady", manager="rtm")
        faulted = dataclasses.replace(base, faults=_reference_plan().to_dict())
        assert faulted.spec_id() != base.spec_id()
        # And the dict form round-trips through validation.
        faulted.validate()
        assert ExperimentSpec.from_dict(faulted.to_dict()) == faulted

    def test_invalid_faults_table_rejected_by_validate(self):
        spec = ExperimentSpec(
            scenario="steady", manager="rtm", faults={"events": [{"kind": "nope"}]}
        )
        with pytest.raises(Exception):
            spec.validate()


# --------------------------------------------------------------- crash model


class TestCrashModel:
    def test_crash_roll_is_a_pure_deterministic_hash(self):
        draws = {crash_roll(3, "dnn1", 17, attempt) for attempt in range(4)}
        assert len(draws) == 4  # varies with attempt
        for draw in draws:
            assert 0.0 <= draw < 1.0
        assert crash_roll(3, "dnn1", 17, 0) == crash_roll(3, "dnn1", 17, 0)
        assert crash_roll(3, "dnn1", 17, 0) != crash_roll(4, "dnn1", 17, 0)

    def test_profile_round_trip_and_backoff(self):
        profile = JobCrashProfile(probability=0.3, seed=11, max_retries=3)
        assert JobCrashProfile.from_dict(profile.to_dict()) == profile
        assert profile.backoff_ms(0) < profile.backoff_ms(1) <= profile.backoff_ms(5)

    def test_crashes_are_backend_independent_state(self):
        profile = JobCrashProfile(probability=0.5, seed=0, max_retries=1)
        outcomes = [profile.crashes_before_success("dnn1", index) for index in range(64)]
        assert outcomes == [
            profile.crashes_before_success("dnn1", index) for index in range(64)
        ]
        assert any(outcome is None for outcome in outcomes)  # some jobs lost
        assert any(outcome == 0 for outcome in outcomes)  # some succeed at once


# ----------------------------------------------- determinism and degradation


class TestChaosDeterminism:
    def test_same_spec_same_fingerprint(self):
        spec = ExperimentSpec(scenario="chaos_rush_hour_core_failure", manager="rtm")
        assert run(spec).trace.fingerprint() == run(spec).trace.fingerprint()

    def test_equal_time_fault_events_order_independent(self):
        # Two fault events at the same instant: the engine orders them by
        # (time_ms, kind), so the plan's listing order must not matter.
        events = [
            {"kind": "core_failure", "time_ms": 8000.0, "cluster": "a15", "cores": 1},
            {
                "kind": "freq_cap",
                "time_ms": 8000.0,
                "cluster": "a15",
                "max_frequency_mhz": 1400.0,
            },
        ]
        base = ExperimentSpec(scenario="rush_hour", manager="rtm")
        forward = dataclasses.replace(base, faults={"events": events})
        backward = dataclasses.replace(base, faults={"events": events[::-1]})
        assert run(forward).trace.fingerprint() == run(backward).trace.fingerprint()

    def test_scenario_events_stable_under_application_permutation(self):
        scenario = build_scenario("rush_hour", seed=0)
        permuted = dataclasses.replace(
            scenario, applications=tuple(reversed(scenario.applications))
        )
        assert permuted.events() == scenario.events()

    def test_fault_records_in_trace_and_fingerprint(self):
        spec = ExperimentSpec(scenario="chaos_rush_hour_core_failure", manager="rtm")
        trace = run(spec).trace
        assert trace.faults_of_kind("core_failure")
        assert trace.faults_of_kind("core_recovery")
        times = [fault.time_ms for fault in trace.faults]
        assert times == sorted(times)
        # The fault-free sibling has a different fingerprint.
        fault_free = run(ExperimentSpec(scenario="rush_hour", manager="rtm")).trace
        assert trace.fingerprint() != fault_free.fingerprint()


class TestGracefulDegradation:
    def test_rtm_degrades_where_static_baseline_drops(self):
        rtm = run(
            ExperimentSpec(scenario="chaos_rush_hour_core_failure", manager="rtm")
        ).trace
        governor = run(
            ExperimentSpec(
                scenario="chaos_rush_hour_core_failure", manager="governor_only"
            )
        ).trace
        # The RTM reads the surviving cores at the fault-triggered decision
        # and remaps; the governor baseline cannot, so it keeps releasing
        # jobs onto the crippled mapping.
        assert rtm.violation_rate() < governor.violation_rate()

    def test_dead_cluster_jobs_dropped_with_cores_offline_reason(self):
        trace = run(
            ExperimentSpec(scenario="chaos_flaky_npu", manager="governor_only")
        ).trace
        offline_drops = [
            job for job in trace.jobs if job.dropped and "cores_offline" in job.violations
        ]
        assert offline_drops, "dead-cluster jobs must degrade, not crash"

    def test_transient_crashes_retry_and_account(self):
        trace = run(
            ExperimentSpec(scenario="chaos_bursty_transient_crashes", manager="rtm")
        ).trace
        crashes = trace.faults_of_kind("job_crash")
        assert crashes
        # Lost jobs (every retry crashed) are dropped with reason "crashed".
        lost = trace.faults_of_kind("job_lost")
        assert len(trace.crashed_jobs()) == len(lost)
        # At least one crashed attempt was retried into a success: more
        # distinct crashed jobs than lost jobs.
        crashed_jobs = {(fault.target, fault.detail) for fault in crashes}
        lost_jobs = {(fault.target, fault.detail) for fault in lost}
        assert lost_jobs <= crashed_jobs
        assert crashed_jobs - lost_jobs, "some crashes must recover via retry"


class TestBackendParity:
    def test_chaos_fingerprints_identical_across_backends(self):
        specs = [
            ExperimentSpec(scenario="chaos_double_fault", manager="rtm"),
            ExperimentSpec(scenario="chaos_bursty_transient_crashes", manager="rtm"),
        ]
        serial = run_many(specs, backend="serial")
        batched = run_many(specs, backend="batched")
        process = run_many(specs, backend="process", workers=2)
        assert not serial.errors and not batched.errors and not process.errors
        for label in serial.results:
            fingerprint = serial.results[label].trace.fingerprint()
            assert batched.results[label].trace.fingerprint() == fingerprint
            assert process.results[label].trace.fingerprint() == fingerprint


# ------------------------------------------------- crash-tolerant harness


HARNESS_SPECS = grid_specs(["steady"], ["rtm"], seeds=[0, 1, 2])

#: Behaviour switchboard of ``_harness_run_one_timed``.  The process pool
#: pickles submitted functions *by reference*, so the misbehaving worker
#: entry point must be module-level; its behaviour is steered through this
#: dict, which ``fork``-started workers inherit from the parent.  The serial
#: backend runs the same entry in the test process itself, so a serial run
#: made while ``kill_label`` is armed (without an existing sentinel) would
#: SIGKILL pytest.
_HOOK: dict = {"kill_label": None, "kill_sentinel": None, "sleep_label": None, "gate": None}

_ORIGINAL_RUN_ONE_TIMED = runner_module._run_one_timed


def _harness_run_one_timed(spec):
    """Worker entry point that can SIGKILL itself, hang or wait, per ``_HOOK``.

    With ``gate`` set to a path, every spec without a fault plan waits for
    that file (up to 30 s) before it runs.
    """
    label = spec.label
    gate = _HOOK["gate"]
    if gate is not None and not spec.faults:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(gate):
            if time.monotonic() > deadline:
                raise RuntimeError(f"{gate} never appeared")
            time.sleep(0.01)
    if label == _HOOK["sleep_label"]:  # pragma: no cover - reaped by watchdog
        time.sleep(120.0)
    if label == _HOOK["kill_label"]:
        sentinel = _HOOK["kill_sentinel"]
        if sentinel is None:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
        if not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
    return _ORIGINAL_RUN_ONE_TIMED(spec)


@pytest.fixture()
def harness(monkeypatch):
    """Route every spec through ``_harness_run_one_timed``, all hooks off."""
    for key in _HOOK:
        monkeypatch.setitem(_HOOK, key, None)
    monkeypatch.setattr(runner_module, "_run_one_timed", _harness_run_one_timed)


@pytest.mark.usefixtures("harness")
class TestProcessPoolCrashTolerance:
    """The process backend under worker death and hangs; retry rounds.

    The pool uses the ``fork`` start method on Linux, so worker processes
    inherit the parent's monkeypatched ``_run_one_timed`` — the tests steer
    worker behaviour (SIGKILL, sleeps) without any code in the product.
    """

    def test_sigkilled_worker_resubmitted_on_fresh_pool(self, tmp_path, monkeypatch):
        monkeypatch.setitem(_HOOK, "kill_label", "steady/rtm/seed1")
        monkeypatch.setitem(_HOOK, "kill_sentinel", str(tmp_path / "killed-once"))
        batch = run_many(HARNESS_SPECS, backend="process", workers=2)
        assert not batch.errors
        assert set(batch.results) == {spec.label for spec in HARNESS_SPECS}
        reference = run_many(HARNESS_SPECS, backend="serial")
        for label in reference.results:
            assert (
                batch.results[label].trace.fingerprint()
                == reference.results[label].trace.fingerprint()
            )

    def test_unrecoverable_crash_is_a_per_spec_error_and_resumes(
        self, tmp_path, monkeypatch
    ):
        store_path = tmp_path / "results.db"
        monkeypatch.setitem(_HOOK, "kill_label", "steady/rtm/seed1")
        with ResultsStore(store_path) as store:
            batch = run_many(
                HARNESS_SPECS, backend="process", workers=2, store=store
            )
            assert batch.errors, "a spec that kills its worker twice must surface"
            assert "steady/rtm/seed1" in batch.errors
            store.flush()
            stored_errors = {error.label for error in store.errors()}
            failed = set(batch.errors)
            assert failed <= stored_errors
            completed_before = set(store.ids())

        # Resume with the crash fixed: only the failed specs recompute, and
        # the store converges on the same digest as a clean serial run.
        monkeypatch.setitem(_HOOK, "kill_label", None)
        with ResultsStore(store_path) as store:
            resumed = run_many(
                HARNESS_SPECS, backend="process", workers=2, store=store, resume=True
            )
            assert not resumed.errors
            assert set(resumed.results) == failed
            assert set(resumed.skipped) == {
                spec.label
                for spec in HARNESS_SPECS
                if spec.spec_id() in completed_before
            }
            store.flush()
            assert not store.errors(), "success must resolve the stored error rows"
            reference = run_many(HARNESS_SPECS, backend="serial")
            spec_ids = [spec.spec_id() for spec in HARNESS_SPECS]
            digest = store.fingerprint_digest(spec_ids)
            with ResultsStore(tmp_path / "clean.db") as clean:
                for label, result in reference.results.items():
                    clean.put_result(result)
                clean.flush()
                assert clean.fingerprint_digest(spec_ids) == digest

    def test_spec_timeout_watchdog_abandons_hung_workers(self, monkeypatch):
        monkeypatch.setitem(_HOOK, "sleep_label", "steady/rtm/seed1")
        start = time.monotonic()
        batch = run_many(
            HARNESS_SPECS, backend="process", workers=2, spec_timeout=3.0
        )
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, "the watchdog must not wait for the sleeper"
        assert "steady/rtm/seed1" in batch.errors
        assert "TimeoutError" in batch.errors["steady/rtm/seed1"]
        assert set(batch.results) == {"steady/rtm/seed0", "steady/rtm/seed2"}

    def test_retries_rerun_only_failed_specs(self, monkeypatch):
        calls = []
        original = runner_module._run_one_timed

        def flaky(spec):
            calls.append(spec.label)
            if spec.label.endswith("seed1") and calls.count(spec.label) == 1:
                raise RuntimeError("transient infrastructure failure")
            return original(spec)

        monkeypatch.setattr(runner_module, "_run_one_timed", flaky)
        batch = run_many(HARNESS_SPECS, backend="serial", retries=1)
        assert not batch.errors
        assert set(batch.results) == {spec.label for spec in HARNESS_SPECS}
        # seed0/seed2 ran once; seed1 ran twice (initial failure + retry).
        assert calls.count("steady/rtm/seed0") == 1
        assert calls.count("steady/rtm/seed1") == 2
        assert calls.count("steady/rtm/seed2") == 1

    def test_failure_messages_carry_truncated_tracebacks(self, monkeypatch):
        def explodes(spec):
            raise RuntimeError("boom with context")

        monkeypatch.setattr(runner_module, "_run_one_timed", explodes)
        batch = run_many(HARNESS_SPECS[:1], backend="serial")
        message = batch.errors["steady/rtm/seed0"]
        first_line, _, rest = message.partition("\n")
        assert first_line == "RuntimeError: boom with context"
        assert "explodes" in rest  # the traceback names the failing frame
        assert len(message) < 3000

    def test_batched_retries_recover_a_spec_whose_build_failed(self, tmp_path, monkeypatch):
        # The batched backend builds every spec through the runner module, so
        # a build that raises once is the batched analogue of a lost worker.
        calls = []
        original = runner_module.build_scenario_from_spec

        def flaky_build(spec):
            calls.append(spec.label)
            if spec.label.endswith("seed1") and calls.count(spec.label) == 1:
                raise RuntimeError("transient build failure")
            return original(spec)

        monkeypatch.setattr(runner_module, "build_scenario_from_spec", flaky_build)
        with ResultsStore(tmp_path / "results.db") as store:
            batch = run_many(HARNESS_SPECS, backend="batched", retries=1, store=store)
            assert not batch.errors
            assert list(batch.results) == [spec.label for spec in HARNESS_SPECS]
            assert calls.count("steady/rtm/seed0") == 1
            assert calls.count("steady/rtm/seed1") == 2
            assert calls.count("steady/rtm/seed2") == 1
            assert store.errors() == [], "the retry's success must resolve the error row"
            assert store.ids() == {spec.spec_id() for spec in HARNESS_SPECS}


@pytest.mark.usefixtures("harness")
class TestFailureReporting:
    """A spec failing inside the simulator is reported alike on every backend.

    The message keeps its ``"TypeName: message"`` first line and a truncated
    traceback naming the failing frame, and its ``errors`` row is written
    while the rest of the batch is still running.
    """

    #: A fault plan naming a cluster the platform lacks: the simulator's fault
    #: injector rejects it while the simulator is built.
    BAD = ExperimentSpec(
        name="bad",
        scenario="steady",
        manager="rtm",
        faults={"events": [{"kind": "core_failure", "time_ms": 1000.0, "cluster": "nope"}]},
    )
    FIRST_LINE = (
        "FaultPlanError: fault 'core_failure' targets unknown cluster 'nope' "
        "on platform 'odroid_xu3'"
    )

    @pytest.mark.parametrize("backend", ["serial", "process", "batched"])
    def test_message_and_streamed_error_row(self, backend, tmp_path, monkeypatch):
        # Serial and process: the fault-free specs wait for the gate, which
        # opens only when the failure reaches the store.  Batched: the
        # failure is built before any replica advances, so it must be stored
        # before the first stride.
        from repro.sim.engine import Simulator

        gate = tmp_path / "error-stored"
        monkeypatch.setitem(_HOOK, "gate", str(gate))
        advances = []
        advance_to = Simulator.advance_to

        def counting_advance_to(simulator, time_ms):
            advances.append(time_ms)
            return advance_to(simulator, time_ms)

        monkeypatch.setattr(Simulator, "advance_to", counting_advance_to)
        order = []
        with ResultsStore(tmp_path / "results.db") as store:
            put_result, put_error = store.put_result, store.put_error

            def put_result_in_order(result, wall_time_s=None):
                order.append(result.spec.label)
                return put_result(result, wall_time_s=wall_time_s)

            def put_error_in_order(spec_id, label, message):
                order.append((label, len(advances)))
                gate.touch()
                return put_error(spec_id, label, message)

            monkeypatch.setattr(store, "put_result", put_result_in_order)
            monkeypatch.setattr(store, "put_error", put_error_in_order)
            batch = run_many(
                [self.BAD] + HARNESS_SPECS,
                backend=backend,
                workers=2 if backend == "process" else 1,
                store=store,
            )
            assert set(batch.results) == {spec.label for spec in HARNESS_SPECS}
            message = batch.errors["bad"]
            first_line, _, rest = message.partition("\n")
            assert first_line == self.FIRST_LINE
            assert "in _validate" in rest  # the frame that raised
            assert len(message) < 3000
            assert order[0] == ("bad", 0), "the failure must be stored before anything runs"
            assert store.get_error(self.BAD.spec_id()).message == message
