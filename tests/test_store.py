"""Tests for the persistent results warehouse (``repro.store``).

Covers the append-only store contract (first write wins, single-writer
thread, schema versioning with a migration hook), ``run_many`` streaming
each spec's outcome into the store under all three execution backends, the
kill-and-resume workflow (an interrupted sweep resumed against the same
store produces the same combined fingerprint digest as a clean one-shot
sweep), duplicate-label rejection on every backend, export formats and the
bench-case resume path.
"""

from __future__ import annotations

import csv
import json
import os
import sqlite3

import pytest

import repro.experiments.backends as backends_module
import repro.store.results as store_module
from repro.analysis.bench import BENCH_KIND_DECISION, run_bench_specs
from repro.experiments import ExperimentSpec, grid_specs, run, run_many
from repro.store import MIGRATIONS, STORE_SCHEMA_VERSION, ResultsStore, StoreError


SPECS = grid_specs(["steady"], ["rtm", "governor_only"], seeds=[0, 1])


@pytest.fixture(scope="module")
def executed():
    """The four grid specs executed once (serial reference results)."""
    return [run(spec) for spec in SPECS]


@pytest.fixture()
def store(tmp_path):
    with ResultsStore(tmp_path / "results.db") as opened:
        yield opened


class TestStoreBasics:
    def test_round_trip(self, store, executed):
        result = executed[0]
        spec_id = store.put_result(result, wall_time_s=0.25)
        assert spec_id == result.spec.spec_id()
        record = store.get(spec_id)
        assert record.label == result.spec.label
        assert record.fingerprint == result.trace.fingerprint()
        assert record.wall_time_s == 0.25
        assert record.metrics["violation_rate"] == result.trace.violation_rate()
        assert record.metrics["jobs"] == len(result.trace.jobs)
        # The stored TOML reconstitutes the exact spec (same content hash).
        assert record.spec() == result.spec
        assert record.spec().spec_id() == spec_id

    def test_rows_written_with_the_retired_cache_switch_read_back(self, store, executed):
        # Every row stored while specs carried ``use_op_cache`` holds the key
        # in its TOML; the spec it reads back as keeps the row's spec_id.
        result = executed[0]
        spec_id = store.put_result(result)
        store.close()
        connection = sqlite3.connect(store.path)
        with connection:
            connection.execute(
                "UPDATE results SET spec_toml = spec_toml || 'use_op_cache = true\n'"
            )
        connection.close()
        with ResultsStore(store.path) as reopened:
            record = reopened.get(spec_id)
        assert "use_op_cache = true" in record.spec_toml
        assert record.spec() == result.spec
        assert record.spec().spec_id() == spec_id

    def test_mapping_protocol(self, store, executed):
        for result in executed:
            store.put_result(result)
        assert len(store) == len(executed)
        assert executed[0].spec.spec_id() in store
        assert "0" * 16 not in store
        assert store.ids() == {result.spec.spec_id() for result in executed}
        assert store.get("0" * 16) is None

    def test_results_in_insertion_order(self, store, executed, monkeypatch):
        clock = iter(range(1, 10))
        monkeypatch.setattr(store_module.time, "time", lambda: float(next(clock)))
        for result in executed:
            store.put_result(result)
        labels = [record.label for record in store.results()]
        assert labels == [result.spec.label for result in executed]

    def test_append_only_first_write_wins(self, store, executed):
        store.put_result(executed[0], wall_time_s=1.0)
        store.put_result(executed[0], wall_time_s=99.0)
        assert len(store) == 1
        assert store.get(executed[0].spec.spec_id()).wall_time_s == 1.0

    def test_close_is_idempotent_and_write_after_close_raises(self, tmp_path, executed):
        store = ResultsStore(tmp_path / "closing.db")
        store.put_result(executed[0])
        store.close()
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.put_result(executed[1])
        # The flushed write survived the close.
        with ResultsStore(tmp_path / "closing.db") as reopened:
            assert len(reopened) == 1

    def test_writer_errors_surface_on_the_next_call(self, store, executed):
        store._submit([("INSERT INTO no_such_table VALUES (1)", ())])
        with pytest.raises(StoreError, match="writer failed"):
            store.flush()
        # The error is raised once, then the store is usable again.
        store.put_result(executed[0])
        assert len(store) == 1


class TestErrorsTable:
    def test_put_error_round_trip(self, store):
        store.put_error("a" * 16, "steady/rtm/seed0", "RuntimeError: boom\ntrace...")
        store.flush()
        (error,) = store.errors()
        assert error.spec_id == "a" * 16
        assert error.label == "steady/rtm/seed0"
        assert error.summary == "RuntimeError: boom"
        assert store.get_error("a" * 16).message == "RuntimeError: boom\ntrace..."
        assert store.get_error("b" * 16) is None

    def test_errors_never_count_as_results(self, store):
        store.put_error("a" * 16, "case", "failed")
        store.flush()
        assert len(store) == 0
        assert "a" * 16 not in store.ids()

    def test_error_is_replaced_on_rewrite_and_resolved_by_success(
        self, store, executed
    ):
        spec_id = executed[0].spec.spec_id()
        store.put_error(spec_id, executed[0].spec.label, "first failure")
        store.put_error(spec_id, executed[0].spec.label, "second failure")
        store.flush()
        assert store.get_error(spec_id).message == "second failure"
        # A successful run of the same spec deletes the error row.
        store.put_result(executed[0])
        store.flush()
        assert store.get_error(spec_id) is None
        assert not store.errors()

    def test_erroring_spec_recomputes_on_resume(self, tmp_path):
        """End to end: a failed spec lands in ``errors``, not ``results``,
        so ``resume=True`` re-runs it once the cause is fixed."""
        from repro.workloads import ArrivalTrace, build_scenario

        trace_path = tmp_path / "late.jsonl"
        spec = ExperimentSpec(
            scenario="trace",
            manager="rtm",
            scenario_params={"path": str(trace_path)},
        )
        store_path = tmp_path / "errors.db"
        batch = run_many([spec], validate=False, store=store_path)
        assert spec.label in batch.errors
        with ResultsStore(store_path) as store:
            assert store.ids() == set()
            (error,) = store.errors()
            assert error.spec_id == spec.spec_id()
            assert "TraceFormatError" in error.summary

        ArrivalTrace.from_scenario(build_scenario("steady")).save(trace_path)
        resumed = run_many([spec], validate=False, store=store_path, resume=True)
        assert not resumed.errors
        assert resumed.computed_count == 1
        with ResultsStore(store_path) as store:
            assert store.ids() == {spec.spec_id()}
            assert not store.errors()


class TestSchemaVersioning:
    def test_fresh_store_is_stamped_with_the_current_version(self, tmp_path):
        path = tmp_path / "fresh.db"
        ResultsStore(path).close()
        (version,) = sqlite3.connect(path).execute("PRAGMA user_version").fetchone()
        assert version == STORE_SCHEMA_VERSION

    def test_newer_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        ResultsStore(path).close()
        connection = sqlite3.connect(path)
        connection.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="supports up to"):
            ResultsStore(path)

    def test_migration_hook_upgrades_older_stores(self, tmp_path, monkeypatch, executed):
        path = tmp_path / "old.db"
        with ResultsStore(path) as old:
            old.put_result(executed[0])
        # Pretend the codebase moved to schema version N+1 with a migration
        # that adds a column; reopening the old store must apply it.
        applied = []

        def migrate(connection):
            connection.execute("ALTER TABLE results ADD COLUMN note TEXT")
            applied.append(True)

        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        monkeypatch.setitem(MIGRATIONS, STORE_SCHEMA_VERSION, migrate)
        with ResultsStore(path) as upgraded:
            assert applied == [True]
            assert len(upgraded) == 1
        (version,) = sqlite3.connect(path).execute("PRAGMA user_version").fetchone()
        assert version == STORE_SCHEMA_VERSION + 1

    def test_missing_migration_is_an_error(self, tmp_path, monkeypatch):
        path = tmp_path / "stuck.db"
        ResultsStore(path).close()
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        with pytest.raises(StoreError, match="no migration registered"):
            ResultsStore(path)


class TestFingerprintDigest:
    def test_digest_is_order_independent(self, tmp_path, executed):
        with ResultsStore(tmp_path / "fwd.db") as forward:
            for result in executed:
                forward.put_result(result)
            digest_forward = forward.fingerprint_digest()
        with ResultsStore(tmp_path / "rev.db") as backward:
            for result in reversed(executed):
                backward.put_result(result)
            digest_backward = backward.fingerprint_digest()
        assert digest_forward == digest_backward

    def test_digest_restricted_to_spec_ids(self, store, executed):
        for result in executed:
            store.put_result(result)
        subset = [executed[0].spec.spec_id(), executed[1].spec.spec_id()]
        assert store.fingerprint_digest(subset) != store.fingerprint_digest()
        # Absent ids are skipped, not an error.
        assert store.fingerprint_digest(subset + ["f" * 16]) == store.fingerprint_digest(subset)


class TestExport:
    def test_jsonl_export(self, store, executed, tmp_path):
        for result in executed:
            store.put_result(result)
        out = tmp_path / "rows.jsonl"
        assert store.export(out, format="jsonl") == len(executed)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {row["spec_id"] for row in rows} == store.ids()
        assert all("fingerprint" in row and "violation_rate" in row for row in rows)

    def test_csv_export(self, store, executed, tmp_path):
        for result in executed:
            store.put_result(result)
        out = tmp_path / "rows.csv"
        assert store.export(out, format="csv") == len(executed)
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(executed)
        assert {row["label"] for row in rows} == {result.spec.label for result in executed}

    def test_toml_export_is_replayable(self, store, executed, tmp_path):
        from repro.experiments import load_specs

        for result in executed:
            store.put_result(result)
        out = tmp_path / "replay.toml"
        assert store.export(out, format="toml") == len(executed)
        assert sorted(spec.spec_id() for spec in load_specs(out)) == sorted(store.ids())

    def test_unknown_format_rejected(self, store):
        with pytest.raises(ValueError, match="unknown export format"):
            store.export("out.xml", format="xml")

    def test_export_is_atomic(self, store, executed, tmp_path, monkeypatch):
        store.put_result(executed[0])
        out = tmp_path / "rows.jsonl"
        store.export(out, format="jsonl")
        original = out.read_text()
        store.put_result(executed[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            store.export(out, format="jsonl")
        assert out.read_text() == original


class TestGc:
    def test_keeps_the_newest_results(self, store, executed, monkeypatch):
        clock = iter(range(1, 10))
        monkeypatch.setattr(store_module.time, "time", lambda: float(next(clock)))
        for result in executed:
            store.put_result(result)
        assert store.gc(keep_latest=2) == 2
        survivors = {record.label for record in store.results()}
        assert survivors == {result.spec.label for result in executed[-2:]}

    def test_prunes_bench_documents_per_kind(self, store):
        for index in range(4):
            store.put_bench_run("decision_kernel", {"run": index})
        store.put_bench_run("batched_engine", {"run": 0})
        store.gc(keep_latest=2)
        assert store.bench_run_counts() == {"batched_engine": 1, "decision_kernel": 2}

    def test_negative_keep_latest_rejected(self, store):
        with pytest.raises(ValueError, match="non-negative"):
            store.gc(keep_latest=-1)


class TestBackendStreaming:
    """``run_many`` streams each result into the store as its spec finishes."""

    @pytest.mark.parametrize("backend", ["serial", "process", "batched"])
    def test_backend_streams_results_to_the_store(self, backend, tmp_path, executed):
        with ResultsStore(tmp_path / f"{backend}.db") as store:
            batch = run_many(SPECS, backend=backend, validate=False, store=store)
            assert not batch.errors
            assert store.ids() == {spec.spec_id() for spec in SPECS}
            for result in executed:
                assert store.get(result.spec.spec_id()).fingerprint == result.trace.fingerprint()

    def test_process_pool_streams_results_to_the_store(self, tmp_path, executed):
        with ResultsStore(tmp_path / "pool.db") as store:
            batch = run_many(SPECS, backend="process", workers=2, validate=False, store=store)
            assert not batch.errors
            for result in executed:
                assert store.get(result.spec.spec_id()).fingerprint == result.trace.fingerprint()

    def test_serial_results_reach_the_store_before_the_next_spec_runs(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.runner as runner_module

        real_run_one_timed = runner_module._run_one_timed
        with ResultsStore(tmp_path / "serial.db") as store:
            stored_before = []

            def run_one_timed(spec):
                stored_before.append(len(store.ids()))
                return real_run_one_timed(spec)

            monkeypatch.setattr(runner_module, "_run_one_timed", run_one_timed)
            run_many(SPECS, backend="serial", validate=False, store=store)
        assert stored_before == list(range(len(SPECS)))

    def test_batched_results_reach_the_store_while_longer_replicas_run(
        self, tmp_path, monkeypatch
    ):
        # A short replica finishes strides before a long one: its row must be
        # written then, while the long replica is still advancing.
        from repro.sim.engine import Simulator

        advances = []
        advance_to = Simulator.advance_to

        def counting_advance_to(simulator, time_ms):
            advances.append(time_ms)
            return advance_to(simulator, time_ms)

        monkeypatch.setattr(Simulator, "advance_to", counting_advance_to)
        short = ExperimentSpec(
            scenario="steady", name="short", scenario_params={"duration_ms": 2000.0}
        )
        long = ExperimentSpec(scenario="steady", name="long")
        with ResultsStore(tmp_path / "batched.db") as store:
            advances_when_stored = {}
            put_result = store.put_result

            def put_result_noting_progress(result, wall_time_s=None):
                advances_when_stored[result.spec.label] = len(advances)
                return put_result(result, wall_time_s=wall_time_s)

            store.put_result = put_result_noting_progress
            run_many([long, short], backend="batched", validate=False, store=store)
        assert advances_when_stored["short"] < advances_when_stored["long"] == len(advances)

    def test_batched_backend_stores_null_wall_time(self, tmp_path):
        # Wall time is not separable per spec inside the lock-step engine.
        with ResultsStore(tmp_path / "batched.db") as store:
            run_many(SPECS, backend="batched", validate=False, store=store)
            assert store.get(SPECS[0].spec_id()).wall_time_s is None

    def test_failing_specs_are_not_stored(self, tmp_path):
        bad = ExperimentSpec(scenario="steady", manager="governor_only", policy="min_latency")
        with ResultsStore(tmp_path / "partial.db") as store:
            batch = run_many([SPECS[0], bad], validate=False, store=store)
            assert bad.label in batch.errors
            assert store.ids() == {SPECS[0].spec_id()}


class TestDuplicateLabelParity:
    """``run_many`` rejects duplicate labels identically on every backend.

    The process pool used to key futures by label, silently dropping one of
    two same-label submissions and misattributing its result; execution is
    now tracked by submission index and ``run_many`` rejects duplicates up
    front, before any backend runs.
    """

    @pytest.mark.parametrize("backend", ["serial", "process", "batched"])
    def test_backends_reject_duplicate_labels(self, backend):
        twice = [ExperimentSpec(scenario="steady"), ExperimentSpec(scenario="steady")]
        with pytest.raises(ValueError, match="duplicate experiment labels.*'name' keys"):
            run_many(twice, backend=backend)

    def test_process_pool_rejects_before_spawning_workers(self, monkeypatch):
        def no_pool(*args, **kwargs):
            pytest.fail("a worker pool was started for a rejected batch")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", no_pool)
        twice = [ExperimentSpec(scenario="steady"), ExperimentSpec(scenario="steady")]
        with pytest.raises(ValueError, match="duplicate experiment labels"):
            run_many(twice, backend="process", workers=4)

    def test_distinct_names_disambiguate_identical_specs(self, tmp_path):
        specs = [
            ExperimentSpec(scenario="steady", name="first"),
            ExperimentSpec(scenario="steady", name="second"),
        ]
        batch = run_many(specs, validate=False)
        assert set(batch.results) == {"first", "second"}
        # The name is part of the content hash, so each gets its own row.
        with ResultsStore(tmp_path / "dedup.db") as store:
            run_many(specs, validate=False, store=store)
            assert len(store) == 2
            assert {record.label for record in store.results()} == {"first", "second"}


class TestResume:
    def test_resume_requires_a_store(self):
        with pytest.raises(ValueError, match="requires a results store"):
            run_many(SPECS, validate=False, resume=True)

    def test_resume_skips_stored_specs(self, tmp_path):
        path = tmp_path / "resume.db"
        run_many(SPECS[:2], validate=False, store=path)
        batch = run_many(SPECS, validate=False, store=path, resume=True)
        assert batch.skipped_count == 2 and batch.computed_count == 2
        assert set(batch.skipped) == {spec.label for spec in SPECS[:2]}
        assert set(batch.results) == {spec.label for spec in SPECS[2:]}
        # Skipped records carry the stored metrics.
        first = batch.skipped[SPECS[0].label]
        assert first.spec_id == SPECS[0].spec_id()

    def test_store_accepts_path_or_instance(self, tmp_path):
        path = tmp_path / "either.db"
        run_many(SPECS[:1], validate=False, store=str(path))
        with ResultsStore(path) as store:
            assert len(store) == 1
            batch = run_many(SPECS[:1], validate=False, store=store, resume=True)
            assert batch.skipped_count == 1 and batch.computed_count == 0

    def test_killed_sweep_resumes_to_the_clean_digest(self, tmp_path, monkeypatch):
        """The acceptance gate: kill a sweep mid-run, resume, compare digests.

        A sweep interrupted after two specs (simulated with a
        ``KeyboardInterrupt``, which escapes the per-spec ``except
        Exception`` isolation exactly like a real Ctrl-C) must, after a
        resumed re-invocation, hold results whose combined fingerprint
        digest is identical to a clean one-shot sweep's.
        """
        import repro.experiments.runner as runner_module

        real_run_one_timed = runner_module._run_one_timed
        killed_path = tmp_path / "killed.db"
        calls = []

        def run_one_then_die(spec):
            if len(calls) == 2:
                raise KeyboardInterrupt
            calls.append(spec.label)
            return real_run_one_timed(spec)

        monkeypatch.setattr(runner_module, "_run_one_timed", run_one_then_die)
        with pytest.raises(KeyboardInterrupt):
            run_many(SPECS, validate=False, store=killed_path)
        monkeypatch.setattr(runner_module, "_run_one_timed", real_run_one_timed)

        with ResultsStore(killed_path) as partial:
            assert len(partial) == 2  # everything completed before the kill

        resumed = run_many(SPECS, validate=False, store=killed_path, resume=True)
        assert resumed.skipped_count == 2 and resumed.computed_count == 2

        clean_path = tmp_path / "clean.db"
        clean = run_many(SPECS, validate=False, store=clean_path)
        assert not clean.errors
        with ResultsStore(killed_path) as a, ResultsStore(clean_path) as b:
            assert a.fingerprint_digest() == b.fingerprint_digest()


class TestBenchStore:
    def test_bench_cases_are_first_write_wins(self, store):
        store.put_bench_case("a" * 16, BENCH_KIND_DECISION, {"e2e_s": 1.0})
        store.put_bench_case("a" * 16, BENCH_KIND_DECISION, {"e2e_s": 9.0})
        assert store.get_bench_case("a" * 16, BENCH_KIND_DECISION) == {"e2e_s": 1.0}
        assert store.get_bench_case("a" * 16, "other") is None

    def test_run_bench_specs_resume_reuses_stored_timings(self, tmp_path, monkeypatch):
        import repro.analysis.bench as bench_module

        spec = ExperimentSpec(scenario="steady", manager="rtm")
        with ResultsStore(tmp_path / "bench.db") as store:
            first = run_bench_specs([spec], repeats=1, store=store)
            # A resumed invocation must load the stored timings, never re-time.
            monkeypatch.setattr(
                bench_module,
                "run_bench_spec",
                lambda *args, **kwargs: pytest.fail("resume must not re-run the bench"),
            )
            second = run_bench_specs([spec], repeats=1, store=store, resume=True)
        assert second[0].key == first[0].key
        assert second[0].e2e_s == first[0].e2e_s
        assert second[0].decisions == first[0].decisions

    def test_cases_stored_with_uncached_timings_resume(self, tmp_path, monkeypatch):
        # ``bench`` once also timed an uncached decision path; the cases it
        # stored carry those two fields and must still resume.
        import repro.analysis.bench as bench_module

        spec = ExperimentSpec(scenario="steady", manager="rtm")
        payload = {
            "scenario": "steady",
            "manager": "rtm",
            "decisions": 30,
            "jobs": 120,
            "e2e_s": 0.02,
            "e2e_s_uncached": 0.03,
            "decide_ms_per_epoch_cached": 0.01,
            "decide_ms_per_epoch_uncached": 0.5,
        }
        monkeypatch.setattr(
            bench_module,
            "run_bench_spec",
            lambda *args, **kwargs: pytest.fail("resume must not re-run the bench"),
        )
        with ResultsStore(tmp_path / "bench.db") as store:
            store.put_bench_case(spec.spec_id(), BENCH_KIND_DECISION, payload)
            (timings,) = run_bench_specs([spec], repeats=1, store=store, resume=True)
        assert timings.as_dict() == {
            "decisions": 30,
            "jobs": 120,
            "e2e_s": 0.02,
            "decide_ms_per_epoch_cached": 0.01,
        }

    def test_bench_resume_requires_a_store(self):
        with pytest.raises(ValueError, match="requires a results store"):
            run_bench_specs([], resume=True)
