"""Streaming trace pipeline: readers, writer, diurnal traffic, memory bounds.

Covers the streaming surface of :mod:`repro.workloads.traces` — the
generator-based readers (`iter_records`/`stream_load`/`stream_scenario`),
the incremental :class:`TraceWriter`, suffix-detected gzip compression and
the one-pass :func:`compute_trace_stats` — plus the writer's byte oracle
(``tests/reference_trace_writer.py``) across chunk boundaries, its writer
thread (concurrent writers, sink failures, lifetime, misuse), the malformed-trace
validation corpus (missing keys, bad types, duplicate ids, truncated gzip,
missing header version), the diurnal traffic generator, and tracemalloc
peak-memory assertions that recording and summarising stay bounded however
long the trace is.
"""

from __future__ import annotations

import errno
import gzip
import hashlib
import json
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from itertools import islice

import pytest

from repro.ioutils import atomic_binary_writer, atomic_write_text, fsync_directory
from repro.workloads import build_scenario, traces
from repro.workloads.diurnal import (
    DiurnalConfig,
    DiurnalTraffic,
    config_for_arrivals,
    write_diurnal_trace,
)
from repro.workloads.traces import (
    ArrivalTrace,
    TraceFormatError,
    TraceWriter,
    compute_trace_stats,
)
from tests.reference_trace_writer import write_reference_trace

HEADER = {
    "format": "repro-arrival-trace",
    "version": 1,
    "scenario": "unit",
    "platform": "odroid_xu3",
    "duration_ms": 10000.0,
}


def _bg_record(app_id: str = "bg1", **overrides: object) -> dict:
    record = {
        "app_id": app_id,
        "kind": "background",
        "arrival_ms": 100.0,
        "departure_ms": 900.0,
        "memory_footprint_mb": 30.0,
        "requirements": {"priority": 0},
        "demand": {"core_type": "cpu_little", "cores": 1, "utilisation": 0.5},
    }
    record.update(overrides)
    return record


def _write_jsonl(path, lines) -> None:
    path.write_text("\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n")


# ------------------------------------------------------------- round trips


class TestStreamingRoundTrips:
    def test_stream_load_equals_load(self, tmp_path):
        trace = ArrivalTrace.from_scenario(build_scenario("rush_hour", seed=0))
        path = tmp_path / "t.jsonl"
        trace.save(path)
        loaded = ArrivalTrace.load(path)
        stream = ArrivalTrace.stream_load(path)
        assert stream.header.scenario_name == loaded.scenario_name
        assert stream.header.duration_ms == loaded.duration_ms
        records = list(stream)
        assert [r for k, r in records if k == "application"] == loaded.applications
        assert [r for k, r in records if k == "event"] == loaded.events

    @pytest.mark.parametrize(
        "scenario", ["rush_hour", "fig2", "diurnal", "steady_then_overload"]
    )
    def test_stream_scenario_timeline_identical_to_in_memory(self, tmp_path, scenario):
        source = build_scenario(scenario, seed=0)
        path = tmp_path / "t.jsonl"
        ArrivalTrace.from_scenario(source).save(path)
        in_memory = ArrivalTrace.load(path).to_scenario()
        streamed = ArrivalTrace.stream_scenario(path)
        assert len(streamed.applications) == len(in_memory.applications)
        for a, b in zip(streamed.applications, in_memory.applications):
            assert a.app_id == b.app_id
            assert a.kind == b.kind
            assert a.arrival_time_ms == b.arrival_time_ms
            assert a.departure_time_ms == b.departure_time_ms
            assert a.requirements == b.requirements
        assert streamed.extra_events == in_memory.extra_events
        assert streamed.name == in_memory.name

    def test_streamed_replay_simulates_identically(self, tmp_path):
        from repro.experiments import build_manager_from_spec, ExperimentSpec
        from repro.sim.engine import simulate_scenario

        path = tmp_path / "t.jsonl"
        ArrivalTrace.from_scenario(build_scenario("rush_hour", seed=0)).save(path)
        fingerprints = []
        for scenario in (
            ArrivalTrace.load(path).to_scenario(),
            ArrivalTrace.stream_scenario(path),
        ):
            spec = ExperimentSpec(name="x", scenario="trace", manager="governor_only")
            trace = simulate_scenario(scenario, build_manager_from_spec(spec))
            fingerprints.append(trace.fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_gzip_round_trip_and_deterministic_bytes(self, tmp_path):
        trace = ArrivalTrace.from_scenario(build_scenario("rush_hour", seed=1))
        plain, gz1, gz2 = tmp_path / "t.jsonl", tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        trace.save(plain)
        trace.save(gz1)
        trace.save(gz2)
        assert gz1.read_bytes() == gz2.read_bytes()  # mtime=0 members
        assert gzip.decompress(gz1.read_bytes()) == plain.read_bytes()
        assert ArrivalTrace.load(gz1).applications == trace.applications

    def test_writer_output_matches_in_memory_save_bytes(self, tmp_path):
        trace = ArrivalTrace.from_scenario(build_scenario("fig2"))
        via_save, via_writer = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace.save(via_save)
        with TraceWriter(
            via_writer,
            scenario_name=trace.scenario_name,
            platform_name=trace.platform_name,
            duration_ms=trace.duration_ms,
        ) as writer:
            for record in trace.applications:
                writer.write_application(record)
            for record in trace.events:
                writer.write_event(record)
        assert via_writer.read_bytes() == via_save.read_bytes()
        assert writer.applications_written == len(trace.applications)
        assert writer.events_written == len(trace.events)

    def test_writer_aborts_atomically(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("previous content")
        with pytest.raises(RuntimeError):
            with TraceWriter(
                path, scenario_name="x", platform_name="odroid_xu3", duration_ms=1.0
            ) as writer:
                writer.write_application(_bg_record())
                raise RuntimeError("mid-write crash")
        assert path.read_text() == "previous content"
        assert not list(tmp_path.glob("*.tmp"))

    def test_writer_validates_on_append(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(TraceFormatError, match="arrival_ms"):
            with TraceWriter(
                path, scenario_name="x", platform_name="odroid_xu3", duration_ms=1.0
            ) as writer:
                record = _bg_record()
                del record["arrival_ms"]
                writer.write_application(record)
        assert not path.exists()


# ------------------------------------------------------ writer byte oracle

#: Record lines per chunk the writer hands to its thread.
CHUNK = traces._CHUNK_LINES

#: sha256 of ``write_diurnal_trace(path, config_for_arrivals(2000), seed=1)``
#: as the single-threaded writer wrote it, by suffix.  The ``.gz`` bytes are
#: zlib's level-9 deflate stream of the ``.jsonl`` bytes.
PINNED_DIURNAL_SHA256 = {
    ".jsonl": "115f02b8fbb61c2b54a6f5ea8def6ba7330b7a8773d97f649e351dbb6a13c959",
    ".jsonl.gz": "7e66ab8b82693091fbd90f35ea42e955591479c310c8ba47ef9027a53a644c3a",
}


def _diurnal_records(count: int, seed: int = 1) -> list:
    """The first ``count`` records of a seeded diurnal stream."""
    traffic = DiurnalTraffic(config_for_arrivals(3200, duration_ms=600_000.0), seed=seed)
    records = [record for _, record in islice(traffic.iter_records(), count)]
    assert len(records) == count
    return records


def _write_with_trace_writer(path, records) -> None:
    with TraceWriter(
        path, scenario_name="oracle", platform_name="odroid_xu3", duration_ms=600_000.0
    ) as writer:
        for record in records:
            writer.write_application(record)


def _oracle_bytes(tmp_path, suffix, records) -> bytes:
    path = tmp_path / f"oracle{suffix}"
    write_reference_trace(
        path,
        scenario_name="oracle",
        platform_name="odroid_xu3",
        duration_ms=600_000.0,
        applications=records,
    )
    return path.read_bytes()


class TestWriterOracle:
    """``TraceWriter`` writes exactly the bytes of a naive one-line-per-write writer."""

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    @pytest.mark.parametrize(
        "count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 7]
    )
    def test_diurnal_stream_matches_reference_bytes(self, tmp_path, suffix, count):
        records = _diurnal_records(count)
        path = tmp_path / f"writer{suffix}"
        _write_with_trace_writer(path, records)
        assert path.read_bytes() == _oracle_bytes(tmp_path, suffix, records)

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_recorded_scenario_with_events_matches_reference_bytes(self, tmp_path, suffix):
        trace = ArrivalTrace.from_scenario(build_scenario("fig2"))
        assert trace.events
        path = tmp_path / f"saved{suffix}"
        trace.save(path)
        reference = tmp_path / f"reference{suffix}"
        write_reference_trace(
            reference,
            scenario_name=trace.scenario_name,
            platform_name=trace.platform_name,
            duration_ms=trace.duration_ms,
            applications=trace.applications,
            events=trace.events,
        )
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("suffix", sorted(PINNED_DIURNAL_SHA256))
    def test_diurnal_trace_bytes_are_pinned(self, tmp_path, suffix):
        path = tmp_path / f"pinned{suffix}"
        assert write_diurnal_trace(path, config_for_arrivals(2000), seed=1) == 3138
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_DIURNAL_SHA256[suffix]


# ------------------------------------------------------- the writer thread


class _FailingStream:
    """A raw binary stream that raises ``OSError`` once ``limit`` bytes are written."""

    def __init__(self, stream, limit: int) -> None:
        self.stream = stream
        self.limit = limit
        self.written = 0

    def write(self, data) -> int:
        self.written += len(data)
        if self.written > self.limit:
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        return self.stream.write(data)


def _alive_threads_besides(before) -> list:
    return [thread for thread in threading.enumerate() if thread not in before]


def _run_bounded(target, timeout: float = 60.0) -> None:
    """Run ``target`` on its own thread; fail instead of hanging if it blocks."""
    failure: list = []

    def body() -> None:
        try:
            target()
        except BaseException as error:  # re-raised on the test's thread below
            failure.append(error)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{target.__name__} still running after {timeout} s"
    if failure:
        raise failure[0]


class TestWriterThread:
    """The writer thread: concurrent writers, sink failures, lifetime, misuse."""

    def test_concurrent_writers_each_match_reference_bytes(self, tmp_path):
        records = {seed: _diurnal_records(3 * CHUNK + 11, seed=seed) for seed in range(4)}
        suffixes = {seed: (".jsonl.gz", ".jsonl")[seed % 2] for seed in records}
        paths = {seed: tmp_path / f"w{seed}{suffixes[seed]}" for seed in records}
        failures: list = []

        def write(seed: int) -> None:
            try:
                _write_with_trace_writer(paths[seed], records[seed])
            except BaseException as error:  # reported on the test's thread
                failures.append(error)

        before = set(threading.enumerate())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=write, args=(seed,)) for seed in records]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(120.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert _alive_threads_besides(before) == []
        for seed, path in paths.items():
            expected = _oracle_bytes(tmp_path, suffixes[seed], records[seed])
            assert path.read_bytes() == expected, f"writer {seed} diverged"

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_sink_failure_reaches_caller_and_leaves_destination(
        self, tmp_path, monkeypatch, suffix
    ):
        @contextmanager
        def failing_writer(path):
            with atomic_binary_writer(path) as stream:
                yield _FailingStream(stream, limit=4096)

        monkeypatch.setattr(traces, "atomic_binary_writer", failing_writer)
        path = tmp_path / f"t{suffix}"
        path.write_bytes(b"previous content")
        records = _diurnal_records(5 * CHUNK + 7)
        before = set(threading.enumerate())
        raised_by: list = []

        def write() -> None:
            with pytest.raises(OSError, match="injected"):
                with TraceWriter(
                    path, scenario_name="x", platform_name="odroid_xu3", duration_ms=1.0
                ) as writer:
                    for _ in range(4):  # 20 chunks: the queue holds 2
                        for record in records:
                            try:
                                writer.write_application(record)
                            except OSError:
                                raised_by.append("write_application")
                                raise
                    raised_by.append("exit")

        _run_bounded(write)
        if suffix == ".jsonl":
            # The first chunk fails; the thread keeps draining, so a later
            # append raises long before the last of the 20 chunks.
            assert raised_by == ["write_application"]
        assert path.read_bytes() == b"previous content"
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert _alive_threads_besides(before) == []

    def test_exception_in_body_joins_the_thread_and_keeps_destination(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(b"previous content")
        before = set(threading.enumerate())

        def write() -> None:
            with pytest.raises(RuntimeError, match="mid-write crash"):
                with TraceWriter(
                    path, scenario_name="x", platform_name="odroid_xu3", duration_ms=1.0
                ) as writer:
                    for record in _diurnal_records(3 * CHUNK):
                        writer.write_application(record)
                    raise RuntimeError("mid-write crash")

        _run_bounded(write)
        assert path.read_bytes() == b"previous content"
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert _alive_threads_besides(before) == []

    def test_writing_outside_the_with_block_is_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first, second = _diurnal_records(2)
        writer = TraceWriter(
            path, scenario_name="oracle", platform_name="odroid_xu3", duration_ms=600_000.0
        )
        with pytest.raises(RuntimeError, match="not open"):
            writer.write_application(first)
        with pytest.raises(RuntimeError, match="not open"):
            writer.write_event({"time_ms": 1.0, "kind": "departure", "app_id": "a"})
        assert writer.applications_written == writer.events_written == 0
        with writer:
            writer.write_application(second)
        written = path.read_bytes()
        assert written == _oracle_bytes(tmp_path, ".jsonl", [second])
        with pytest.raises(RuntimeError, match="not open"):
            writer.write_application(first)
        assert writer.applications_written == 1
        assert path.read_bytes() == written


# -------------------------------------------------------- malformed corpus


class TestMalformedTraces:
    def test_application_missing_arrival_ms(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = _bg_record()
        del record["arrival_ms"]
        _write_jsonl(path, [HEADER, {"record": "application", **record}])
        with pytest.raises(TraceFormatError, match="missing required key 'arrival_ms'"):
            ArrivalTrace.load(path)
        with pytest.raises(TraceFormatError, match="'bg1'"):
            compute_trace_stats(path)

    def test_application_non_numeric_arrival(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(
            path,
            [HEADER, {"record": "application", **_bg_record(arrival_ms="soon")}],
        )
        with pytest.raises(TraceFormatError, match="non-numeric arrival_ms"):
            ArrivalTrace.load(path)

    def test_application_non_finite_arrival(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(HEADER)
            + "\n"
            + json.dumps({"record": "application", **_bg_record(arrival_ms=float("nan"))})
            + "\n"
        )
        with pytest.raises(TraceFormatError, match="non-finite arrival_ms"):
            ArrivalTrace.load(path)

    def test_application_boolean_arrival_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(
            path, [HEADER, {"record": "application", **_bg_record(arrival_ms=True)}]
        )
        with pytest.raises(TraceFormatError, match="non-numeric arrival_ms"):
            ArrivalTrace.load(path)

    def test_application_without_app_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = _bg_record()
        del record["app_id"]
        _write_jsonl(path, [HEADER, {"record": "application", **record}])
        with pytest.raises(TraceFormatError, match="app_id"):
            ArrivalTrace.load(path)

    def test_event_missing_time_ms(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(
            path,
            [HEADER, {"record": "event", "kind": "requirement_change", "app_id": "a"}],
        )
        with pytest.raises(TraceFormatError, match="missing required key 'time_ms'"):
            ArrivalTrace.load(path)

    def test_duplicate_app_ids_rejected_by_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(
            path,
            [
                HEADER,
                {"record": "application", **_bg_record("dup", arrival_ms=1.0)},
                {"record": "application", **_bg_record("dup", arrival_ms=2.0)},
            ],
        )
        with pytest.raises(TraceFormatError, match="duplicate app_id 'dup'"):
            ArrivalTrace.load(path)
        with pytest.raises(TraceFormatError, match="duplicate app_id 'dup'"):
            ArrivalTrace.stream_scenario(path)

    def test_duplicate_app_ids_rejected_by_to_scenario(self):
        trace = ArrivalTrace(
            scenario_name="x",
            platform_name="odroid_xu3",
            duration_ms=100.0,
            applications=[_bg_record("dup"), _bg_record("dup", arrival_ms=5.0)],
        )
        with pytest.raises(TraceFormatError, match="duplicate app_id 'dup'"):
            trace.to_scenario()

    def test_header_missing_version_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        headerless = {k: v for k, v in HEADER.items() if k != "version"}
        _write_jsonl(path, [headerless])
        with pytest.raises(TraceFormatError, match="missing required key 'version'"):
            ArrivalTrace.read_header(path)
        with pytest.raises(TraceFormatError, match="missing required key 'version'"):
            ArrivalTrace.load(path)

    def test_truncated_gzip_is_a_format_error(self, tmp_path):
        trace = ArrivalTrace.from_scenario(build_scenario("rush_hour", seed=0))
        path = tmp_path / "t.jsonl.gz"
        trace.save(path)
        clipped = tmp_path / "clipped.jsonl.gz"
        clipped.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(TraceFormatError, match="truncated compressed trace"):
            ArrivalTrace.load(clipped)
        with pytest.raises(TraceFormatError, match="truncated compressed trace"):
            compute_trace_stats(clipped)

    def test_garbage_gzip_is_a_format_error(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(TraceFormatError, match="cannot read trace file"):
            ArrivalTrace.load(path)

    def test_zstd_without_package_fails_clearly(self, tmp_path):
        try:
            import zstandard  # noqa: F401
        except ImportError:
            pass
        else:
            pytest.skip("zstandard is installed; the gate does not apply")
        path = tmp_path / "t.jsonl.zst"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="zstandard"):
            ArrivalTrace.read_header(path)
        with pytest.raises(TraceFormatError, match="zstandard"):
            with TraceWriter(
                path, scenario_name="x", platform_name="odroid_xu3", duration_ms=1.0
            ):
                pass


# ------------------------------------------------------------- trace stats


class TestComputeTraceStats:
    def test_matches_manual_summary(self, tmp_path):
        path = tmp_path / "t.jsonl"
        arrivals = [10.0, 30.0, 70.0, 150.0]
        _write_jsonl(
            path,
            [HEADER]
            + [
                {"record": "application", **_bg_record(f"a{i}", arrival_ms=t)}
                for i, t in enumerate(arrivals)
            ],
        )
        stats = compute_trace_stats(path)
        assert stats.num_applications == 4
        assert stats.by_kind == {"background": 4}
        assert stats.num_departures == 4
        assert stats.first_arrival_ms == 10.0
        assert stats.last_arrival_ms == 150.0
        assert stats.gap_min_ms == 20.0
        assert stats.gap_max_ms == 80.0
        assert stats.gap_p50_ms == pytest.approx(40.0)  # gaps 20, 40, 80

    def test_header_only_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(path, [HEADER])
        stats = compute_trace_stats(path)
        assert stats.num_applications == 0
        assert stats.first_arrival_ms is None
        assert stats.gap_p50_ms is None


# -------------------------------------------------------------- durability


class TestAtomicWriter:
    def test_fsync_directory_missing_path_is_a_noop(self, tmp_path):
        fsync_directory(tmp_path / "does-not-exist")

    def test_atomic_write_text_replaces_and_cleans_up(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]

    def test_binary_writer_failure_keeps_old_content(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_binary_writer(path) as stream:
                stream.write(b"partial")
                raise RuntimeError("crash")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]


# --------------------------------------------------------- diurnal traffic


class TestDiurnalTraffic:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="base_rate_per_s"):
            DiurnalConfig(base_rate_per_s=0.0)
        with pytest.raises(ValueError, match="diurnal_amplitude"):
            DiurnalConfig(diurnal_amplitude=1.5)
        with pytest.raises(ValueError, match="flash_magnitude"):
            DiurnalConfig(flash_magnitude=0.5)
        with pytest.raises(ValueError, match="num_archetypes"):
            DiurnalConfig(num_archetypes=0)

    def test_deterministic_and_restartable(self):
        config = DiurnalConfig(duration_ms=60000.0, base_rate_per_s=1.0)
        traffic = DiurnalTraffic(config, seed=5)
        first = list(traffic.iter_records())
        assert first == list(traffic.iter_records())
        assert first == list(DiurnalTraffic(config, seed=5).iter_records())
        assert first != list(DiurnalTraffic(config, seed=6).iter_records())

    def test_arrivals_chronological_and_unique_ids(self):
        config = DiurnalConfig(duration_ms=120000.0, base_rate_per_s=2.0)
        records = [r for _, r in DiurnalTraffic(config, seed=1).iter_records()]
        arrivals = [r["arrival_ms"] for r in records]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] < config.duration_ms
        ids = [r["app_id"] for r in records]
        assert len(ids) == len(set(ids))
        for record in records:
            assert record["departure_ms"] > record["arrival_ms"]

    def test_flash_crowd_raises_local_density(self):
        config = DiurnalConfig(
            duration_ms=600000.0,
            base_rate_per_s=0.5,
            diurnal_amplitude=0.0,
            flash_crowds=1,
            flash_magnitude=4.0,
            flash_duration_fraction=0.1,
        )
        traffic = DiurnalTraffic(config, seed=2)
        (start, end), = traffic.flash_windows
        arrivals = [r["arrival_ms"] for _, r in traffic.iter_records()]
        inside = sum(1 for t in arrivals if start <= t < end)
        outside = len(arrivals) - inside
        inside_rate = inside / (end - start)
        outside_rate = outside / (config.duration_ms - (end - start))
        assert inside_rate > 2.0 * outside_rate

    def test_popularity_is_rank_ordered(self):
        config = DiurnalConfig(
            duration_ms=600000.0,
            base_rate_per_s=1.0,
            num_archetypes=4,
            popularity_exponent=1.0,
            dnn_fraction=0.5,
        )
        counts = [0, 0, 0, 0]
        for _, record in DiurnalTraffic(config, seed=3).iter_records():
            archetype = int(record["app_id"].split("_a")[1].split("_")[0])
            counts[archetype] += 1
        assert counts[0] > counts[3]

    def test_config_for_arrivals_hits_target(self, tmp_path):
        config = config_for_arrivals(3000, duration_ms=600000.0)
        written = write_diurnal_trace(tmp_path / "t.jsonl", config, seed=4)
        assert written >= 3000

    def test_registry_scenario_matches_trace_replay(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_diurnal_trace(path, seed=2)
        direct = build_scenario("diurnal", seed=2)
        replayed = ArrivalTrace.stream_scenario(path)
        assert [a.app_id for a in replayed.applications] == [
            a.app_id for a in direct.applications
        ]
        assert [a.arrival_time_ms for a in replayed.applications] == [
            a.arrival_time_ms for a in direct.applications
        ]

    def test_dnn_records_share_models_per_archetype(self):
        scenario = build_scenario("diurnal", seed=3)
        by_archetype: dict = {}
        for app in scenario.applications:
            if app.kind.value != "dnn_inference":
                continue
            archetype = app.app_id.split("_a")[1].split("_")[0]
            by_archetype.setdefault(archetype, set()).add(id(app.trained))
        for archetype, trained_ids in by_archetype.items():
            assert len(trained_ids) == 1, f"archetype {archetype} split its model"


# ------------------------------------------------------------ memory bounds


class TestStreamingMemoryBounds:
    """Peak memory of the streaming paths is bounded and small.

    The trace here holds ~60k arrivals (~8 MB on disk); materialised as
    record dicts it would cost hundreds of MB.  Recording must stay O(chunk)
    and :func:`compute_trace_stats` O(8 bytes/arrival) — the CI trace job
    repeats the same assertion at the million-arrival scale via
    ``trace stats --max-peak-mb``.
    """

    @pytest.fixture(scope="class")
    def big_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("diurnal") / "big.jsonl.gz"
        config = config_for_arrivals(60_000, duration_ms=1_800_000.0)
        tracemalloc.start()
        written = write_diurnal_trace(path, config, seed=9)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return path, written, peak

    def test_recording_memory_is_chunk_bounded(self, big_trace):
        _, written, peak = big_trace
        assert written >= 60_000
        assert peak < 16e6, f"recording peaked at {peak / 1e6:.1f} MB"

    def test_stats_memory_is_arrival_array_bounded(self, big_trace):
        path, written, _ = big_trace
        tracemalloc.start()
        stats = compute_trace_stats(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert stats.num_applications == written
        # array('d') + the numpy sort/diff copies: ~25 bytes per arrival,
        # versus >1 KB per arrival for materialised record dicts.
        assert peak < 64 * written, f"stats peaked at {peak / 1e6:.1f} MB"

    def test_iter_records_is_constant_memory(self, big_trace):
        path, written, _ = big_trace
        tracemalloc.start()
        count = sum(1 for _ in ArrivalTrace.iter_records(path))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == written
        assert peak < 8e6, f"pure streaming peaked at {peak / 1e6:.1f} MB"
