"""Arrival traces: a streaming JSONL record/replay format for workload timelines.

A scenario's *workload timeline* — which applications arrive when, with which
requirements, input sizes and scheduled requirement switches — is exactly
what a measurement campaign on a real device produces.  :class:`ArrivalTrace`
captures that timeline as plain data:

* :meth:`ArrivalTrace.from_scenario` records the timeline of any scenario
  (hand-written, generated, composed or fuzzed);
* :meth:`ArrivalTrace.save` / :meth:`ArrivalTrace.load` round-trip it through
  a line-oriented JSONL file (one header line, one line per application, one
  line per scheduled event) that external tools can write;
* :meth:`ArrivalTrace.to_scenario` reconstitutes a runnable
  :class:`~repro.workloads.scenarios.Scenario`, bit-identical in simulated
  behaviour to the recording (DNN applications are rebuilt from the recorded
  increment count of the case-study dynamic-DNN family, preserving which
  applications shared one model; traces recorded from other DNN families are
  rejected at replay via the recorded input size rather than silently
  replayed with the wrong network).

The registered ``trace`` scenario exposes replay to specs and the CLI: a
spec/TOML with ``scenario = "trace"`` and ``scenario_params.path`` replays a
trace file through the standard experiment machinery, and without a path it
round-trips a named source scenario in memory (a permanent regression check
that recording is lossless).

Streaming pipeline
------------------
A million-arrival day does not fit in memory as a list of dicts, so every
file-facing path is generator-based and O(1) in trace length:

* :meth:`ArrivalTrace.iter_records` / :meth:`ArrivalTrace.stream_load` read
  one validated record at a time (the latter also exposes the parsed
  :class:`TraceHeader`);
* :class:`TraceWriter` appends records as they are produced, committing the
  file atomically (same-directory temp + fsync + ``os.replace`` + directory
  fsync) on close; it compresses on one background thread that lives only
  inside its ``with`` block, fed fixed chunks of encoded lines over a
  bounded queue, and writes the same bytes as a one-line-per-write writer;
* :meth:`ArrivalTrace.stream_scenario` replays a file into a scenario
  without materialising the intermediate record lists (the
  :class:`~repro.workloads.scenarios.Scenario` itself still holds one
  :class:`~repro.workloads.tasks.Application` per arrival — the simulator
  needs them — so replay memory is O(arrivals), while recording and
  :func:`compute_trace_stats` stay O(1));
* compression is chosen by file suffix: ``.gz`` (stdlib gzip, deterministic
  ``mtime=0`` members) and ``.zst``/``.zstd`` (optional ``zstandard``
  package; a clear :class:`TraceFormatError` is raised when it is missing).

Every record is validated at read time (required keys, numeric types), so a
malformed file surfaces as a :class:`TraceFormatError` with the offending
record named instead of a ``KeyError`` deep inside a consumer.  The writer
runs the same checks before a record is queued.
"""

from __future__ import annotations

import gzip
import json
import queue
import threading
from array import array
from dataclasses import dataclass, field
from itertools import chain
from math import isfinite
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.dnn.training import IncrementalTrainer, TrainedDynamicDNN
from repro.dnn.zoo import make_dynamic_cifar_dnn
from repro.ioutils import atomic_binary_writer
from repro.platforms.core import CoreType
from repro.workloads.requirements import Requirements
from repro.workloads.scenarios import (
    Scenario,
    ScenarioEvent,
    ScenarioEventKind,
    build_scenario,
    register_scenario,
)
from repro.workloads.tasks import (
    Application,
    DNNApplication,
    GenericApplication,
    ResourceDemand,
    TaskKind,
)

__all__ = [
    "ArrivalTrace",
    "TraceFormatError",
    "TraceHeader",
    "TraceStream",
    "TraceWriter",
    "TraceStats",
    "compute_trace_stats",
    "scenario_from_records",
]

#: Header discriminator of the JSONL format.
TRACE_FORMAT = "repro-arrival-trace"
#: Format version written by this module (readers reject newer versions).
TRACE_VERSION = 1

_REQUIREMENT_FIELDS = (
    "max_latency_ms",
    "max_energy_mj",
    "max_power_mw",
    "min_accuracy_percent",
    "target_fps",
    "priority",
)


class TraceFormatError(ValueError):
    """An arrival-trace file that cannot be parsed or reconstituted."""


def _requirements_to_dict(requirements: Requirements) -> Dict[str, object]:
    payload: Dict[str, object] = {}
    for name in _REQUIREMENT_FIELDS:
        value = getattr(requirements, name)
        if value is not None:
            payload[name] = value
    return payload


def _requirements_from_dict(payload: Dict[str, object]) -> Requirements:
    unknown = sorted(set(payload) - set(_REQUIREMENT_FIELDS))
    if unknown:
        raise TraceFormatError(f"unknown requirement fields {unknown}")
    return Requirements(**payload)  # type: ignore[arg-type]


# ------------------------------------------------------------- file plumbing


def _open_trace_text(path: Path) -> IO[str]:
    """Open a trace for reading, decompressing by suffix (.gz/.zst)."""
    suffix = path.suffix.lower()
    if suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    if suffix in (".zst", ".zstd"):
        try:
            import zstandard
        except ImportError:
            raise TraceFormatError(
                f"cannot read trace file {path}: .zst traces need the optional "
                "'zstandard' package, which is not installed"
            ) from None
        return zstandard.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _iter_trace_lines(path: Path) -> Iterator[str]:
    """Yield the non-blank lines of a (possibly compressed) trace file.

    Decompression and decoding errors anywhere in the stream — including a
    truncated gzip member, whose EOFError only fires mid-iteration — are
    reported as :class:`TraceFormatError`.
    """
    try:
        with _open_trace_text(path) as stream:
            for line in stream:
                if line.strip():
                    yield line
    except UnicodeDecodeError as error:
        raise TraceFormatError(f"cannot read trace file {path}: {error}") from None
    except EOFError as error:
        raise TraceFormatError(f"truncated compressed trace file {path}: {error}") from None
    except OSError as error:
        raise TraceFormatError(f"cannot read trace file {path}: {error}") from None


# ---------------------------------------------------------- record validation


def _require_number(
    payload: Dict[str, object],
    key: str,
    context: str,
    *,
    optional: bool = False,
    allow_none: bool = False,
) -> None:
    """Validate a numeric field of a record that failed the finite-float fast path."""
    if key not in payload:
        if optional:
            return
        raise TraceFormatError(f"{context} is missing required key {key!r}")
    value = payload[key]
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceFormatError(f"{context} has non-numeric {key}={value!r}")
    if not isfinite(value):
        raise TraceFormatError(f"{context} has non-finite {key}={value!r}")


#: ``(key, optional, allow_none)`` of the numeric fields of an application
#: record, in the order they are checked.
_APPLICATION_NUMBERS = (
    ("arrival_ms", False, False),
    ("departure_ms", True, True),
    ("memory_footprint_mb", True, False),
)


def _validate_application_record(record: Dict[str, object], location: str) -> None:
    """Shape-check one application record (required keys, numeric types).

    Runs on every record the writer appends and the reader yields, so a
    finite ``float`` passes without a call, and the record's name for an
    error message is built only when a field needs the full check.
    """
    app_id = record.get("app_id")
    if not isinstance(app_id, str) or not app_id:
        raise TraceFormatError(
            f"application record in {location} needs a non-empty string 'app_id', got {app_id!r}"
        )
    kind = record.get("kind")
    if not isinstance(kind, str) or not kind:
        raise TraceFormatError(
            f"application record {app_id!r} in {location} needs a non-empty string "
            f"'kind', got {kind!r}"
        )
    for key, optional, allow_none in _APPLICATION_NUMBERS:
        value = record.get(key)
        if type(value) is not float or not isfinite(value):
            _require_number(
                record,
                key,
                f"application record {app_id!r} in {location}",
                optional=optional,
                allow_none=allow_none,
            )
    requirements = record.get("requirements")
    if requirements is not None and not isinstance(requirements, dict):
        raise TraceFormatError(
            f"application record {app_id!r} in {location} has a non-table "
            f"'requirements': {requirements!r}"
        )


def _validate_event_record(record: Dict[str, object], location: str) -> None:
    """Shape-check one scheduled-event record."""
    app_id = record.get("app_id")
    time_ms = record.get("time_ms")
    if type(time_ms) is not float or not isfinite(time_ms):
        _require_number(record, "time_ms", f"event record {app_id!r} in {location}")
    kind = record.get("kind")
    if not isinstance(kind, str) or not kind:
        raise TraceFormatError(
            f"event record {app_id!r} in {location} needs a non-empty string 'kind', "
            f"got {kind!r}"
        )
    if not isinstance(app_id, str):
        raise TraceFormatError(f"event record {app_id!r} in {location} needs a string 'app_id'")
    requirements = record.get("requirements")
    if requirements is not None and not isinstance(requirements, dict):
        raise TraceFormatError(
            f"event record {app_id!r} in {location} has a non-table 'requirements': "
            f"{requirements!r}"
        )


# -------------------------------------------------------------------- header


@dataclass(frozen=True)
class TraceHeader:
    """The parsed first line of a trace file."""

    scenario_name: str
    platform_name: str
    duration_ms: float
    version: int


def _parse_header(line: str, path: Path) -> TraceHeader:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"invalid JSON in {path}: {error}") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(f"{path} is not a {TRACE_FORMAT} file (missing/unknown header)")
    if "version" not in header:
        # A headerless version would silently be read as the oldest format;
        # external writers must state which revision they produce.
        raise TraceFormatError(
            f"invalid trace header in {path}: missing required key 'version' "
            f"(this writer produces version {TRACE_VERSION})"
        )
    try:
        version = int(header["version"])  # type: ignore[arg-type]
        duration_ms = float(header["duration_ms"])
    except (KeyError, TypeError, ValueError) as error:
        raise TraceFormatError(f"invalid trace header in {path}: {error!r}") from None
    if version > TRACE_VERSION:
        raise TraceFormatError(
            f"{path} has version {header['version']}; this reader supports "
            f"up to {TRACE_VERSION}"
        )
    return TraceHeader(
        scenario_name=str(header.get("scenario", path.stem)),
        platform_name=str(header.get("platform", "odroid_xu3")),
        duration_ms=duration_ms,
        version=version,
    )


class TraceStream:
    """A trace header plus a one-shot iterator over its validated records.

    Iterating yields ``(record_type, record)`` pairs where ``record_type`` is
    ``"application"`` or ``"event"`` — one record at a time, so memory stays
    O(1) in trace length.  Obtain one via :meth:`ArrivalTrace.stream_load`.
    """

    def __init__(self, header: TraceHeader, records: Iterator[Tuple[str, Dict[str, object]]]):
        self.header = header
        self._records = records

    def __iter__(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        return self._records


def _iter_body_records(
    lines: Iterator[str], path: Path
) -> Iterator[Tuple[str, Dict[str, object]]]:
    location = str(path)
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"invalid JSON in {path}: {error}") from None
        if not isinstance(record, dict):
            raise TraceFormatError(f"non-table record line {record!r} in {path}")
        kind = record.pop("record", None)
        if kind == "application":
            _validate_application_record(record, location)
        elif kind == "event":
            _validate_event_record(record, location)
        else:
            raise TraceFormatError(f"unknown record type {kind!r} in {path}")
        yield kind, record


# -------------------------------------------------------------------- writer


#: Record lines the caller joins into one chunk for the writer thread.
_CHUNK_LINES = 512
#: Chunks queued for the writer thread before the caller waits for it.  A
#: writer holds at most about five chunks: the lines being gathered, their
#: joined bytes while the queue is full, the queued chunks and the one being
#: compressed (under a megabyte of diurnal records).
_QUEUE_CHUNKS = 2

#: ``json.dumps(payload, sort_keys=True)`` without building an encoder per line.
_encode_line = json.JSONEncoder(sort_keys=True).encode


class TraceWriter:
    """Incrementally write an arrival trace: header first, records appended.

    A context manager.  Records are validated and encoded one at a time as
    they are appended, so recording a million-arrival day needs O(1) memory
    — unlike :meth:`ArrivalTrace.save`, nothing is accumulated.  The output
    file only appears on clean exit, via the shared atomic/durable sequence
    (:func:`repro.ioutils.atomic_binary_writer`: same-directory temp, fsync,
    ``os.replace``, directory fsync); an exception mid-write leaves any
    existing file untouched.  Compression follows the file suffix: ``.gz``
    writes a deterministic (``mtime=0``) gzip member, ``.zst``/``.zstd``
    needs the optional ``zstandard`` package.

    The sink (compressed or plain) belongs to one writer thread that lives
    only inside the ``with`` block.  The caller joins the encoded lines into
    chunks of ``_CHUNK_LINES`` and hands them over a queue of
    ``_QUEUE_CHUNKS``, so memory stays bounded by chunk size × queue depth,
    and zlib's deflate, which releases the interpreter lock, runs on another
    core while the caller produces the next chunk.  Deflate without a flush
    emits the same stream however its input is split, so the file is
    byte-identical to writing one line at a time.  A write error in the
    thread is raised to the caller by a later ``write_*`` or by leaving the
    ``with`` block, and the thread is joined on every exit path.

    Duplicate ``app_id`` detection is deliberately *not* performed here — it
    would cost O(arrivals) memory; readers enforce it where the scenario is
    materialised (:meth:`ArrivalTrace.load` / replay).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        scenario_name: str,
        platform_name: str,
        duration_ms: float,
    ) -> None:
        self.path = Path(path)
        self.scenario_name = scenario_name
        self.platform_name = platform_name
        self.duration_ms = float(duration_ms)
        self.applications_written = 0
        self.events_written = 0
        self._location = str(self.path)
        # Encoded lines of the chunk being built; None outside the with block.
        self._lines: Optional[List[str]] = None
        self._ctx = None
        self._queue: Optional["queue.Queue[Optional[bytes]]"] = None
        self._thread: Optional[threading.Thread] = None
        # The writer thread's first failure, raised to the caller.
        self._error: Optional[Exception] = None

    # -- context management

    def __enter__(self) -> "TraceWriter":
        if self._lines is not None:
            raise RuntimeError(f"TraceWriter for {self.path} is already open")
        ctx = atomic_binary_writer(self.path)
        raw = ctx.__enter__()
        chunk_queue: "queue.Queue[Optional[bytes]]" = queue.Queue(maxsize=_QUEUE_CHUNKS)
        try:
            sink = self._open_sink(raw)
            thread = threading.Thread(
                target=self._drain, args=(chunk_queue, sink, raw), name="trace-writer", daemon=True
            )
            thread.start()
        except BaseException as error:
            ctx.__exit__(type(error), error, error.__traceback__)
            raise
        self._ctx, self._queue, self._thread = ctx, chunk_queue, thread
        self._error = None
        self._lines = [
            _encode_line(
                {
                    "format": TRACE_FORMAT,
                    "version": TRACE_VERSION,
                    "scenario": self.scenario_name,
                    "platform": self.platform_name,
                    "duration_ms": self.duration_ms,
                }
            )
        ]
        return self

    def _open_sink(self, raw: IO[bytes]) -> IO[bytes]:
        """The sink the path's suffix asks for, writing into ``raw``."""
        suffix = self.path.suffix.lower()
        if suffix == ".gz":
            # mtime=0 and an empty embedded name keep equal traces byte-equal.
            return gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
        if suffix in (".zst", ".zstd"):
            try:
                import zstandard
            except ImportError:
                raise TraceFormatError(
                    f"cannot write trace file {self.path}: .zst traces need the "
                    "optional 'zstandard' package, which is not installed"
                ) from None
            return zstandard.ZstdCompressor().stream_writer(raw, closefd=False)
        return raw

    def __exit__(self, exc_type, exc, tb) -> None:
        lines, self._lines = self._lines, None
        if lines is None:
            raise RuntimeError(f"TraceWriter for {self.path} is not open")
        try:
            if exc_type is None and lines:
                self._queue.put(_join_chunk(lines))
        finally:
            self._queue.put(None)
            self._thread.join()
            self._queue = self._thread = None
        ctx, self._ctx = self._ctx, None
        error, self._error = self._error, None
        if exc_type is None and error is None:
            ctx.__exit__(None, None, None)
        elif exc_type is None:
            ctx.__exit__(type(error), error, error.__traceback__)
            raise error
        else:
            ctx.__exit__(exc_type, exc or BaseException(), tb)

    def _drain(
        self, chunk_queue: "queue.Queue[Optional[bytes]]", sink: IO[bytes], raw: IO[bytes]
    ) -> None:
        """The writer thread: write queued chunks until ``None``, then close the sink.

        After a failure it keeps taking chunks without writing them, so the
        caller never waits on a full queue; the caller raises the failure.
        """
        chunks = iter(chunk_queue.get, None)
        try:
            for chunk in chunks:
                sink.write(chunk)
        except Exception as error:
            self._error = error
            for _ in chunks:
                pass
        if sink is not raw:
            try:
                sink.close()  # finalise the compression member
            except Exception as error:
                if self._error is None:
                    self._error = error

    # -- record appends

    def _append(self, payload: Dict[str, object]) -> None:
        lines = self._lines
        if lines is None:
            raise RuntimeError(
                f"TraceWriter for {self.path} is not open: write records inside "
                "its with block"
            )
        lines.append(_encode_line(payload))
        if len(lines) >= _CHUNK_LINES:
            if self._error is not None:
                raise self._error
            self._queue.put(_join_chunk(lines))
            lines.clear()

    def write_application(self, record: Dict[str, object]) -> None:
        """Append one application record (validated before it is queued)."""
        _validate_application_record(record, self._location)
        self._append({"record": "application", **record})
        self.applications_written += 1

    def write_event(self, record: Dict[str, object]) -> None:
        """Append one scheduled-event record."""
        _validate_event_record(record, self._location)
        self._append({"record": "event", **record})
        self.events_written += 1


def _join_chunk(lines: List[str]) -> bytes:
    """The bytes of encoded record lines, each ended by a newline."""
    return ("\n".join(lines) + "\n").encode("utf-8")


# ------------------------------------------------------------- arrival trace


@dataclass
class ArrivalTrace:
    """A recorded workload timeline, serialisable to/from JSONL.

    Attributes
    ----------
    scenario_name / platform_name / duration_ms:
        Identity of the recorded scenario (the platform is a default for
        replay; :meth:`to_scenario` can re-target).
    applications:
        One plain-dict record per application: id, kind, arrival/departure,
        requirements and kind-specific payload (dynamic-DNN shape and input
        size for inference applications, resource demand for generic ones).
    events:
        One plain-dict record per scheduled extra event (requirement
        switches, scripted arrivals/departures).

    This in-memory form is convenient for bounded traces; million-arrival
    files should use the streaming surface instead (:meth:`stream_load`,
    :meth:`iter_records`, :meth:`stream_scenario`, :class:`TraceWriter`).
    """

    scenario_name: str
    platform_name: str
    duration_ms: float
    applications: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)

    # -------------------------------------------------------------- recording

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ArrivalTrace":
        """Record the workload timeline of a scenario.

        DNN applications record the increment count and input size of their
        dynamic DNN plus a ``model_ref``: applications that share one trained
        model instance (and therefore co-scale — switching one switches the
        other) share a ref, so replay preserves the sharing structure.
        """
        trace = cls(
            scenario_name=scenario.name,
            platform_name=scenario.platform_name,
            duration_ms=scenario.duration_ms,
        )
        model_refs: Dict[int, int] = {}
        for application in scenario.applications:
            record: Dict[str, object] = {
                "app_id": application.app_id,
                "kind": application.kind.value,
                "arrival_ms": application.arrival_time_ms,
                "departure_ms": application.departure_time_ms,
                "memory_footprint_mb": application.memory_footprint_mb,
                "requirements": _requirements_to_dict(application.requirements),
            }
            if isinstance(application, DNNApplication):
                ref = model_refs.setdefault(id(application.trained), len(model_refs))
                record["model_ref"] = ref
                record["num_increments"] = application.dynamic_dnn.num_increments
                record["input_size"] = list(application.dynamic_dnn.base_model.input_shape)
                record["preprocessing_cores"] = application.preprocessing_cores
            elif isinstance(application, GenericApplication):
                record["demand"] = {
                    "core_type": application.demand.core_type.value,
                    "cores": application.demand.cores,
                    "utilisation": application.demand.utilisation,
                    "min_frequency_mhz": application.demand.min_frequency_mhz,
                }
            trace.applications.append(record)
        for event in scenario.extra_events:
            trace.events.append(
                {
                    "time_ms": event.time_ms,
                    "kind": event.kind.value,
                    "app_id": event.app_id,
                    "requirements": (
                        None
                        if event.new_requirements is None
                        else _requirements_to_dict(event.new_requirements)
                    ),
                }
            )
        return trace

    # --------------------------------------------------------------- file I/O

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSONL: header, application records, events.

        Streams through :class:`TraceWriter`, so the write is atomic and
        durable (same-directory temp + fsync + rename + directory fsync): a
        crash mid-save leaves any existing file untouched instead of a
        truncated JSONL that :meth:`load` then rejects as corrupt.
        Compression follows the suffix (``.gz``/``.zst``).
        """
        with TraceWriter(
            path,
            scenario_name=self.scenario_name,
            platform_name=self.platform_name,
            duration_ms=self.duration_ms,
        ) as writer:
            for record in self.applications:
                writer.write_application(record)
            for record in self.events:
                writer.write_event(record)

    @classmethod
    def read_header(cls, path: Union[str, Path]) -> TraceHeader:
        """Parse and validate only the header line of a trace file."""
        path = Path(path)
        for line in _iter_trace_lines(path):
            return _parse_header(line, path)
        raise TraceFormatError(f"trace file {path} is empty")

    @classmethod
    def stream_load(cls, path: Union[str, Path]) -> TraceStream:
        """Open a trace for streaming: validated header + record iterator.

        The returned :class:`TraceStream` yields one validated
        ``(record_type, record)`` pair at a time — O(1) memory however long
        the trace is.  The stream is one-shot; call again for a second pass.
        """
        path = Path(path)
        lines = _iter_trace_lines(path)
        header: Optional[TraceHeader] = None
        for line in lines:
            header = _parse_header(line, path)
            break
        if header is None:
            raise TraceFormatError(f"trace file {path} is empty")
        return TraceStream(header, _iter_body_records(lines, path))

    @classmethod
    def iter_records(cls, path: Union[str, Path]) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Stream the validated records of a trace file (header skipped)."""
        return iter(cls.stream_load(path))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ArrivalTrace":
        """Read a whole trace written by :meth:`save` (or a compatible tool).

        Materialises the record lists in memory; use the streaming surface
        for traces too large for that.  Records are validated as they are
        read, and duplicate application ids are rejected here (the simulator
        would silently mis-run a scenario whose ids collide).
        """
        path = Path(path)
        stream = cls.stream_load(path)
        header = stream.header
        trace = cls(
            scenario_name=header.scenario_name,
            platform_name=header.platform_name,
            duration_ms=header.duration_ms,
        )
        seen_ids: set = set()
        for record_type, record in stream:
            if record_type == "application":
                app_id = record["app_id"]
                if app_id in seen_ids:
                    raise TraceFormatError(
                        f"duplicate app_id {app_id!r} across application records in {path}"
                    )
                seen_ids.add(app_id)
                trace.applications.append(record)
            else:
                trace.events.append(record)
        return trace

    # ----------------------------------------------------------------- replay

    def to_scenario(
        self,
        platform_name: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Scenario:
        """Reconstitute a runnable scenario from the recorded timeline.

        DNN applications are rebuilt from the case-study dynamic-DNN family
        at the recorded increment count; records sharing a ``model_ref``
        share one trained instance, exactly like the recording.  The platform
        defaults to the recorded one.
        """
        records = chain(
            (("application", record) for record in self.applications),
            (("event", record) for record in self.events),
        )
        return scenario_from_records(
            records,
            source_name=self.scenario_name,
            platform_name=platform_name or self.platform_name,
            duration_ms=self.duration_ms,
            name=name,
        )

    @classmethod
    def stream_scenario(
        cls,
        path: Union[str, Path],
        platform_name: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Scenario:
        """Replay a trace file into a scenario, consuming the record stream.

        Equivalent to ``load(path).to_scenario(...)`` but never materialises
        the intermediate record dict lists: each record becomes its
        :class:`~repro.workloads.tasks.Application` as it is read.
        """
        stream = cls.stream_load(path)
        header = stream.header
        return scenario_from_records(
            iter(stream),
            source_name=header.scenario_name,
            platform_name=platform_name or header.platform_name,
            duration_ms=header.duration_ms,
            name=name,
        )

    @staticmethod
    def _application_from(
        record: Dict[str, object],
        trained_by_ref: Dict[object, TrainedDynamicDNN],
        index: int,
    ) -> Application:
        kind = TaskKind(record["kind"])
        requirements = _requirements_from_dict(dict(record.get("requirements") or {}))
        departure = record.get("departure_ms")
        common = {
            "app_id": str(record["app_id"]),
            "kind": kind,
            "requirements": requirements,
            "arrival_time_ms": float(record["arrival_ms"]),  # type: ignore[arg-type]
            "departure_time_ms": None if departure is None else float(departure),  # type: ignore[arg-type]
            "memory_footprint_mb": float(record["memory_footprint_mb"]),  # type: ignore[arg-type]
        }
        if kind is TaskKind.DNN_INFERENCE:
            # model_ref encodes which applications deliberately co-scale one
            # model; an external trace that omits it must get an independent
            # model per record, not be silently fused onto a shared one.
            raw_ref = record.get("model_ref")
            ref: object = ("auto", index) if raw_ref is None else int(raw_ref)  # type: ignore[arg-type]
            num_increments = int(record.get("num_increments", 4))  # type: ignore[arg-type]
            trained = trained_by_ref.get(ref)
            if trained is None:
                trained = IncrementalTrainer().train(make_dynamic_cifar_dnn(num_increments))
                trained_by_ref[ref] = trained
            elif trained.dynamic_dnn.num_increments != num_increments:
                raise TraceFormatError(
                    f"model_ref {ref} recorded with conflicting increment counts"
                )
            # Replay reconstitutes the case-study dynamic-DNN family; a trace
            # recorded from a different model must fail loudly rather than
            # silently replay the wrong network.
            recorded_input = record.get("input_size")
            rebuilt_input = list(trained.dynamic_dnn.base_model.input_shape)
            if recorded_input is not None and list(recorded_input) != rebuilt_input:
                raise TraceFormatError(
                    f"recorded input size {recorded_input} is not the case-study "
                    f"family's {rebuilt_input}; this DNN cannot be reconstituted"
                )
            return DNNApplication(
                trained=trained,
                preprocessing_cores=int(record.get("preprocessing_cores", 1)),  # type: ignore[arg-type]
                **common,  # type: ignore[arg-type]
            )
        demand_payload = dict(record.get("demand") or {})
        min_frequency = demand_payload.get("min_frequency_mhz")
        demand = ResourceDemand(
            core_type=CoreType(demand_payload["core_type"]),
            cores=int(demand_payload.get("cores", 1)),  # type: ignore[arg-type]
            utilisation=float(demand_payload.get("utilisation", 0.8)),  # type: ignore[arg-type]
            min_frequency_mhz=None if min_frequency is None else float(min_frequency),  # type: ignore[arg-type]
        )
        return GenericApplication(demand=demand, **common)  # type: ignore[arg-type]


# ----------------------------------------------------- stream -> scenario


def scenario_from_records(
    records: Iterable[Tuple[str, Dict[str, object]]],
    *,
    source_name: str,
    platform_name: str,
    duration_ms: float,
    name: Optional[str] = None,
    description: Optional[str] = None,
) -> Scenario:
    """Build a runnable scenario from a ``(record_type, record)`` stream.

    The shared replay core behind :meth:`ArrivalTrace.to_scenario`,
    :meth:`ArrivalTrace.stream_scenario` and the diurnal traffic generator:
    applications are materialised one record at a time, duplicate ids are
    rejected by name, and malformed records surface as
    :class:`TraceFormatError` instead of raw ``KeyError`` tracebacks.
    """
    trained_by_ref: Dict[object, TrainedDynamicDNN] = {}
    applications: List[Application] = []
    events: List[ScenarioEvent] = []
    seen_ids: set = set()
    index = 0
    for record_type, record in records:
        if record_type == "application":
            app_id = record.get("app_id")
            if app_id in seen_ids:
                raise TraceFormatError(
                    f"duplicate app_id {app_id!r} across application records of "
                    f"{source_name!r}; the simulator cannot tell the two apart"
                )
            seen_ids.add(app_id)
            try:
                applications.append(
                    ArrivalTrace._application_from(record, trained_by_ref, index)
                )
            except (KeyError, TypeError, ValueError) as error:
                if isinstance(error, TraceFormatError):
                    raise
                raise TraceFormatError(
                    f"invalid application record {record.get('app_id')!r}: {error}"
                ) from None
            index += 1
        elif record_type == "event":
            try:
                payload = record.get("requirements")
                events.append(
                    ScenarioEvent(
                        time_ms=float(record["time_ms"]),  # type: ignore[arg-type]
                        kind=ScenarioEventKind(record["kind"]),
                        app_id=str(record["app_id"]),
                        new_requirements=(
                            None if payload is None else _requirements_from_dict(payload)
                        ),
                    )
                )
            except (KeyError, TypeError, ValueError) as error:
                if isinstance(error, TraceFormatError):
                    raise
                raise TraceFormatError(f"invalid event record {record!r}: {error}") from None
        else:
            raise TraceFormatError(f"unknown record type {record_type!r}")
    return Scenario(
        name=name or f"trace({source_name})",
        platform_name=platform_name,
        applications=applications,
        duration_ms=duration_ms,
        extra_events=events,
        description=description
        or f"Replay of the recorded arrival trace of {source_name!r}.",
    )


# ------------------------------------------------------------- corpus stats


@dataclass(frozen=True)
class TraceStats:
    """Streaming summary of one trace file (no simulation involved)."""

    scenario_name: str
    platform_name: str
    duration_ms: float
    version: int
    num_applications: int
    num_events: int
    num_departures: int
    by_kind: Dict[str, int]
    first_arrival_ms: Optional[float] = None
    last_arrival_ms: Optional[float] = None
    gap_min_ms: Optional[float] = None
    gap_p50_ms: Optional[float] = None
    gap_p90_ms: Optional[float] = None
    gap_p99_ms: Optional[float] = None
    gap_max_ms: Optional[float] = None


def _percentile(sorted_values, fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if len(sorted_values) == 0:
        return 0.0
    position = fraction * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return float(sorted_values[lower]) * (1.0 - weight) + float(sorted_values[upper]) * weight


def compute_trace_stats(path: Union[str, Path]) -> TraceStats:
    """Summarise a trace in one streaming pass.

    Memory is O(arrivals × 8 bytes) — a compact ``array('d')`` of arrival
    times for the exact inter-arrival percentiles — rather than the O(file)
    cost of materialising every record dict: a million-arrival trace peaks
    around tens of megabytes instead of gigabytes.  Everything else (kind
    histogram, departures, counts) is O(1).
    """
    import numpy as np

    stream = ArrivalTrace.stream_load(path)
    header = stream.header
    by_kind: Dict[str, int] = {}
    departures = 0
    events = 0
    arrivals = array("d")
    for record_type, record in stream:
        if record_type == "event":
            events += 1
            continue
        kind = str(record.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if record.get("departure_ms") is not None:
            departures += 1
        arrivals.append(float(record["arrival_ms"]))  # type: ignore[arg-type]
    stats = {
        "scenario_name": header.scenario_name,
        "platform_name": header.platform_name,
        "duration_ms": header.duration_ms,
        "version": header.version,
        "num_applications": len(arrivals),
        "num_events": events,
        "num_departures": departures,
        "by_kind": by_kind,
    }
    if not arrivals:
        return TraceStats(**stats)  # type: ignore[arg-type]
    times = np.frombuffer(arrivals, dtype=np.float64).copy()
    times.sort()
    stats["first_arrival_ms"] = float(times[0])
    stats["last_arrival_ms"] = float(times[-1])
    if len(times) > 1:
        gaps = np.diff(times)
        gaps.sort()
        stats.update(
            gap_min_ms=float(gaps[0]),
            gap_p50_ms=_percentile(gaps, 0.5),
            gap_p90_ms=_percentile(gaps, 0.9),
            gap_p99_ms=_percentile(gaps, 0.99),
            gap_max_ms=float(gaps[-1]),
        )
    return TraceStats(**stats)  # type: ignore[arg-type]


# ----------------------------------------------------------------- registry


@register_scenario("trace", seeded=False, params=("path", "source", "source_seed", "replatform"))
def trace_scenario(
    seed: int = 0,
    platform_name: str = "odroid_xu3",
    path: Optional[str] = None,
    source: str = "rush_hour",
    source_seed: int = 0,
    replatform: bool = False,
) -> Scenario:
    """Replay an arrival trace: a JSONL file (path), else a round-trip of `source`.

    With ``scenario_params.path`` the named JSONL file is loaded and
    replayed — through the streaming reader, so the file is never
    materialised as record lists.  A spec cannot express "the platform the
    trace was recorded on" (its ``platform`` field always has a value), so a
    platform that differs from the recorded one is rejected unless
    ``scenario_params.replatform`` is true — otherwise a trace recorded on
    another board would silently replay on the spec's default platform as a
    different experiment.  Without a path, the ``source`` registry scenario
    (at ``source_seed``) is recorded to an in-memory trace and replayed —
    simulated behaviour must be bit-identical to running the source
    directly, which the golden-fingerprint table locks in.
    """
    if path is not None:
        header = ArrivalTrace.read_header(path)
        if not replatform and header.platform_name != platform_name:
            raise TraceFormatError(
                f"trace {path} was recorded on {header.platform_name!r} but the "
                f"spec requests {platform_name!r}; set platform = "
                f"{header.platform_name!r} or scenario_params.replatform = true "
                "to re-target deliberately"
            )
        return ArrivalTrace.stream_scenario(path, platform_name=platform_name)
    recorded = ArrivalTrace.from_scenario(
        build_scenario(source, seed=source_seed, platform_name=platform_name)
    )
    return recorded.to_scenario(platform_name=platform_name)
