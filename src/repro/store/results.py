"""Persistent, spec-keyed experiment results warehouse.

:class:`ResultsStore` is an append-only SQLite database keyed by
:meth:`~repro.experiments.spec.ExperimentSpec.spec_id` — the content hash
that makes two equal specs the same experiment whatever process or machine
computed them.  Storing a result once makes every later sweep incremental:
``run_many(specs, store=..., resume=True)`` skips the spec_ids already
present and streams the freshly computed ones in as each finishes, so a
sweep killed mid-run resumes where it died instead of recomputing from
scratch.

Single-writer thread contract
-----------------------------
SQLite allows exactly one writer at a time; concurrent writers see
``database is locked`` errors.  Following the ``SqlLogger`` idiom, the store
therefore funnels **every** write through one queue: callers (any thread —
``run_many``'s one ``emit``, which every execution backend reports each
spec's outcome through, and the bench and fleet verbs) enqueue write
operations and return immediately, and a single daemon thread owning the
sole write connection drains the queue in order.  The database is opened in WAL mode so readers never block on the
writer: read methods open short-lived read connections in the calling
thread after draining the queue (:meth:`ResultsStore.flush`), which
guarantees read-your-writes within a process.  Writer-thread failures are
captured and re-raised on the next ``put``/``flush``/``close`` so they
cannot pass silently.

Schema (``user_version`` pragma = :data:`STORE_SCHEMA_VERSION`)
---------------------------------------------------------------
``results``
    ``spec_id`` (PK) · ``label`` · ``spec_toml`` (the full spec, re-loadable
    via :func:`~repro.experiments.spec.load_specs` semantics) ·
    ``fingerprint`` (behavioural trace digest) · ``metrics_json`` (aggregate
    metrics) · ``wall_time_s`` (NULL when not separable, e.g. the batched
    engine) · ``created_at`` (unix seconds).  Inserts are ``OR IGNORE``: the
    first stored result for a spec_id is the durable record, which is what
    makes the store a standing regression oracle (``store diff`` re-runs a
    stored spec and surfaces fingerprint drift).
``errors``
    ``spec_id`` (PK) · ``label`` · ``message`` (the failure text — first
    line ``"TypeName: message"``, truncated traceback after, alike on every
    backend) · ``created_at``.  ``run_many`` streams per-spec failures here
    as they happen (schema v2).  Error rows are *not* results: ``ids()`` ignores
    them, so ``resume=True`` recomputes errored specs, and a later success
    deletes the row — the table always lists the still-unresolved failures.
``bench_runs``
    Append-only benchmark documents (the payloads of ``BENCH_*.json``),
    one row per ``repro-experiments bench`` or ``fleet bench`` invocation,
    keyed by ``kind`` (``decision_kernel`` / ``batched_engine`` /
    ``fleet``) — the JSON files become views over the newest row.
``bench_cases``
    Per-case payloads keyed by ``(spec_id, kind)``: decision-kernel bench
    timings under their spec_id, so an interrupted bench resumes
    case-by-case like a sweep does, and (kind ``fleet``) the payloads that
    ``fleet run`` and ``fleet sweep --store`` write under their
    ``fleet_id``.

Migrating the schema: bump :data:`STORE_SCHEMA_VERSION` and register a
``from_version -> callable(connection)`` entry in :data:`MIGRATIONS`; on
open, the store applies the chain from the file's ``user_version`` up to the
current version (and refuses files written by a *newer* version).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import queue
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Union

from repro.experiments.spec import ExperimentSpec, SpecError
from repro.ioutils import atomic_write_text

__all__ = [
    "STORE_SCHEMA_VERSION",
    "MIGRATIONS",
    "StoreError",
    "StoredResult",
    "StoredError",
    "ResultsStore",
]

#: ``PRAGMA user_version`` written by this module.
STORE_SCHEMA_VERSION = 2

#: Table added by schema v2: per-spec failures streamed by the backends.
_ERRORS_TABLE = """
CREATE TABLE IF NOT EXISTS errors (
    spec_id    TEXT PRIMARY KEY,
    label      TEXT NOT NULL,
    message    TEXT NOT NULL,
    created_at REAL NOT NULL
);
"""


def _migrate_v1_to_v2(connection: sqlite3.Connection) -> None:
    """v1 -> v2: add the ``errors`` table (results rows untouched)."""
    connection.executescript(_ERRORS_TABLE)


#: Migration hook: ``from_version -> callable(write_connection)`` upgrading a
#: store one schema version.  Applied in sequence on open; a gap in the chain
#: (or a file newer than :data:`STORE_SCHEMA_VERSION`) raises ``StoreError``.
MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {1: _migrate_v1_to_v2}

#: Columns of the ``store export --format csv`` / ``jsonl`` row form.
EXPORT_FIELDS = (
    "spec_id",
    "label",
    "fingerprint",
    "violation_rate",
    "mean_accuracy_percent",
    "total_energy_mj",
    "jobs",
    "wall_time_s",
    "created_at",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    spec_id     TEXT PRIMARY KEY,
    label       TEXT NOT NULL,
    spec_toml   TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    metrics_json TEXT NOT NULL,
    wall_time_s REAL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS bench_runs (
    run_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    kind          TEXT NOT NULL,
    document_json TEXT NOT NULL,
    created_at    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS bench_cases (
    spec_id      TEXT NOT NULL,
    kind         TEXT NOT NULL,
    payload_json TEXT NOT NULL,
    created_at   REAL NOT NULL,
    PRIMARY KEY (spec_id, kind)
);
""" + _ERRORS_TABLE


class StoreError(RuntimeError):
    """A results store that cannot be opened, migrated or written."""


@dataclass(frozen=True)
class StoredResult:
    """One warehouse row: the durable record of an executed spec."""

    spec_id: str
    label: str
    spec_toml: str
    fingerprint: str
    metrics: Dict[str, object]
    wall_time_s: Optional[float]
    created_at: float

    def spec(self) -> ExperimentSpec:
        """Reconstitute the stored :class:`ExperimentSpec` from its TOML."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomli is the backport
            import tomli as tomllib

        try:
            data = tomllib.loads(self.spec_toml)
        except tomllib.TOMLDecodeError as error:  # pragma: no cover - store-written TOML
            raise SpecError(f"invalid stored spec TOML for {self.spec_id}: {error}") from None
        return ExperimentSpec.from_dict(data)

    def export_row(self) -> Dict[str, object]:
        """Flat row form used by ``store export`` (jsonl and csv)."""
        row: Dict[str, object] = {
            "spec_id": self.spec_id,
            "label": self.label,
            "fingerprint": self.fingerprint,
        }
        for name in ("violation_rate", "mean_accuracy_percent", "total_energy_mj", "jobs"):
            row[name] = self.metrics.get(name)
        row["wall_time_s"] = self.wall_time_s
        row["created_at"] = self.created_at
        return row


@dataclass(frozen=True)
class StoredError:
    """One per-spec failure a backend streamed to the store (schema v2)."""

    spec_id: str
    label: str
    message: str
    created_at: float

    @property
    def summary(self) -> str:
        """The first line of the message (``"TypeName: message"``)."""
        return self.message.splitlines()[0] if self.message else ""


_STOP = object()


class ResultsStore:
    """Append-only SQLite warehouse of experiment results, keyed by spec_id.

    See the module docstring for the single-writer thread contract and the
    schema.  The store is a context manager; :meth:`close` drains pending
    writes, stops the writer thread and is idempotent.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        setup = sqlite3.connect(self.path)
        try:
            setup.execute("PRAGMA journal_mode=WAL")
            self._init_schema(setup)
            setup.commit()
        finally:
            setup.close()
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._closed = False
        self._writer = threading.Thread(
            target=self._drain, name=f"results-store-writer[{self.path.name}]", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------- schema lifecycle

    @staticmethod
    def _init_schema(connection: sqlite3.Connection) -> None:
        """Create or migrate the schema up to :data:`STORE_SCHEMA_VERSION`."""
        (version,) = connection.execute("PRAGMA user_version").fetchone()
        if version > STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store was written by schema version {version}; this reader "
                f"supports up to {STORE_SCHEMA_VERSION}"
            )
        if version == 0:
            connection.executescript(_SCHEMA)
        else:
            while version < STORE_SCHEMA_VERSION:
                migrate = MIGRATIONS.get(version)
                if migrate is None:
                    raise StoreError(
                        f"no migration registered from store schema version "
                        f"{version} to {version + 1}"
                    )
                migrate(connection)
                version += 1
        connection.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION}")

    # ---------------------------------------------------- single-writer thread

    def _drain(self) -> None:
        """Writer-thread main loop: the only code that writes the database.

        Every mutation arrives as a ``(sql, params)`` batch on the queue and
        is committed before the next item is taken, so a crash loses at most
        the writes still queued — never half a result row.  The first
        failure is captured in ``self._error`` (re-raised to callers on the
        next ``put``/``flush``/``close``) and later writes are dropped, not
        silently attempted against a broken connection.
        """
        connection = sqlite3.connect(self.path)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            while True:
                item = self._queue.get()
                if item is _STOP:
                    break
                if isinstance(item, threading.Event):  # flush barrier
                    item.set()
                    continue
                if self._error is not None:
                    continue
                try:
                    for sql, params in item:
                        connection.execute(sql, params)
                    connection.commit()
                except BaseException as error:  # noqa: BLE001 - reported to callers
                    self._error = error
        finally:
            connection.close()

    def _submit(self, statements: List[tuple]) -> None:
        self._check_open()
        self._queue.put(statements)

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"results store {self.path} is closed")
        if self._error is not None:
            error, self._error = self._error, None
            raise StoreError(f"results store writer failed: {error}") from error

    def flush(self) -> None:
        """Block until every write enqueued so far has been committed."""
        self._check_open()
        barrier = threading.Event()
        self._queue.put(barrier)
        barrier.wait()
        self._check_open()

    def close(self) -> None:
        """Drain pending writes and stop the writer thread (idempotent)."""
        if self._closed:
            return
        error: Optional[BaseException] = None
        try:
            self.flush()
        except StoreError as flush_error:
            error = flush_error
        self._closed = True
        self._queue.put(_STOP)
        self._writer.join()
        if error is not None:
            raise error

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- writes

    @staticmethod
    def metrics_from_trace(trace) -> Dict[str, object]:
        """The aggregate metrics a result row carries."""
        return {
            "violation_rate": trace.violation_rate(),
            "mean_accuracy_percent": trace.mean_accuracy_percent(),
            "total_energy_mj": trace.total_energy_mj(),
            "mean_power_mw": trace.mean_power_mw(),
            "jobs": len(trace.jobs),
            "decisions": len(trace.decisions),
        }

    def put_result(self, result, wall_time_s: Optional[float] = None) -> str:
        """Enqueue one :class:`~repro.experiments.runner.ExperimentResult`.

        Returns the spec_id.  Append-only: a spec_id already present keeps
        its original row (``INSERT OR IGNORE``), so recomputing a stored
        spec never rewrites history — compare with ``store diff`` instead.
        """
        spec_id = result.spec.spec_id()
        self._submit(
            [
                (
                    "INSERT OR IGNORE INTO results "
                    "(spec_id, label, spec_toml, fingerprint, metrics_json, "
                    " wall_time_s, created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        spec_id,
                        result.spec.label,
                        result.spec.to_toml(),
                        result.trace.fingerprint(),
                        json.dumps(self.metrics_from_trace(result.trace), sort_keys=True),
                        wall_time_s,
                        time.time(),
                    ),
                ),
                # A success resolves any earlier recorded failure: the errors
                # table always lists the still-unresolved specs.
                ("DELETE FROM errors WHERE spec_id = ?", (spec_id,)),
            ]
        )
        return spec_id

    def put_error(self, spec_id: str, label: str, message: str) -> None:
        """Record one per-spec failure (latest failure wins).

        Error rows are diagnostics, not results: they never satisfy
        ``resume=True`` (which consults :meth:`ids`), so an errored spec is
        recomputed on the next run — and deleted from the table if that run
        succeeds.
        """
        self._submit(
            [
                (
                    "INSERT OR REPLACE INTO errors "
                    "(spec_id, label, message, created_at) VALUES (?, ?, ?, ?)",
                    (spec_id, label, message, time.time()),
                )
            ]
        )

    def put_bench_run(self, kind: str, document: Dict[str, object]) -> None:
        """Append one benchmark document (the ``BENCH_*.json`` payload)."""
        self._submit(
            [
                (
                    "INSERT INTO bench_runs (kind, document_json, created_at) "
                    "VALUES (?, ?, ?)",
                    (kind, json.dumps(document, sort_keys=True), time.time()),
                )
            ]
        )

    def put_bench_case(self, spec_id: str, kind: str, payload: Dict[str, object]) -> None:
        """Record one per-spec bench timing (first write wins, like results)."""
        self._submit(
            [
                (
                    "INSERT OR IGNORE INTO bench_cases "
                    "(spec_id, kind, payload_json, created_at) VALUES (?, ?, ?, ?)",
                    (spec_id, kind, json.dumps(payload, sort_keys=True), time.time()),
                )
            ]
        )

    def gc(self, keep_latest: int) -> int:
        """Keep only the ``keep_latest`` newest result rows; returns #deleted.

        Bench documents are pruned to the same count per kind.  The space is
        reclaimed immediately (``VACUUM``).
        """
        if keep_latest < 0:
            raise ValueError("keep_latest must be non-negative")
        before = len(self)
        self._submit(
            [
                (
                    "DELETE FROM results WHERE spec_id NOT IN ("
                    "SELECT spec_id FROM results "
                    "ORDER BY created_at DESC, spec_id LIMIT ?)",
                    (keep_latest,),
                ),
                # A bench row dies when >= keep_latest newer rows of its kind
                # exist, i.e. the newest keep_latest per kind survive.
                (
                    "DELETE FROM bench_runs WHERE ("
                    "SELECT COUNT(*) FROM bench_runs newer "
                    "WHERE newer.kind = bench_runs.kind "
                    "AND newer.run_id > bench_runs.run_id) >= ?",
                    (keep_latest,),
                ),
            ]
        )
        # VACUUM must run outside a transaction, so it goes in its own batch
        # (the writer commits between batches).
        self._submit([("VACUUM", ())])
        return before - len(self)

    # ------------------------------------------------------------------ reads

    def _read(self, sql: str, params: tuple = ()) -> List[tuple]:
        """Run one query on a short-lived read connection and return the rows.

        WAL mode means reads never block on (or are blocked by) the writer
        thread; flushing first guarantees a caller sees its own completed
        writes.
        """
        self.flush()
        connection = sqlite3.connect(self.path)
        try:
            return connection.execute(sql, params).fetchall()
        finally:
            connection.close()

    @staticmethod
    def _row_to_result(row: tuple) -> StoredResult:
        spec_id, label, spec_toml, fingerprint, metrics_json, wall_time_s, created_at = row
        return StoredResult(
            spec_id=spec_id,
            label=label,
            spec_toml=spec_toml,
            fingerprint=fingerprint,
            metrics=json.loads(metrics_json),
            wall_time_s=wall_time_s,
            created_at=created_at,
        )

    _RESULT_COLUMNS = (
        "spec_id, label, spec_toml, fingerprint, metrics_json, wall_time_s, created_at"
    )

    def __len__(self) -> int:
        ((count,),) = self._read("SELECT COUNT(*) FROM results")
        return int(count)

    def __contains__(self, spec_id: str) -> bool:
        return spec_id in self.ids()

    def ids(self) -> Set[str]:
        """The spec_ids of every stored result."""
        return {spec_id for (spec_id,) in self._read("SELECT spec_id FROM results")}

    def get(self, spec_id: str) -> Optional[StoredResult]:
        """The stored result for one spec_id, or ``None``."""
        rows = self._read(
            f"SELECT {self._RESULT_COLUMNS} FROM results WHERE spec_id = ?", (spec_id,)
        )
        return self._row_to_result(rows[0]) if rows else None

    def results(self) -> List[StoredResult]:
        """Every stored result, oldest first (insertion order)."""
        rows = self._read(
            f"SELECT {self._RESULT_COLUMNS} FROM results ORDER BY created_at, spec_id"
        )
        return [self._row_to_result(row) for row in rows]

    def errors(self) -> List[StoredError]:
        """Every unresolved per-spec failure, oldest first."""
        rows = self._read(
            "SELECT spec_id, label, message, created_at FROM errors "
            "ORDER BY created_at, spec_id"
        )
        return [StoredError(*row) for row in rows]

    def get_error(self, spec_id: str) -> Optional[StoredError]:
        """The unresolved failure for one spec_id, or ``None``."""
        rows = self._read(
            "SELECT spec_id, label, message, created_at FROM errors WHERE spec_id = ?",
            (spec_id,),
        )
        return StoredError(*rows[0]) if rows else None

    def get_bench_case(self, spec_id: str, kind: str) -> Optional[Dict[str, object]]:
        """The stored bench payload for ``(spec_id, kind)``, or ``None``."""
        rows = self._read(
            "SELECT payload_json FROM bench_cases WHERE spec_id = ? AND kind = ?",
            (spec_id, kind),
        )
        return json.loads(rows[0][0]) if rows else None

    def bench_run_counts(self) -> Dict[str, int]:
        """``kind -> stored bench document count``."""
        rows = self._read("SELECT kind, COUNT(*) FROM bench_runs GROUP BY kind ORDER BY kind")
        return {kind: int(count) for kind, count in rows}

    def fingerprint_digest(self, spec_ids: Optional[Iterable[str]] = None) -> str:
        """Order-independent sha256 digest over ``(spec_id, fingerprint)``.

        Restricted to ``spec_ids`` when given (absent ids are skipped), else
        the whole store.  Two stores hold behaviourally identical results
        for a spec set iff the digests match — the identity check behind the
        resume acceptance gate.
        """
        results = self.results()
        if spec_ids is not None:
            wanted = set(spec_ids)
            results = [result for result in results if result.spec_id in wanted]
        digest = hashlib.sha256()
        for result in sorted(results, key=lambda r: r.spec_id):
            digest.update(f"{result.spec_id}:{result.fingerprint}\n".encode("utf-8"))
        return digest.hexdigest()[:16]

    # ----------------------------------------------------------------- export

    def export(self, path: Union[str, Path], format: str = "jsonl") -> int:
        """Write every result to ``path`` (atomically); returns the row count.

        ``jsonl``
            One flat JSON object per line (:data:`EXPORT_FIELDS`).
        ``csv``
            The same rows with a header line.
        ``toml``
            A ``[[experiment]]`` batch of the stored *specs*, replayable via
            ``repro-experiments run`` (metrics are not representable here).
        """
        results = self.results()
        if format == "jsonl":
            text = "".join(
                json.dumps(result.export_row(), sort_keys=True) + "\n" for result in results
            )
        elif format == "csv":
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=EXPORT_FIELDS, lineterminator="\n")
            writer.writeheader()
            for result in results:
                writer.writerow(result.export_row())
            text = buffer.getvalue()
        elif format == "toml":
            from repro.experiments.spec import specs_to_toml

            text = specs_to_toml([result.spec() for result in results]) if results else ""
        else:
            raise ValueError(f"unknown export format {format!r}; use jsonl, csv or toml")
        atomic_write_text(path, text)
        return len(results)
