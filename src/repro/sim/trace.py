"""Simulation trace records and summary statistics.

The simulator records every inference job, every power/temperature sample and
every manager decision.  The summaries computed here (violation rates, energy
totals, per-application latency statistics) are what the Fig 2 benchmark and
the ablation study report.

The records are :class:`typing.NamedTuple` classes: immutable, hashable and
picklable like frozen dataclasses, but built in one tuple allocation instead
of one ``object.__setattr__`` per field, and a simulation builds one per job,
sample and decision.  Being tuples, they compare equal to any tuple of the
same values, and the :mod:`dataclasses` helpers do not apply to them.

A trace's fingerprint is sha256 over ``repr`` of each record's values with
floats rounded to 6 decimals.  :func:`fingerprints` computes those bytes a
column at a time for any number of traces: floats and ints become integer
digits in numpy, strings and flags the ``repr`` of each distinct value, and
a column it cannot prove exact takes the per-value definition.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "JobRecord",
    "PowerSample",
    "DecisionRecord",
    "FaultRecord",
    "SimulationTrace",
    "fingerprints",
]


class JobRecord(NamedTuple):
    """One completed (or dropped) inference job.

    Attributes
    ----------
    app_id:
        Application the job belongs to.
    job_index:
        Per-application job counter.
    release_ms / start_ms / finish_ms:
        When the job was released, started and finished.  Dropped jobs have
        ``start_ms == finish_ms == release_ms``.
    latency_ms:
        Execution latency (0 for dropped jobs).
    energy_mj:
        Energy consumed by the job.
    configuration:
        Dynamic-DNN fraction the job ran with.
    accuracy_percent:
        Top-1 accuracy of that configuration.
    cluster / cores / frequency_mhz:
        Where the job ran.
    violations:
        Names of requirement metrics the job violated.
    dropped:
        True when the job never ran (no mapping, or backlog overflow).
    """

    app_id: str
    job_index: int
    release_ms: float
    start_ms: float
    finish_ms: float
    latency_ms: float
    energy_mj: float
    configuration: float
    accuracy_percent: float
    cluster: str
    cores: int
    frequency_mhz: float
    violations: tuple = ()
    dropped: bool = False

    @property
    def met_requirements(self) -> bool:
        """True when the job met every requirement and was not dropped."""
        return not self.violations and not self.dropped

    @property
    def response_time_ms(self) -> float:
        """Release-to-finish time (includes queueing)."""
        return self.finish_ms - self.release_ms


class PowerSample(NamedTuple):
    """One power / temperature sample."""

    time_ms: float
    power_mw: float
    temperature_c: float
    throttling: bool


class DecisionRecord(NamedTuple):
    """One runtime-manager decision epoch.

    ``cache_hits`` / ``cache_misses`` are the *cumulative* operating-point
    cache counters at the time of the decision (0 under the baselines, which
    have no cache), so the per-epoch delta and the end-of-run totals can both
    be read off the decision list.
    """

    time_ms: float
    num_actions: int
    trigger: str
    cache_hits: int = 0
    cache_misses: int = 0


class FaultRecord(NamedTuple):
    """One injected fault, recovery, or job crash/retry/loss.

    Attributes
    ----------
    time_ms:
        When the fault took (or will take) effect.
    kind:
        Fault kind: a timeline-event kind (``core_failure``, ``freq_cap``,
        ``sensor_bias``, ...) or a crash-model kind (``job_crash``,
        ``job_retry``, ``job_lost``).
    target:
        The cluster or application the fault acted on (may be empty for
        SoC-wide faults such as sensor bias).
    value:
        Kind-specific magnitude: cores failed/recovered, cap frequency,
        bias degrees, crash attempt number.
    detail:
        Free-form note for humans (not load-bearing for determinism).
    """

    time_ms: float
    kind: str
    target: str = ""
    value: float = 0.0
    detail: str = ""


@dataclass
class SimulationTrace:
    """Everything recorded during one simulation run."""

    jobs: List[JobRecord] = field(default_factory=list)
    power_samples: List[PowerSample] = field(default_factory=list)
    decisions: List[DecisionRecord] = field(default_factory=list)
    duration_ms: float = 0.0
    faults: List[FaultRecord] = field(default_factory=list)

    # ------------------------------------------------------------ recording

    def record_job(self, job: JobRecord) -> None:
        """Append a job record."""
        self.jobs.append(job)

    def record_power(self, sample: PowerSample) -> None:
        """Append a power sample."""
        self.power_samples.append(sample)

    def record_decision(self, decision: DecisionRecord) -> None:
        """Append a decision record."""
        self.decisions.append(decision)

    def record_fault(self, fault: FaultRecord) -> None:
        """Append a fault record."""
        self.faults.append(fault)

    # -------------------------------------------------------------- queries

    def jobs_for(self, app_id: str) -> List[JobRecord]:
        """All jobs of one application."""
        return [job for job in self.jobs if job.app_id == app_id]

    def app_ids(self) -> List[str]:
        """Applications that produced at least one job."""
        return sorted({job.app_id for job in self.jobs})

    def completed_jobs(self, app_id: Optional[str] = None) -> List[JobRecord]:
        """Jobs that actually ran (not dropped)."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        return [job for job in jobs if not job.dropped]

    def violation_count(self, app_id: Optional[str] = None) -> int:
        """Number of jobs that violated at least one requirement or were dropped."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        return sum(1 for job in jobs if not job.met_requirements)

    def violation_rate(self, app_id: Optional[str] = None) -> float:
        """Fraction of jobs that violated requirements (0 when no jobs ran)."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        if not jobs:
            return 0.0
        return self.violation_count(app_id) / len(jobs)

    def total_energy_mj(self, app_id: Optional[str] = None) -> float:
        """Total inference energy."""
        jobs = self.completed_jobs(app_id)
        return float(sum(job.energy_mj for job in jobs))

    def mean_latency_ms(self, app_id: Optional[str] = None) -> float:
        """Mean latency over completed jobs (0 when none completed)."""
        jobs = self.completed_jobs(app_id)
        if not jobs:
            return 0.0
        return float(np.mean([job.latency_ms for job in jobs]))

    def mean_accuracy_percent(self, app_id: Optional[str] = None) -> float:
        """Mean configuration accuracy over completed jobs."""
        jobs = self.completed_jobs(app_id)
        if not jobs:
            return 0.0
        return float(np.mean([job.accuracy_percent for job in jobs]))

    def mean_configuration(self, app_id: Optional[str] = None) -> float:
        """Mean dynamic-DNN fraction over completed jobs."""
        jobs = self.completed_jobs(app_id)
        if not jobs:
            return 0.0
        return float(np.mean([job.configuration for job in jobs]))

    def delivered_fps(self, app_id: str) -> float:
        """Completed jobs per second for one application."""
        jobs = self.completed_jobs(app_id)
        if not jobs or self.duration_ms <= 0:
            return 0.0
        return len(jobs) / (self.duration_ms / 1000.0)

    def peak_temperature_c(self) -> float:
        """Highest sampled temperature."""
        if not self.power_samples:
            return 0.0
        return max(sample.temperature_c for sample in self.power_samples)

    def mean_power_mw(self) -> float:
        """Mean sampled power."""
        if not self.power_samples:
            return 0.0
        return float(np.mean([sample.power_mw for sample in self.power_samples]))

    def throttling_fraction(self) -> float:
        """Fraction of samples spent thermally throttled."""
        if not self.power_samples:
            return 0.0
        return sum(1 for s in self.power_samples if s.throttling) / len(self.power_samples)

    def faults_of_kind(self, kind: str) -> List[FaultRecord]:
        """All fault records of one kind."""
        return [fault for fault in self.faults if fault.kind == kind]

    def crashed_jobs(self, app_id: Optional[str] = None) -> List[JobRecord]:
        """Jobs dropped because every retry attempt crashed."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        return [job for job in jobs if job.dropped and "crashed" in job.violations]

    def cache_counters(self) -> Dict[str, int]:
        """Cumulative operating-point cache counters at the end of the run.

        Read from the last decision record (counters are cumulative), so they
        survive pickling across sweep worker processes.  All-zero when the
        manager has no cache (the baselines).
        """
        if not self.decisions:
            return {"hits": 0, "misses": 0}
        last = self.decisions[-1]
        return {"hits": last.cache_hits, "misses": last.cache_misses}

    # ---------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """Compact deterministic digest of the behavioural content of the trace.

        Covers the duration, then every job, power sample, decision (time,
        action count and trigger) and fault (time, kind, target and value).
        Cache counters are deliberately excluded: caching must not change
        behaviour, and the cache-parity tests assert exactly that by
        comparing fingerprints of cached runs with runs whose manager
        memoises nothing.  Floats are rounded to 6 decimals so last-ulp libm
        differences across platforms cannot flip the digest.

        The hashed bytes are, record after record, ``repr`` of the record's
        tuple of values with every float ``v`` replaced by ``round(v, 6)`` (a
        job's violations are one nested tuple); see :func:`fingerprints`,
        which this calls with the one trace, for how they are computed.
        """
        return fingerprints([self])[0]

    # -------------------------------------------------------------- summary

    def summary(self) -> Dict[str, object]:
        """Headline statistics of the run."""
        per_app = {}
        for app_id in self.app_ids():
            per_app[app_id] = {
                "jobs": len(self.jobs_for(app_id)),
                "completed": len(self.completed_jobs(app_id)),
                "violation_rate": round(self.violation_rate(app_id), 4),
                "mean_latency_ms": round(self.mean_latency_ms(app_id), 2),
                "mean_accuracy_percent": round(self.mean_accuracy_percent(app_id), 2),
                "mean_configuration": round(self.mean_configuration(app_id), 3),
                "delivered_fps": round(self.delivered_fps(app_id), 2),
                "energy_mj": round(self.total_energy_mj(app_id), 1),
            }
        return {
            "duration_ms": self.duration_ms,
            "total_jobs": len(self.jobs),
            "total_violations": self.violation_count(),
            "violation_rate": round(self.violation_rate(), 4),
            "total_energy_mj": round(self.total_energy_mj(), 1),
            "mean_power_mw": round(self.mean_power_mw(), 1),
            "peak_temperature_c": round(self.peak_temperature_c(), 1),
            "throttling_fraction": round(self.throttling_fraction(), 4),
            "decisions": len(self.decisions),
            "faults": len(self.faults),
            "cache": self.cache_counters(),
            "per_app": per_app,
        }


# ------------------------------------------------------------ fingerprints

#: Records per group in :func:`fingerprints`: large enough to amortise
#: numpy's per-call cost, small enough that any number of traces of any
#: length is hashed in a few MB.
_CHUNK_RECORDS = 4096

#: Each row kind in hashed order: its name, how many leading fields of a
#: record are hashed, and a trace's records of that kind.  Fault rows extend
#: the digest only when faults were injected, so every fault-free
#: fingerprint minted before fault injection existed is unchanged.
_KINDS = (
    ("duration", 1, lambda trace: ((trace.duration_ms,),)),
    ("job", 14, attrgetter("jobs")),
    ("power", 4, attrgetter("power_samples")),
    ("decision", 3, attrgetter("decisions")),
    ("fault", 4, attrgetter("faults")),
)
_VIOLATIONS = JobRecord._fields.index("violations")

#: Padding in the row matrices, dropped when they are compacted into text:
#: UTF-8 never encodes a byte 0xFF, so no text contains it.
_PAD = 0xFF


def _triples(text_of) -> np.ndarray:
    """(1000, 3) bytes whose row ``k`` is ``text_of("%03d" % k)``, blanks padded."""
    text = "".join(text_of("%03d" % k) for k in range(1000)).encode("ascii")
    return np.frombuffer(text.replace(b" ", bytes([_PAD])), np.uint8).reshape(1000, 3)


_DIGITS = _triples(str)
#: Integer triples, indexed by ``k + 1000`` when digits precede the triple
#: and by ``k`` when none do, which pads its leading zeros; the units triple
#: keeps its last digit.
_LEADING = np.concatenate((_triples(lambda t: t.lstrip("0").rjust(3)), _DIGITS))
_UNITS = np.concatenate((_triples(lambda t: (t.lstrip("0") or "0").rjust(3)), _DIGITS))
#: Fraction triples: the first three decimals, indexed by ``k + 1000`` when
#: digits follow them and by ``k`` when none do, which pads their trailing
#: zeros but keeps the first; the last three with every trailing zero padded.
_TENTHS = np.concatenate((_triples(lambda t: (t.rstrip("0") or "0").ljust(3)), _DIGITS))
_MILLIONTHS = _triples(lambda t: t.rstrip("0").ljust(3))

_POINT = np.frombuffer(b".", np.uint8)
_COMMA = np.frombuffer(b", ", np.uint8)
_CLOSE = np.frombuffer(b")", np.uint8)


def _value_text(value: object) -> str:
    """The definition of a value's hashed text."""
    return repr(round(value, 6) if isinstance(value, float) else value)


def _integer_digits(numbers: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative int64 ``numbers`` (any shape), right
    aligned in whole triples, leading zeros padding."""
    groups = (len(str(int(numbers.max()))) + 2) // 3
    triples = []  # least significant first
    rest = numbers
    for _ in range(groups - 1):
        high = rest // 1000
        triples.append(rest - 1000 * high)
        rest = high
    triples.append(rest)
    digits = [np.take(_LEADING if groups > 1 else _UNITS, triples[-1], axis=0)]
    for k in range(groups - 2, -1, -1):
        preceded = numbers >= 1000 ** (k + 1)
        digits.append(np.take(_UNITS if k == 0 else _LEADING, triples[k] + 1000 * preceded, axis=0))
    return np.concatenate(digits, axis=-1) if groups > 1 else digits[0]


def _micro_units(columns: List[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """The float columns taken, and their values' correctly rounded micro-units.

    A column is taken when every value has its sign bit clear and is below
    1e9 (so finite).  ``rint(v * 1e6)`` is the correctly rounded ``n`` that
    ``round(v, 6)`` and ``"%.6f" % v`` take unless ``v * 1e6`` lies within
    its rounding error of a half-integer, bounded here by the
    ``np.spacing`` of the largest scaled value; those few take ``n`` from
    ``"%.6f" % v``.
    """
    values = np.array(columns, dtype=np.float64)
    taken = np.flatnonzero(np.all((values < 1e9) & ~np.signbit(values), axis=1))
    scaled = values[taken] * 1e6
    micro = np.rint(scaled)
    near_tie = np.abs(scaled - micro) >= 0.5 - np.spacing(scaled.max(initial=0.0))
    micro = micro.astype(np.int64)
    for row, index in zip(*np.nonzero(near_tie)):
        micro[row, index] = int(("%.6f" % columns[taken[row]][index]).replace(".", ""))
    return taken, micro


def _float_columns(columns: List[tuple]) -> list:
    """Pieces of columns of built-in floats, ``None`` for a column refused.

    For a column of :func:`_micro_units` whose values round to 0 or to at
    least 1e-4, ``repr(round(v, 6))`` is the digits of the micro-units
    ``n``: the integer digits, a point and the fraction digits without
    trailing zeros, one digit kept on each side.  ``n`` has at most 15
    significant digits (``n = 10**15`` is ``1e9`` itself), and such a
    decimal is what ``repr`` prints back for the double it parses to;
    ``repr`` switches to exponents only below 1e-4.
    """
    pieces: list = [None] * len(columns)
    taken, micro = _micro_units(columns)
    if not len(taken):
        return pieces
    exponent = np.any((micro > 0) & (micro < 100), axis=1)
    whole = micro // 1000000
    fraction = micro - 1000000 * whole
    tenths = fraction // 1000
    rest = fraction - 1000 * tenths
    integer = _integer_digits(whole)
    decimals = np.take(_TENTHS, tenths + 1000 * (rest > 0), axis=0)
    if rest.any():
        decimals = np.concatenate((decimals, np.take(_MILLIONTHS, rest, axis=0)), axis=-1)
    digits = [len(str(top)) for top in whole.max(axis=1).tolist()]
    for row, column in enumerate(taken.tolist()):
        if not exponent[row]:
            pieces[column] = [integer[row, :, -digits[row]:], _POINT, decimals[row]]
    return pieces


def _int_column(values: tuple) -> Optional[list]:
    """Pieces of a column of built-in ints, ``None`` unless all fit int64 and
    none is negative."""
    top = max(values)
    if min(values) < 0 or top >= 2**63:
        return None
    return [_integer_digits(np.array(values, dtype=np.int64))[:, -len(str(top)):]]


def _text_column(values: Sequence[object], text=repr) -> list:
    """Pieces of the UTF-8 ``text`` of each value, one call per distinct
    value; equal values must have equal texts."""
    distinct = dict.fromkeys(values)
    encoded = [text(value).encode("utf-8") for value in distinct]
    width = max(1, *map(len, encoded))
    pad = bytes([_PAD])
    table = np.frombuffer(b"".join(e.ljust(width, pad) for e in encoded), np.uint8)
    table = table.reshape(len(encoded), width)
    if len(encoded) == 1:
        return [table[0]]
    index = dict(zip(distinct, range(len(encoded))))
    rows = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    return [np.take(table, rows, axis=0)]


def _column_pieces(columns: List[tuple]) -> List[list]:
    """Each column's pieces: padded bytes, one row per record."""
    pieces: list = [None] * len(columns)
    floats = []
    for index, values in enumerate(columns):
        kinds = set(map(type, values))
        if kinds == {float}:
            floats.append(index)
        elif kinds == {int}:
            pieces[index] = _int_column(values)
        elif kinds == {str} or kinds == {bool} or (
            kinds == {tuple} and set(map(type, chain.from_iterable(values))) <= {str}
        ):
            pieces[index] = _text_column(values)
    if floats:
        for index, floated in zip(floats, _float_columns([columns[i] for i in floats])):
            pieces[index] = floated
    # A refused column is keyed by text: equal values can have other texts
    # (1, 1.0 and True; 0.0 and -0.0).
    return [
        _text_column(list(map(_value_text, values)), str) if piece is None else piece
        for values, piece in zip(columns, pieces)
    ]


def _row_matrix(head: np.ndarray, columns: List[tuple]) -> np.ndarray:
    """The padded bytes of rows ``head | col | ", " | ... | col | ")"``."""
    layout = [head]
    for index, pieces in enumerate(_column_pieces(columns)):
        if index:
            layout.append(_COMMA)
        layout.extend(pieces)
    layout.append(_CLOSE)
    widths = [piece.shape[-1] for piece in layout]
    matrix = np.empty((len(columns[0]), sum(widths)), np.uint8)
    at = 0
    for piece, width in zip(layout, widths):
        matrix[:, at:at + width] = piece
        at += width
    return matrix


def _hash_group(head: np.ndarray, columns: List[tuple], runs: list) -> None:
    """Hash a group's rows into the digests of the traces they belong to;
    ``runs`` holds each of those traces' ``(digest, rows)``, in order."""
    matrix = _row_matrix(head, columns)
    kept = matrix != _PAD
    text = memoryview(matrix[kept])
    if len(runs) == 1:
        runs[0][0].update(text)
        return
    ends = np.cumsum(kept.sum(axis=1)).tolist()  # byte offset after each row
    row = start = 0
    for digest, rows in runs:
        row += rows
        end = ends[row - 1]
        digest.update(text[start:end])
        start = end


def fingerprints(traces: Sequence[SimulationTrace]) -> List[str]:
    """:meth:`SimulationTrace.fingerprint` of each trace, in one pass.

    Each trace's digest is sha256 over its rows: its duration, then its
    jobs, power samples, decisions and faults, each row the text
    ``repr((kind, *values))`` with every float ``v`` as ``round(v, 6)``.
    Each kind's records of all the traces run through a column kernel in
    groups of at most ``_CHUNK_RECORDS``: a group is transposed into
    columns, each column becomes padded bytes, one row per record (floats
    and ints as integer digits in numpy, strings, bools and tuples of
    strings as the ``repr`` of each distinct value), the row matrix is
    compacted into text and each trace hashes its own byte range of it.  A
    column the kernel cannot prove exact (mixed types, float subclasses,
    negative or non-finite floats, floats of 1e9 or more or rounding into
    ``(0, 1e-4)``, negative or int64-overflowing ints, tuples holding
    non-strings) takes the definition itself for each value.  Memory stays
    bounded by the group, and many short traces share numpy's per-call cost.
    """
    digests = [hashlib.sha256() for _ in traces]
    for kind, width, records_of in _KINDS:
        head = np.frombuffer(("('%s', " % kind).encode("ascii"), np.uint8)
        per_trace = [records_of(trace) for trace in traces]
        owners = iter([(digest, len(rows)) for digest, rows in zip(digests, per_trace) if rows])
        records = chain.from_iterable(per_trace)
        digest, left = None, 0  # the trace being hashed, and its rows not yet hashed
        for group in iter(lambda: list(islice(records, _CHUNK_RECORDS)), []):
            runs = []
            unassigned = len(group)
            while unassigned:
                if not left:
                    digest, left = next(owners)
                rows = min(left, unassigned)
                runs.append((digest, rows))
                left -= rows
                unassigned -= rows
            columns = list(islice(zip(*group), width))
            if kind == "job":
                columns[_VIOLATIONS] = tuple(map(tuple, columns[_VIOLATIONS]))
            _hash_group(head, columns, runs)
    return [digest.hexdigest()[:16] for digest in digests]
