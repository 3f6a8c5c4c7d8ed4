"""The trace fingerprint encoder against its one-update-per-record reference.

``SimulationTrace.fingerprint`` formats each distinct float of a chunk once
and hashes the trace in bounded chunks; :func:`reference_fingerprint` below
is the encoding it replaced, kept verbatim as the oracle: it rounds and
``repr``-s every record's tuple and feeds it to sha256 one record at a time.
The two share no code, so every digest — the golden ones included — must be
equal on any trace, including the values where a formatting shortcut could
go wrong: both zeros, the edges of the fast-format range, ties at the sixth
decimal, nan and inf, float subclasses, and ints or bools in float fields.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, run
from repro.sim import trace as trace_module
from repro.sim.trace import (
    DecisionRecord,
    FaultRecord,
    JobRecord,
    PowerSample,
    SimulationTrace,
    _float_text,
)


def reference_fingerprint(self: SimulationTrace) -> str:
    """The per-value fingerprint encoding, one sha256 update per record."""
    digest = hashlib.sha256()

    def add(*values: object) -> None:
        rounded = tuple(
            round(value, 6) if isinstance(value, float) else value for value in values
        )
        digest.update(repr(rounded).encode("utf-8"))

    add("duration", self.duration_ms)
    for job in self.jobs:
        add(
            "job",
            job.app_id,
            job.job_index,
            job.release_ms,
            job.start_ms,
            job.finish_ms,
            job.latency_ms,
            job.energy_mj,
            job.configuration,
            job.accuracy_percent,
            job.cluster,
            job.cores,
            job.frequency_mhz,
            tuple(job.violations),
            job.dropped,
        )
    for sample in self.power_samples:
        add(
            "power",
            sample.time_ms,
            sample.power_mw,
            sample.temperature_c,
            sample.throttling,
        )
    for decision in self.decisions:
        add("decision", decision.time_ms, decision.num_actions, decision.trigger)
    # Fault records extend the digest only when faults were injected, so
    # every fault-free fingerprint minted before fault injection existed
    # is unchanged.
    for fault in self.faults:
        add("fault", fault.time_ms, fault.kind, fault.target, fault.value)
    return digest.hexdigest()[:16]


# ------------------------------------------------------------------ values

def _neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


#: Floats at the edges of the encoder's fast-format range and of rounding.
BOUNDARY_FLOATS = sorted(
    {
        *(
            sign * v
            for sign in (1.0, -1.0)
            for edge in (1e-4, 1e9)
            for v in _neighbours(edge)
        ),
        # Zeros and subnormals (below the fast range, both signs).
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        1e-310,
        # Just inside the range below 1e-4 that repr prints in exponent form.
        5e-05,
        -2.5e-05,
        1.234567e-05,
        9.9999e-05,
        # Ties at the sixth decimal and the classic binary-tie example.
        5e-07,
        1.5e-06,
        2.5e-06,
        0.0000125,
        0.1234565,
        1.0000005,
        2.675,
        -2.675,
        # Fractions above 1e9, where 6 decimals exceed 15 significant digits.
        1234567890.1234567,
        12345678901.234567,
        1e15 + 0.25,
        123456789.1234565,
        999999999.9999996,
        1e16,
        1.5e17,
        # Plain values.
        1.0,
        100.0,
        33.333333333333336,
    },
    key=lambda v: (math.copysign(1.0, v), abs(v)),
)


class TestFloatText:
    @pytest.mark.parametrize("value", BOUNDARY_FLOATS)
    def test_equals_repr_of_round(self, value):
        assert _float_text(value) == repr(round(value, 6))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, value):
        assert _float_text(value) == repr(round(value, 6))

    def test_multiples_of_five_tenths_of_a_micro_unit(self):
        for k in range(-2000, 2001):
            for scale in (1.0, 1e3, 1e6):
                value = k * 5e-7 * scale
                assert _float_text(value) == repr(round(value, 6)), value


# ------------------------------------------------------------------ traces

_STRINGS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["it's", 'say "hi"', "both ' and \"", "back\\slash", "ünïcødé", "日本語", "", "a\nb"]
    ),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(BOUNDARY_FLOATS),
    st.integers(-4_000_000, 4_000_000).map(lambda k: k * 5e-7),
    st.floats(min_value=0.0, max_value=5e3).map(lambda v: round(v, 3)),
)
#: What a float field can hold: built-in floats, np.float64, ints and bools.
_NUMBERS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(-(10**12), 10**12),
    st.booleans(),
)
_VIOLATIONS = st.one_of(
    st.tuples(),
    st.lists(_STRINGS, max_size=3).map(tuple),
    st.lists(_STRINGS, max_size=3),
)

_JOBS = st.builds(
    JobRecord,
    app_id=_STRINGS,
    job_index=st.integers(0, 10**6),
    release_ms=_NUMBERS,
    start_ms=_NUMBERS,
    finish_ms=_NUMBERS,
    latency_ms=_NUMBERS,
    energy_mj=_NUMBERS,
    configuration=_NUMBERS,
    accuracy_percent=_NUMBERS,
    cluster=_STRINGS,
    cores=st.integers(0, 8),
    frequency_mhz=_NUMBERS,
    violations=_VIOLATIONS,
    dropped=st.booleans(),
)
_POWER = st.builds(
    PowerSample,
    time_ms=_NUMBERS,
    power_mw=_NUMBERS,
    temperature_c=_NUMBERS,
    throttling=st.booleans(),
)
_DECISIONS = st.builds(
    DecisionRecord,
    time_ms=_NUMBERS,
    num_actions=st.integers(0, 50),
    trigger=_STRINGS,
    cache_hits=st.integers(0, 100),
    cache_misses=st.integers(0, 100),
)
_FAULTS = st.builds(
    FaultRecord,
    time_ms=_NUMBERS,
    kind=_STRINGS,
    target=_STRINGS,
    value=_NUMBERS,
    detail=_STRINGS,
)
_TRACES = st.builds(
    SimulationTrace,
    jobs=st.lists(_JOBS, max_size=12),
    power_samples=st.lists(_POWER, max_size=12),
    decisions=st.lists(_DECISIONS, max_size=6),
    duration_ms=_NUMBERS,
    faults=st.lists(_FAULTS, max_size=6),
)


class TestEncoderMatchesReference:
    # Rounding an np.float64 near its maximum overflows (on both sides).
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trace=_TRACES, chunk=st.sampled_from([1, 2, 3, 5, trace_module._CHUNK_RECORDS]))
    def test_generated_traces(self, trace, chunk):
        """Small chunk sizes put chunk boundaries (and memo resets) between
        records holding equal values, as a long trace does at full size."""
        with mock.patch.object(trace_module, "_CHUNK_RECORDS", chunk):
            assert trace.fingerprint() == reference_fingerprint(trace)

    def test_empty_trace(self):
        trace = SimulationTrace()
        assert trace.fingerprint() == reference_fingerprint(trace)

    def test_both_zeros_in_one_record(self):
        """0.0 and -0.0 are one dict key but two texts."""
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            trace = SimulationTrace(
                power_samples=[PowerSample(first, second, first, False)],
                duration_ms=second,
            )
            assert trace.fingerprint() == reference_fingerprint(trace)

    def test_ints_floats_and_float_subclasses_of_equal_value(self):
        """1 == 1.0 == np.float64(1.0) == True are one dict key, four texts."""
        values = [1.0, 1, np.float64(1.0), True, 2.5, np.float64(2.5), 2.5]
        trace = SimulationTrace(
            power_samples=[PowerSample(v, w, v, False) for v in values for w in values],
        )
        assert trace.fingerprint() == reference_fingerprint(trace)

    def test_values_repeat_across_full_size_chunk_boundaries(self):
        """Longer than two chunks: equal floats land on both sides of each
        boundary, after the memo was dropped."""
        size = 2 * trace_module._CHUNK_RECORDS + 7
        jobs = [
            JobRecord(
                app_id=f"app{i % 5}",
                job_index=i,
                release_ms=i * 0.5,
                start_ms=i * 0.5 + 0.125,
                finish_ms=i * 0.5 + 3.3,
                latency_ms=3.175,
                energy_mj=(i % 7) * 0.1 - 0.3,
                configuration=(0.25, 0.5, 1.0, -0.0)[i % 4],
                accuracy_percent=88.21,
                cluster="big",
                cores=(i % 4) + 1,
                frequency_mhz=(1400.0, 2000.0)[i % 2],
                violations=("latency",) if i % 11 == 0 else (),
                dropped=i % 13 == 0,
            )
            for i in range(size)
        ]
        samples = [PowerSample(i * 100.0, 2500.0 + i % 3, 45.25, i % 2 == 0) for i in range(size)]
        trace = SimulationTrace(jobs=jobs, power_samples=samples, duration_ms=size * 0.5)
        assert trace.fingerprint() == reference_fingerprint(trace)

    @pytest.mark.parametrize("name", ["steady", "chaos_bursty_transient_crashes"])
    def test_simulated_traces(self, name):
        trace = run(ExperimentSpec(scenario=name, manager="rtm")).trace
        assert trace.jobs and trace.power_samples and trace.decisions
        assert trace.fingerprint() == reference_fingerprint(trace)


class TestEncoderMemory:
    def test_peak_memory_is_bounded_on_a_long_trace(self):
        """Chunked hashing keeps memory O(chunk), not O(trace).

        On this trace (100k jobs, 10k power samples) one update per record
        peaks at about 0.5 MB, the chunked encoder at about 3 MB, and
        joining the whole trace's text before hashing at about 55 MB.  The
        8 MB bound fails the last design: it is the one that measurably
        raised the peak RSS of a process fingerprinting a long replayed trace.
        """
        jobs = [
            JobRecord(
                app_id=f"app{i % 40}",
                job_index=i,
                release_ms=i * 12.5,
                start_ms=i * 12.5 + 0.75,
                finish_ms=i * 12.5 + 9.125,
                latency_ms=8.375 + (i % 17) * 0.01,
                energy_mj=41.0 + (i % 29) * 0.125,
                configuration=(0.25, 0.5, 0.75, 1.0)[i % 4],
                accuracy_percent=(80.5, 85.25, 88.0, 90.125)[i % 4],
                cluster=("LITTLE", "big")[i % 2],
                cores=(i % 4) + 1,
                frequency_mhz=(1400.0, 2000.0)[i % 2],
                violations=("latency",) if i % 9 == 0 else (),
                dropped=False,
            )
            for i in range(100_000)
        ]
        samples = [
            PowerSample(i * 100.0, 2500.0 + (i % 50) * 3.5, 45.0 + (i % 30) * 0.25, False)
            for i in range(10_000)
        ]
        trace = SimulationTrace(jobs=jobs, power_samples=samples, duration_ms=1.25e6)
        tracemalloc.start()
        try:
            trace.fingerprint()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024, f"fingerprint peaked at {peak / 2**20:.1f} MB"
