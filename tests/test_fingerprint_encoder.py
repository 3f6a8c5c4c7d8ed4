"""The trace fingerprint kernel against its one-update-per-record reference.

:func:`~repro.sim.trace.fingerprints` hashes traces a column at a time, in
bounded groups of records that may span several traces;
:func:`reference_fingerprint` below is the per-value encoding it replaced,
kept verbatim as the oracle: it rounds and ``repr``-s every record's tuple
and feeds it to sha256 one record at a time.  The two share no code, so
every digest — the golden ones included — must be equal on any list of
traces, including the values where integer digits could go wrong: both
zeros, the edges of the exponent-free range, ties at the sixth decimal, nan
and inf, float subclasses, ints or bools in float fields, and every kind of
column the kernel refuses and hands to the definition.
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
    fingerprints,
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


def _assert_matches_reference(traces) -> None:
    assert fingerprints(traces) == [reference_fingerprint(trace) for trace in traces]


def _kernel_text(values) -> str:
    """The text the kernel writes for one column, each value in parentheses."""
    head = np.frombuffer(b"(", np.uint8)
    matrix = trace_module._row_matrix(head, [tuple(values)])
    return matrix[matrix != trace_module._PAD].tobytes().decode("utf-8")


def _float_column_refused(values) -> bool:
    return trace_module._float_columns([tuple(values)]) == [None]


# ------------------------------------------------------------------ values

def _neighbours(x: float, ulps: int = 1) -> list:
    values = [x]
    for _ in range(ulps):
        below, above = math.nextafter(values[0], -math.inf), math.nextafter(values[-1], math.inf)
        values = [below, *values, above]
    return values


#: Floats at the edges of the kernel's exponent-free range and of rounding.
BOUNDARY_FLOATS = sorted(
    {
        *(
            sign * v
            for sign in (1.0, -1.0)
            for edge in (1e-4, 1e9)
            for v in _neighbours(edge)
        ),
        # Zeros and subnormals (below the exponent-free range, both signs).
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

#: Exact binary ties at the sixth decimal (odd multiples of 2**-7), and
#: every double within four ulps of the tie 1200000.0000005 (a 20-minute
#: trace's milliseconds), where ``v * 1e6`` can round onto or across the
#: half-integer and only ``"%.6f"`` has the correctly rounded digits.
TIES = [
    0.0078125,
    0.0234375,
    0.9921875,
    1234.5078125,
    999999.9921875,
    *_neighbours(1200000.0000005, ulps=4),
    *_neighbours(1234.5000005, ulps=4),
]


def _expected_text(values) -> str:
    return "".join("(%s)" % repr(round(value, 6)) for value in values)


class TestFloatColumns:
    """Floats at the edges of rounding and of repr's exponent-free range, on
    float columns: each value's text is ``repr(round(v, 6))``."""

    @pytest.mark.parametrize("value", BOUNDARY_FLOATS)
    def test_equals_repr_of_round(self, value):
        for column in ([value], [1.5, value, 1234.125]):
            assert _kernel_text(column) == _expected_text(column)
        trace = SimulationTrace(
            power_samples=[PowerSample(value, 2.5, value, False)], duration_ms=value
        )
        _assert_matches_reference([trace])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, value):
        assert _kernel_text([value, 1.5]) == _expected_text([value, 1.5])
        trace = SimulationTrace(power_samples=[PowerSample(value, 1.0, 2.0, False)])
        _assert_matches_reference([trace])

    def test_multiples_of_five_tenths_of_a_micro_unit(self):
        for scale in (1.0, 1e3, 1e6):
            values = [k * 5e-7 * scale for k in range(-2000, 2001)]
            for value in values:
                assert _kernel_text([value]) == _expected_text([value]), value
            # As whole columns too: the signed one is refused, the one of
            # values from 1e-4 up is taken.
            taken = [value for value in values if value >= 1e-4]
            assert not _float_column_refused(taken)
            for column in (values, taken):
                assert _kernel_text(column) == _expected_text(column)
            trace = SimulationTrace(
                power_samples=[PowerSample(v, v, 1.0, False) for v in taken],
                decisions=[DecisionRecord(v, 1, "tick") for v in values],
            )
            _assert_matches_reference([trace])

    def test_ties_at_the_sixth_decimal(self):
        assert not _float_column_refused(TIES)
        assert _kernel_text(TIES) == _expected_text(TIES)
        for value in TIES:
            assert _kernel_text([value]) == _expected_text([value]), value
        trace = SimulationTrace(
            jobs=[
                JobRecord("a", i, v, v, v, 1.0, v, 0.5, 70.0, "big", 1, v)
                for i, v in enumerate(TIES)
            ],
            duration_ms=1200000.0,
        )
        _assert_matches_reference([trace])


class TestRefusedColumns:
    """A column the kernel cannot prove exact takes the definition itself."""

    def test_mixed_types(self):
        values = [1.5, 2, True, 2.5, "x", None]
        trace = SimulationTrace(faults=[FaultRecord(1.0, "k", "t", v) for v in values])
        _assert_matches_reference([trace])

    def test_float_subclasses(self):
        class Reading(float):
            def __repr__(self) -> str:
                return "Reading(%s)" % float.__repr__(self)

        for values in ([np.float64(1.5), np.float64(2.25)], [Reading(1.5), Reading(2.0)]):
            trace = SimulationTrace(
                power_samples=[PowerSample(v, v, v, False) for v in values],
                duration_ms=values[0],
            )
            _assert_matches_reference([trace])

    def test_negative_floats_and_negative_zero(self):
        for values in ([1.5, -2.25], [0.0, -0.0], [-1e-9, 3.0]):
            assert _float_column_refused(values)
            trace = SimulationTrace(power_samples=[PowerSample(v, 1.0, v, True) for v in values])
            _assert_matches_reference([trace])

    def test_non_finite_floats(self):
        for values in ([1.5, math.nan], [math.inf, 2.0], [-math.inf]):
            assert _float_column_refused(values)
            trace = SimulationTrace(decisions=[DecisionRecord(v, 0, "t") for v in values])
            _assert_matches_reference([trace])

    def test_floats_of_1e9_or_more(self):
        for values in ([1.5, 1e9], [123456789012.5], [1.5, 1e300]):
            assert _float_column_refused(values)
            trace = SimulationTrace(decisions=[DecisionRecord(v, 0, "t") for v in values])
            _assert_matches_reference([trace])

    def test_floats_rounding_into_the_exponent_range(self):
        for values in ([1.5, 5e-5], [1e-6, 2.0], [9.94e-05]):
            assert _float_column_refused(values)
            trace = SimulationTrace(decisions=[DecisionRecord(v, 0, "t") for v in values])
            _assert_matches_reference([trace])
        # Rounding to 0 or up to 1e-4 is exponent-free, and taken.
        taken = [0.0, 4e-7, 9.99996e-05, 1e-4]
        assert not _float_column_refused(taken)
        assert _kernel_text(taken) == _expected_text(taken)

    def test_negative_ints(self):
        jobs = [
            JobRecord("a", index, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 70.0, "big", cores, 1400.0)
            for index, cores in ((0, 1), (-1, 2), (2, -3))
        ]
        _assert_matches_reference([SimulationTrace(jobs=jobs)])

    def test_ints_overflowing_int64(self):
        for values in ([1, 2**63], [2**63 - 1, 0], [10**30]):
            trace = SimulationTrace(decisions=[DecisionRecord(1.0, v, "t") for v in values])
            _assert_matches_reference([trace])

    def test_tuples_holding_non_strings(self):
        """("a", 1), ("a", 1.0) and ("a", True) are equal tuples, three texts."""
        violations = [("a", 1), ("a", 1.0), ("a", True), ("a",), (), ("a", None)]
        jobs = [
            JobRecord("a", i, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 70.0, "big", 1, 1400.0, v)
            for i, v in enumerate(violations)
        ]
        _assert_matches_reference([SimulationTrace(jobs=jobs)])


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
#: Floats the kernel takes, ties and the exponent-free range's edges included.
_TAKEN = st.one_of(
    st.floats(min_value=1e-4, max_value=1e9, exclude_max=True),
    st.floats(min_value=0.0, max_value=2e6).map(lambda v: round(v, 3)),
    st.integers(0, 4_000_000).map(lambda k: k * 5e-7 + 1e-4),
    st.integers(0, 2**36).map(lambda k: k / 128),
    st.sampled_from([v for v in BOUNDARY_FLOATS + TIES if 1e-4 <= v < 1e9] + [0.0]),
)
_VIOLATIONS = st.one_of(
    st.tuples(),
    st.lists(_STRINGS, max_size=3).map(tuple),
    st.lists(_STRINGS, max_size=3),
)


def _traces(numbers: st.SearchStrategy) -> st.SearchStrategy:
    """Traces whose float fields hold ``numbers``."""
    jobs = st.builds(
        JobRecord,
        app_id=_STRINGS,
        job_index=st.integers(0, 10**6),
        release_ms=numbers,
        start_ms=numbers,
        finish_ms=numbers,
        latency_ms=numbers,
        energy_mj=numbers,
        configuration=numbers,
        accuracy_percent=numbers,
        cluster=_STRINGS,
        cores=st.integers(0, 8),
        frequency_mhz=numbers,
        violations=_VIOLATIONS,
        dropped=st.booleans(),
    )
    power = st.builds(
        PowerSample,
        time_ms=numbers,
        power_mw=numbers,
        temperature_c=numbers,
        throttling=st.booleans(),
    )
    decisions = st.builds(
        DecisionRecord,
        time_ms=numbers,
        num_actions=st.integers(0, 50),
        trigger=_STRINGS,
        cache_hits=st.integers(0, 100),
        cache_misses=st.integers(0, 100),
    )
    faults = st.builds(
        FaultRecord,
        time_ms=numbers,
        kind=_STRINGS,
        target=_STRINGS,
        value=numbers,
        detail=_STRINGS,
    )
    return st.one_of(
        st.builds(
            SimulationTrace,
            jobs=st.lists(jobs, max_size=12),
            power_samples=st.lists(power, max_size=12),
            decisions=st.lists(decisions, max_size=6),
            duration_ms=numbers,
            faults=st.lists(faults, max_size=6),
        ),
        st.builds(SimulationTrace, duration_ms=numbers, faults=st.lists(faults, max_size=6)),
    )


#: Mixed fields (refused columns), fields the kernel takes, and empty traces.
_TRACES = st.one_of(_traces(_NUMBERS), _traces(_TAKEN), st.builds(SimulationTrace))


class TestKernelMatchesReference:
    # Rounding an np.float64 near its maximum overflows (on both sides).
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        traces=st.lists(_TRACES, max_size=6),
        chunk=st.sampled_from([1, 2, 3, 5, trace_module._CHUNK_RECORDS]),
    )
    def test_generated_traces(self, traces, chunk):
        """Small groups straddle trace boundaries and split one trace's
        records across groups, as the fleet's thousand traces do at full
        size."""
        with mock.patch.object(trace_module, "_CHUNK_RECORDS", chunk):
            _assert_matches_reference(traces)
            assert [trace.fingerprint() for trace in traces] == fingerprints(traces)

    def test_no_traces(self):
        assert fingerprints([]) == []

    def test_empty_traces(self):
        _assert_matches_reference([SimulationTrace(), SimulationTrace(duration_ms=5.0)])

    def test_both_zeros_in_one_record(self):
        """0.0 and -0.0 are equal but have two texts."""
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            trace = SimulationTrace(
                power_samples=[PowerSample(first, second, first, False)],
                duration_ms=second,
            )
            _assert_matches_reference([trace])

    def test_ints_floats_and_float_subclasses_of_equal_value(self):
        """1 == 1.0 == np.float64(1.0) == True are one dict key, four texts."""
        values = [1.0, 1, np.float64(1.0), True, 2.5, np.float64(2.5), 2.5]
        trace = SimulationTrace(
            power_samples=[PowerSample(v, w, v, False) for v in values for w in values],
        )
        _assert_matches_reference([trace])

    def test_values_repeat_across_full_size_group_boundaries(self):
        """Longer than two groups, split over three traces: equal floats
        land on both sides of each group and trace boundary."""
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
        whole = SimulationTrace(jobs=jobs, power_samples=samples, duration_ms=size * 0.5)
        cut = trace_module._CHUNK_RECORDS - 3
        parts = [
            SimulationTrace(jobs=jobs[:cut], power_samples=samples[cut:]),
            SimulationTrace(),
            SimulationTrace(jobs=jobs[cut:], power_samples=samples[:cut], duration_ms=1.0),
        ]
        _assert_matches_reference([whole, *parts])

    @pytest.mark.parametrize("name", ["steady", "chaos_bursty_transient_crashes"])
    def test_simulated_traces(self, name):
        trace = run(ExperimentSpec(scenario=name, manager="rtm")).trace
        assert trace.jobs and trace.power_samples and trace.decisions
        _assert_matches_reference([trace])
        _assert_matches_reference([trace, SimulationTrace(), trace])


class TestKernelMemory:
    def test_peak_memory_is_bounded_on_a_long_trace(self):
        """Grouped hashing keeps memory O(group), not O(trace).

        On this trace (100k jobs, 10k power samples) one update per record
        peaks at about 0.5 MB, the column kernel at about 3 MB, and joining
        the whole trace's text before hashing at about 55 MB.  The 8 MB
        bound fails the last design: it is the one that measurably raised
        the peak RSS of a process fingerprinting a long replayed trace.
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
