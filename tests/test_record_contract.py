"""The contract of the per-job records, whatever class implements them.

The simulator builds a :class:`JobRecord` per job, an :class:`InferenceCost`
per started and a :class:`MetricSample` per completed job, a
:class:`PowerSample` per thermal sample, a :class:`DecisionRecord` per
decision epoch and a :class:`FaultRecord` per fault.  They are
``typing.NamedTuple`` classes; this file pins what their callers rely on:
the field order and defaults, immutability, value equality and hashing,
pickling (traces cross process boundaries) and keyword construction.
"""

from __future__ import annotations

import pickle

import pytest

from repro.perfmodel.energy import InferenceCost
from repro.sim.trace import DecisionRecord, FaultRecord, JobRecord, PowerSample
from repro.workloads.requirements import MetricSample

#: (record type, its fields in order with one value each, its defaults).
RECORDS = [
    (
        JobRecord,
        {
            "app_id": "dnn1",
            "job_index": 3,
            "release_ms": 100.0,
            "start_ms": 104.5,
            "finish_ms": 160.25,
            "latency_ms": 55.75,
            "energy_mj": 91.5,
            "configuration": 0.75,
            "accuracy_percent": 68.25,
            "cluster": "a15",
            "cores": 2,
            "frequency_mhz": 1800.0,
            "violations": ("latency_ms",),
            "dropped": False,
        },
        {"violations": (), "dropped": False},
    ),
    (
        PowerSample,
        {"time_ms": 100.0, "power_mw": 2500.5, "temperature_c": 47.25, "throttling": True},
        {},
    ),
    (
        DecisionRecord,
        {
            "time_ms": 500.0,
            "num_actions": 2,
            "trigger": "epoch",
            "cache_hits": 7,
            "cache_misses": 1,
        },
        {"cache_hits": 0, "cache_misses": 0},
    ),
    (
        FaultRecord,
        {
            "time_ms": 250.0,
            "kind": "core_failure",
            "target": "a15",
            "value": 2.0,
            "detail": "two cores",
        },
        {"target": "", "value": 0.0, "detail": ""},
    ),
    (
        InferenceCost,
        {"latency_ms": 40.0, "power_mw": 2000.0, "energy_mj": 80.0},
        {},
    ),
    (
        MetricSample,
        {
            "latency_ms": 40.0,
            "energy_mj": 80.0,
            "power_mw": 2000.0,
            "accuracy_percent": 70.5,
            "fps": 25.0,
        },
        {
            "latency_ms": None,
            "energy_mj": None,
            "power_mw": None,
            "accuracy_percent": None,
            "fps": None,
        },
    ),
]

IDS = [record_type.__name__ for record_type, _, _ in RECORDS]


@pytest.mark.parametrize("record_type, values, defaults", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_and_defaults(self, record_type, values, defaults):
        assert record_type._fields == tuple(values)
        assert record_type._field_defaults == defaults

    def test_keyword_and_positional_construction_agree(self, record_type, values, defaults):
        record = record_type(**values)
        assert record == record_type(*values.values())
        for name, value in values.items():
            assert getattr(record, name) == value
        required = {name: value for name, value in values.items() if name not in defaults}
        for name, value in defaults.items():
            assert getattr(record_type(**required), name) == value

    def test_immutable(self, record_type, values, defaults):
        record = record_type(**values)
        for name in values:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_values_compare_and_hash_equal(self, record_type, values, defaults):
        first, second = record_type(**values), record_type(**values)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        first_field = next(iter(values))
        changed = record_type(**{**values, first_field: 12345.0})
        assert changed != first

    def test_pickle_round_trip(self, record_type, values, defaults):
        record = record_type(**values)
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is record_type
        assert restored == record


class TestRecordProperties:
    def test_job_record(self):
        job = JobRecord("dnn1", 1, 100.0, 104.0, 160.0, 56.0, 90.0, 1.0, 70.0, "a15", 2, 1800.0)
        assert job.met_requirements
        assert job.response_time_ms == 60.0
        assert not job._replace(violations=("fps",)).met_requirements
        assert not job._replace(dropped=True).met_requirements

    def test_inference_cost_fps(self):
        assert InferenceCost(latency_ms=40.0, power_mw=2000.0, energy_mj=80.0).fps == 25.0
