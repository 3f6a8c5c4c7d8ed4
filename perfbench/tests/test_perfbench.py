"""Tests of the benchmark itself, at reduced sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.

* Cross-path identity: every workload's program output is the same on each
  execution path it could take (serial vs batched, ``run`` vs a one-replica
  batch, both fleet backends, traced vs untraced).
* Determinism: at one seed every modelled metric, digest and exact per-layer
  count repeats exactly.
* The benchmark refuses to report without the program next to it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_repro()

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import runner  # noqa: E402

#: Reduced sizes: every family and manager, but one seed, a short day, a
#: few dozen devices and a short trace.
SMALL = {
    "sweep_grid": {"seeds_per_family": 1},
    "device_day": {"duration_s": 90.0},
    "fleet_churn": {"devices": 30},
    "trace_io": {"arrivals": 2_000},
}


def make(name: str, work_dir: Path, seed: int = 3, **overrides):
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, work_dir, **{**SMALL[name], **overrides})
    workload.generate_inputs()
    workload.setup()
    return workload


def checked_digest(workload) -> str:
    outcome = workload.check(workload.call())
    assert outcome.problems == [] and outcome.failed == 0
    workload.cleanup()
    return outcome.digest


def test_sweep_grid_serial_and_batched_backends_agree(tmp_path):
    batched = make("sweep_grid", tmp_path / "batched")
    serial = make("sweep_grid", tmp_path / "serial")
    serial.backend = "serial"
    assert len(batched.specs) == len(workloads.SWEEP_FAMILIES) * len(workloads.SWEEP_MANAGERS)
    assert checked_digest(serial) == checked_digest(batched)


def test_device_day_run_equals_a_one_replica_batch(tmp_path):
    workload = make("device_day", tmp_path)
    single = workload.call()
    batch = runner.run_many([workload.spec], backend="batched")
    assert batch.errors == {}
    assert batch.results[workload.spec.label].trace.fingerprint() == single.trace.fingerprint()
    assert workload.check(single).problems == []


def test_fleet_churn_backends_agree(tmp_path):
    serial = make("fleet_churn", tmp_path, backend="serial")
    batched = make("fleet_churn", tmp_path, backend="batched")
    assert checked_digest(serial) == checked_digest(batched)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_gauged_calls_match_plain_ones(tmp_path, name):
    result = worker.measure(make(name, tmp_path / "traced"), seconds=0.0, traced=True)
    assert result["problems"] == []
    calls = result["calls"]
    assert [call["traced"] for call in calls] == [False, True]
    assert calls[0]["digest"] == calls[1]["digest"]
    layers = result["layers"]
    assert layers["tracing.coverage_pct"] >= 90.0
    assert "tracing.overhead_pct" in layers
    # Untraced runs sample the host gauge during the call.
    gauged = worker.measure(make(name, tmp_path / "gauged"), seconds=0.0, traced=False)
    assert gauged["problems"] == []
    assert gauged["calls"][0]["digest"] == calls[0]["digest"]
    assert gauged["calls"][0]["probe_s"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_fixed_seed_repeats_every_exact_metric(tmp_path, name):
    first = worker.measure(make(name, tmp_path / "a"), seconds=0.0, traced=True)
    second = worker.measure(make(name, tmp_path / "b"), seconds=0.0, traced=True)
    for key in ("digest", "modelled", "work"):
        assert first["calls"][0][key] == second["calls"][0][key]
    for count in tracing.EXACT_COUNTS:
        assert first["layers"][count] == second["layers"][count], count


def test_layer_roles_of_the_small_workloads(tmp_path):
    layers = {
        name: worker.measure(make(name, tmp_path / name), seconds=0.0, traced=True)["layers"]
        for name in SMALL
    }
    assert layers["device_day"]["store.put_ms"] == 0
    assert layers["sweep_grid"]["store.rows"] == layers["sweep_grid"]["experiments.specs"]
    assert layers["trace_io"]["workloads.share_pct"] > 80.0
    assert layers["trace_io"]["sim.events"] == 0
    for name, metrics in layers.items():
        fleet_work = metrics["fleet.placements"] + metrics["fleet.advance_ms"]
        assert (fleet_work > 0) == (name == "fleet_churn"), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "trace_io", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
