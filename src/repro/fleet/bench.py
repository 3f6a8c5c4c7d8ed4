"""Fleet-scale benchmark: orchestrated placement vs the static baseline.

Times a large mixed-preset fleet (1000 devices by default) under the
``least_loaded`` orchestrator and under ``static`` hash placement, on the
batched execution backend (shared operating-point/pricing stores), and
verifies the serial/batched fleet-fingerprint identity along the way.  The
committed ``BENCH_fleet.json`` is the perf trajectory; CI re-runs the same
configuration and fails on a >25% wall-time regression.  The document is
written and gated by the shared :func:`~repro.analysis.bench.write_bench_file`
and :func:`~repro.analysis.bench.compare_bench`, like the decision-kernel and
batched-engine benches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.dnn.training import IncrementalTrainer
from repro.dnn.zoo import make_dynamic_cifar_dnn
from repro.fleet.orchestrator import run_fleet
from repro.fleet.spec import FleetSpec

__all__ = [
    "BENCH_KIND_FLEET",
    "DEFAULT_FLEET_BENCH_PATH",
    "FleetBenchResult",
    "run_fleet_bench",
]

#: Where the committed perf trajectory of the fleet orchestrator lives.
DEFAULT_FLEET_BENCH_PATH = "BENCH_fleet.json"

#: ``bench_runs`` kind tag in the results store.
BENCH_KIND_FLEET = "fleet"

#: Device mix of the benchmark fleet: every preset, weighted toward the
#: cheaper boards like a real deployment.
_BENCH_MIX_WEIGHTS = {
    "a13_like": 1,
    "generic_quad": 3,
    "jetson_nano": 2,
    "kirin990_like": 1,
    "odroid_xu3": 3,
}


def bench_device_mix(total: int) -> Dict[str, int]:
    """Deterministic preset → count table summing to ``total`` devices."""
    if total < 1:
        raise ValueError("the benchmark fleet needs at least one device")
    weight_sum = sum(_BENCH_MIX_WEIGHTS.values())
    mix: Dict[str, int] = {}
    assigned = 0
    presets = sorted(_BENCH_MIX_WEIGHTS)
    for preset in presets:
        count = (total * _BENCH_MIX_WEIGHTS[preset]) // weight_sum
        mix[preset] = count
        assigned += count
    # Distribute the rounding remainder in sorted-preset order.
    for index in range(total - assigned):
        mix[presets[index % len(presets)]] += 1
    return {preset: count for preset, count in mix.items() if count > 0}


@dataclass
class FleetBenchResult:
    """Timings and quality of one fleet benchmark run.

    ``fingerprints_identical`` is the correctness payload: the orchestrated
    fleet's fingerprint must match between the serial and batched backends,
    or the timing is meaningless.  ``violation_improvement`` is the
    headline quality number: static minus orchestrated fleet-wide violation
    rate (positive means the orchestrator helped).
    """

    devices: int
    scenario: str
    policy: str
    orchestrated_s: float
    static_s: float
    serial_s: float
    fingerprints_identical: bool
    orchestrated_violation_rate: float
    static_violation_rate: float
    migrations: int
    orchestrated_fingerprint: str
    static_fingerprint: str

    @property
    def violation_improvement(self) -> float:
        return self.static_violation_rate - self.orchestrated_violation_rate

    def as_dict(self) -> Dict[str, object]:
        return {
            "devices": self.devices,
            "scenario": self.scenario,
            "policy": self.policy,
            "orchestrated_s": self.orchestrated_s,
            "static_s": self.static_s,
            "serial_s": self.serial_s,
            "fingerprints_identical": self.fingerprints_identical,
            "orchestrated_violation_rate": round(self.orchestrated_violation_rate, 6),
            "static_violation_rate": round(self.static_violation_rate, 6),
            "violation_improvement": round(self.violation_improvement, 6),
            "migrations": self.migrations,
            "orchestrated_fingerprint": self.orchestrated_fingerprint,
            "static_fingerprint": self.static_fingerprint,
        }


def run_fleet_bench(
    devices: int = 1000,
    scenario: str = "fleet_mixed_platforms",
    policy: str = "least_loaded",
    seed: int = 0,
    check_serial: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetBenchResult:
    """Benchmark one orchestrated fleet against the static baseline.

    The orchestrated and static fleets run on the batched backend (one
    shared-store pass each); with ``check_serial`` the orchestrated fleet is
    re-run serially and its fleet fingerprint compared bit-for-bit.
    """
    mix = bench_device_mix(devices)
    trained = IncrementalTrainer().train(make_dynamic_cifar_dnn())

    def _say(message: str) -> None:
        if progress is not None:
            progress(message)

    orchestrated_spec = FleetSpec(scenario=scenario, policy=policy, seed=seed, devices=mix)
    static_spec = FleetSpec(scenario=scenario, policy="static", seed=seed, devices=mix)

    start = time.perf_counter()
    orchestrated = run_fleet(orchestrated_spec, backend="batched", trained=trained)
    orchestrated_s = time.perf_counter() - start
    _say(f"batched {policy}: {orchestrated_s:.2f} s")

    start = time.perf_counter()
    static = run_fleet(static_spec, backend="batched", trained=trained)
    static_s = time.perf_counter() - start
    _say(f"batched static: {static_s:.2f} s")

    serial_s = 0.0
    identical = True
    if check_serial:
        start = time.perf_counter()
        serial = run_fleet(orchestrated_spec, backend="serial", trained=trained)
        serial_s = time.perf_counter() - start
        identical = serial.fingerprint() == orchestrated.fingerprint()
        _say(f"serial {policy}: {serial_s:.2f} s (identical={identical})")

    return FleetBenchResult(
        devices=devices,
        scenario=scenario,
        policy=policy,
        orchestrated_s=round(orchestrated_s, 4),
        static_s=round(static_s, 4),
        serial_s=round(serial_s, 4),
        fingerprints_identical=identical,
        orchestrated_violation_rate=orchestrated.violation_rate(),
        static_violation_rate=static.violation_rate(),
        migrations=len(orchestrated.migrations),
        orchestrated_fingerprint=orchestrated.fingerprint(),
        static_fingerprint=static.fingerprint(),
    )
