#!/usr/bin/env python3
"""Explore the energy/latency operating-point space (the Fig 4a study).

Enumerates the dynamic DNN's operating points on the Odroid XU3 — task
mapping (A15 vs A7) x DVFS (17 / 12 frequency levels) x dynamic configuration
(25/50/75/100 %) — prints the corners of each series, reports the Pareto
front, and renders a coarse ASCII scatter of the energy/latency plane so the
Fig 4(a) structure is visible without plotting libraries.

Run with:  python examples/operating_point_exploration.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.dnn import IncrementalTrainer, make_dynamic_cifar_dnn
from repro.perfmodel import CalibratedLatencyModel, EnergyModel
from repro.platforms import odroid_xu3
from repro.rtm import OperatingPointSpace


def ascii_scatter(points, width: int = 72, height: int = 20) -> str:
    """Render operating points as an ASCII scatter (time on x, energy on y)."""
    max_t = max(p.latency_ms for p in points)
    max_e = max(p.energy_mj for p in points)
    grid = [[" "] * width for _ in range(height)]
    markers = {"a15": {0.25: "a", 0.5: "b", 0.75: "c", 1.0: "d"},
               "a7": {0.25: "1", 0.5: "2", 0.75: "3", 1.0: "4"}}
    for point in points:
        x = min(width - 1, int(point.latency_ms / max_t * (width - 1)))
        y = min(height - 1, int(point.energy_mj / max_e * (height - 1)))
        grid[height - 1 - y][x] = markers[point.cluster_name][point.configuration]
    lines = ["".join(row) for row in grid]
    legend = (
        "A15: a=25% b=50% c=75% d=100%   A7: 1=25% 2=50% 3=75% 4=100%   "
        f"(x: 0..{max_t:.0f} ms, y: 0..{max_e:.0f} mJ)"
    )
    return "\n".join(lines + [legend])


def main() -> None:
    trained = IncrementalTrainer().train(make_dynamic_cifar_dnn())
    platform = odroid_xu3()
    space = OperatingPointSpace(trained, platform, EnergyModel(CalibratedLatencyModel()))

    table = space.enumerate_table(clusters=["a15", "a7"], core_counts=[1])
    points = table.points
    print(f"Enumerated {len(points)} operating points "
          f"(2 clusters x 4 configurations x 17/12 frequencies)\n")

    series = defaultdict(list)
    for point in points:
        series[(point.cluster_name, point.configuration)].append(point)
    print(f"{'cluster':>8} {'config':>7} {'fastest':>22} {'most frugal':>24}")
    for (cluster, configuration), entries in sorted(series.items()):
        fastest = min(entries, key=lambda p: p.latency_ms)
        frugal = min(entries, key=lambda p: p.energy_mj)
        print(
            f"{cluster:>8} {round(configuration * 100):>6}% "
            f"{fastest.latency_ms:>9.1f} ms @{fastest.frequency_mhz:>5.0f} MHz "
            f"{frugal.energy_mj:>11.1f} mJ @{frugal.frequency_mhz:>5.0f} MHz"
        )

    front = table.pareto().points
    print(f"\nPareto-optimal points (latency, energy, accuracy): {len(front)} of {len(points)}")
    for point in sorted(front, key=lambda p: p.latency_ms)[:10]:
        print(f"  {point.describe()}")
    if len(front) > 10:
        print(f"  ... and {len(front) - 10} more")

    print("\nEnergy vs classification time (Fig 4a reproduction):")
    print(ascii_scatter(points))


if __name__ == "__main__":
    main()
