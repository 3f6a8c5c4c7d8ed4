"""The repository benchmark: four workloads, each in its own fresh process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads: sweep_grid, device_day, fleet_churn, trace_io (``all``, the
default, runs them one after another).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that reports
per-layer metrics.  Each workload prints a report, then one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep_grid", "device_day", "fleet_churn", "trace_io")

#: The seed the pipeline uses.  Seed 7 is held out: it confirms a claim made
#: on the default seed and is never used while a change is tuned.
DEFAULT_SEED = 1

#: Fresh-process set-ups per run, besides the measuring process's own; their
#: median is ``setup_s``.
SETUP_PROBES = 4

#: Wall-clock limit of one workload's run, worker processes included.
RUN_TIMEOUT_S = 170.0

#: Declared end-to-end metrics (BENCHMARK.json ``end_to_end``), by unit.
END_TO_END = {"setup_s": "s", "call_probe_ratio": "x", "peak_rss_mb": "MB", "model_error_pct": "%"}


def _worker_env() -> dict:
    env = dict(os.environ)
    # One caller per process: keep numpy's BLAS from starting a thread pool,
    # so the only extra thread is the results store's writer.  A fixed hash
    # seed makes set iteration orders, and so their cost, repeat run to run.
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _spawn(args: list, work_dir: Path, deadline: float) -> dict:
    """Run one worker process; returns its JSON result (raises on failure)."""
    spawned_at = time.perf_counter()
    command = [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at),
               "--work-dir", str(work_dir)]
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=_worker_env(),
        timeout=max(deadline - spawned_at, 1.0), check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {completed.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fmt(values) -> str:
    return ", ".join(f"{value:.4g}" for value in values)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result line's object."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        spans = base / "spans" / f"{name}.jsonl.gz"
        main = _spawn(
            common + ["--trace", str(trace)] + (["--spans", str(spans)] if trace else []),
            work_dir,
            deadline,
        )
        setups = [main["setup_s"]]
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(common + ["--mode", "setup"], work_dir, deadline)["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    calls = main["calls"]
    good = [call for call in calls if call["timed_s"] is not None]
    attempted = sum(call["attempted"] for call in calls)
    failed = sum(call["failed"] for call in calls)
    problems = main["problems"]
    correct = not problems and failed == 0 and bool(good)
    measured = [call for call in good if not call["traced"]]
    first = good[0] if good else {"digest": None, "modelled": {}, "work": 0.0}

    print(f"== {name}  seed={seed}  trace={trace}  calls={len(calls)}  "
          f"digest={first['digest']}  correct={correct}")
    for problem in problems:
        print(f"   CHECK FAILED: {problem}")
    diagnostics = " ".join(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
                           for key, value in main["diagnostics"].items())
    print(f"   host: {diagnostics}")

    if trace:
        layers = main.get("layers", {})
        for key, value in layers.items():
            print(f"   {key:34s} {value:.6g}")
        metrics = {key: _metric(value, _layer_unit(key)) for key, value in layers.items()}
    else:
        call_times = [call["timed_s"] for call in measured]
        call_s = statistics.median(call_times) if call_times else 0.0
        ratios = [call["timed_s"] / call["probe_s"] for call in measured if call["probe_s"]]
        probe_s = [call["probe_s"] * 1e3 for call in measured if call["probe_s"]]
        setup_s = statistics.median(setups)
        work = first["work"]
        rate_name = "trace_records_per_s" if main["work_unit"] == "records" else "sim_seconds_per_s"
        rate_unit = "records/s" if main["work_unit"] == "records" else "sim-s/s"
        model = main["model"]
        report = {
            "setup_s": (setup_s, "s", f"median of {len(setups)} set-ups: {_fmt(setups)}"),
            "call_s": (call_s, "s", f"median of {len(call_times)} calls: {_fmt(call_times)}"),
            "call_probe_ratio": (statistics.median(ratios) if ratios else 0.0, "x",
                                 f"call over the gauge loop during it; loop ms {_fmt(probe_s)}"),
            rate_name: (work / call_s if call_s else 0.0, rate_unit,
                        f"{work:g} {main['work_unit']} per call / call_s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB", "peak RSS of the workload process"),
            "errors_pct": (100.0 * failed / attempted if attempted else 100.0, "%",
                           f"{failed} of {attempted} operations failed"),
            **{key: (value, _modelled_unit(key), "modelled, exact at a fixed seed")
               for key, value in first["modelled"].items()},
            "model_error_pct": (model["model_error_pct"], "%",
                                f"latency {model['model_latency_error_pct']:.4g}%, "
                                f"energy {model['model_energy_error_pct']:.4g}% vs Table I"),
        }
        for key, (value, unit, note) in report.items():
            print(f"   {key:24s} {value:<14.6g} {unit:8s} {note}")
        metrics = {key: _metric(report[key][0], unit) for key, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _modelled_unit(key: str) -> str:
    return {"energy_mj_per_job": "mJ", "trace_bytes_per_record": "B"}.get(key, "%")


def _layer_unit(key: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("ns_per_event", "ns"),
                         ("_bytes", "B")):
        if key.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as error:
            print(f"{name}: benchmark failed: {error}", file=sys.stderr)
            return 1
        sys.stdout.flush()
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
