"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts one fresh process per workload run and per set-up probe::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --mode measure|setup --spawned-at T --work-dir DIR [--spans PATH]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by every process on Linux),
so ``setup_s`` runs from process start to the first timed call, minus the
benchmark's own input generation.  The last line of standard output is one
JSON object; nothing is printed before it on success.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise ImportError(f"repro was imported from {repro.__file__}, not from {source}")


def _cpu_times() -> tuple:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = [int(value) for value in stream.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal guest guest_nice; guest
    # time is already counted in user/nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class HostGauge:
    """Samples the host's speed while a call runs.

    On a shared VM the host's speed changes by a third within seconds, and
    a call's wall time follows it.  While entered, a ``SIGALRM`` handler
    times a fixed pure-Python loop (integer arithmetic and dict inserts,
    sharing no code with ``repro``) every ``INTERVAL_S``, between the call's
    bytecodes: ``probe_s`` is the loop's mean time over exactly the call's
    lifetime and ``spent`` the time the samples took, to subtract from the
    call's.
    """

    INTERVAL_S = 0.025

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for value in range(10_000):
            total += value * value
        table = {}
        for value in range(4_000):
            table[value * 7919 & 0xFFFFF] = value
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    @property
    def probe_s(self):
        return statistics.fmean(self.samples) if self.samples else None

    def __enter__(self) -> "HostGauge":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls the alarm interrupts (the store's SQLite I/O).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measure(workload, seconds: float, traced: bool, spans_path=None) -> dict:
    """Call the workload in a closed loop for ``seconds`` and check every call.

    Untraced runs time every call.  Traced runs alternate an untraced call
    with a traced one (at least one of each); the untraced calls give the
    tracing overhead and must produce the same digest as the traced ones.
    """
    import tracing

    clock = time.perf_counter_ns
    calls = []
    layer_samples = []
    problems = []
    steal = total = cpu_ns = wall_ns = 0
    threads = 0
    # The gauge's samples would land inside the traced run's spans.
    gauge = HostGauge() if not traced else None
    loop_start = time.perf_counter()
    index = 0
    while True:
        tracer = tracing.Tracer() if traced and index % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            if index > 0:
                workload.prepare(index)
            threads = max(threads, _threads())
            steal_before, total_before = _cpu_times()
            cpu_before = time.process_time_ns()
            with gauge or contextlib.nullcontext():
                start = clock()
                output = workload.call()
                end = clock()
            cpu_ns += time.process_time_ns() - cpu_before
            steal_after, total_after = _cpu_times()
        except Exception as error:  # noqa: BLE001 - a failed call is a result
            problems.append(f"call {index} raised {type(error).__name__}: {error}")
            calls.append({"timed_s": None, "traced": tracer is not None, "attempted": 1,
                          "failed": 1, "digest": None})
            break
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall_ns += end - start
        steal += steal_after - steal_before
        total += total_after - total_before
        outcome = workload.check(output)
        del output
        problems.extend(f"call {index}: {problem}" for problem in outcome.problems)
        calls.append(
            {
                "timed_s": (end - start) / 1e9 - (gauge.spent if gauge else 0.0),
                "probe_s": gauge.probe_s if gauge else None,
                "traced": tracer is not None,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "digest": outcome.digest,
                "modelled": outcome.modelled,
                "work": outcome.work,
            }
        )
        if tracer is not None:
            layer_samples.append(tracing.layer_metrics(tracer, start, end, outcome.counts))
            if spans_path is not None:
                tracer.dump(Path(spans_path))
            tracer = None
        workload.cleanup()
        index += 1
        # Stop before a call that would overrun the measuring time, so a run
        # takes ``seconds`` whatever the call length.
        elapsed = time.perf_counter() - loop_start
        if elapsed * (index + 1) / index > seconds and (not traced or index >= 2):
            break

    good = [call for call in calls if call["timed_s"] is not None]
    # Determinism: every call of a run, traced or not, must agree exactly.
    for call in good[1:]:
        for key in ("digest", "modelled", "work"):
            if call[key] != good[0][key]:
                problems.append(f"{key} differs between calls: {good[0][key]} vs {call[key]}")
                call["failed"] = call["attempted"]
    for sample in layer_samples[1:]:
        for name in tracing.EXACT_COUNTS:
            if sample[name] != layer_samples[0][name]:
                problems.append(
                    f"count {name} differs between traced calls: "
                    f"{layer_samples[0][name]} vs {sample[name]}"
                )
    result = {
        "calls": calls,
        "problems": problems,
        "diagnostics": {
            "steal_pct": 100.0 * steal / total if total else 0.0,
            "cpu_per_wall": cpu_ns / wall_ns if wall_ns else 0.0,
            "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0],
            "threads_max": threads,
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_samples:
        layers = {
            name: (
                layer_samples[0][name]
                if name in tracing.EXACT_COUNTS
                else statistics.median(sample[name] for sample in layer_samples)
            )
            for name in layer_samples[0]
        }
        untraced = [call["timed_s"] for call in good if not call["traced"]]
        traced_times = [call["timed_s"] for call in good if call["traced"]]
        if untraced and traced_times:
            base = statistics.median(untraced)
            layers["tracing.overhead_pct"] = 100.0 * (statistics.median(traced_times) / base - 1.0)
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("measure", "setup"), default="measure")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import_repro()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    started = time.perf_counter()
    workload.generate_inputs()
    input_s = time.perf_counter() - started
    workload.setup()
    setup_s = time.perf_counter() - args.spawned_at - input_s
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.mode == "measure":
        result.update(measure(workload, args.seconds, bool(args.trace), args.spans))
        result["work_unit"] = workload.work_unit
        result["model"] = workloads.model_error_pct()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
