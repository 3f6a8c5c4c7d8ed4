"""Execution backends: the ways ``run_many`` can execute a batch.

A backend is a registered function ``backend(specs, workers, spec_timeout,
emit)`` that only executes.  ``run_many`` has already validated the specs,
rejected duplicate labels and checked ``workers`` against the entry's
``parallel`` flag; the backend runs the specs and calls ``emit(index,
outcome, wall_time_s)`` exactly once per spec, the moment that spec
finishes.  ``outcome`` is the spec's
:class:`~repro.experiments.runner.ExperimentResult` or its failure message
(:func:`_format_failure`, alike on every backend).  ``run_many`` owns the one
``emit``: it streams outcomes to the results store, records them by index
across retry rounds and assembles the batch once, in submission order.

``serial``
    One spec after another in this process: the reference every other
    backend's traces must equal bit for bit.
``process``
    A pool of ``workers`` processes, for a handful of long, heterogeneous
    simulations on a multi-core machine.  It survives worker crashes and
    hung workers.
``batched``
    The lock-step engine of :mod:`repro.sim.batched`, which resolves the
    replicas' decision epochs through shared value-keyed stores.  It
    exploits redundancy across replicas, not cores, so on large homogeneous
    sweeps (seeds x scenarios x managers) it beats the pool even on one core.

The serial and process paths run each spec through
:func:`~repro.experiments.runner._run_one_timed`, and the batched path
builds each through the runner's ``build_*`` functions, all looked up on the
runner module at call time: ``_run_one_timed`` is the one seam tests patch
to make a spec fail, hang or kill its worker, and the builders are where the
benchmark's tracer hooks in.
"""

from __future__ import annotations

import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.experiments import runner
from repro.experiments.spec import ExperimentSpec
from repro.registry import Registry

__all__ = ["EXECUTION_BACKEND_REGISTRY"]

#: Truncation bounds for captured tracebacks in failure messages: enough to
#: localise the fault, small enough to live in a store column and a terminal.
_TRACEBACK_LINES = 20
_TRACEBACK_CHARS = 2000

#: ``emit(index, result_or_failure_message, wall_time_s)``.
_Emit = Callable[[int, object, Optional[float]], None]

#: Named execution backends, enumerable like every other component axis.
EXECUTION_BACKEND_REGISTRY: Registry[None] = Registry("execution backend")


def _format_failure(exc: BaseException) -> str:
    """One-line summary plus a truncated traceback.

    The first line stays ``"TypeName: message"`` — the format every earlier
    release used and tests/stores match on — with the formatted traceback
    (bounded to the last ~20 lines / 2000 characters) after the newline.
    Worker-side tracebacks survive the process boundary via the
    ``_RemoteTraceback`` cause that ``ProcessPoolExecutor`` attaches.
    """
    head = f"{type(exc).__name__}: {exc}"
    try:
        formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()
    except Exception:  # noqa: BLE001 - formatting must never mask the error
        formatted = ""
    if not formatted:
        return head
    lines = formatted.splitlines()
    if len(lines) > _TRACEBACK_LINES:
        lines = ["... (traceback truncated)"] + lines[-_TRACEBACK_LINES:]
    body = "\n".join(lines)
    if len(body) > _TRACEBACK_CHARS:
        body = "... (traceback truncated)\n" + body[-_TRACEBACK_CHARS:]
    return head + "\n" + body


@EXECUTION_BACKEND_REGISTRY.register(
    "serial", summary="one spec after another in-process (the reference path)"
)
def serial_backend(
    specs: Sequence[ExperimentSpec], workers: int, spec_timeout: Optional[float], emit: _Emit
) -> None:
    """Specs executed one after another on the caller's thread.

    Nothing can preempt a simulation here, so ``spec_timeout`` is ignored.
    """
    for index, spec in enumerate(specs):
        try:
            result, wall_time_s = runner._run_one_timed(spec)
        except Exception as exc:  # noqa: BLE001 - per-spec isolation
            emit(index, _format_failure(exc), None)
        else:
            emit(index, result, wall_time_s)


#: Initial submission plus one fresh-pool resubmission after a collapse.
_POOL_ROUNDS = 2


@EXECUTION_BACKEND_REGISTRY.register(
    "process",
    summary="fan specs out over a process pool (workers=N, crash-tolerant)",
    parallel=True,
)
def process_backend(
    specs: Sequence[ExperimentSpec], workers: int, spec_timeout: Optional[float], emit: _Emit
) -> None:
    """Specs fanned out over a pool of ``workers`` processes.

    ``workers=1`` degenerates to the serial loop — no executor, and no
    watchdog, since the caller's thread cannot be preempted.

    Crash tolerance: a worker dying (OOM-killed, segfault, ``SIGKILL``)
    collapses the whole :class:`ProcessPoolExecutor` — every in-flight
    future raises ``BrokenProcessPool``.  Rather than losing the batch, the
    backend rebuilds the pool **once** and resubmits only the specs whose
    results were lost; specs still broken after the second round are
    emitted as failures.  The optional ``spec_timeout`` watchdog guards
    against hung workers: if no spec completes within the window, every
    still-pending spec is emitted as a timeout failure and the pool is
    abandoned without waiting for it.
    """
    if workers == 1:
        serial_backend(specs, workers, spec_timeout, emit)
        return
    pending: Iterable[int] = range(len(specs))
    for _ in range(_POOL_ROUNDS):
        lost = _pool_round(specs, pending, workers, spec_timeout, emit)
        if not lost:
            return
        pending = lost
    # The pool collapsed on the resubmission round too: surface the second
    # breakage per spec instead of retrying forever.
    for index, message in lost.items():
        emit(index, message, None)


def _pool_round(
    specs: Sequence[ExperimentSpec],
    indices: Iterable[int],
    workers: int,
    spec_timeout: Optional[float],
    emit: _Emit,
) -> Dict[int, str]:
    """Run one pool round; returns the specs lost to pool collapse (by index).

    Completed results and ordinary failures are emitted as they arrive.
    ``BrokenProcessPool`` casualties are *returned* so the caller can
    resubmit them on a fresh pool; watchdog timeouts are emitted as final
    failures, not resubmission candidates (a spec that hung once would
    likely hang again).
    """
    lost: Dict[int, str] = {}
    executor = ProcessPoolExecutor(max_workers=workers)
    timed_out = False
    try:
        # Futures are keyed by submission *index*: keying by label would
        # collapse specs that share one, silently dropping submissions and
        # misattributing results.
        futures = {
            executor.submit(runner._run_one_timed, specs[index]): index for index in indices
        }
        not_done = set(futures)
        while not_done:
            # FIRST_COMPLETED so each outcome is emitted the moment its worker
            # finishes — not when the whole pool drains — and so the watchdog
            # measures "time since *anything* completed".
            done, not_done = wait(not_done, timeout=spec_timeout, return_when=FIRST_COMPLETED)
            if not done:
                timed_out = True
                message = (
                    f"TimeoutError: no spec completed within "
                    f"spec_timeout={spec_timeout}s; "
                    f"{len(not_done)} spec(s) abandoned"
                )
                for future in not_done:
                    emit(futures[future], message, None)
                break
            for future in done:
                index = futures[future]
                exc = future.exception()
                if exc is None:
                    emit(index, *future.result())
                elif isinstance(exc, BrokenExecutor):
                    # Pool collapse, not a fault of this spec's own code:
                    # candidate for resubmission on a fresh pool.
                    lost[index] = _format_failure(exc)
                else:
                    emit(index, _format_failure(exc), None)
    finally:
        if timed_out:
            # Do not wait for hung workers; reap what can be reaped.
            # (Capture the worker processes first: shutdown() drops the
            # executor's reference to them.)
            processes = list((getattr(executor, "_processes", None) or {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 - best-effort reaping
                    pass
        else:
            executor.shutdown(wait=True)
    return lost


@EXECUTION_BACKEND_REGISTRY.register(
    "batched", summary="lock-step batched engine with shared decision stores (one core)"
)
def batched_backend(
    specs: Sequence[ExperimentSpec], workers: int, spec_timeout: Optional[float], emit: _Emit
) -> None:
    """Specs advanced in lock-step through shared decision machinery.

    Builds every spec's scenario/manager/config in this process, hands them
    to :class:`repro.sim.batched.BatchedEngine`, and emits each replica the
    stride it finishes or fails.  Every spec runs as its own replica.  Wall
    time is not separable per spec inside the lock-step engine, so every
    outcome is emitted with ``None``; the engine runs on the caller's
    thread, so ``spec_timeout`` is ignored.
    """
    from repro.sim.batched import BatchedCase, BatchedEngine

    cases = []
    for index, spec in enumerate(specs):
        try:
            cases.append(
                BatchedCase(
                    label=spec.label,
                    scenario=runner.build_scenario_from_spec(spec),
                    manager=runner.build_manager_from_spec(spec),
                    config=runner.build_simulator_config(spec),
                    fault_plan=runner.build_fault_plan_from_spec(spec),
                )
            )
        except Exception as exc:  # noqa: BLE001 - per-spec isolation
            emit(index, _format_failure(exc), None)

    index_of = {spec.label: index for index, spec in enumerate(specs)}

    def on_outcome(label: str, outcome) -> None:
        index = index_of[label]
        if isinstance(outcome, Exception):
            emit(index, _format_failure(outcome), None)
        else:
            emit(index, runner.ExperimentResult(spec=specs[index], trace=outcome), None)

    BatchedEngine().run(cases, on_outcome)
