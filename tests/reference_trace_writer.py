"""A naive arrival-trace writer: the byte-identity oracle of ``TraceWriter``.

:class:`~repro.workloads.traces.TraceWriter` validates and encodes records
on the caller's thread, joins them into chunks and hands the compressing
sink to a writer thread.  This module writes the same format the plain way
and shares nothing with it but the format constants: one
``json.dumps(payload, sort_keys=True) + "\\n"`` line per ``write`` call, on
the caller's thread, straight into ``gzip.GzipFile(filename="", mode="wb",
fileobj=..., mtime=0)`` for a ``.gz`` path or into the plain file
otherwise.  It does not validate, chunk, or commit atomically.
"""

from __future__ import annotations

import gzip
import json
from typing import Dict, Iterable

from repro.workloads.traces import TRACE_FORMAT, TRACE_VERSION

__all__ = ["write_reference_trace"]


def write_reference_trace(
    path,
    *,
    scenario_name: str,
    platform_name: str,
    duration_ms: float,
    applications: Iterable[Dict[str, object]] = (),
    events: Iterable[Dict[str, object]] = (),
) -> None:
    """Write a header, then one line per application record, then per event."""
    with open(path, "wb") as raw:
        gzipped = str(path).lower().endswith(".gz")
        sink = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) if gzipped else raw
        try:

            def write(payload: Dict[str, object]) -> None:
                sink.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))

            write(
                {
                    "format": TRACE_FORMAT,
                    "version": TRACE_VERSION,
                    "scenario": scenario_name,
                    "platform": platform_name,
                    "duration_ms": float(duration_ms),
                }
            )
            for record in applications:
                write({"record": "application", **record})
            for record in events:
                write({"record": "event", **record})
        finally:
            if sink is not raw:
                sink.close()
