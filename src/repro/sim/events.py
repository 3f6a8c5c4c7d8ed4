"""Event queue of the discrete-event simulator.

Events are (time, priority, sequence, callback) tuples on a binary heap.  The
sequence number makes ordering deterministic for events scheduled at the same
time, and the priority field lets structural events (arrivals, manager
decisions) run before job releases scheduled at the same instant.

Cancellation is lazy: cancelled events stay on the heap and are discarded
when they surface at the top.  A dict of pending sequences keeps ``__len__``
/ ``empty`` O(1) and checks liveness with one dict operation per event —
neither operation scans or sorts the heap.  The heap holds plain tuples
rather than ordered objects, which keeps per-event scheduling cheap across
the millions of events a sweep executes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["EventQueue", "EVENT_PRIORITY_STRUCTURAL", "EVENT_PRIORITY_DEFAULT"]

#: Priority for arrivals/departures/requirement changes and manager epochs.
EVENT_PRIORITY_STRUCTURAL = 0
#: Priority for ordinary job release / completion events.
EVENT_PRIORITY_DEFAULT = 10

_MISSING = object()


class EventQueue:
    """A deterministic time-ordered event queue."""

    __slots__ = ("_heap", "_pending", "_next_sequence", "now_ms")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        # Sequences scheduled but not yet executed or cancelled.
        self._pending: Dict[int, None] = {}
        self._next_sequence = 0
        self.now_ms: float = 0.0

    def schedule(
        self,
        time_ms: float,
        callback: Callable[[], None],
        priority: int = EVENT_PRIORITY_DEFAULT,
    ) -> int:
        """Schedule ``callback`` to run at ``time_ms``.

        Scheduling in the past is clamped to the current time (the event runs
        next).  Returns a handle that can be passed to :meth:`cancel`.
        """
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        if time_ms < self.now_ms:
            time_ms = self.now_ms
        heapq.heappush(self._heap, (time_ms, priority, sequence, callback))
        self._pending[sequence] = None
        return sequence

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled event (it is skipped when popped).

        Cancelling twice, or cancelling an event that already ran, is a
        no-op.
        """
        self._pending.pop(handle, None)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def empty(self) -> bool:
        """True when no live events remain."""
        return not self._pending

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty.

        Lazily discards cancelled events from the heap top — O(log n) per
        cancelled event, amortised over the events that were cancelled, with
        no full-heap sort.
        """
        heap = self._heap
        pending = self._pending
        while heap and heap[0][2] not in pending:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run_until(self, end_time_ms: float) -> int:
        """Run events in order until the queue is empty or ``end_time_ms`` is reached.

        Returns the number of events executed.  ``now_ms`` ends up at
        ``end_time_ms`` (or at the last event time if that is later due to an
        event scheduling exactly at the boundary).
        """
        heap = self._heap
        pending = self._pending
        heappop = heapq.heappop
        missing = _MISSING
        executed = 0
        while heap:
            entry = heap[0]
            if entry[0] > end_time_ms:
                break
            heappop(heap)
            if pending.pop(entry[2], missing) is missing:
                continue  # lazily discard cancelled events
            self.now_ms = entry[0]
            entry[3]()
            executed += 1
        if self.now_ms < end_time_ms:
            self.now_ms = end_time_ms
        return executed
