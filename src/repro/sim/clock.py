"""Event-driven simulated clock.

The clock holds a priority queue of scheduled callbacks keyed by
``(time, sequence)``.  The sequence number makes event ordering total
and deterministic even when several events share a timestamp: events
scheduled earlier run earlier.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


class SimulationError(Exception):
    """Raised for invalid operations on the simulation clock."""


@dataclass(order=True)
class ScheduledEvent:
    """A callback scheduled to run at a simulated time.

    Instances sort by ``(time, seq)`` so the event queue pops them in
    deterministic order.  The callback and its descriptive name do not
    participate in ordering.
    """

    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark this event so the clock skips it when its time comes."""
        self.cancelled = True


class Clock:
    """A deterministic discrete-event clock.

    Usage::

        clock = Clock()
        clock.call_at(5.0, lambda: print("five"))
        clock.run_until(10.0)

    Time is a float in arbitrary units (the LRM interprets it as
    seconds).  Time never moves backwards; scheduling an event in the
    past raises :class:`SimulationError`.
    """

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulated time.  Read it, never write it: only the
        #: clock's own methods move time.  A plain attribute, not a
        #: property, because every span and span event reads it.
        self.now = float(start)
        self._queue: List[ScheduledEvent] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def pending(self) -> int:
        """Number of scheduled events that have not yet fired."""
        return sum(1 for event in self._queue if not event.cancelled)

    @property
    def processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._processed

    def call_at(
        self, when: float, callback: Callable[[], Any], name: str = ""
    ) -> ScheduledEvent:
        """Schedule *callback* to run at absolute simulated time *when*."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self.now}"
            )
        event = ScheduledEvent(
            time=float(when), seq=next(self._counter), callback=callback, name=name
        )
        heapq.heappush(self._queue, event)
        return event

    def call_after(
        self, delay: float, callback: Callable[[], Any], name: str = ""
    ) -> ScheduledEvent:
        """Schedule *callback* to run *delay* time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, name=name)

    def step(self) -> Optional[ScheduledEvent]:
        """Fire the next pending event and advance time to it.

        Returns the event that fired, or ``None`` when the queue is
        empty.  Cancelled events are discarded without firing.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            self._processed += 1
            return event
        return None

    def run_until(self, deadline: float) -> int:
        """Fire every event scheduled at or before *deadline*.

        Time ends exactly at *deadline* even if the queue drains early.
        Returns the number of events fired.
        """
        if deadline < self.now:
            raise SimulationError(
                f"deadline {deadline} is before current time {self.now}"
            )
        fired = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > deadline:
                break
            self.step()
            fired += 1
        self.now = deadline
        return fired

    def run(self, max_events: int = 1_000_000) -> int:
        """Fire events until the queue drains.

        *max_events* bounds runaway event loops (an event that always
        reschedules itself would otherwise never terminate).
        """
        fired = 0
        while self._queue and fired < max_events:
            if self.step() is not None:
                fired += 1
        if self._queue and fired >= max_events:
            raise SimulationError(f"event budget of {max_events} exhausted")
        return fired

    def advance(self, delta: float) -> int:
        """Advance the clock by *delta*, firing due events along the way."""
        return self.run_until(self.now + delta)
