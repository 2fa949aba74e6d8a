"""Discrete-event simulation engine.

The engine is a classic calendar queue built on a binary heap.  Every heap
entry is a ``(time, seq, event)`` tuple: ``heapq`` compares the float time
and then the int sequence number in C, and because ``seq`` is unique the
:class:`Event` itself is never compared.  The monotonically increasing
sequence number makes the pop order deterministic when several events share
a timestamp (they fire in scheduling order), which in turn makes whole
simulations reproducible from a seed.

This module is the innermost loop of the simulator — every packet
transmission, arrival, timer and control decision passes through
:meth:`Scheduler.run`.  The hot path allocates one :class:`Event` plus one
key tuple per scheduled callback and does no bookkeeping other than heap
maintenance.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import isfinite
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Scheduler", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Scheduler.at` / :meth:`Scheduler.after` and
    may be cancelled with :meth:`cancel`.  Cancelled events stay in the heap
    but are skipped when popped (lazy deletion), which is O(1) instead of the
    O(n) cost of removing an arbitrary heap element.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__qualname__', self.fn)} {state}>"


class Scheduler:
    """Deterministic discrete-event scheduler.

    Example
    -------
    >>> sched = Scheduler()
    >>> hits = []
    >>> _ = sched.after(1.0, hits.append, "a")
    >>> _ = sched.after(0.5, hits.append, "b")
    >>> sched.run(until=2.0)
    >>> hits
    ['b', 'a']
    >>> sched.now
    2.0
    """

    def __init__(self) -> None:
        #: ``(time, seq, event)`` entries; see the module docstring.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._stopped = False
        self.events_processed = 0
        #: Optional :class:`~repro.obs.bus.EventBus`.  Components reach the
        #: bus through their scheduler reference, so attaching observability
        #: to a whole simulation is one assignment.  ``None`` (the default)
        #: keeps every emit site to a single attribute check.
        self.bus = None
        #: Optional :class:`~repro.obs.profile.Profiler`; when set,
        #: :meth:`run` charges its wall time to the ``"sched.run"`` span.
        self.profiler = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events in the heap (including lazily-cancelled ones)."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        if not isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, ev))
        return ev

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now (``delay >= 0``)."""
        # Pushes directly rather than through at(): this is the hottest
        # scheduling call.  ``now + delay`` with ``delay >= 0`` is never in
        # the past, so only the finiteness check is repeated.
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self._now + delay
        if not isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, ev))
        return ev

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` periodically every ``interval`` seconds.

        The first call is at ``start`` (default: ``interval`` from now).
        The returned :class:`Event` is that first occurrence only:
        cancelling it before it fires stops the whole chain, and cancelling
        it afterwards has no effect.  Once the chain is running it stops
        only when ``fn`` raises ``StopIteration`` or returns a truthy value.
        Any other exception from ``fn`` ends the chain and propagates out of
        :meth:`run` as a :class:`SimulationError`.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")

        def _tick(*a: Any) -> None:
            try:
                stop = fn(*a)
            except StopIteration:
                return
            except SimulationError:
                raise
            except Exception as exc:
                # A periodic callback that raises must not just vanish from
                # the calendar: the chain is dead and, if the caller catches
                # the bare exception at run() level and resumes, the tick
                # would silently never fire again.  Surface it with the
                # scheduled time so the failure is attributable.
                raise SimulationError(
                    f"periodic callback {getattr(fn, '__qualname__', fn)!r} "
                    f"raised at t={self._now:.6f}: {exc!r}"
                ) from exc
            if not stop:
                self.after(interval, _tick, *a)

        return self.at(self._now + interval if start is None else start, _tick, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events in timestamp order until simulated time ``until``.

        On return, :attr:`now` equals ``until`` even if the heap drained
        earlier.  Events scheduled exactly at ``until`` are executed.
        """
        if until < self._now:
            raise SimulationError(f"cannot run backwards to t={until} from t={self._now}")
        heap = self._heap
        self._stopped = False
        pop = heappop
        # Hoisted observability state: the per-event cost of an unobserved
        # run stays at zero extra work, and a bus without a dispatch
        # subscriber costs one boolean test per event.  Subscribing to
        # ``sched.dispatch`` mid-run takes effect on the next run() call.
        bus = self.bus
        dispatch = bus is not None and bus.wants("sched.dispatch")
        prof = self.profiler
        if prof is not None:
            wall0 = perf_counter()
        while heap and not self._stopped:
            time, seq, ev = heap[0]
            if time > until:
                break
            pop(heap)
            if ev.cancelled:
                continue
            self._now = time
            self.events_processed += 1
            if dispatch:
                bus.emit(
                    "sched.dispatch", time, seq=seq,
                    fn=getattr(ev.fn, "__qualname__", repr(ev.fn)),
                )
            ev.fn(*ev.args)
        if not self._stopped:
            self._now = until
        if prof is not None:
            prof.add("sched.run", perf_counter() - wall0)

    def step(self) -> bool:
        """Execute the single next live event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _, ev = heappop(heap)
            if ev.cancelled:
                continue
            self._now = time
            self.events_processed += 1
            ev.fn(*ev.args)
            return True
        return False

    def stop(self) -> None:
        """Abort a :meth:`run` in progress after the current event returns."""
        self._stopped = True
