"""Unit tests for the discrete-event scheduler."""

import bisect
import math
import random

import pytest

from repro.simnet.engine import Event, Scheduler, SimulationError


def test_initial_state():
    s = Scheduler()
    assert s.now == 0.0
    assert s.pending == 0
    assert s.peek_time() is None


def test_events_fire_in_time_order():
    s = Scheduler()
    hits = []
    s.after(2.0, hits.append, "c")
    s.after(1.0, hits.append, "b")
    s.after(0.5, hits.append, "a")
    s.run(until=3.0)
    assert hits == ["a", "b", "c"]


def test_ties_broken_by_schedule_order():
    s = Scheduler()
    hits = []
    for tag in "abcde":
        s.at(1.0, hits.append, tag)
    s.run(until=1.0)
    assert hits == list("abcde")


def test_run_advances_now_to_until():
    s = Scheduler()
    s.after(0.25, lambda: None)
    s.run(until=10.0)
    assert s.now == 10.0


def test_events_beyond_until_not_fired():
    s = Scheduler()
    hits = []
    s.at(5.0, hits.append, "late")
    s.run(until=4.999)
    assert hits == []
    s.run(until=5.0)
    assert hits == ["late"]


def test_event_exactly_at_until_fires():
    s = Scheduler()
    hits = []
    s.at(2.0, hits.append, "x")
    s.run(until=2.0)
    assert hits == ["x"]


def test_cannot_schedule_in_past():
    s = Scheduler()
    s.after(1.0, lambda: None)
    s.run(until=5.0)
    with pytest.raises(SimulationError):
        s.at(4.0, lambda: None)


def test_cannot_run_backwards():
    s = Scheduler()
    s.run(until=5.0)
    with pytest.raises(SimulationError):
        s.run(until=1.0)


def test_negative_delay_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.after(-0.1, lambda: None)


def test_non_finite_time_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.at(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        s.at(float("nan"), lambda: None)


def test_cancelled_event_does_not_fire():
    s = Scheduler()
    hits = []
    ev = s.after(1.0, hits.append, "x")
    ev.cancel()
    s.run(until=2.0)
    assert hits == []
    assert s.events_processed == 0


def test_cancel_is_idempotent():
    s = Scheduler()
    ev = s.after(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    s.run(until=2.0)


def test_events_scheduled_during_run_fire():
    s = Scheduler()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            s.after(0.1, chain, n + 1)

    s.after(0.0, chain, 0)
    s.run(until=1.0)
    assert hits == [0, 1, 2, 3]


def test_now_is_event_time_during_callback():
    s = Scheduler()
    seen = []
    s.at(1.25, lambda: seen.append(s.now))
    s.run(until=2.0)
    assert seen == [1.25]


def test_step_executes_single_event():
    s = Scheduler()
    hits = []
    s.after(1.0, hits.append, "a")
    s.after(2.0, hits.append, "b")
    assert s.step() is True
    assert hits == ["a"]
    assert s.now == 1.0
    assert s.step() is True
    assert s.step() is False


def test_stop_aborts_run():
    s = Scheduler()
    hits = []
    s.after(1.0, hits.append, "a")
    s.after(1.5, s.stop)
    s.after(2.0, hits.append, "b")
    s.run(until=10.0)
    assert hits == ["a"]
    assert s.now == 1.5
    # resume: remaining event still pending
    s.run(until=10.0)
    assert hits == ["a", "b"]


def test_every_repeats_until_stopiteration():
    s = Scheduler()
    hits = []

    def tick():
        hits.append(s.now)
        if len(hits) >= 3:
            raise StopIteration

    s.every(1.0, tick)
    s.run(until=10.0)
    assert hits == [1.0, 2.0, 3.0]


def test_every_stops_on_truthy_return():
    s = Scheduler()
    hits = []

    def tick():
        hits.append(s.now)
        return len(hits) >= 2

    s.every(0.5, tick)
    s.run(until=10.0)
    assert hits == [0.5, 1.0]


def test_every_with_explicit_start():
    s = Scheduler()
    hits = []

    def tick():
        hits.append(s.now)
        if len(hits) >= 2:
            raise StopIteration

    s.every(1.0, tick, start=0.25)
    s.run(until=5.0)
    assert hits == [0.25, 1.25]


def test_every_rejects_nonpositive_interval():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.every(0.0, lambda: None)


def test_every_first_event_cancellable():
    s = Scheduler()
    hits = []
    ev = s.every(1.0, hits.append, "x")
    ev.cancel()
    s.run(until=5.0)
    assert hits == []


def test_events_processed_counter():
    s = Scheduler()
    for _ in range(5):
        s.after(1.0, lambda: None)
    s.run(until=2.0)
    assert s.events_processed == 5


def test_peek_time_skips_cancelled():
    s = Scheduler()
    ev = s.after(1.0, lambda: None)
    s.after(2.0, lambda: None)
    ev.cancel()
    assert s.peek_time() == 2.0

def test_every_raising_callback_surfaces_simulation_error():
    s = Scheduler()

    def tick():
        if s.now >= 3.0:
            raise RuntimeError("boom")

    s.every(1.0, tick)
    with pytest.raises(SimulationError, match=r"tick.*t=3\.0.*boom"):
        s.run(until=10.0)
    # The failure is surfaced, not swallowed: time stopped at the bad tick.
    assert s.now == 3.0


def test_every_raising_callback_chains_original_exception():
    s = Scheduler()

    def tick():
        raise KeyError("missing")

    s.every(2.0, tick)
    with pytest.raises(SimulationError) as excinfo:
        s.run(until=10.0)
    assert isinstance(excinfo.value.__cause__, KeyError)


def test_every_simulation_error_passes_through_unwrapped():
    s = Scheduler()

    def tick():
        raise SimulationError("already typed")

    s.every(1.0, tick)
    with pytest.raises(SimulationError, match="^already typed$"):
        s.run(until=10.0)


def test_every_cancel_before_first_tick_with_start():
    s = Scheduler()
    hits = []
    ev = s.every(1.0, hits.append, "x", start=0.5)
    s.run(until=0.25)
    ev.cancel()
    s.run(until=5.0)
    assert hits == []
    assert s.pending == 0


def test_every_handle_cancel_after_first_tick_does_not_stop_chain():
    s = Scheduler()
    hits = []
    ev = s.every(1.0, lambda: hits.append(s.now))
    s.run(until=1.5)
    ev.cancel()
    s.run(until=3.0)
    assert hits == [1.0, 2.0, 3.0]


def test_events_are_never_compared():
    # Heap entries are (time, seq, event) tuples with a unique seq, so the
    # heap orders them in C.  Event must define no ordering of its own.
    assert "__lt__" not in vars(Event)
    assert Event.__lt__ is object.__lt__
    s = Scheduler()
    a = s.at(1.0, lambda: None)
    b = s.at(1.0, lambda: None)
    with pytest.raises(TypeError):
        a < b


# ---------------------------------------------------------------------------
# Reference model: the scheduler against a sorted list keyed on (time, seq)
# ---------------------------------------------------------------------------

GRID = 0.25


def _actions(seed, tag):
    """What firing ``tag`` does, derived from the tag alone so that the
    scheduler and the model run the same callbacks."""
    rng = random.Random(f"{seed}/{tag}")
    acts = []
    if tag.count(".") < 2:
        for i in range(rng.choice((0, 0, 1, 2, 3))):
            child = f"{tag}.{i}"
            if rng.random() < 0.5:
                acts.append(("after", rng.choice((0.0, GRID, 2 * GRID)), child))
            else:
                acts.append(("at", rng.choice((0, 1, 2)), child))
        if len(acts) > 1 and rng.random() < 0.5:
            acts.append(("cancel", acts[0][2]))
    if rng.random() < 0.2:
        acts.append(("cancel", tag))  # already popped: a no-op
    if rng.random() < 0.1:
        acts.append(("stop",))
    return acts


def _grid_at_or_after(now, k):
    return math.ceil(now / GRID) * GRID + k * GRID


class _Model:
    """Sorted-list reference scheduler with the same lazy-cancel contract."""

    def __init__(self, seed):
        self.seed = seed
        self.entries = []  # sorted (time, seq, tag)
        self.cancelled = set()  # seqs of cancelled handles
        self.handles = {}  # tag -> seq
        self.now = 0.0
        self.seq = 0
        self.events_processed = 0
        self.stopped = False
        self.log = []

    @property
    def pending(self):
        return len(self.entries)

    def push(self, time, tag):
        bisect.insort(self.entries, (time, self.seq, tag))
        self.handles[tag] = self.seq
        self.seq += 1

    def after(self, delay, tag):
        self.push(self.now + delay, tag)

    def at_grid(self, k, tag):
        self.push(_grid_at_or_after(self.now, k), tag)

    def cancel(self, tag):
        self.cancelled.add(self.handles[tag])

    def stop(self):
        self.stopped = True

    def fire(self, time, tag):
        self.now = time
        self.events_processed += 1
        self.log.append((tag, time))
        _apply(self, _actions(self.seed, tag))

    def run(self, until):
        self.stopped = False
        while self.entries and not self.stopped:
            time, seq, tag = self.entries[0]
            if time > until:
                break
            del self.entries[0]
            if seq not in self.cancelled:
                self.fire(time, tag)
        if not self.stopped:
            self.now = until

    def step(self):
        while self.entries:
            time, seq, tag = self.entries.pop(0)
            if seq not in self.cancelled:
                self.fire(time, tag)
                return True
        return False

    def peek_time(self):
        while self.entries and self.entries[0][1] in self.cancelled:
            del self.entries[0]
        return self.entries[0][0] if self.entries else None


class _Real:
    """Drives a :class:`Scheduler` through the model's interface."""

    def __init__(self, seed):
        self.seed = seed
        self.sched = Scheduler()
        self.handles = {}
        self.log = []

    def _fire(self, tag):
        self.log.append((tag, self.sched.now))
        _apply(self, _actions(self.seed, tag))

    def after(self, delay, tag):
        self.handles[tag] = self.sched.after(delay, self._fire, tag)

    def at_grid(self, k, tag):
        t = _grid_at_or_after(self.sched.now, k)
        self.handles[tag] = self.sched.at(t, self._fire, tag)

    def cancel(self, tag):
        self.handles[tag].cancel()

    def stop(self):
        self.sched.stop()


def _apply(sim, acts):
    for act in acts:
        if act[0] == "after":
            sim.after(act[1], act[2])
        elif act[0] == "at":
            sim.at_grid(act[1], act[2])
        elif act[0] == "cancel":
            sim.cancel(act[1])
        else:
            sim.stop()


@pytest.mark.parametrize("seed", range(40))
def test_scheduler_matches_sorted_list_model(seed):
    rng = random.Random(seed)
    real, model = _Real(seed), _Model(seed)
    s = real.sched
    roots = 0
    for _ in range(150):
        op = rng.choices(
            ("at", "after", "cancel", "step", "run", "peek"), weights=(5, 5, 2, 2, 3, 1)
        )[0]
        if op in ("at", "after"):
            tag = f"r{roots}"
            roots += 1
            if op == "at":
                k = rng.choice((0, 0, 1, 2, 4))
                real.at_grid(k, tag)
                model.at_grid(k, tag)
            else:
                delay = rng.choice((0.0, GRID, GRID, 3 * GRID, 0.1))
                real.after(delay, tag)
                model.after(delay, tag)
        elif op == "cancel" and roots:
            tag = f"r{rng.randrange(roots)}"
            real.cancel(tag)
            model.cancel(tag)
        elif op == "step":
            assert s.step() == model.step()
        elif op == "run":
            until = s.now + rng.choice((0.0, GRID, 0.6, 1.5, 3.0))
            s.run(until)
            model.run(until)
        elif op == "peek":
            assert s.peek_time() == model.peek_time()
        assert real.log == model.log
        assert s.now == model.now
        assert s.events_processed == model.events_processed
        assert s.pending == model.pending
    while s.pending:  # drain; a callback may stop() a run part-way
        s.run(s.now + 100.0)
        model.run(model.now + 100.0)
    assert real.log == model.log
    assert s.peek_time() == model.peek_time() is None
    assert s.pending == model.pending == 0
    assert len(real.log) == s.events_processed
