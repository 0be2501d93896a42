"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Entity, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(300, lambda: order.append("c"))
    sim.schedule(100, lambda: order.append("a"))
    sim.schedule(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 300


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(50, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    token = sim.schedule(10, lambda: fired.append(1))
    token.cancel()
    sim.schedule(20, lambda: fired.append(2))
    sim.run()
    assert fired == [2]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.schedule(200, lambda: fired.append(2))
    sim.run(until=150)
    assert fired == [1]
    assert sim.now == 150
    sim.run()
    assert fired == [1, 2]


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.run(until=100)
    assert fired == [1]


def test_max_events_limit():
    sim = Simulator()
    count = []

    def reschedule():
        count.append(1)
        sim.schedule(1, reschedule)

    sim.schedule(0, reschedule)
    sim.run(max_events=5)
    assert len(count) == 5


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(5, lambda: order.append("nested"))

    sim.schedule(10, first)
    sim.schedule(100, lambda: order.append("last"))
    sim.run()
    assert order == ["first", "nested", "last"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(50, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [50]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    t1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    t1.cancel()
    assert sim.peek_time() == 20


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_entity_after_uses_shared_clock():
    sim = Simulator()

    class Thing(Entity):
        def __init__(self, sim):
            super().__init__(sim)
            self.fired_at = None

        def go(self):
            self.after(7, lambda: setattr(self, "fired_at", self.now))

    thing = Thing(sim)
    sim.schedule(3, thing.go)
    sim.run()
    assert thing.fired_at == 10


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_mid_run_heap_compaction_keeps_event_stream_intact():
    """Regression: compacting the heap mid-run must not split the stream.

    ``run()`` holds a reference to the heap list across callbacks, so
    ``_compact_heap`` has to mutate it in place.  A version that rebound
    ``self._heap`` made the running loop drain a stale list while new
    events went to the fresh one: events fired out of order (simulated
    time went backwards) or not at all.  Force a compaction from inside
    a callback and check the survivors still fire, in order.
    """
    sim = Simulator()
    fired = []
    # Far enough out to land in the heap, not the timer wheel.
    tokens = [sim.schedule(30_000_000 + i * 1_000,
                           lambda i=i: fired.append((sim.now, i)))
              for i in range(100)]

    def sabotage():
        for token in tokens[40:]:
            token.cancel()
        # >50% of heap entries now dead; this schedule triggers the
        # in-run compaction the old code corrupted.
        sim.schedule(100_000_000, on_late)

    def on_late():
        fired.append((sim.now, "late"))
        # Scheduled *after* the compaction: with the rebinding bug this
        # lands in a list the running loop no longer drains and is
        # silently lost (far-future on purpose — it must hit the heap,
        # not the timer wheel).
        sim.schedule(50_000_000, lambda: fired.append((sim.now, "final")))

    sim.schedule(1_000, sabotage)
    sim.run()

    times = [t for t, _ in fired]
    assert times == sorted(times), "simulated time went backwards"
    assert [i for _, i in fired[:40]] == list(range(40))
    assert fired[-2] == (100_001_000, "late")
    assert fired[-1] == (150_001_000, "final"), "post-compaction event lost"
    assert sim.events_processed == 1 + 40 + 1 + 1


# ---------------------------------------------------------- event kernel

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import RefKernel, resolve_backend


def test_default_kernel_is_ref():
    assert resolve_backend() is RefKernel
    assert type(Simulator().kernel) is RefKernel


class _HeapOracle:
    """One binary heap of ``(when, seq)`` entries with lazy
    cancellation: the ordering contract the wheel+heap kernel keeps."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, callback):
        token = [False]
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, token,
                                    callback, ()))
        return token

    def call_after(self, delay, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, None,
                                    fn, args))

    @staticmethod
    def cancel(token):
        token[0] = True

    def run(self):
        while self._heap:
            when, _, token, fn, args = heapq.heappop(self._heap)
            if token is not None and token[0]:
                continue
            self.now = when
            self.events_processed += 1
            fn(*args)

    def pending(self):
        return len(self._heap)


# The property: for arbitrary interleavings of schedule / call_after /
# cancel operations whose delays span all three timer tiers (wheel L0
# < 2**18 ns, wheel L1 < 2**24 ns, heap beyond the horizon), the kernel
# fires the exact (when, tag) sequence of a single heap, with the same
# events_processed accounting.  Half the operations are applied from
# *inside* callbacks, so mid-run insertion (including behind the ring
# position) and mid-run cancellation are exercised too.

_TIERED_DELAY = st.one_of(
    st.integers(0, 2**18),            # wheel level 0 span
    st.integers(2**18, 2**24 - 1),    # wheel level 1 span
    st.integers(2**24, 2**30),        # beyond the horizon: heap
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("one"), _TIERED_DELAY, st.booleans()),
        st.tuples(st.just("fast"), _TIERED_DELAY, st.just(False)),
        st.tuples(st.just("cancel"), st.integers(0, 10**6), st.just(False)),
    ),
    min_size=1, max_size=30)


def _drive(sim, cancel, ops):
    fired = []
    tokens = []
    tags = iter(range(10**9))

    def note(tag):
        fired.append((sim.now, tag))

    def apply(op):
        kind = op[0]
        if kind == "one":
            _, delay, cancel_mid = op
            tag = next(tags)
            tokens.append(sim.schedule(delay, lambda tag=tag: note(tag)))
            if cancel_mid and tokens:
                cancel(tokens[len(tokens) // 2])
        elif kind == "fast":
            sim.call_after(op[1], note, next(tags))
        else:
            _, pick, _ = op
            if tokens:
                cancel(tokens[pick % len(tokens)])

    # Half up front, half from inside callbacks at staggered times, so
    # insertion happens both before and during the drain.
    for op in ops[::2]:
        apply(op)
    for i, op in enumerate(ops[1::2]):
        sim.call_after(1 + i * 700, apply, op)
    sim.run()
    assert sim.pending() == 0
    return fired, sim.events_processed, sim.now


@settings(deadline=None, max_examples=60)
@given(ops=_OPS)
def test_ref_kernel_pops_like_a_heap_oracle(ops):
    assert (_drive(Simulator(), lambda t: t.cancel(), ops)
            == _drive(_HeapOracle(), _HeapOracle.cancel, ops))
