"""Discrete-event simulation engine facade.

The whole reproduction is built on this engine.  It is deliberately
minimal: an integer-nanosecond clock driving a totally-ordered queue of
``(time, sequence, callback)`` entries.  The queue itself — the event
stores, insertion paths, lazy cancellation, and the drain loop — lives
in :class:`~repro.sim.kernel.RefKernel`; its ``(when, seq)`` ordering
and count-neutral lazy cancellation are stated in the
:mod:`repro.sim.kernel` docstring.  :class:`Simulator` holds the
run-visible state (``now``, ``events_processed``, the packet-sequence
counter) and binds the kernel's entry points as instance attributes,
so hot callers pay no delegation cost: ``sim.schedule`` *is* the
kernel's bound method.  Every packet hop is one event; there is no
batched dataplane.

Callbacks are plain callables; there is no coroutine machinery, which
keeps the per-event overhead low enough for packet-level simulation in
pure Python.  Hot callers use :meth:`Simulator.call_after`, which skips
the cancellation token and carries positional arguments, avoiding a
closure allocation per packet hop.

Times are integers in nanoseconds.  Helper constants for common units
live in :mod:`repro.sim.units`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import CancelledToken, resolve_backend

__all__ = [
    "CancelledToken",
    "Entity",
    "Simulator",
    "run_until_quiet",
]


class Simulator:
    """Discrete-event simulator with an integer clock.

    Example::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("one microsecond"))
        sim.run()

    The event queue lives in ``self.kernel`` (a
    :class:`~repro.sim.kernel.RefKernel`); ``schedule``,
    ``call_after``, ``run``, ``peek_time`` and ``pending`` are the
    kernel's bound methods, installed as instance attributes.  Only the
    kernel's drain loop writes ``now`` and ``events_processed``.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._running: bool = False
        self.events_processed: int = 0
        # --- per-run identity state (see repro.net.packet) ----------------
        #: Monotone packet-sequence counter: packet uids are per-run,
        #: not per-process import order.
        self.packet_seq: int = 0
        #: Set by the chaos subsystem when a failure scenario is armed;
        #: the hybrid-fidelity controller treats it as a standing
        #: falsifier (chaos runs are packet-level end to end).
        self.chaos_active: bool = False
        # --- kernel binding ----------------------------------------------
        self.kernel = resolve_backend()(self)
        self.schedule = self.kernel.schedule
        self.call_after = self.kernel.call_after
        self.run = self.kernel.drain
        self.peek_time = self.kernel.peek_time
        self.pending = self.kernel.pending

    # ------------------------------------------------------------ schedule
    def schedule_at(self, when: int, callback: Callable[[], None]) -> CancelledToken:
        """Schedule ``callback`` at absolute time ``when`` (ns)."""
        return self.schedule(when - self.now, callback)

    # ----------------------------------------------------------------- run
    def step(self) -> bool:
        """Run the single next event.  Returns False when idle."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before


class Entity:
    """Base class for simulated objects that need the shared clock.

    Subclasses get ``self.sim`` plus :meth:`after` as a small convenience
    wrapper around :meth:`Simulator.schedule`.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    @property
    def now(self) -> int:
        return self.sim.now

    def after(self, delay: int, callback: Callable[[], None]) -> CancelledToken:
        return self.sim.schedule(delay, callback)


def run_until_quiet(sim: Simulator,
                    guard: Optional[Callable[[], object]] = None,
                    max_events: int = 200_000_000) -> None:
    """Drain the simulator completely (convenience for tests).

    ``guard``, when given, runs after the drain; it is expected to raise
    (assert) if the simulation left bad state behind.
    """
    sim.run(max_events=max_events)
    if guard is not None:
        guard()
