"""The event kernel behind :class:`~repro.sim.engine.Simulator`.

:mod:`repro.sim.kernel.base` states the interface and its ``(when,
seq)`` ordering and lazy-cancellation contract; :class:`RefKernel` (a
pure-Python timer wheel plus binary heap) is the one implementation.
:func:`resolve_backend` is the single place that names the kernel
class, so profilers can wrap its ``drain`` before any simulator is
built.
"""

from __future__ import annotations

from repro.sim.kernel.base import CancelledToken, EventKernel
from repro.sim.kernel.ref import RefKernel

__all__ = [
    "CancelledToken",
    "EventKernel",
    "RefKernel",
    "resolve_backend",
]


def resolve_backend() -> type[EventKernel]:
    """The event-kernel class every :class:`Simulator` instantiates."""
    return RefKernel
