"""Layer spans recorded from outside the program.

The traced run wraps the public entry point of each layer *before* any
network is built: wiring binds ``Link._rx = dst.receive`` and
``Host.receive = transport.receive`` at construction, so a wrapper
installed after ``Network()`` would be silently bypassed.  The
trace-coverage check (:func:`coverage_failures`) catches exactly that.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans nest on one thread, so the recorder folds
them online into per-name totals instead of keeping every span; the
offline :func:`fold_self_times` applies the same :class:`Frame`
arithmetic to explicit span lists (and tolerates overlapping children).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.net.packet import PacketKind

PFC_KINDS = (PacketKind.PAUSE, PacketKind.RESUME)


class Frame:
    """Child-coverage accumulator of one open span.

    Children must be offered in start order; overlapping children are
    counted once (the covered interval is a union, not a sum).
    """

    __slots__ = ("covered_until", "child_ns")

    def __init__(self, start: int) -> None:
        self.covered_until = start
        self.child_ns = 0

    def cover(self, start: int, end: int) -> None:
        lo = start if start > self.covered_until else self.covered_until
        if end > lo:
            self.child_ns += end - lo
            self.covered_until = end


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    name: str
    start: int
    end: int


def fold_self_times(spans: Iterable[Span]) -> dict[str, int]:
    """Per-name self time: duration minus the union of child intervals.

    Child intervals are clipped to their parent's interval.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        frame = Frame(span.start)
        for child in sorted(children[span.span_id], key=lambda s: s.start):
            frame.cover(child.start, min(child.end, span.end))
        totals[span.name] += span.end - span.start - frame.child_ns
    return dict(totals)


class SpanRecorder:
    """Per-name call counts and self times of nested wrapper spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[Frame] = []

    def wrap(self, name: str, fn: Callable,
             tally: Optional[Callable[..., Optional[str]]] = None) -> Callable:
        """``fn`` inside a span named ``name``.

        ``tally``, when given, sees the call's arguments and may return
        an extra counter name to bump (e.g. PFC frames at a receiver).
        """
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tally is not None:
                extra = tally(*args, **kwargs)
                if extra is not None:
                    calls[extra] += 1
            start = clock()
            frame = Frame(start)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_ns[name] += end - start - frame.child_ns
                if stack:
                    stack[-1].cover(start, end)

        return traced


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`restore`.

    Class attributes are patched on the class that defines them (found
    along the MRO), once per defining class, so a method inherited by
    several registry classes is wrapped a single time.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self._seen: set[tuple[int, str]] = set()

    def patch(self, target: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        owner = target
        if isinstance(target, type):
            owner = next(k for k in target.__mro__ if attr in k.__dict__)
        if (id(owner), attr) in self._seen:
            return
        self._seen.add((id(owner), attr))
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._seen.clear()


def _pfc_tally(name: str) -> Callable[..., Optional[str]]:
    """Counts PFC frames reaching a receive entry point as ``<name>.pfc``."""
    counter = f"{name}.pfc"

    def tally(_receiver, packet, *_args, **_kwargs) -> Optional[str]:
        return counter if packet.kind in PFC_KINDS else None

    return tally


#: CC entry points wrapped on every concrete CC class.
CC_METHODS = ("on_ack", "on_cnp", "on_rtt", "on_timeout", "available_window")

#: Fidelity-controller entry points.
FIDELITY_METHODS = ("register", "escalate", "timeline_for")


def layer_targets() -> list[tuple[str, Any, str, bool]]:
    """``(span name, owner, attribute, tally PFC)`` for every layer.

    Resolved at call time so the event-kernel backend selected by
    ``REPRO_KERNEL`` is the one wrapped.
    """
    from repro.cc.base import StaticWindowCc, UnlimitedCc
    from repro.cc.dcqcn import DcqcnCc
    from repro.cc.swift import SwiftCc
    from repro.experiments.common import Network, _transport_registry
    from repro.net.link import Link
    from repro.net.port import EgressPort
    from repro.net.rifl import RiflShim
    from repro.net.switch import Switch
    from repro.obs.registry import MetricsRegistry
    from repro.runner.runner import ExperimentRunner
    from repro.sim.fidelity import FidelityController
    from repro.sim.kernel import resolve_backend

    transports = sorted(_transport_registry().values(), key=lambda c: c.name)
    targets = [
        ("runner", ExperimentRunner, "run_points", False),
        ("runner.point", importlib.import_module("repro.runner.points"),
         "simulate_flows", False),
        ("runner.point", importlib.import_module("repro.experiments.scale"),
         "run_scale_point", False),
        ("runner.canonicalize", importlib.import_module("repro.runner.runner"),
         "canonicalize", False),
        ("obs.to_payload", MetricsRegistry, "to_payload", False),
        ("experiments.network_build", Network, "__init__", False),
        ("experiments.open_flow", Network, "open_flow", False),
        ("workload.collective_start",
         importlib.import_module("repro.experiments.scale"),
         "run_grouped_collectives", False),
        ("sim", resolve_backend(), "drain", False),
        ("net.link", Link, "deliver", False),
        ("net.link_rifl", RiflShim, "deliver", False),
        ("net.port", EgressPort, "enqueue", False),
        ("net.switch", Switch, "receive", True),
    ]
    targets += [("rnic", cls, "receive", True) for cls in transports]
    targets += [("rnic.post_flow", cls, "post_flow", False)
                for cls in transports]
    targets += [("cc", cls, method, False)
                for cls in (StaticWindowCc, UnlimitedCc, DcqcnCc, SwiftCc)
                for method in CC_METHODS]
    targets += [(f"fidelity.{method}", FidelityController, method, False)
                for method in FIDELITY_METHODS]
    return targets


def install_layer_spans(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Wrap every layer entry point; call before building any network."""
    for name, owner, attr, pfc in layer_targets():
        tally = _pfc_tally(name) if pfc else None
        patcher.patch(owner, attr,
                      lambda fn, _name=name, _tally=tally:
                      recorder.wrap(_name, fn, _tally))


def coverage_failures(calls: dict[str, int], totals: Counter,
                      points: int, simulate_points: int) -> list[str]:
    """Mismatches between wrapper call counts and the program's counters.

    ``totals`` are the end-of-point counters summed over the traced
    passes (see :mod:`perfbench.probe`); ``points`` the traced points
    and ``simulate_points`` those run through ``simulate_flows``.
    Arrival counts are exact only when every point's event queue
    drained, which the probe records as ``undrained`` (must be 0).
    """
    checks = [
        ("Link.deliver calls vs delivered + dropped_loss + "
         "dropped_link_down of unshimmed links",
         calls.get("net.link", 0), totals["link_deliver_expected"]),
        ("RiflShim.deliver calls vs RIFL frames",
         calls.get("net.link_rifl", 0), totals["rifl_frames"]),
        ("Switch.receive data calls vs deliveries by links into switches",
         calls.get("net.switch", 0) - calls.get("net.switch.pfc", 0),
         totals["delivered_to_switch"]),
        ("transport receive data calls vs deliveries by links into hosts",
         calls.get("rnic", 0) - calls.get("rnic.pfc", 0),
         totals["delivered_to_host"]),
        ("PFC frames received vs PFC frames sent",
         calls.get("net.switch.pfc", 0) + calls.get("rnic.pfc", 0),
         totals["pfc_frames"]),
        ("EgressPort.enqueue calls vs control enqueues + slow-path forwards",
         calls.get("net.port", 0), totals["port_enqueue_expected"]),
        ("Network.open_flow calls vs flows", calls.get(
            "experiments.open_flow", 0), totals["flows"]),
        ("FidelityController.register calls vs hybrid flows",
         calls.get("fidelity.register", 0), totals["hybrid_flows"]),
        ("Network() builds vs points",
         calls.get("experiments.network_build", 0), points),
        ("point runner calls vs points", calls.get("runner.point", 0),
         points),
        ("MetricsRegistry.to_payload calls vs simulate_flows points",
         calls.get("obs.to_payload", 0), simulate_points),
        ("undrained points", totals["undrained"], 0),
    ]
    return [f"{label}: {got} != {want}" for label, got, want in checks
            if got != want]
