"""Always-on per-point probe: the setup clock and end-of-point counters.

Two thin wrappers run in every pass, traced or not: one around the
point runner (the point's start) and one around
``Network.run_until_flows_done`` (the first event-loop call, and the
finished network).  Setup time is the gap between the two.  After the
run the probe reads each point's outcome — flow completion with exact
bytes — and, when ``collect`` is set (the traced run), the layers' own
counters for the trace-coverage check and the per-layer metrics.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Optional

from perfbench.stats import flow_failures
from perfbench.tracing import Patcher

#: (module, attribute) of every point runner the workloads use.
POINT_RUNNERS = (("repro.runner.points", "simulate_flows"),
                 ("repro.experiments.scale", "run_scale_point"))


def network_counters(net) -> Counter:
    """The layers' own end-of-point counters, summed over the network."""
    from repro.net.switch import Switch

    fab = net.fabric
    shims = getattr(fab, "rifl_shims", ())
    shimmed = {id(shim.link) for shim in shims}
    links = [h.nic.link for h in fab.hosts if h.nic.link is not None]
    links += [port.link for sw in fab.switches for port in sw.ports
              if port.link is not None]
    c: Counter = Counter()
    for link in links:
        st = link.stats
        if id(link) not in shimmed:
            c["link_deliver_expected"] += (st.delivered_packets
                                           + st.dropped_loss
                                           + st.dropped_link_down)
        into = ("delivered_to_switch" if isinstance(link.dst, Switch)
                else "delivered_to_host")
        c[into] += st.delivered_packets
        c["packets_delivered"] += st.delivered_packets
    for shim in shims:
        c["rifl_frames"] += shim.stats.frames
    for sw in fab.switches:
        st = sw.stats
        c["trimmed"] += st.trimmed
        c["dropped"] += (st.dropped_congestion + st.dropped_forced
                         + st.dropped_buffer)
        c["ecn_marked"] += st.ecn_marked
        # Forwarded data takes EgressPort.enqueue only on the forced-loss
        # slow path; the fast path pushes into the queue inline.
        c["port_enqueue_expected"] += st.ho_enqueued + (
            st.forwarded if sw.config.loss_rate > 0.0 else 0)
        if sw.pfc is not None:
            c["pfc_frames"] += (sw.pfc.stats.pause_frames
                                + sw.pfc.stats.resume_frames)
    for flow in net.flows:
        fs = flow.stats
        c["data_pkts_sent"] += fs.data_pkts_sent
        c["retx_pkts"] += fs.retx_pkts_sent
        c["timeouts"] += fs.timeouts
        c["dup_pkts"] += fs.dup_pkts_received
    for transport in net.transports:
        c["ho_received"] += transport.stats.ho_received
    c["packets_built"] += net.sim.packet_seq
    c["flows"] += len(net.flows)
    if net.fidelity is not None:
        c["hybrid_flows"] += len(net.flows)
        c["fluid_flows"] += net.fidelity.fluid_flows
        c["escalations"] += net.fidelity.escalations
    c["undrained"] += 1 if net.sim.pending() else 0
    return c


def slowdowns(net) -> list[float]:
    """FCT over the empty-network ideal, per completed flow."""
    fab = net.fabric
    return [max(1.0, f.fct_ns() / fab.ideal_fct_ns(f.src, f.dst,
                                                    f.size_bytes))
            for f in net.flows if f.completed]


class PointProbe:
    """Per-point records of the points run since the last :meth:`reset`."""

    def __init__(self) -> None:
        self.collect = False
        self.records: list[dict] = []
        self._point_start: Optional[int] = None

    def reset(self, collect: bool) -> None:
        self.collect = collect
        self.records = []

    def install(self, patcher: Patcher) -> None:
        from repro.experiments.common import Network

        for module, attr in POINT_RUNNERS:
            patcher.patch(importlib.import_module(module), attr,
                          self._wrap_point)
        patcher.patch(Network, "run_until_flows_done", self._wrap_run)

    def _wrap_point(self, fn):
        def point(spec, params):
            self._point_start = time.perf_counter_ns()
            return fn(spec, params)
        return point

    def _wrap_run(self, fn):
        def run_until_flows_done(net, *args, **kwargs):
            setup_ns = 0
            if self._point_start is not None:
                setup_ns = time.perf_counter_ns() - self._point_start
                self._point_start = None
            fn(net, *args, **kwargs)
            attempted, failed = flow_failures(net.flows)
            record = {"setup_ns": setup_ns, "attempted": attempted,
                      "failed": failed, "events": net.sim.events_processed,
                      "sim_ns": net.sim.now,
                      "payload_bytes": sum(f.size_bytes for f in net.flows)}
            if self.collect:
                record["counters"] = network_counters(net)
                record["slowdowns"] = slowdowns(net)
            self.records.append(record)
        return run_until_flows_done
