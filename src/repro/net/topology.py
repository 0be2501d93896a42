"""Topology builders: two-layer CLOS, the paper's testbed, direct links.

Builders take already-constructed host objects (anything implementing
``receive(packet, in_port)`` with a ``nic`` attribute) and wire them to
switches with full-duplex links, filling in routing tables.  The
resulting :class:`Fabric` exposes ideal-FCT helpers used for slowdown
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.net.link import Link
from repro.net.switch import Switch, SwitchConfig
from repro.sim.engine import Simulator
from repro.sim.units import serialization_ns


@dataclass
class Fabric:
    """A wired network: hosts, switches and path-delay metadata."""

    sim: Simulator
    hosts: list = field(default_factory=list)
    switches: list[Switch] = field(default_factory=list)
    host_rate: float = 100.0
    # per host pair or uniform: one-way propagation+hop delay estimate (ns)
    base_oneway_ns: Callable[[int, int], int] = None  # type: ignore[assignment]
    mtu_payload: int = 1000
    header_bytes: int = 57
    # --- fidelity-tier metadata (set by the builders below) -------------
    # switch egress serializations after the source NIC, per host pair
    store_forward_hops: Callable[[int, int], int] = None  # type: ignore[assignment]
    # coarse locality zone of a host (leaf index / testbed side); flows
    # within one zone never share switch-to-switch links
    zone_of: Optional[Callable[[int], int]] = None
    # parallel switch-to-switch paths between zones (spines/cross links)
    cross_capacity: int = 0

    def ideal_fct_ns(self, src: int, dst: int, size_bytes: int) -> int:
        """Lower-bound FCT: store-and-forward pipe at line rate, empty net.

        one-way delay + serialization of the whole flow (with per-packet
        header overhead) at the host line rate.
        """
        num_pkts = max(1, -(-size_bytes // self.mtu_payload))
        wire_bytes = size_bytes + num_pkts * self.header_bytes
        ser = serialization_ns(wire_bytes, self.host_rate)
        return self.base_oneway_ns(src, dst) + ser

    def switch_stats_sum(self, attr: str) -> int:
        return sum(getattr(s.stats, attr) for s in self.switches)


def full_duplex(sim: Simulator, a, a_port: int, b, b_port: int,
                prop_delay_ns: int, attach_a=None, attach_b=None,
                loss_rate: float = 0.0, loss_seed: int = 1) -> tuple[Link, Link]:
    """Create the two directed links of a cable between ``a`` and ``b``.

    ``attach_a``/``attach_b`` are callables ``(link, peer, peer_port)``
    used to register the egress side on each device; switches use
    :meth:`Switch.attach`, hosts attach the link to their NIC.
    """
    ab = Link(sim, b, b_port, prop_delay_ns, name=f"{a}->{b}",
              loss_rate=loss_rate, loss_seed=loss_seed)
    ba = Link(sim, a, a_port, prop_delay_ns, name=f"{b}->{a}",
              loss_rate=loss_rate, loss_seed=loss_seed)
    if attach_a is not None:
        attach_a(ab)
    if attach_b is not None:
        attach_b(ba)
    return ab, ba


def _wire_host_to_switch(sim: Simulator, host, switch: Switch, port: int,
                         prop_delay_ns: int) -> None:
    full_duplex(
        sim, host, 0, switch, port, prop_delay_ns,
        attach_a=lambda link: setattr(host.nic, "link", link),
        attach_b=lambda link: switch.attach(port, link, host, 0),
    )


def _wire_switch_to_switch(sim: Simulator, a: Switch, a_port: int,
                           b: Switch, b_port: int, prop_delay_ns: int) -> None:
    full_duplex(
        sim, a, a_port, b, b_port, prop_delay_ns,
        attach_a=lambda link: a.attach(a_port, link, b, b_port),
        attach_b=lambda link: b.attach(b_port, link, a, a_port),
    )


def build_direct(sim: Simulator, host_a, host_b, prop_delay_ns: int = 500,
                 rate: float = 100.0, loss_rate: float = 0.0,
                 loss_seed: int = 1) -> Fabric:
    """Two hosts back-to-back (the Fig 8 perftest setup).

    With no switch in the path, forced loss (``loss_rate``) is injected
    at the cable itself — see :class:`repro.net.link.Link`.
    """
    full_duplex(
        sim, host_a, 0, host_b, 0, prop_delay_ns,
        attach_a=lambda link: setattr(host_a.nic, "link", link),
        attach_b=lambda link: setattr(host_b.nic, "link", link),
        loss_rate=loss_rate, loss_seed=loss_seed,
    )
    return Fabric(sim, hosts=[host_a, host_b], switches=[], host_rate=rate,
                  base_oneway_ns=lambda s, d: prop_delay_ns,
                  store_forward_hops=lambda s, d: 0,
                  zone_of=lambda h: 0, cross_capacity=0)


def build_clos(sim: Simulator, hosts: Sequence, num_leaves: int, num_spines: int,
               switch_config_factory: Callable[[int], SwitchConfig],
               lb_factory: Callable[[], object],
               host_link_delay_ns: int = 1_000,
               spine_link_delay_ns: int = 1_000,
               rate: float = 100.0) -> Fabric:
    """Two-layer leaf-spine CLOS (the paper's §6.2 topology).

    Host ``h`` attaches to leaf ``h // hosts_per_leaf``.  Leaf port
    layout: ports ``[0, hosts_per_leaf)`` go down to hosts, ports
    ``[hosts_per_leaf, hosts_per_leaf + num_spines)`` go up to spines.
    Spine ``s`` has one port per leaf.

    ``switch_config_factory(num_ports)`` builds each switch's config so
    callers control trimming/PFC/ECN per experiment; ``lb_factory()``
    builds one load-balancer instance per switch.
    """
    if len(hosts) % num_leaves:
        raise ValueError("hosts must divide evenly among leaves")
    hosts_per_leaf = len(hosts) // num_leaves

    leaves = []
    for li in range(num_leaves):
        cfg = switch_config_factory(hosts_per_leaf + num_spines)
        leaves.append(Switch(sim, li, cfg, lb_factory(), name=f"leaf{li}"))
    spines = []
    for si in range(num_spines):
        cfg = switch_config_factory(num_leaves)
        spines.append(Switch(sim, 1000 + si, cfg, lb_factory(), name=f"spine{si}"))

    for h, host in enumerate(hosts):
        leaf = leaves[h // hosts_per_leaf]
        port = h % hosts_per_leaf
        _wire_host_to_switch(sim, host, leaf, port, host_link_delay_ns)

    for li, leaf in enumerate(leaves):
        for si, spine in enumerate(spines):
            _wire_switch_to_switch(sim, leaf, hosts_per_leaf + si, spine, li,
                                   spine_link_delay_ns)

    # Routing tables: one shared uplink list per leaf for all its remote
    # destinations, one shared ``[leaf]`` list per destination leaf on
    # every spine, one single-port list per local host.  Entries are
    # read-only (DESIGN.md "Fabric construction"), so O(links + hosts)
    # lists serve what would be hosts x leaves x spines route slots.
    to_leaf = [[li] for li in range(num_leaves)]
    for li, leaf in enumerate(leaves):
        uplinks = list(range(hosts_per_leaf, hosts_per_leaf + num_spines))
        table = leaf.routing_table
        for dst, host in enumerate(hosts):
            if dst // hosts_per_leaf == li:
                table[host.host_id] = [dst % hosts_per_leaf]
            else:
                table[host.host_id] = uplinks
    for spine in spines:
        table = spine.routing_table
        for dst, host in enumerate(hosts):
            table[host.host_id] = to_leaf[dst // hosts_per_leaf]

    def oneway(src: int, dst: int) -> int:
        if src // hosts_per_leaf == dst // hosts_per_leaf:
            return 2 * host_link_delay_ns
        return 2 * host_link_delay_ns + 2 * spine_link_delay_ns

    def hops(src: int, dst: int) -> int:
        # host->leaf->host re-serializes once; via a spine, three times.
        if src // hosts_per_leaf == dst // hosts_per_leaf:
            return 1
        return 3

    return Fabric(sim, hosts=list(hosts), switches=leaves + spines,
                  host_rate=rate, base_oneway_ns=oneway,
                  store_forward_hops=hops,
                  zone_of=lambda h: h // hosts_per_leaf,
                  cross_capacity=num_spines)


def build_testbed(sim: Simulator, hosts: Sequence,
                  switch_config_factory: Callable[[int], SwitchConfig],
                  lb_factory: Callable[[], object],
                  cross_links: int = 8,
                  host_link_delay_ns: int = 500,
                  cross_link_delay_ns: int = 500,
                  cross_port_rates: Optional[dict[int, float]] = None,
                  rate: float = 100.0) -> Fabric:
    """The Fig 9 testbed: two switches, half the hosts on each, N parallel
    cross-switch links.

    ``cross_port_rates`` optionally overrides individual cross-link
    rates (index 0..cross_links-1) for the unequal-path experiment
    (Fig 11).
    """
    if len(hosts) % 2:
        raise ValueError("testbed needs an even host count")
    half = len(hosts) // 2
    num_ports = half + cross_links

    def make_switch(sid: int) -> Switch:
        cfg = switch_config_factory(num_ports)
        if cross_port_rates:
            cfg.per_port_rate = {half + i: r for i, r in cross_port_rates.items()}
        return Switch(sim, sid, cfg, lb_factory(), name=f"sw{sid}")

    sw1, sw2 = make_switch(0), make_switch(1)

    for h, host in enumerate(hosts):
        sw = sw1 if h < half else sw2
        port = h % half
        _wire_host_to_switch(sim, host, sw, port, host_link_delay_ns)

    for c in range(cross_links):
        _wire_switch_to_switch(sim, sw1, half + c, sw2, half + c,
                               cross_link_delay_ns)

    # Shared read-only entries, as in build_clos: one cross-link list
    # per switch for every destination on the other side.
    cross1 = list(range(half, half + cross_links))
    cross2 = list(cross1)
    for dst, host in enumerate(hosts):
        if dst < half:
            sw1.routing_table[host.host_id] = [dst]
            sw2.routing_table[host.host_id] = cross2
        else:
            sw2.routing_table[host.host_id] = [dst - half]
            sw1.routing_table[host.host_id] = cross1

    def oneway(src: int, dst: int) -> int:
        if (src < half) == (dst < half):
            return 2 * host_link_delay_ns
        return 2 * host_link_delay_ns + cross_link_delay_ns

    def hops(src: int, dst: int) -> int:
        return 1 if (src < half) == (dst < half) else 2

    return Fabric(sim, hosts=list(hosts), switches=[sw1, sw2],
                  host_rate=rate, base_oneway_ns=oneway,
                  store_forward_hops=hops,
                  zone_of=lambda h: 0 if h < half else 1,
                  cross_capacity=cross_links)
