"""Property tests: loss RNGs seeded on the first draw replay the eager
sequence exactly.

Links and switches create their private loss RNG on the first
payload-kind loss draw rather than at construction.  The seed
expressions are the pre-existing ones (``loss_seed ^ crc32(name)`` for a
link, ``loss_seed ^ switch_id * 7919`` for a switch), so every drop must
land on the packet an eagerly seeded ``random.Random`` selects — for a
link lossy from construction, for a lossless link raised mid-run by a
chaos loss burst, and for the switch forced-loss path.
"""

from __future__ import annotations

import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fig17_loss_schemes as fig17
from repro.experiments.common import build_network
from repro.experiments.presets import get_preset
from repro.net.failures import FailureInjector
from repro.net.link import Link
from repro.net.packet import (PAYLOAD_KINDS, Packet, PacketKind, make_ack,
                              make_data_packet)
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import Switch, SwitchConfig
from repro.runner.points import simulate_flows
from repro.sim.engine import Simulator

_props = settings(max_examples=40, deadline=None)

#: Delivery order of packet kinds: control kinds never draw.
_KINDS = (PacketKind.DATA, PacketKind.ACK, PacketKind.TCP_DATA,
          PacketKind.DATA, PacketKind.NAK)


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((packet.psn, packet.kind))

    @property
    def psns(self) -> set[int]:
        return {psn for psn, _ in self.received}


def _packet(psn: int) -> Packet:
    return Packet(src=0, dst=1, kind=_KINDS[psn % len(_KINDS)],
                  size_bytes=1000, psn=psn)


def _expected_drops(rng: random.Random, kinds_rates) -> set[int]:
    """PSNs an eager RNG drops: one draw per payload packet sent while
    the loss rate is positive, in delivery order."""
    return {psn for psn, kind, rate in kinds_rates
            if rate > 0.0 and kind in PAYLOAD_KINDS and rng.random() < rate}


@_props
@given(loss_seed=st.integers(0, 2**32 - 1), name=st.text(max_size=24),
       loss_rate=st.floats(0.01, 0.9), count=st.integers(1, 80))
def test_link_lossy_from_construction_matches_eager(loss_seed, name,
                                                    loss_rate, count):
    sim = Simulator()
    sink = Sink()
    link = Link(sim, sink, 0, 10, name=name, loss_rate=loss_rate,
                loss_seed=loss_seed)
    assert link._loss_rng is None
    for psn in range(count):
        sim.schedule(psn * 100 + 1, lambda psn=psn: link.deliver(_packet(psn)))
    sim.run()
    eager = random.Random(loss_seed ^ zlib.crc32(name.encode()))
    dropped = _expected_drops(eager, [(psn, _packet(psn).kind, loss_rate)
                                      for psn in range(count)])
    assert set(range(count)) - sink.psns == dropped
    assert link.dropped_packets == len(dropped)


@_props
@given(loss_seed=st.integers(0, 2**32 - 1), name=st.text(max_size=24),
       loss_rate=st.floats(0.01, 0.9),
       windows=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                        min_size=1, max_size=3))
def test_link_raised_by_loss_burst_matches_eager(loss_seed, name, loss_rate,
                                                 windows):
    """A lossless link seeds nothing until a burst makes it lossy; its
    draws then follow the eager sequence across every burst window.

    ``windows`` are (gap, length) pairs laid out back to back, in units
    of one packet slot; bursts switch at slot boundaries and packets
    leave mid-slot.
    """
    sim = Simulator()
    sink = Sink()
    link = Link(sim, sink, 0, 10, name=name, loss_seed=loss_seed)
    inj = FailureInjector(sim)
    lossy = []
    for gap, length in windows:
        start = len(lossy) + gap
        inj.loss_burst(link, loss_rate, at_ns=start * 100,
                       recover_at_ns=(start + length) * 100)
        lossy += [False] * gap + [True] * length
    lossy += [False] * 5
    count = len(lossy)
    unseeded = []
    first_lossy = lossy.index(True)
    sim.schedule(first_lossy * 100 - 1,
                 lambda: unseeded.append(link._loss_rng is None))
    for psn in range(count):
        sim.schedule(psn * 100 + 1, lambda psn=psn: link.deliver(_packet(psn)))
    sim.run()
    assert unseeded == [True]
    eager = random.Random(loss_seed ^ zlib.crc32(name.encode()))
    dropped = _expected_drops(
        eager, [(psn, _packet(psn).kind, loss_rate if lossy[psn] else 0.0)
                for psn in range(count)])
    assert set(range(count)) - sink.psns == dropped
    assert link.loss_rate == 0.0


@_props
@given(loss_seed=st.integers(0, 2**31 - 1), switch_id=st.integers(0, 2000),
       loss_rate=st.floats(0.01, 0.9), count=st.integers(1, 60))
def test_switch_forced_loss_matches_eager(loss_seed, switch_id, loss_rate,
                                          count):
    sim = Simulator()
    cfg = SwitchConfig(num_ports=2, rate_bits_per_ns=100.0,
                       buffer_bytes=1_000_000, loss_rate=loss_rate,
                       loss_seed=loss_seed)
    sw = Switch(sim, switch_id, cfg, EcmpLoadBalancer())
    sink = Sink()
    sw.attach(1, Link(sim, sink, 0, prop_delay_ns=10), sink, 0)
    sw.add_route(dst=1, port_idx=1)
    assert sw._loss_rng is None

    def packet(psn: int) -> Packet:
        if psn % 3 == 2:  # control traffic never draws
            return make_ack(9, 1, ack_psn=-1)
        return make_data_packet(9, 1, flow_id=1, qpn=1, src_qpn=2, psn=psn,
                                msn=0, payload=1000, mtu_payload=1000,
                                msg_len_pkts=count, msg_len_bytes=count * 1000,
                                msg_offset_pkts=psn, dcp=False)

    sent = []
    for psn in range(count):
        def send(psn=psn):
            pkt = packet(psn)
            sent.append((pkt.psn, pkt.kind))
            sw.receive(pkt, in_port=0)
        sim.schedule(psn * 1000, send)
    sim.run()
    eager = random.Random(loss_seed ^ (switch_id * 7919))
    dropped = _expected_drops(eager, [(psn, kind, loss_rate)
                                      for psn, kind in sent])
    lost = set(sent) - set(sink.received)
    assert all(kind is PacketKind.DATA for _, kind in lost)
    assert {psn for psn, _ in lost} == dropped
    assert sw.stats.dropped_forced == len(dropped)


def _eager_seeding(monkeypatch) -> None:
    """Seed every Link/Switch loss RNG at construction, as the simulator
    did before the RNGs became lazy."""
    link_init, switch_init = Link.__init__, Switch.__init__

    def eager_link(self, sim, dst, dst_port, prop_delay_ns, name="link",
                   loss_rate=0.0, loss_seed=1):
        link_init(self, sim, dst, dst_port, prop_delay_ns, name=name,
                  loss_rate=loss_rate, loss_seed=loss_seed)
        self._loss_rng = random.Random(loss_seed ^ zlib.crc32(name.encode()))

    def eager_switch(self, sim, switch_id, config, load_balancer, name=""):
        switch_init(self, sim, switch_id, config, load_balancer, name=name)
        self._loss_rng = random.Random(config.loss_seed ^ (switch_id * 7919))

    monkeypatch.setattr(Link, "__init__", eager_link)
    monkeypatch.setattr(Switch, "__init__", eager_switch)


def test_fig17_lossy_points_identical_to_eager_seeding(monkeypatch):
    """Every registry transport — RIFL included, whose hop shims zero
    ``link.loss_rate`` and draw from their own RNG — gives the same
    fig17 payloads with lazy and eager loss RNGs."""
    points = [pt for pt in fig17.sweep(get_preset("quick"))
              if pt.spec.loss_rate in (0.01, 0.05)]
    assert {pt.spec.transport for pt in points} >= {"rifl", "dcp", "tcp"}
    lazy = [simulate_flows(pt.spec, pt.params) for pt in points]
    _eager_seeding(monkeypatch)
    eager = [simulate_flows(pt.spec, pt.params) for pt in points]
    assert lazy == eager


def test_rifl_links_never_seed_a_loss_rng():
    """RIFL moves injected loss into its shims, so no link draws."""
    net = build_network(transport="rifl", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, loss_rate=0.05,
                        seed=3)
    flow = net.open_flow(0, 2, 200_000, 0)
    net.run_until_flows_done(max_events=5_000_000)
    assert flow.completed and flow.rx_bytes == 200_000
    assert sum(shim.stats.hop_retx for shim in net.fabric.rifl_shims) > 0
    links = [p.link for sw in net.fabric.switches for p in sw.ports]
    links += [host.nic.link for host in net.fabric.hosts]
    assert all(link._loss_rng is None for link in links)

