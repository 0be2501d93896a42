"""FailureInjector restore semantics: regression tests.

Pins the three restore bugs the chaos campaign flushed out:

1. ``fail_switch`` recovery revived links an overlapping ``fail_link``
   had downed with a *later* recovery (no refcounting);
2. ``fail_link(converge_routing=True)`` recovery re-appended the port at
   the *tail* of multipath routing entries (and could append twice),
   so a recovered fabric routed differently from one that never failed;
3. ``fail_switch`` downed only the switch's egress links — the
   neighbor->switch directions stayed up, so a "crashed" switch kept
   receiving (and half the blackout never happened).
"""

from __future__ import annotations

from repro.experiments.common import build_network
from repro.net.failures import FailureInjector
from repro.net.switch import DATA_CLASS


def _testbed(cross_links: int = 2):
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=cross_links, link_rate=10.0, lb="ecmp",
                        seed=7)
    return net, net.fabric.switches[0], net.fabric.switches[1]


# --------------------------------------------------- bug 1: refcounting
def test_switch_recovery_does_not_revive_longer_link_failure():
    net, sw1, _sw2 = _testbed()
    inj = FailureInjector(net.sim)
    cross = sw1.ports[2].link
    # Link failure outlives the switch blackout that covers it.
    inj.fail_link(sw1, 2, at_ns=0, recover_at_ns=300)
    inj.fail_switch(sw1, at_ns=50, recover_at_ns=100)
    net.sim.run(until=150)
    assert not cross.up  # switch recovered, link failure still holds it
    net.sim.run(until=350)
    assert cross.up


def test_link_recovery_does_not_revive_longer_switch_failure():
    net, sw1, _sw2 = _testbed()
    inj = FailureInjector(net.sim)
    cross = sw1.ports[2].link
    inj.fail_switch(sw1, at_ns=0, recover_at_ns=300)
    inj.fail_link(sw1, 2, at_ns=50, recover_at_ns=100)
    net.sim.run(until=150)
    assert not cross.up
    net.sim.run(until=350)
    assert cross.up


def test_restore_ignores_links_downed_by_someone_else():
    net, sw1, _sw2 = _testbed()
    inj = FailureInjector(net.sim)
    cross = sw1.ports[2].link
    cross.up = False  # downed outside the injector
    inj.fail_link(sw1, 3, at_ns=0, recover_at_ns=10)
    net.sim.run(until=20)
    assert not cross.up  # recovery only touches links the injector downed


def test_downtime_accounting_tracks_union_of_overlaps():
    net, sw1, _sw2 = _testbed()
    inj = FailureInjector(net.sim)
    cross = sw1.ports[2].link
    inj.fail_link(sw1, 2, at_ns=100, recover_at_ns=400)
    inj.fail_switch(sw1, at_ns=200, recover_at_ns=300)  # inside the window
    net.sim.run(until=1000)
    assert inj.link_downtime_ns(cross) == 300  # one interval, not 300+100
    # downtime_by_link sums parallel same-name cables: the port-3 twin
    # was down for the blackout's 100 ns on top of cross's 300.
    assert inj.downtime_by_link()[cross.name] == 400


# ------------------------------------- bug 2: routing restore position
def test_converge_routing_restores_original_position():
    net, sw1, _sw2 = _testbed(cross_links=2)
    before = {dst: list(ports) for dst, ports in sw1.routing_table.items()}
    multipath = [dst for dst, ports in before.items() if len(ports) > 1]
    assert multipath, "testbed should have multipath entries"
    # Fail the port listed FIRST in the entries: a tail re-append would
    # visibly reorder them.
    port = before[multipath[0]][0]
    inj = FailureInjector(net.sim)
    inj.fail_link(sw1, port, at_ns=10, recover_at_ns=50,
                  converge_routing=True)
    net.sim.run(until=30)
    for dst in multipath:
        if port in before[dst]:
            assert port not in sw1.routing_table[dst]
    net.sim.run(until=100)
    assert {dst: list(ports) for dst, ports in sw1.routing_table.items()} \
        == before


def test_converge_routing_overlapping_failures_no_double_append():
    net, sw1, _sw2 = _testbed(cross_links=2)
    before = {dst: list(ports) for dst, ports in sw1.routing_table.items()}
    port = next(ports[0] for ports in before.values() if len(ports) > 1)
    inj = FailureInjector(net.sim)
    inj.fail_link(sw1, port, at_ns=10, recover_at_ns=60,
                  converge_routing=True)
    inj.fail_link(sw1, port, at_ns=20, recover_at_ns=80,
                  converge_routing=True)
    net.sim.run(until=200)
    after = {dst: list(ports) for dst, ports in sw1.routing_table.items()}
    assert after == before
    for ports in after.values():
        assert ports.count(port) <= 1


def test_converge_routing_clos_interleaved_recoveries():
    """Two uplinks of one leaf fail; the first to fail recovers first.

    Route entries are shared lists, so convergence must replace them
    rather than edit them in place: the other leaves (and the spines)
    keep their very same entry objects through the outage, and the
    FIFO recovery order still lands every port at its original index.
    """
    net = build_network(transport="dcp", topology="clos", num_hosts=16,
                        num_leaves=4, num_spines=4, link_rate=10.0,
                        lb="ecmp", seed=7)
    leaves, spines = net.fabric.switches[:4], net.fabric.switches[4:]
    leaf0 = leaves[0]
    others = leaves[1:] + spines
    before = {dst: list(ports) for dst, ports in leaf0.routing_table.items()}
    others_before = [dict(sw.routing_table) for sw in others]
    uplinks = leaf0.routing_table[15]
    assert uplinks == [4, 5, 6, 7]

    inj = FailureInjector(net.sim)
    inj.fail_link(leaf0, 4, at_ns=10, recover_at_ns=30,
                  converge_routing=True)
    inj.fail_link(leaf0, 5, at_ns=20, recover_at_ns=40,
                  converge_routing=True)

    def check_others():
        for sw, table in zip(others, others_before):
            assert sw.routing_table.keys() == table.keys()
            assert all(sw.routing_table[dst] is entry
                       for dst, entry in table.items())
        assert uplinks == [4, 5, 6, 7]

    net.sim.run(until=25)
    remote = [leaf0.routing_table[dst] for dst in range(4, 16)]
    assert all(entry == [6, 7] for entry in remote)
    assert all(entry is remote[0] for entry in remote)
    assert all(leaf0.routing_table[dst] == [dst] for dst in range(4))
    check_others()
    net.sim.run(until=35)
    assert all(leaf0.routing_table[dst] == [4, 6, 7] for dst in range(4, 16))
    check_others()
    net.sim.run(until=100)
    assert {dst: list(ports) for dst, ports in leaf0.routing_table.items()} \
        == before
    assert all(leaf0.routing_table[dst] is uplinks for dst in range(4, 16))
    check_others()


# ------------------------------------ bug 3: blackout both directions
def test_fail_switch_downs_both_directions_of_every_cable():
    net, sw1, sw2 = _testbed(cross_links=2)
    inj = FailureInjector(net.sim)
    inj.fail_switch(sw1, at_ns=0, recover_at_ns=100)
    net.sim.run(until=50)
    # Egress: sw1 -> hosts and sw1 -> sw2.
    for p in sw1.ports:
        assert not p.link.up
    # Ingress: hosts -> sw1 and sw2 -> sw1 must be down too.
    for host in net.fabric.hosts[:2]:
        assert not host.nic.link.up
    for port in (2, 3):
        assert not sw2.ports[port].link.up
    # Links not touching sw1 stay up.
    for host in net.fabric.hosts[2:]:
        assert host.nic.link.up
    net.sim.run(until=200)
    for p in sw1.ports:
        assert p.link.up
    for host in net.fabric.hosts:
        assert host.nic.link.up


# -------------------------------------------- loss bursts & PFC storms
def test_loss_burst_unwinds_overlaps_like_a_stack():
    net, sw1, _sw2 = _testbed()
    link = sw1.ports[2].link
    base = link.loss_rate
    inj = FailureInjector(net.sim)
    inj.loss_burst(link, 0.2, at_ns=0, recover_at_ns=100)
    inj.loss_burst(link, 0.5, at_ns=50, recover_at_ns=80)
    net.sim.run(until=60)
    assert link.loss_rate == 0.5
    net.sim.run(until=90)
    assert link.loss_rate == 0.2  # inner burst restored the outer rate
    net.sim.run(until=150)
    assert link.loss_rate == base


def test_pfc_storm_pauses_and_resumes_the_data_class():
    net, sw1, _sw2 = _testbed()
    inj = FailureInjector(net.sim)
    inj.pfc_storm(sw1, 2, at_ns=10, recover_at_ns=50)
    net.sim.run(until=30)
    assert DATA_CLASS in sw1.ports[2].paused_classes
    net.sim.run(until=100)
    assert DATA_CLASS not in sw1.ports[2].paused_classes


def test_injector_emits_chaos_counters_and_events():
    from repro.obs import registry as metrics
    from repro.obs.registry import MetricsRegistry

    net, sw1, _sw2 = _testbed()
    reg = MetricsRegistry()
    prev = metrics.active()
    metrics.install(reg)
    try:
        inj = FailureInjector(net.sim)
        inj.fail_link(sw1, 2, at_ns=0, recover_at_ns=100)
        inj.fail_switch(sw1, at_ns=10)  # permanent, never recovers
        net.sim.run(until=200)
        payload = reg.to_payload()
        assert payload["counters"]["chaos.injected"] == 2
        assert payload["counters"]["chaos.recovered"] == 1
        assert any(n.startswith("chaos.link.") and ".down_ns" in n
                   for n in payload["gauges"])
    finally:
        metrics.install(prev)
    assert [e.kind for e in inj.events] == ["link", "switch"]
