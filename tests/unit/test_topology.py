"""Unit tests for topology builders and routing tables."""

import pytest

from repro.experiments.common import build_network
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import SwitchConfig
from repro.net.topology import build_clos, build_testbed
from repro.rnic.base import Host, HostNic, TransportConfig
from repro.rnic.gbn import GbnTransport
from repro.sim.engine import Simulator


def _hosts(sim, n):
    out = []
    for hid in range(n):
        nic = HostNic(sim, 10.0)
        tr = GbnTransport(sim, hid, TransportConfig())
        out.append(Host(sim, hid, nic, tr))
    return out


def _cfg(num_ports):
    return SwitchConfig(num_ports=num_ports, rate_bits_per_ns=10.0)


class TestClos:
    def test_structure(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, num_leaves=2, num_spines=2,
                         switch_config_factory=_cfg,
                         lb_factory=EcmpLoadBalancer)
        assert len(fab.switches) == 4
        leaves = fab.switches[:2]
        spines = fab.switches[2:]
        assert all(len(leaf.ports) == 4 + 2 for leaf in leaves)
        assert all(len(spine.ports) == 2 for spine in spines)

    def test_uneven_hosts_rejected(self):
        sim = Simulator()
        hosts = _hosts(sim, 7)
        with pytest.raises(ValueError):
            build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)

    def test_local_route_single_port(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)
        leaf0 = fab.switches[0]
        assert leaf0.routing_table[0] == [0]       # local host, down port
        assert len(leaf0.routing_table[7]) == 2    # remote host, all uplinks

    def test_spine_routes_to_leaf(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)
        spine = fab.switches[2]
        assert spine.routing_table[0] == [0]
        assert spine.routing_table[5] == [1]

    def test_oneway_delay_intra_vs_inter_rack(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer,
                         host_link_delay_ns=1000, spine_link_delay_ns=2000)
        assert fab.base_oneway_ns(0, 1) == 2000          # same rack
        assert fab.base_oneway_ns(0, 7) == 2000 + 4000   # via spine

    def test_ideal_fct_accounts_headers(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer,
                         rate=10.0)
        fct = fab.ideal_fct_ns(0, 7, 10_000)
        # 10 packets x (1000 + 57) bytes at 10 Gbps = 8456 ns + delay
        assert fct == fab.base_oneway_ns(0, 7) + 8456


class TestTestbed:
    def test_structure(self):
        sim = Simulator()
        hosts = _hosts(sim, 16)
        fab = build_testbed(sim, hosts, _cfg, EcmpLoadBalancer,
                            cross_links=8)
        assert len(fab.switches) == 2
        assert len(fab.switches[0].ports) == 8 + 8

    def test_cross_routes(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_testbed(sim, hosts, _cfg, EcmpLoadBalancer,
                            cross_links=4)
        sw1, sw2 = fab.switches
        assert sw1.routing_table[0] == [0]
        assert len(sw1.routing_table[5]) == 4   # remote: all cross links
        assert sw2.routing_table[5] == [1]

    def test_odd_hosts_rejected(self):
        sim = Simulator()
        hosts = _hosts(sim, 5)
        with pytest.raises(ValueError):
            build_testbed(sim, hosts, _cfg, EcmpLoadBalancer)

    def test_cross_port_rate_override(self):
        net = build_network(transport="gbn", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0,
                            cross_port_rates={0: 10.0, 1: 1.0})
        sw1 = net.fabric.switches[0]
        assert sw1.ports[2].rate == 10.0
        assert sw1.ports[3].rate == 1.0


def _route_lists(switches):
    return {id(entry): entry for sw in switches
            for entry in sw.routing_table.values()}


class TestSharedRoutes:
    """Route entries are shared read-only lists: O(links + hosts) of
    them, not one fresh uplink list per (switch, remote host)."""

    def test_clos_remote_entries_shared(self):
        sim = Simulator()
        hosts = _hosts(sim, 16)
        fab = build_clos(sim, hosts, num_leaves=4, num_spines=3,
                         switch_config_factory=_cfg,
                         lb_factory=EcmpLoadBalancer)
        leaves, spines = fab.switches[:4], fab.switches[4:]
        for li, leaf in enumerate(leaves):
            remote = [leaf.routing_table[h] for h in range(16)
                      if h // 4 != li]
            assert all(entry is remote[0] for entry in remote)
            assert remote[0] == [4, 5, 6]
            for h in range(li * 4, li * 4 + 4):
                assert leaf.routing_table[h] == [h % 4]
        for dst_leaf in range(4):
            entries = [spine.routing_table[h] for spine in spines
                       for h in range(dst_leaf * 4, dst_leaf * 4 + 4)]
            assert all(entry is entries[0] for entry in entries)
            assert entries[0] == [dst_leaf]
        assert len(_route_lists(fab.switches)) <= 16 + 2 * 4

    def test_testbed_remote_entries_shared(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_testbed(sim, hosts, _cfg, EcmpLoadBalancer,
                            cross_links=4)
        for side, sw in enumerate(fab.switches):
            remote = [sw.routing_table[h] for h in range(8)
                      if h // 4 != side]
            assert all(entry is remote[0] for entry in remote)
            assert remote[0] == [4, 5, 6, 7]
        sw1, sw2 = fab.switches
        assert sw1.routing_table[5] is not sw2.routing_table[0]
        assert len(_route_lists(fab.switches)) <= 8 + 2 * 2

    def test_add_route_never_mutates_a_shared_entry(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)
        leaf0 = fab.switches[0]
        shared = leaf0.routing_table[4]
        leaf0.add_route(4, 0)
        assert leaf0.routing_table[4] == [4, 5, 0]
        assert shared == [4, 5] and leaf0.routing_table[5] is shared


@pytest.mark.parametrize("topology", ["clos", "testbed"])
def test_lossless_run_never_seeds_a_loss_rng(topology):
    net = build_network(transport="dcp", topology=topology, num_hosts=8,
                        num_leaves=2, num_spines=2, cross_links=2,
                        link_rate=10.0)
    flows = [net.open_flow(src, (src + 5) % 8, 20_000, 0)
             for src in range(8)]
    net.run_until_flows_done(max_events=5_000_000)
    assert all(f.completed for f in flows)
    links = [p.link for sw in net.fabric.switches for p in sw.ports]
    links += [host.nic.link for host in net.fabric.hosts]
    assert sum(link.delivered_packets for link in links) > 0
    assert all(link._loss_rng is None for link in links)
    assert all(sw._loss_rng is None for sw in net.fabric.switches)


class TestDelivery:
    def test_all_pairs_reachable_clos(self):
        net = build_network(transport="gbn", topology="clos", num_hosts=8,
                            num_leaves=2, num_spines=2, link_rate=10.0)
        flows = []
        for src in range(8):
            dst = (src + 3) % 8
            flows.append(net.open_flow(src, dst, 5_000, src * 1000))
        net.run_until_flows_done(max_events=5_000_000)
        assert all(f.completed for f in flows)

    def test_direct_topology_requires_two_hosts(self):
        with pytest.raises(ValueError):
            build_network(transport="gbn", topology="direct", num_hosts=3)
