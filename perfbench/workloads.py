"""The benchmark's workloads, generated from a seed.

Every workload is a fixed list of sweep points run by one client in a
closed loop through the serial runner: the next point starts when the
previous one returns.  All inputs (flow lists, network seeds) are drawn
from the benchmark seed here; the simulator only receives the generated
points.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.experiments import scale
from repro.experiments.common import NetworkSpec, _transport_registry
from repro.experiments.presets import get_preset
from repro.runner import SweepPoint
from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload

SIMULATE_FLOWS = "repro.runner.points.simulate_flows"
RUN_SCALE_POINT = "repro.experiments.scale.run_scale_point"

#: Fig 16 cells: (transport, load balancer, cc).  MP-RDMA keeps its
#: native window and runs on a PFC fabric (needs_pfc at 0% loss).
INCAST_CELLS = (("dcp", "ar", "none"), ("dcp", "ar", "dcqcn"),
                ("irn", "ar", "dcqcn"), ("mp_rdma", "ecmp", "none"))

#: Generator seed of fig16's WebSearch schedule (incast uses seed + 1).
FIG16_SEED = 101

#: Fig 17 loss rate for the lossy-recovery workload.
LOSSY_RATE = 0.01

#: Host count of the hybrid collective point (the fig14-scale demo).
HYBRID_HOSTS = 256


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: sweep points plus their point runner."""

    name: str
    points: tuple[SweepPoint, ...]
    point_runner: str


def _net_seed(seed: int) -> int:
    return random.Random(f"perfbench:{seed}").randrange(1, 1 << 20)


def _clos_relabel(rng: random.Random, num_hosts: int, num_leaves: int
                  ) -> list[int]:
    """A random automorphism of the Clos host set: shuffle the leaves,
    then the hosts within each leaf (host ``h`` sits on leaf
    ``h // hosts_per_leaf``)."""
    per_leaf = num_hosts // num_leaves
    leaves = list(range(num_leaves))
    rng.shuffle(leaves)
    relabel = [0] * num_hosts
    for new_leaf, old_leaf in enumerate(leaves):
        hosts = list(range(old_leaf * per_leaf, (old_leaf + 1) * per_leaf))
        rng.shuffle(hosts)
        for slot, host in enumerate(hosts):
            relabel[host] = new_leaf * per_leaf + slot
    return relabel


def incast_websearch(seed: int) -> Workload:
    """Fig 16 cells: WebSearch at 0.5 load plus 8-to-1 incast at 5%.

    The arrival schedule is fig16-quick's own (generator seeds 101 and
    102).  The benchmark seed relabels its hosts by a random automorphism
    of the Clos fabric and sets the network seed (flow ids, so ECMP/AR
    entropy, and the RED marking draws).  A new seed therefore changes
    every flow's endpoints and path choices while keeping the offered
    load and its contention structure, so the work per pass stays close
    to fixed across seeds.
    """
    p = get_preset("quick")
    bg = PoissonWorkload(load=0.5, size_dist=websearch(scale=p.ws_scale),
                         duration_ns=p.duration_ns, seed=FIG16_SEED,
                         max_flows=p.max_flows, tag="bg")
    incast = IncastWorkload(load=0.05, fan_in=p.incast_fan_in,
                            flow_bytes=p.incast_flow_bytes,
                            duration_ns=p.duration_ns, seed=FIG16_SEED + 1)
    rng = random.Random(f"perfbench:{seed}")
    relabel = _clos_relabel(rng, p.num_hosts, p.num_leaves)
    net_seed = rng.randrange(1, 1 << 20)
    flows = [[relabel[src], relabel[dst], size, start]
             for src, dst, size, start in
             bg.schedule(p.num_hosts, p.link_rate)
             + incast.schedule(p.num_hosts, p.link_rate)]
    points = []
    for transport, lb, cc in INCAST_CELLS:
        spec = NetworkSpec(
            transport=transport, topology="clos", num_hosts=p.num_hosts,
            num_leaves=p.num_leaves, num_spines=p.num_spines,
            link_rate=p.link_rate, lb=lb, cc=cc, seed=net_seed,
            buffer_bytes=p.buffer_bytes // 2)
        points.append(SweepPoint(f"{transport}-{lb}-{cc}", spec,
                                 {"flows": flows, "max_events": 250_000_000}))
    return Workload("incast_websearch", tuple(points), SIMULATE_FLOWS)


def lossy_recovery(seed: int) -> Workload:
    """Fig 17 points: one long flow per registry transport at 1% loss.

    The benchmark seed sets the network seed, which drives the
    switches' injected-loss draws (and RIFL's hop corruption draws).
    """
    p = get_preset("quick")
    net_seed = _net_seed(seed)
    points = []
    for transport in sorted(_transport_registry()):
        spec = NetworkSpec(
            transport=transport, topology="testbed",
            num_hosts=p.testbed_hosts, cross_links=p.testbed_cross_links,
            link_rate=p.link_rate, loss_rate=LOSSY_RATE, lb="ecmp",
            seed=net_seed, buffer_bytes=p.buffer_bytes)
        params = {"flows": [[0, p.testbed_hosts // 2, p.long_flow_bytes, 0]],
                  "max_events": 120_000_000}
        points.append(SweepPoint(f"{transport}-loss{LOSSY_RATE:g}", spec,
                                 params))
    return Workload("lossy_recovery", tuple(points), SIMULATE_FLOWS)


def allreduce_hybrid(seed: int) -> Workload:
    """The scale experiment's 256-host hybrid ring-AllReduce point.

    The benchmark seed sets the network seed (flow ids, so AR entropy).
    Every ring stays within one leaf, so the seed moves no flow onto a
    shared link and the work per pass is the same for every seed.
    """
    net_seed = _net_seed(seed)
    spec, params = scale.point_spec(get_preset("quick"), "hybrid",
                                    HYBRID_HOSTS)
    spec = dataclasses.replace(spec, seed=net_seed)
    point = SweepPoint(f"hybrid-{HYBRID_HOSTS}", spec, params)
    return Workload("allreduce_hybrid", (point,), RUN_SCALE_POINT)


WORKLOADS = {
    "incast_websearch": incast_websearch,
    "lossy_recovery": lossy_recovery,
    "allreduce_hybrid": allreduce_hybrid,
}


def build(name: str, seed: int) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{sorted(WORKLOADS)}") from None
    return factory(seed)
