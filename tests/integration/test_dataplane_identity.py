"""Per-run determinism of the packet dataplane.

A simulation owns all of its run-visible state: the event stream, the
RNG draws and the packet-uid counter (``sim.packet_seq``).  Running the
same point twice in one process must therefore give an identical
payload *and* an identical ``packet_seq`` — nothing may leak from the
first run into the second through module-level state.  The cells cover
a clean direct point, a lossy Clos point (NAK, RTO and fast-retransmit
paths), and a link-flap chaos scenario; the last test pins serial ==
``--jobs 2`` == cache replay on fig8.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.scenarios import get_scenario
from repro.experiments import fig8_basic_perf as fig8
from repro.experiments import robustness
from repro.experiments.common import Network, NetworkSpec
from repro.experiments.presets import get_preset
from repro.runner import ExperimentRunner, ResultCache, points
from repro.runner.points import simulate_flows

TRANSPORTS = ("gbn", "dcp", "tcp", "sdr", "rifl")


def _run(monkeypatch, spec, params):
    built = []

    class _Recording(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(points, "Network", _Recording)
    payload = simulate_flows(spec, params)
    (net,) = built
    # Canonical form so a mismatch diffs cleanly in pytest output.
    return json.dumps({"payload": payload,
                       "packet_seq": net.sim.packet_seq},
                      sort_keys=True, default=str)


def _assert_rerun_identical(monkeypatch, spec, params):
    first = _run(monkeypatch, spec, params)
    assert json.loads(first)["packet_seq"] > 0
    assert _run(monkeypatch, spec, params) == first


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_rerun_identical_direct(monkeypatch, transport):
    """The clean direct point every figure sweep is built from."""
    spec = NetworkSpec(transport=transport, topology="direct", num_hosts=2,
                       link_rate=100.0, host_link_delay_ns=500,
                       window_bytes=262_144)
    params = {"flows": [[0, 1, 1_000_000, 0]], "max_events": 50_000_000}
    _assert_rerun_identical(monkeypatch, spec, params)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_rerun_identical_lossy_clos(monkeypatch, transport):
    """Injected loss drives the retransmission paths, which rebuild
    packets out of order."""
    spec = NetworkSpec(transport=transport, topology="clos", num_hosts=4,
                       link_rate=100.0, host_link_delay_ns=500,
                       window_bytes=262_144, loss_rate=0.01)
    params = {"flows": [[0, 2, 300_000, 0], [1, 3, 300_000, 0]],
              "max_events": 50_000_000}
    _assert_rerun_identical(monkeypatch, spec, params)


def test_rerun_identical_link_flap(monkeypatch):
    """Packets dropped on a downed link die early; the chaos run must
    not move."""
    quick = get_preset("quick")
    spec = robustness._spec("dcp", quick)
    flow_bytes = robustness._flow_bytes(quick)
    params = {"flows": [[0, 2, flow_bytes, 0], [1, 3, flow_bytes, 10_000]],
              "max_events": 60_000_000,
              "chaos": get_scenario("link_flap")}
    _assert_rerun_identical(monkeypatch, spec, params)


def test_fig8_quick_serial_jobs_replay(tmp_path):
    """serial == --jobs 2 == cache replay, bit for bit; replay executes
    nothing."""
    serial = ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
    r_serial = fig8.run("quick", runner=serial)

    cache_root = tmp_path / "cache"
    par = ExperimentRunner(jobs=2, cache=ResultCache(root=cache_root))
    r_par = fig8.run("quick", runner=par)

    replay = ExperimentRunner(jobs=2, cache=ResultCache(root=cache_root))
    r_replay = fig8.run("quick", runner=replay)
    assert replay.simulations_executed == 0

    assert r_serial.rows == r_par.rows == r_replay.rows
