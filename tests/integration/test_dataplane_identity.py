"""Bit-identity of the packet pool (``REPRO_PACKET_POOL``).

The pool only changes *where packet objects come from* — a per-run
free list instead of fresh construction — never the event stream.
These tests pin that contract across the pool's on/off/debug modes,
over a clean direct point, a lossy Clos point (NAK, RTO and
fast-retransmit paths), and a link-flap chaos scenario.  Beyond the
payload, every cell also compares ``sim.packet_seq``: packet uids are
allocated identically whichever mode recycles them.
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

#: (REPRO_PACKET_POOL, REPRO_PACKET_POOL_DEBUG)
POOL_MODES = (
    ("1", ""),      # pool on (the default)
    ("0", ""),      # pool off: every packet freshly constructed
    ("1", "1"),     # pool poison/debug mode
)


def _run(monkeypatch, pool, debug, spec, params):
    monkeypatch.setenv("REPRO_PACKET_POOL", pool)
    monkeypatch.setenv("REPRO_PACKET_POOL_DEBUG", debug)
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


def _assert_pool_invisible(monkeypatch, spec, params):
    runs = {mode: _run(monkeypatch, *mode, spec, params)
            for mode in POOL_MODES}
    reference = runs[POOL_MODES[0]]
    for mode, run in runs.items():
        assert run == reference, f"run diverged under pool mode {mode}"


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_pool_modes_direct(monkeypatch, transport):
    """Every pool mode yields the same run on the clean direct point
    every figure sweep is built from."""
    spec = NetworkSpec(transport=transport, topology="direct", num_hosts=2,
                       link_rate=100.0, host_link_delay_ns=500,
                       window_bytes=262_144)
    params = {"flows": [[0, 1, 1_000_000, 0]], "max_events": 50_000_000}
    _assert_pool_invisible(monkeypatch, spec, params)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_pool_modes_lossy_clos(monkeypatch, transport):
    """Injected loss drives the retransmission paths, which release and
    re-allocate packets out of order; the run must not move."""
    spec = NetworkSpec(transport=transport, topology="clos", num_hosts=4,
                       link_rate=100.0, host_link_delay_ns=500,
                       window_bytes=262_144, loss_rate=0.01)
    params = {"flows": [[0, 2, 300_000, 0], [1, 3, 300_000, 0]],
              "max_events": 50_000_000}
    _assert_pool_invisible(monkeypatch, spec, params)


def test_pool_modes_link_flap(monkeypatch):
    """Packets dropped on a downed link return to the pool early; the
    chaos run must not move."""
    quick = get_preset("quick")
    spec = robustness._spec("dcp", quick)
    flow_bytes = robustness._flow_bytes(quick)
    params = {"flows": [[0, 2, flow_bytes, 0], [1, 3, flow_bytes, 10_000]],
              "max_events": 60_000_000,
              "chaos": get_scenario("link_flap")}
    _assert_pool_invisible(monkeypatch, spec, params)


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
