"""Hot-path benchmark: wall time and event/packet rates at fig8-quick.

Produces the record committed in ``BENCH_hotpath.json``:

* ``fig8_quick_wall_s`` — wall time of the full fig8 sweep at the
  ``quick`` preset (serial, cache off, telemetry off), min over
  ``--repeats`` runs;
* ``events_per_sec`` / ``packets_per_sec`` — simulator event and packet
  throughput over the same six points, run directly (no runner layer)
  so the rates measure the engine + transport hot path, not dispatch.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out current.json
    python benchmarks/compare.py BENCH_hotpath.json current.json

The committed baselines were measured on the machine that produced the
refactor; cross-machine comparisons need the loose CI bound
(``--max-regression 2.0``), same-machine regression hunts can use the
default ±20 %.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time

from repro.experiments import fig8_basic_perf as fig8
from repro.experiments.common import Network
from repro.experiments.presets import get_preset
from repro.runner import ExperimentRunner, ResultCache


def _run_points_direct() -> tuple[float, int, int]:
    """Run the fig8-quick points without the runner layer.

    Returns (wall_seconds, events_processed, packets_created).
    """
    points = fig8.sweep(get_preset("quick"))
    events = packets = 0
    start = time.perf_counter()
    for point in points:
        net = Network(point.spec)
        for src, dst, size, start_ns in point.params["flows"]:
            net.open_flow(int(src), int(dst), int(size), int(start_ns))
        net.run_until_flows_done(
            max_events=point.params.get("max_events", 500_000_000))
        events += net.sim.events_processed
        packets += net.sim.packet_seq
    wall = time.perf_counter() - start
    return wall, events, packets


def _run_sweep_wall() -> float:
    """Wall time of the real experiment path (serial, cache off)."""
    runner = ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
    start = time.perf_counter()
    fig8.run(preset="quick", runner=runner)
    return time.perf_counter() - start


def _measure(repeats: int) -> dict:
    """One full measurement pass."""
    # Warm pass: imports, bytecode, allocator pools.
    _run_points_direct()
    wall, events, packets = min(
        (_run_points_direct() for _ in range(repeats)), key=lambda r: r[0])
    sweep_wall = min(_run_sweep_wall() for _ in range(repeats))
    return {
        "benchmark": "hotpath",
        # There is one event kernel; the field stays because the committed
        # baselines key their records on it (compare.record_key).
        "backend": "ref",
        "preset": "fig8-quick",
        "repeats": repeats,
        "fig8_quick_wall_s": round(sweep_wall, 6),
        "events": events,
        "packets": packets,
        "events_per_sec": round(events / wall, 1),
        "packets_per_sec": round(packets / wall, 1),
        "python": platform.python_version(),
        "note": ("min over repeats, gc disabled, telemetry off; "
                 "rates from the direct point loop, wall time from the "
                 "serial cache-off sweep"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, metavar="N",
                        help="take the minimum over N runs (default: 5)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON records here (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        records = [_measure(args.repeats)]
    finally:
        if gc_was_enabled:
            gc.enable()

    text = json.dumps(records, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
