"""Scale benchmark: simulator cost vs host count, packet vs hybrid tier.

Produces the records committed in ``BENCH_scale.json`` — one record per
``(fidelity, hosts)`` cell of the scale experiment's collective
workload (:mod:`repro.experiments.scale`), run directly through the
point runner with the cache off so every ``wall_s`` is a real
measurement.  The grid:

* ``packet`` × (16, 64) hosts — the exact-simulation cost curve;
* ``hybrid`` × (16, 64, 256) hosts — the fluid tier at the same sizes
  plus the fig14-style 256-host AI-collective demo point.

The hybrid 256-host record additionally carries
``speedup_vs_packet64_extrap``: its wall time against the packet-mode
cost extrapolated linearly per host from the 64-host packet run.  The
acceptance bar for the hybrid tier is that this stays >= 5.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_scale.py --out current.json
    python benchmarks/compare.py BENCH_scale.json current.json

Records match against the baseline by ``(benchmark, backend, fidelity,
hosts)``; ``--hosts`` restricts the grid (CI measures 16/64 only, so
the committed 256-host record stays baseline-only there and
``compare.py`` skips it).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time

from repro.experiments.presets import get_preset
from repro.experiments.scale import PACKET_MAX_HOSTS, point_spec, run_scale_point

#: (fidelity, hosts) grid measured by default.
GRID = (("packet", 16), ("packet", 64),
        ("hybrid", 16), ("hybrid", 64), ("hybrid", 256))


def _measure_cell(fidelity: str, hosts: int, preset, repeats: int) -> dict:
    spec, params = point_spec(preset, fidelity, hosts)
    payloads = []
    for _ in range(repeats):
        payloads.append(run_scale_point(spec, params))
    best = min(payloads, key=lambda p: p["wall_s"])
    record = {
        "benchmark": "scale",
        # There is one event kernel; the field stays because the committed
        # baselines key their records on it (compare.record_key).
        "backend": "ref",
        "fidelity": fidelity,
        "hosts": hosts,
        "preset": preset.name,
        "repeats": repeats,
        "wall_s": round(best["wall_s"], 6),
        "events": best["events"],
        "events_per_sec": round(best["events"] / best["wall_s"], 1),
        "flows": best["flows"],
        "python": platform.python_version(),
        "note": ("min over repeats, gc disabled, cache off; one "
                 "ring-AllReduce per leaf, dcp/ar/clos (see "
                 "repro.experiments.scale)"),
    }
    if fidelity == "hybrid":
        fluid = best.get("fluid") or {}
        record["fluid_flows"] = fluid.get("fluid_flows", 0)
        record["escalations"] = fluid.get("escalations", 0)
    return record


def _attach_speedup(records: list[dict]) -> None:
    """Score hybrid records against the packet cost curve.

    Linear per-host extrapolation from the largest packet run measured
    — the packet event count per host is flat for this workload (one
    ring per leaf, no cross-leaf traffic), so linear is *conservative*:
    real packet runs degrade super-linearly as the working set leaves
    cache.
    """
    packet = {r["hosts"]: r["wall_s"] for r in records
              if r["fidelity"] == "packet"}
    if not packet:
        return
    anchor = max(packet)
    per_host = packet[anchor] / anchor
    for record in records:
        if record["fidelity"] != "hybrid":
            continue
        extrap = per_host * record["hosts"]
        record[f"speedup_vs_packet{anchor}_extrap"] = round(
            extrap / record["wall_s"], 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="take the minimum over N runs (default: 3)")
    parser.add_argument("--preset", default="quick",
                        choices=("quick", "default", "full"),
                        help="workload sizing preset (default: quick — "
                             "the committed baseline grid)")
    parser.add_argument("--hosts", default=None, metavar="LIST",
                        help="comma-separated host counts to measure "
                             "(default: the full 16/64/256 grid)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON records here (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    grid = GRID
    if args.hosts:
        try:
            wanted = {int(h) for h in args.hosts.split(",") if h.strip()}
        except ValueError:
            parser.error(f"bad --hosts {args.hosts!r} (expected e.g. 16,64)")
        if not wanted:
            parser.error("--hosts selected no host counts")
        grid = tuple((f, h) for f, h in GRID if h in wanted)
        if not grid:
            parser.error(f"--hosts {args.hosts!r} matches no grid cell "
                         f"(grid hosts: {sorted({h for _f, h in GRID})})")
    preset = get_preset(args.preset)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Warm pass: imports, bytecode, allocator pools.
        _measure_cell("packet", 16, preset, 1)
        records = []
        for fidelity, hosts in grid:
            if fidelity == "packet" and hosts > PACKET_MAX_HOSTS:
                continue
            records.append(_measure_cell(fidelity, hosts, preset,
                                         args.repeats))
    finally:
        if gc_was_enabled:
            gc.enable()
    _attach_speedup(records)

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
