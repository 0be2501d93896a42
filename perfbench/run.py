#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload incast_websearch --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``) with no layer wrapped.  ``--trace 1`` also runs
untraced passes, then traced passes with every layer's entry point
wrapped, and prints the per-layer metrics.  Either way the run checks
that every flow completed with exact bytes and that the model digest
is identical across passes (and, traced, between the traced and
untraced passes and a cache replay).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Passes below this count never measure; the digest check needs two.
MIN_PASSES = 2

#: Environment toggles that select a non-default simulator path.
TOGGLES = ("REPRO_BURST", "REPRO_KERNEL", "REPRO_PACKET_POOL")


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator source under "
                         f"{ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def header(args) -> dict:
    repro_env = {k: v for k, v in sorted(os.environ.items())
                 if k.startswith("REPRO_")}
    toggled = sorted(k for k in TOGGLES if k in repro_env)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "default": not toggled, "toggles_set": toggled,
            "repro_env": repro_env, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": _git_commit()}


class Pass:
    """One closed-loop pass over a workload's points."""

    def __init__(self, wall_s: float, payloads: list, records: list[dict]
                 ) -> None:
        from perfbench.stats import model_digest

        self.wall_s = wall_s
        self.payloads = payloads
        self.records = records
        self.setup_s = sum(r["setup_ns"] for r in records) / 1e9
        self.attempted = sum(r["attempted"] for r in records)
        self.failed = sum(r["failed"] for r in records)
        self.events = sum(r["events"] for r in records)
        self.sim_ms = sum(r["sim_ns"] for r in records) / 1e6
        self.payload_bytes = sum(r["payload_bytes"] for r in records)
        self.digest = model_digest(payloads)


def run_pass(workload, probe, points=None, collect=False) -> Pass:
    from repro.runner import ExperimentRunner, ResultCache

    probe.reset(collect)
    runner = ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
    gc.collect()
    start = time.perf_counter()
    payloads = runner.run_points(workload.name,
                                 list(points or workload.points),
                                 workload.point_runner)
    wall = time.perf_counter() - start
    return Pass(wall, payloads, probe.records)


def run_passes(workload, probe, until: float, collect: bool = False,
               minimum: int = MIN_PASSES) -> list[Pass]:
    """Passes back to back until ``until`` (perf_counter), at least
    ``minimum`` of them."""
    passes: list[Pass] = []
    while len(passes) < minimum or time.perf_counter() < until:
        passes.append(run_pass(workload, probe, collect=collect))
    return passes


def cache_replay(workload, payloads) -> tuple[float, float, list]:
    """One warm replay of the pass against a fresh on-disk cache.

    Returns ``(replay_s, hit_ratio, replayed payloads)``.
    """
    from repro.runner import ExperimentRunner, ResultCache, cache_key

    scratch = ROOT / ".perfbench_tmp"
    root = scratch / f"cache-{os.getpid()}"
    try:
        cache = ResultCache(root=root)
        for point, payload in zip(workload.points, payloads):
            cache.put(cache_key(workload.name, point.point_id, point.spec,
                                point.params), payload)
        runner = ExperimentRunner(jobs=1, cache=cache)
        start = time.perf_counter()
        replayed = runner.run_points(workload.name, list(workload.points),
                                     workload.point_runner)
        replay_s = time.perf_counter() - start
        return replay_s, cache.hits / len(workload.points), replayed
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def end_to_end(passes: list[Pass]) -> dict:
    from perfbench.stats import median

    return {
        "wall_s": (median([p.wall_s for p in passes]), "s"),
        "setup_s": (median([p.setup_s for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], recorder,
              replay_s: float, hit_ratio: float) -> dict:
    from perfbench.stats import digest_number, median, percentile

    n = len(traced)
    calls = {k: v / n for k, v in recorder.calls.items()}
    self_s = {k: v / n / 1e9 for k, v in recorder.self_ns.items()}
    counters: Counter = Counter()
    for record in traced[0].records:
        counters.update(record["counters"])
    wall = median([p.wall_s for p in untraced])
    setup = median([p.setup_s for p in untraced])
    events = untraced[0].events

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def c(*names):
        return sum(calls.get(name, 0) for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    fidelity = [f"fidelity.{m}" for m in ("register", "escalate",
                                          "timeline_for")]
    slow = [x for r in traced[0].records for x in r["slowdowns"]]
    payloads = untraced[0].payloads
    goodputs = [f["goodput_gbps"] for p in payloads
                if isinstance(p.get("flows"), list) for f in p["flows"]]
    jcts = [p["mean_jct_ns"] for p in payloads if "mean_jct_ns" in p]
    sent = counters["data_pkts_sent"] + counters["retx_pkts"]
    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    m = {
        "sim.events": (events, "count"),
        "sim.self_s": (s("sim"), "s"),
        "sim.host_ns_per_event": (ratio(wall - setup, events) * 1e9, "ns"),
        "experiments.network_build_s": (s("experiments.network_build"), "s"),
        "experiments.open_flow_s": (s("experiments.open_flow"), "s"),
        "experiments.open_flow.calls": (c("experiments.open_flow"), "count"),
        "workload.collective_start_s": (s("workload.collective_start"), "s"),
        "net.link.calls": (c("net.link", "net.link_rifl"), "count"),
        "net.link.self_s": (s("net.link", "net.link_rifl"), "s"),
        "net.port.calls": (c("net.port"), "count"),
        "net.port.self_s": (s("net.port"), "s"),
        "net.switch.calls": (c("net.switch"), "count"),
        "net.switch.self_s": (s("net.switch"), "s"),
        "net.packets_built": (counters["packets_built"], "count"),
        "net.packets_delivered": (counters["packets_delivered"], "count"),
        "net.delivered_per_built": (ratio(counters["packets_delivered"],
                                          counters["packets_built"]), "ratio"),
        "net.switch.trimmed": (counters["trimmed"], "count"),
        "net.switch.dropped": (counters["dropped"], "count"),
        "net.switch.ecn_marked": (counters["ecn_marked"], "count"),
        "rnic.calls": (c("rnic"), "count"),
        "rnic.self_s": (s("rnic"), "s"),
        "rnic.post_flow_s": (s("rnic.post_flow"), "s"),
        "rnic.retx_pkts": (counters["retx_pkts"], "count"),
        "rnic.timeouts": (counters["timeouts"], "count"),
        "rnic.dup_pkts": (counters["dup_pkts"], "count"),
        "rnic.goodput_ratio": (ratio(counters["data_pkts_sent"], sent),
                               "ratio"),
        "core.dcp.ho_received": (counters["ho_received"], "count"),
        "cc.calls": (c("cc"), "count"),
        "cc.self_s": (s("cc"), "s"),
        "fidelity.calls": (c(*fidelity), "count"),
        "fidelity.self_s": (s(*fidelity), "s"),
        "fidelity.fluid_flows": (counters["fluid_flows"], "count"),
        "fidelity.escalations": (counters["escalations"], "count"),
        "fidelity.fluid_share": (ratio(counters["fluid_flows"],
                                       counters["hybrid_flows"]), "ratio"),
        "runner.overhead_s": (s("runner"), "s"),
        "runner.point_self_s": (s("runner.point"), "s"),
        "runner.canonicalize_s": (s("runner.canonicalize"), "s"),
        "runner.cache.replay_s": (replay_s, "s"),
        "runner.cache.hit_ratio": (hit_ratio, "ratio"),
        "obs.to_payload_s": (s("obs.to_payload"), "s"),
        "trace.overhead_s": (median([p.wall_s for p in traced]) - wall, "s"),
        "flow_fail_frac": (ratio(failed, attempted), "ratio"),
        "model.digest": (digest_number(untraced[0].digest), "id"),
        "model.fct_p50_slowdown": (percentile(slow, 50) if slow else 0.0,
                                   "x"),
        "model.fct_p99_slowdown": (percentile(slow, 99) if slow else 0.0,
                                   "x"),
        "model.goodput_gbps_mean": (ratio(sum(goodputs), len(goodputs)),
                                    "Gbps"),
        "model.jct_ms_mean": (ratio(sum(jcts), len(jcts)) / 1e6, "ms"),
        "model.sim_ms": (untraced[0].sim_ms, "ms"),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _bootstrap()

    from perfbench import workloads
    from perfbench.probe import PointProbe
    from perfbench.stats import median, model_digest, tail_percentile
    from perfbench.tracing import (Patcher, SpanRecorder, coverage_failures,
                                   install_layer_spans)

    try:
        workload = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    head = header(args)
    print("header " + json.dumps(head, sort_keys=True))
    if not head["default"]:
        print("NON-DEFAULT RUN: toggles set: " + ", ".join(
            f"{k}={os.environ[k]}" for k in head["toggles_set"]))

    probe = PointProbe()
    probe_patches = Patcher()
    probe.install(probe_patches)
    problems: list[str] = []
    try:
        start = time.perf_counter()
        # Warm-up (not measured): imports, bytecode, allocator pools.
        run_pass(workload, probe, points=workload.points[:1])
        traced: list = []
        if args.trace:
            untraced = run_passes(workload, probe,
                                  start + args.seconds / 3.0)
            recorder = SpanRecorder()
            layer_patches = Patcher()
            install_layer_spans(layer_patches, recorder)
            try:
                traced = run_passes(workload, probe, start + args.seconds,
                                    collect=True, minimum=1)
            finally:
                layer_patches.restore()
            replay_s, hit_ratio, replayed = cache_replay(
                workload, untraced[0].payloads)
        else:
            untraced = run_passes(workload, probe, start + args.seconds)
    finally:
        probe_patches.restore()

    passes = untraced + traced
    first = untraced[0]
    print(f"work per pass: points={len(workload.points)} "
          f"flows={first.attempted} payload_bytes={first.payload_bytes} "
          f"sim_ms={first.sim_ms:.6f} events={first.events}")
    for i, p in enumerate(passes):
        kind = "traced" if i >= len(untraced) else "untraced"
        print(f"pass {i} {kind}: wall_s={p.wall_s:.6f} "
              f"setup_s={p.setup_s:.6f} failed={p.failed}/{p.attempted}")
    walls = [p.wall_s for p in untraced]
    tail = tail_percentile(walls)
    print(f"wall_s over {len(walls)} untraced passes: "
          f"median={median(walls):.6f} "
          + (f"p{tail[0]:g}={tail[1]:.6f}" if tail
             else "tail=none (fewer than 10 passes beyond any percentile)"))

    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} flows did not complete "
                        f"with exact bytes")
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"model digest differs across passes: "
                        f"{sorted(digests)}")
    if args.trace:
        if hit_ratio != 1.0:
            problems.append(f"cache replay hit ratio {hit_ratio} != 1")
        if model_digest(replayed) != first.digest:
            problems.append("model digest differs after cache replay")
        totals: Counter = Counter()
        for p in traced:
            for record in p.records:
                totals.update(record["counters"])
        simulate_points = (len(workload.points) * len(traced)
                           if workload.point_runner == workloads.SIMULATE_FLOWS
                           else 0)
        problems += [f"trace coverage: {msg}" for msg in coverage_failures(
            recorder.calls, totals, len(workload.points) * len(traced),
            simulate_points)]
        metrics = per_layer(untraced, traced, recorder, replay_s, hit_ratio)
    else:
        metrics = end_to_end(untraced)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.9g} {unit}")
    for problem in problems:
        print("CHECK FAILED: " + problem)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
