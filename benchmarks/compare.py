"""Compare two benchmark files; exit 1 on regression.

::

    python benchmarks/compare.py BENCH_hotpath.json current.json
    python benchmarks/compare.py BENCH_scale.json current.json \
        --max-regression 2.0     # loose cross-machine bound (CI)

Both files hold a list of benchmark records.  Records are matched by
the tuple ``(benchmark, backend, fidelity, hosts)`` — ``hotpath``
records carry only the first two fields, ``scale`` records all four —
and each benchmark has its own metric set
(:data:`METRICS_BY_BENCHMARK`).  A record present in the current file
with no committed baseline is a hard input error naming the missing
key; a baseline record the current run did not measure is skipped (CI
measures a subset of the committed grid — e.g. the 256-host scale
point stays baseline-only on pull requests).

A *regression* is the current record being slower than its baseline by
more than the allowed factor: wall time higher, or event/packet rates
lower.  The default factor of 1.2 (±20 %) absorbs normal same-machine
noise; CI runs on shared machines of unknown speed and uses 2.0.
Improvements never fail, and are reported the same way.

No third-party dependencies — plain stdlib, so it runs anywhere the
repo does.
"""

from __future__ import annotations

import argparse
import json
import sys

#: benchmark -> {metric -> True when larger is better}.
METRICS_BY_BENCHMARK = {
    "hotpath": {
        "fig8_quick_wall_s": False,
        "events_per_sec": True,
        "packets_per_sec": True,
    },
    "scale": {
        "wall_s": False,
        "events_per_sec": True,
    },
}


class CompareError(Exception):
    """A record is unusable (missing key, bad value) — not a regression."""


def record_key(record: dict) -> tuple:
    """``(benchmark, backend, fidelity, hosts)`` identity of a record.

    Legacy hotpath records predate the ``benchmark`` / ``fidelity`` /
    ``hosts`` fields; they default to the values that keep old and new
    files comparable.
    """
    return (record.get("benchmark", "hotpath"),
            record.get("backend", "ref"),
            record.get("fidelity", "-"),
            int(record.get("hosts", 0)))


def _fmt_key(key: tuple) -> str:
    benchmark, backend, fidelity, hosts = key
    label = f"{benchmark}/{backend}"
    if fidelity != "-":
        label += f"/{fidelity}"
    if hosts:
        label += f"/{hosts}h"
    return label


def _metrics_for(key: tuple) -> dict[str, bool]:
    benchmark = key[0]
    try:
        return METRICS_BY_BENCHMARK[benchmark]
    except KeyError:
        raise CompareError(
            f"record {_fmt_key(key)} has unknown benchmark "
            f"{benchmark!r} (known: "
            f"{', '.join(sorted(METRICS_BY_BENCHMARK))})") from None


def _index(records, label: str) -> dict[tuple, dict]:
    """Index a benchmark file's records by :func:`record_key`.

    Accepts the current list-of-records layout and the legacy single
    record (which predates kernel backends and is treated as ``ref``).
    """
    if isinstance(records, dict):
        records = [records]
    if not isinstance(records, list):
        raise CompareError(
            f"{label} file is not a benchmark record list "
            f"(expected a JSON array of benchmark objects)")
    out: dict[tuple, dict] = {}
    for record in records:
        if not isinstance(record, dict):
            raise CompareError(f"{label} file contains a non-object record")
        key = record_key(record)
        if key in out:
            raise CompareError(
                f"{label} file has duplicate records for {_fmt_key(key)} "
                f"— regenerate it with the matching bench_* script")
        out[key] = record
    if not out:
        raise CompareError(f"{label} file contains no records")
    return out


def _metric(record: dict, name: str, label: str) -> float:
    if name not in record:
        raise CompareError(
            f"{label} record lacks metric {name!r} — regenerate it "
            f"with the matching bench_* script")
    value = float(record[name])
    if value <= 0:
        raise CompareError(f"{name}: non-positive value in {label} ({value})")
    return value


def compare_record(baseline: dict, current: dict, max_regression: float,
                   key: tuple) -> list[str]:
    """Compare one record pair; returns failures (empty = clean)."""
    failures = []
    name_tag = _fmt_key(key)
    for name, higher_is_better in _metrics_for(key).items():
        base = _metric(baseline, name, f"baseline[{name_tag}]")
        cur = _metric(current, name, f"current[{name_tag}]")
        # Normalise so ratio > 1 always means "current is slower".
        ratio = base / cur if higher_is_better else cur / base
        verdict = "REGRESSION" if ratio > max_regression else "ok"
        arrow = "slower" if ratio > 1 else "faster"
        print(f"{name_tag:28s} {name:20s} base={base:<12g} cur={cur:<12g} "
              f"{ratio:5.2f}x {arrow}  [{verdict}]")
        if ratio > max_regression:
            failures.append(
                f"{name_tag}/{name}: {ratio:.2f}x slower than baseline "
                f"(allowed {max_regression:.2f}x)")
    return failures


def compare(baseline, current, max_regression: float) -> list[str]:
    """Compare every current record against its baseline record.

    Raises :class:`CompareError` on unusable input — unknown record
    keys, missing metrics, bad values: broken input is not a
    performance verdict, and callers must not conflate the two.
    """
    base_by = _index(baseline, "baseline")
    cur_by = _index(current, "current")
    unknown = sorted(set(cur_by) - set(base_by))
    if unknown:
        raise CompareError(
            f"current file measures record(s) with no committed baseline: "
            f"{', '.join(_fmt_key(k) for k in unknown)} — add baseline "
            f"records with the matching bench_* script")
    skipped = sorted(set(base_by) - set(cur_by))
    if skipped:
        print(f"(baseline-only, skipped: "
              f"{', '.join(_fmt_key(k) for k in skipped)})")
    failures = []
    for key in sorted(cur_by):
        failures += compare_record(base_by[key], cur_by[key],
                                   max_regression, key)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline JSON (e.g. BENCH_hotpath.json)")
    parser.add_argument("current", help="freshly measured JSON to check")
    parser.add_argument("--max-regression", type=float, default=1.2,
                        metavar="FACTOR",
                        help="fail when current is more than FACTOR times "
                             "slower than its baseline (default: 1.2)")
    args = parser.parse_args(argv)
    if args.max_regression <= 1.0:
        parser.error("--max-regression must be > 1.0")

    records = {}
    for label, path in (("baseline", args.baseline), ("current", args.current)):
        try:
            with open(path) as fh:
                records[label] = json.load(fh)
        except FileNotFoundError:
            print(f"error: {label} file not found: {path}\n"
                  f"  (generate it with the matching bench_* script, "
                  f"e.g.: python benchmarks/bench_hotpath.py --out {path})",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {label} file {path} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2

    try:
        failures = compare(records["baseline"], records["current"],
                           args.max_regression)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failures:
        print("\nperformance regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno regression.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
