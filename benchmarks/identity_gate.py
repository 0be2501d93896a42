"""Result-identity gate: every sim experiment and library campaign must
produce byte-identical output however it is executed.

For each target — the whole experiment registry (``all``) and every
library campaign — the CLI runs three ways at the quick preset:

1. ``serial``: ``--jobs 1`` into a fresh result cache;
2. ``jobs2``: ``--jobs 2``, cache off;
3. ``replay``: ``--jobs 1`` against the cache run 1 filled, which must
   report ``0 simulations executed``.

The printed tables (status lines starting with ``[`` dropped) and the
``--metrics-out`` JSONL of runs 2 and 3 must equal run 1 byte for byte.
The one exception is the ``scale`` table's wall-clock columns, which
time the host, not the model: they are masked before comparison (the
replay still reproduces them, since ``wall_s`` rides the cache).

Run from the repo root::

    PYTHONPATH=src python benchmarks/identity_gate.py

Exits 1 if any target diverges, printing the start of each diff.
"""

from __future__ import annotations

import argparse
import difflib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.campaigns import campaign_names

#: experiment -> table columns that measure host wall-clock time.
WALL_CLOCK_COLUMNS = {
    "scale": {"wall_s", "events_per_sec", "speedup_vs_packet"},
}


def mask_wall_clock(text: str) -> str:
    """Replace wall-clock cells of the tables named in
    :data:`WALL_CLOCK_COLUMNS` with ``*``.

    Cells are cut at the spans of the table's dash rule (column widths
    vary with the values), and the header, the rule and every row are
    re-joined with two spaces, so a wall-clock value that widens its
    column does not show either.
    """
    out: list[str] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        out.append(line)
        i += 1
        if not line.startswith("== ") or i + 1 >= len(lines):
            continue
        masked = WALL_CLOCK_COLUMNS.get(line[3:].split(":", 1)[0])
        if masked is None:
            continue
        header, rule = lines[i], lines[i + 1]
        spans = []
        start = None
        for pos, ch in enumerate(rule + " "):
            if ch == "-" and start is None:
                start = pos
            elif ch != "-" and start is not None:
                spans.append((start, pos))
                start = None
        names = [header[a:b].strip() for a, b in spans]
        out += ["  ".join(names), "  ".join("-" * len(n) for n in names)]
        i += 2
        while i < len(lines) and lines[i] and not lines[i].startswith("note:"):
            cells = [lines[i][a:b].strip() for a, b in spans]
            out.append("  ".join("*" if name in masked else cell
                                 for name, cell in zip(names, cells)))
            i += 1
    return "\n".join(out) + "\n"


def replay_executed_nothing(status: str) -> bool:
    """True when the CLI's runner trailer reports zero simulations."""
    return re.search(r"^\[runner: 0 simulations executed,", status,
                     re.M) is not None


def run_cli(args: list[str], metrics: Path) -> tuple[str, str, str]:
    """Run the experiment CLI; returns (table, status lines, metrics)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args,
         "--metrics-out", str(metrics)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"command failed ({proc.returncode}): {args}")
    table = "".join(line + "\n" for line in proc.stdout.splitlines()
                    if not line.startswith("["))
    status = "".join(line + "\n" for line in proc.stdout.splitlines()
                     if line.startswith("["))
    return mask_wall_clock(table), status, metrics.read_text()


def check_target(target: list[str], workdir: Path) -> bool:
    """Run one target three ways; True when every run matches serial."""
    name = "-".join(target)
    cache = workdir / f"{name}-cache"
    common = [*target, "--preset", "quick"]
    runs = {
        "serial": ["--jobs", "1", "--cache-dir", str(cache)],
        "jobs2": ["--jobs", "2", "--no-cache"],
        "replay": ["--jobs", "1", "--cache-dir", str(cache)],
    }
    outputs = {}
    for mode, flags in runs.items():
        metrics = workdir / f"{name}-{mode}.jsonl"
        outputs[mode] = run_cli(common + flags, metrics)
    ok = True
    if not replay_executed_nothing(outputs["replay"][1]):
        print(f"FAIL {name}: cache replay re-simulated:\n"
              f"{outputs['replay'][1]}")
        ok = False
    table, _, metrics = outputs["serial"]
    for mode in ("jobs2", "replay"):
        for label, ref, got in (("table", table, outputs[mode][0]),
                                ("metrics", metrics, outputs[mode][2])):
            if got == ref:
                continue
            ok = False
            diff = difflib.unified_diff(
                ref.splitlines(), got.splitlines(),
                f"serial/{label}", f"{mode}/{label}", lineterm="", n=1)
            print(f"FAIL {name}: {label} differs under {mode}")
            print("\n".join(list(diff)[:20]))
    if ok:
        print(f"ok   {name}: serial == jobs2 == replay "
              f"({table.count(chr(10))} table lines, "
              f"{metrics.count(chr(10))} metrics records)")
    return ok


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    targets = [["all"]] + [["campaign", c] for c in campaign_names()]
    with tempfile.TemporaryDirectory() as tmp:
        results = [check_target(t, Path(tmp)) for t in targets]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
