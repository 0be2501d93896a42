"""Unit tests for the status and table helpers of
``benchmarks/identity_gate.py`` (the repo-wide result-identity gate)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_GATE = Path(__file__).resolve().parents[2] / "benchmarks" / "identity_gate.py"
_spec = importlib.util.spec_from_file_location("identity_gate", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def test_replay_of_zero_simulations_passes():
    status = ("[metrics: 12 records -> m.jsonl]\n"
              "[runner: 0 simulations executed, 40 cache hits; cache at c]\n")
    assert gate.replay_executed_nothing(status)


def test_replay_that_resimulated_a_multiple_of_ten_fails():
    for n in (10, 20, 100):
        status = (f"[runner: {n} simulations executed, 0 cache hits; "
                  f"cache at c]\n")
        assert not gate.replay_executed_nothing(status), n


def test_replay_without_a_runner_trailer_fails():
    assert not gate.replay_executed_nothing("[metrics: 0 records -> m]\n")


def test_scale_wall_clock_cells_are_masked():
    text = ("== scale: wall time vs hosts\n"
            "hosts  wall_s  events\n"
            "-----  ------  ------\n"
            "   16   0.123     500\n"
            "\n"
            "== other: table\n"
            "x  wall_s\n"
            "-  ------\n"
            "1   0.5\n")
    masked = gate.mask_wall_clock(text).splitlines()
    assert masked[3] == "16  *  500"
    assert masked[-1] == "1   0.5"


def test_scale_wall_clock_column_width_is_masked():
    """A wall-clock value that widens its column changes the header and
    the dash rule too; the masked tables must still match."""
    narrow = ("== scale: wall time vs hosts\n"
              "hosts  wall_s  events\n"
              "-----  ------  ------\n"
              "   16   0.123     500\n")
    wide = ("== scale: wall time vs hosts\n"
            "hosts  wall_s   events\n"
            "-----  -------  ------\n"
            "   16  10.123      500\n")
    assert gate.mask_wall_clock(narrow) == gate.mask_wall_clock(wide)
    assert gate.mask_wall_clock(narrow).splitlines()[1:3] == [
        "hosts  wall_s  events", "-----  ------  ------"]
