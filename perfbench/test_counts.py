"""The benchmark's own check: count metrics of the traced run repeat exactly.

    python3 -m pytest perfbench/test_counts.py

A performance change may cite a count (closures, allocations, inclusion
tests per event, reach-set peak, latency reports per CLI event) only if two
runs of one seed give the same number.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (
    ".dbm.closures_per_event", ".dbm.allocs_per_event",
    ".dbm.includes_calls_per_event", ".automata.reach_states_peak",
    ".automata.post_calls_per_event", "cli.latency_reports_per_event",
    "setup.dbm.closures", "setup.dbm.subtract_calls",
    "setup.liveness.nonempty_zones",
)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600,
        check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["gear-steady", "cli-sessions"])
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert len(counts) >= 12
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_cli_reports_twice_per_event():
    assert traced("cli-sessions", 0)["cli.latency_reports_per_event"] == 2
