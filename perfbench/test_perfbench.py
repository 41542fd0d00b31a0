"""Self-test of the benchmark: two traced runs with one seed give identical
counts.  Run from the root of a checkout with

    python3 -m pytest perfbench

Each run does one untraced and one traced batch (`--seconds 0`).  Times and
the trace ratios vary from run to run; every other per-layer metric (call
counts, words enumerated, cover states, failed_frac, uncertified_frac) must
repeat exactly, or a later change cannot rest a claim on it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def counts(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600,
        check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()
            if entry["unit"] != "s" and not name.startswith("trace.")}


@pytest.mark.parametrize("workload", ["desk", "window", "sofic", "cover"])
def test_counts_repeat(workload):
    first = counts(workload)
    assert first["repo.src_lines"] > 0
    assert "shifts.words_enumerated" in first
    assert first == counts(workload)
