"""Every operation of the benchmark in `perfbench/workloads.py` runs once on
the current sources: its independent check finds no problem, and its report
and verdict readers find every name they read.  The benchmark's own
self-test (`python -m pytest perfbench`) only compares two runs, so an
operation that fails in both would pass there."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    # registered before it runs, as its dataclasses look their module up
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", ["desk", "window", "sofic", "cover"])
def test_every_operation_runs_and_checks(name):
    state = {}
    for op in workloads.build(name, 7, ROOT):
        result = op.run(state)
        assert op.check(result) == [], op.name
        assert all(isinstance(line, str) for line in op.report(result)), op.name
        if op.certified is not None:
            op.certified(result)
