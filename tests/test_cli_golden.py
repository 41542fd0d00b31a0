"""Golden gate for the machine-format CLI reports.

Every subcommand runs in `--format machine` on each `scripts/data/*.shift`
file with the zero, `f_log2.pot` and `f_range2.pot` potentials, plus
`verify counterexample`.  The exit code, stdout and stderr of each run are
compared byte for byte against `tests/golden/cli_machine.txt`.  Cylinder
tables (`eqmeasure`, `pushforward`) use `--depth 4` to keep the file small;
every other run uses the default options.

Regenerate the golden file only when a report is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from soficgibbs.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_machine.txt"
DATA = "scripts/data"
SHIFTS = sorted(p.name for p in (ROOT / DATA).glob("*.shift"))
POTENTIALS = ("zero", f"{DATA}/f_log2.pot", f"{DATA}/f_range2.pot")
TABLES = ("eqmeasure", "pushforward")
WEIGHTED = ("pressure", *TABLES, "gibbs-check", "verify lanford-ruelle",
            "verify dobrushin", "verify finite-to-one")
END = "--- end\n"


def invocations():
    runs = [["verify", "counterexample", "--format", "machine"]]
    for shift in SHIFTS:
        path = f"{DATA}/{shift}"
        for command in ("analyze", "fischer"):
            runs.append([command, path, "--format", "machine"])
        for potential in POTENTIALS:
            for command in WEIGHTED:
                argv = [*command.split(), path, "--potential", potential,
                        "--format", "machine"]
                if command in TABLES:
                    argv += ["--depth", "4"]
                runs.append(argv)
    return runs


def record(argv) -> str:
    """One golden entry: the command line, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return (f"$ soficgibbs {' '.join(argv)}\nexit = {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}{END}")


def golden_entries():
    text = GOLDEN.read_text(encoding="utf-8")
    return {entry.split("\n", 1)[0]: entry + END
            for entry in text.split(END) if entry}


@pytest.fixture(scope="module")
def golden():
    return golden_entries()


def test_golden_covers_every_invocation(golden):
    assert list(golden) == [f"$ soficgibbs {' '.join(a)}" for a in invocations()]


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_machine_report_matches_golden(argv, golden):
    entry = record(argv)
    assert entry == golden[entry.split("\n", 1)[0]]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(record(a) for a in invocations()),
                      encoding="utf-8")
    sys.exit(0)
