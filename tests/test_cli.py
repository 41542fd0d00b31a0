import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from soficgibbs import shifts
from soficgibbs.cli import main

GOLDEN_MEAN = """\
[alphabet] 0 1
[shift] kind=edge vertices=A B
edge e1: A -> A label 0
edge e2: A -> B label 1
edge e3: B -> A label 0
"""

EVEN_SHIFT = """\
[alphabet] 0 1
[shift] kind=labeled vertices=A B
edge a: A -> A label 1
edge b: A -> B label 0
edge c: B -> A label 0
"""

XOR = """\
[alphabet] 0 1
[shift] kind=edge vertices=0 1
edge 00: 0 -> 0 label 0
edge 01: 0 -> 1 label 0
edge 10: 1 -> 0 label 1
edge 11: 1 -> 1 label 1
[code] memory=0 anticipation=0
map 00 -> 0
map 01 -> 1
map 10 -> 1
map 11 -> 0
"""

F_LOG2 = "[potential] range=1\nf(0) = 0.0\nf(1) = log(2)\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("golden_mean.shift", GOLDEN_MEAN),
                       ("even_shift.shift", EVEN_SHIFT),
                       ("xor.shift", XOR), ("f_log2.pot", F_LOG2)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    return code, values, out


class TestPressure:
    def test_golden_mean_zero_potential(self, files, capsys):
        code, values, _ = run(capsys, "pressure", files["golden_mean.shift"],
                              "--potential", "zero")
        assert code == 0
        assert abs(float(values["pressure"])
                   - math.log((1 + math.sqrt(5)) / 2)) < 1e-9
        assert values["verdict"] == "pass"

    def test_golden_mean_weighted_exactly_log2(self, files, capsys):
        code, values, _ = run(capsys, "pressure", files["golden_mean.shift"],
                              "--potential", files["f_log2.pot"],
                              "--format", "machine")
        assert code == 0
        assert abs(float(values["pressure"]) - math.log(2)) < 1e-12

    def test_even_shift_sofic_pressure(self, files, capsys):
        code, values, _ = run(capsys, "pressure", files["even_shift.shift"])
        assert code == 0
        assert abs(float(values["pressure"])
                   - math.log((1 + math.sqrt(5)) / 2)) < 1e-9


class TestAnalyze:
    def test_golden_mean(self, files, capsys):
        code, values, _ = run(capsys, "analyze", files["golden_mean.shift"],
                              "--format", "machine")
        assert code == 0
        assert values["vertices"] == "2"
        assert values["irreducible"] == "true"
        assert values["period"] == "1"


class TestFischer:
    def test_even_shift(self, files, capsys):
        code, values, _ = run(capsys, "fischer", files["even_shift.shift"])
        assert code == 0
        assert values["states"] == "2"
        assert values["degree"] == "1"
        assert values["magic_word"] == "1"


class TestVerify:
    def test_counterexample(self, files, capsys):
        code, values, _ = run(capsys, "verify", "counterexample")
        assert code == 0
        assert values["equilibrium"] == "yes"
        assert values["gibbs"] == "no"
        assert values["irreducible"] == "false"
        assert values["verdict"] == "pass"

    def test_lanford_ruelle_even_shift(self, files, capsys):
        code, values, _ = run(capsys, "verify", "lanford-ruelle",
                              files["even_shift.shift"], "--cmax", "20",
                              "--tol", "1e-6")
        assert code == 0
        assert values["cover_degree"] == "1"
        assert values["verdict"] == "pass"

    def test_dobrushin_even_shift(self, files, capsys):
        code, values, _ = run(capsys, "verify", "dobrushin",
                              files["even_shift.shift"])
        assert code == 0
        assert float(values["deviation"]) < 0.01

    def test_finite_to_one_xor(self, files, capsys):
        code, values, _ = run(capsys, "verify", "finite-to-one",
                              files["xor.shift"], "--potential",
                              files["f_log2.pot"])
        assert code == 0
        assert values["degree"] == "2"
        assert values["verdict"] == "pass"


class TestOtherCommands:
    def test_eqmeasure_table(self, files, capsys):
        code, values, _ = run(capsys, "eqmeasure", files["golden_mean.shift"],
                              "--depth", "2", "--format", "machine")
        assert code == 0
        total = sum(float(v) for k, v in values.items()
                    if k.startswith("cylinder(") and k.count("~") == 0
                    and len(k) == len("cylinder(e1)"))
        assert abs(total - 1.0) < 1e-9

    def test_pushforward_table(self, files, capsys):
        code, values, _ = run(capsys, "pushforward", files["golden_mean.shift"],
                              "--depth", "1", "--format", "machine")
        assert code == 0
        assert abs(float(values["cylinder(0)"]) + float(values["cylinder(1)"])
                   - 1.0) < 1e-12

    def test_gibbs_check(self, files, capsys):
        code, values, _ = run(capsys, "gibbs-check", files["even_shift.shift"],
                              "--cmax", "12")
        assert code == 0
        assert values["verdict"] == "pass"


class TestErrorsAndDeterminism:
    def test_missing_file_exit_2(self, capsys):
        assert main(["pressure", "/nonexistent.shift"]) == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.shift"
        bad.write_text("[shift] kind=edge vertices=A\nedge e1: A -> B\n")
        assert main(["analyze", str(bad)]) == 2

    def test_machine_reports_are_byte_identical(self, files, capsys):
        _, _, first = run(capsys, "verify", "lanford-ruelle",
                          files["even_shift.shift"], "--cmax", "8",
                          "--format", "machine")
        _, _, second = run(capsys, "verify", "lanford-ruelle",
                          files["even_shift.shift"], "--cmax", "8",
                          "--format", "machine")
        assert first == second


class TestExitCodeOne:
    def test_unreachable_tolerance_fails_with_exit_1(self, files, capsys):
        code, values, _ = run(capsys, "verify", "lanford-ruelle",
                              files["even_shift.shift"], "--cmax", "8",
                              "--tol", "1e-30")
        assert code == 1
        assert values["verdict"] == "fail"


class TestReduciblePeriodReport:
    def test_component_periods_listed(self, tmp_path, capsys):
        text = ("[shift] kind=edge vertices=A B\n"
                "edge e1: A -> A\n"
                "edge e2: B -> B\n")
        p = tmp_path / "two_loops.shift"
        p.write_text(text)
        code, values, _ = run(capsys, "analyze", str(p))
        assert code == 0
        assert values["irreducible"] == "false"
        assert values["component_period(A)"] == "1"
        assert values["component_period(B)"] == "1"


class TestMoreErrors:
    def test_fischer_on_reducible_shift_exit_2(self, tmp_path, capsys):
        text = ("[alphabet] 0 1\n"
                "[shift] kind=labeled vertices=L R\n"
                "edge a: L -> L label 0\n"
                "edge b: L -> R label 1\n"
                "edge c: R -> R label 0\n")
        p = tmp_path / "sunny.shift"
        p.write_text(text)
        assert main(["fischer", str(p)]) == 2

    @pytest.mark.parametrize("kind", ["edge", "labeled"])
    def test_pressure_on_edgeless_shift_exit_2(self, tmp_path, capsys, kind):
        p = tmp_path / "edgeless.shift"
        p.write_text(f"[alphabet] 0\n[shift] kind={kind} vertices=A\n")
        assert main(["pressure", str(p), "--format", "machine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_context_class_cap_exit_2(self, files, capsys, monkeypatch):
        # both length-1 left contexts of the even shift are classes of their
        # own, so a cap of one class is exceeded at the first level
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 1)
        assert main(["gibbs-check", files["even_shift.shift"],
                     "--cmax", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: enumeration too large: 2 items exceeds cap 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["gibbs-check", "scripts/data/even_shift.shift", "--cmax", "0"],
    ["verify", "lanford-ruelle", "scripts/data/golden_mean.shift", "--cmax", "0"],
    ["verify", "dobrushin", "scripts/data/even_shift.shift", "--depth", "1"],
])
def test_out_of_range_option_exits_2(argv):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "soficgibbs.cli", *argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "scripts/data/golden_mean.shift", "--tol", "1"],
    ["fischer", "scripts/data/even_shift.shift", "--potential", "zero"],
    ["pressure", "scripts/data/even_shift.shift", "--depth", "3"],
    ["eqmeasure", "scripts/data/even_shift.shift", "--cmax", "3"],
    ["gibbs-check", "scripts/data/even_shift.shift", "--depth", "3"],
    ["verify", "lanford-ruelle", "scripts/data/even_shift.shift", "--depth", "3"],
    ["verify", "dobrushin", "scripts/data/even_shift.shift", "--cmax", "3"],
    ["verify", "finite-to-one", "scripts/data/full2_xor.shift", "--depth", "3"],
    ["verify", "counterexample", "scripts/data/even_shift.shift",
     "--potential", "missing.pot", "--cmax", "3"],
])
def test_option_the_command_does_not_read_exits_2(argv, capsys):
    # the command reads its name and, but for counterexample, a shift file
    read = 2 + (argv[0] == "verify" and argv[1] != "counterexample")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[read:]) in captured.err


@pytest.mark.parametrize("shift, potential, message", [
    ("[shift] kind=edge vertices=A A\nedge e1: A -> A\n", None,
     "duplicate vertex"),
    ("[alphabet] 0 0\n[shift] kind=forbidden window=2\nforbid 00\n", None,
     "alphabet symbols must be distinct"),
    (GOLDEN_MEAN, "[potential] range=1\nf(0) = 1e400\nf(1) = 0\n",
     "line 2: real literal '1e400' is not finite"),
    (GOLDEN_MEAN, "[potential] range=1\nf(0) = 800\nf(1) = 0\n",
     "exp of the potential on edge"),
], ids=["duplicate-vertex", "duplicate-symbol", "infinite-real", "exp-overflow"])
@pytest.mark.parametrize("command", [["pressure"], ["verify", "dobrushin"]],
                         ids=["pressure", "dobrushin"])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, shift,
                                                     potential, message,
                                                     command):
    argv = [*command, str(tmp_path / "s.shift")]
    (tmp_path / "s.shift").write_text(shift)
    if potential is not None:
        (tmp_path / "f.pot").write_text(potential)
        argv += ["--potential", str(tmp_path / "f.pot")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_in_process_runs_match_fresh_processes(monkeypatch, capsys):
    # main reuses one parser across calls: each in-process run, in sequence
    # with the others, must give the exit code and output of a fresh process
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    runs = [
        ["analyze", "scripts/data/golden_mean.shift", "--format", "machine"],
        ["verify", "dobrushin", "scripts/data/even_shift.shift", "--depth", "1"],
        ["pressure", "scripts/data/even_shift.shift",
         "--potential", "scripts/data/f_log2.pot", "--format", "machine"],
        ["fischer", "scripts/data/even_shift.shift"],
        ["verify", "finite-to-one", "scripts/data/full2_xor.shift",
         "--cmax", "4", "--tol", "1e-5", "--format", "machine"],
        ["verify", "dobrushin", "scripts/data/even_shift.shift", "--depth", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    fresh = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "soficgibbs.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for _ in range(2):
        for argv, expected in zip(runs, fresh):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected
