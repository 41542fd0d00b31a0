import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from soficgibbs import cli, shifts
from soficgibbs.cli import main

ROOT = Path(__file__).resolve().parent.parent

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

    def test_pressure_builds_no_equilibrium_measure(self, files, tmp_path,
                                                    capsys):
        # the equilibrium transition of the loop `a` is about exp(-1400),
        # which underflows a double: only a route that builds the measure
        # fails here
        pot = tmp_path / "f700.pot"
        pot.write_text("[potential] range=1\nf(0) = 700\nf(1) = -700\n")
        argv = (files["even_shift.shift"], "--potential", str(pot),
                "--format", "machine")
        code, _, out = run(capsys, "pressure", *argv)
        assert code == 0
        assert out == ("pressure = 700.0\n"
                       "method = fischer-cover-transfer-matrix\n"
                       "verdict = pass\n")
        assert main(["eqmeasure", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the transition probability of edge "
                                "'a' underflows a double\n")


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

    def test_class_pair_blow_up_exits_2_within_seconds(self, tmp_path, capsys):
        # B reads 00 along B -> B -> B and B -> A -> B: the labeling is not
        # finite-to-one, so there is no magic word and every context is
        # tested; the context classes keep multiplying with their length
        p = tmp_path / "diamond.shift"
        p.write_text("[alphabet] 0 1\n"
                     "[shift] kind=labeled vertices=A B\n"
                     "edge a: A -> B label 0\n"
                     "edge b: A -> B label 1\n"
                     "edge c: B -> A label 0\n"
                     "edge d: B -> A label 1\n"
                     "edge e: B -> B label 0\n")
        start = time.perf_counter()
        assert main(["gibbs-check", str(p), "--cmax", "20",
                     "--format", "machine"]) == 2
        assert time.perf_counter() - start < 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: enumeration too large" in captured.err

    def test_context_class_cap_exit_2(self, files, capsys, monkeypatch):
        # both length-1 left contexts of the even shift are classes of their
        # own, so a cap of one class is exceeded at the first level
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 1)
        assert main(["gibbs-check", files["even_shift.shift"],
                     "--cmax", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: enumeration too large: 2 items exceeds cap 1" in captured.err

    def test_word_level_cap_names_the_refused_level(self, files, capsys,
                                                    monkeypatch):
        # the even shift has 33 words of length 6 and 54 of length 7: the
        # refusal names the 54 words of the level it refuses
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 33)
        assert main(["pushforward", files["even_shift.shift"],
                     "--depth", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: enumeration too large: 54 items exceeds cap 33"
                in captured.err)


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


@pytest.mark.parametrize("argv, option", [
    # these three once ran: a table-free pass and two failed verdicts on
    # inputs that pass
    (["eqmeasure", "scripts/data/golden_mean.shift", "--depth", "-1"],
     "--depth"),
    (["gibbs-check", "scripts/data/even_shift.shift", "--tol", "nan"], "--tol"),
    (["verify", "lanford-ruelle", "scripts/data/even_shift.shift",
      "--tol", "-1"], "--tol"),
    (["pushforward", "scripts/data/even_shift.shift", "--depth", "0"],
     "--depth"),
    (["eqmeasure", "scripts/data/even_shift.shift", "--depth", "two"],
     "--depth"),
    (["verify", "finite-to-one", "scripts/data/full2_xor.shift",
      "--cmax", "-3"], "--cmax"),
    (["gibbs-check", "scripts/data/even_shift.shift", "--cmax", "1.5"],
     "--cmax"),
    (["gibbs-check", "scripts/data/even_shift.shift", "--tol", "inf"], "--tol"),
    (["verify", "dobrushin", "scripts/data/even_shift.shift", "--tol", "0"],
     "--tol"),
    (["verify", "finite-to-one", "scripts/data/full2_xor.shift",
      "--tol", "1e-400"], "--tol"),
    (["verify", "lanford-ruelle", "scripts/data/even_shift.shift",
      "--tol", "tiny"], "--tol"),
])
def test_nonsense_numeric_option_is_a_usage_error(argv, option, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert f"error: argument {option}: " in captured.err


def test_smallest_sensible_options_run(files, capsys):
    code, values, _ = run(capsys, "gibbs-check", files["even_shift.shift"],
                          "--cmax", "1")
    assert (code, values["verdict"]) == (0, "pass")
    code, values, _ = run(capsys, "pushforward", files["even_shift.shift"],
                          "--depth", "1", "--format", "machine")
    assert code == 0
    assert {"cylinder(0)", "cylinder(1)"} <= set(values)
    # the smallest positive double is a tolerance: the verdict is computed
    code, values, _ = run(capsys, "gibbs-check", files["even_shift.shift"],
                          "--cmax", "1", "--tol", "5e-324")
    assert code in (0, 1)
    assert values["verdict"] in ("pass", "fail")


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


TWO_LOOPS = """\
[alphabet] 0 1
[shift] kind=edge vertices=A
edge a: A -> A label 0
edge b: A -> A label 1
"""


@pytest.mark.parametrize("shift, potential, command, message", [
    (TWO_LOOPS, "f(0) = 709.5\nf(1) = 709.5\n", ["pressure"],
     "the summed exp of the potential on the edges 'A' -> 'A' overflows"),
    (GOLDEN_MEAN, "f(0) = 0\nf(1) = -746\n", ["pressure"],
     "exp of the potential on edge 'e2' underflows"),
    (EVEN_SHIFT, "f(0) = 700\nf(1) = -700\n", ["verify", "lanford-ruelle"],
     "the transition probability of edge"),
], ids=["parallel-edge-overflow", "exp-underflow", "transition-underflow"])
def test_weight_outside_the_doubles_exits_2_with_one_error_line(
        tmp_path, capsys, shift, potential, command, message):
    (tmp_path / "s.shift").write_text(shift)
    (tmp_path / "f.pot").write_text("[potential] range=1\n" + potential)
    argv = [*command, str(tmp_path / "s.shift"),
            "--potential", str(tmp_path / "f.pot")]
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


DEAD_END = """\
[alphabet] 0
[shift] kind=edge vertices=A B
edge e: A -> B label 0
"""


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("command",
                         ["pressure", "eqmeasure", "pushforward", "gibbs-check"])
def test_dead_end_graph_with_long_window_exits_2(tmp_path, capsys, command,
                                                  window):
    # no bi-infinite path: at window 3 the recoded shift is empty, at
    # window 2 it is one vertex without an edge; neither is irreducible, and
    # either is refused by a library error, not a traceback
    (tmp_path / "s.shift").write_text(DEAD_END)
    (tmp_path / "f.pot").write_text(f"[potential] range={window}\n")
    argv = [command, str(tmp_path / "s.shift"),
            "--potential", str(tmp_path / "f.pot")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# Loops `a` and `a~a` at one vertex: the paths (a, a~a) and (a~a, a) both
# join to the composite id `a~a~a`.
COMPOSITE_COLLISION = """\
[alphabet] 0 1
[shift] kind=edge vertices=A
edge a: A -> A label 0
edge a~a: A -> A label 1
"""

# A loop labeled 0 at A and a dead-end edge A -> B labeled 1: the presented
# shift is the one point 0^inf.
LABELED_DEAD_END = """\
[alphabet] 0 1
[shift] kind=labeled vertices=A B
edge x: A -> A label 0
edge y: A -> B label 1
"""


@pytest.mark.parametrize("window", [2, 3])
def test_composite_id_collision_exits_2_naming_the_id(tmp_path, capsys, window):
    (tmp_path / "s.shift").write_text(COMPOSITE_COLLISION)
    (tmp_path / "f.pot").write_text(f"[potential] range={window}\n" + "".join(
        f"f({w:0{window}b}) = 0.0\n" for w in range(2 ** window)))
    assert main(["pressure", str(tmp_path / "s.shift"), "--potential",
                 str(tmp_path / "f.pot"), "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: two paths have the composite id 'a~a~a")
    assert captured.err.count("\n") == 1


def test_labeled_file_is_trimmed_to_its_essential_part(tmp_path, capsys):
    # the potential names only the symbol of the one bi-infinite point
    (tmp_path / "s.shift").write_text(LABELED_DEAD_END)
    (tmp_path / "f.pot").write_text("[potential] range=1\nf(0) = 0.5\n")
    spec, pot = str(tmp_path / "s.shift"), str(tmp_path / "f.pot")
    code, values, _ = run(capsys, "pressure", spec, "--potential", pot,
                          "--format", "machine")
    assert (code, values["pressure"]) == (0, "0.5")
    code, values, _ = run(capsys, "verify", "dobrushin", spec,
                          "--potential", pot, "--format", "machine")
    assert (code, values["verdict"]) == (0, "pass")
    code, values, _ = run(capsys, "analyze", spec, "--format", "machine")
    assert (values["vertices"], values["edges"]) == ("1", "1")


# A labeled graph on which cover states numbered by the vertex names would
# move the last bits of the reports when A and C swap names
THREE_VERTICES = """\
[alphabet] 0 1
[shift] kind=labeled vertices=A B C
edge e0: C -> A label 1
edge e1: B -> C label 1
edge e2: B -> B label 1
edge e3: A -> C label 0
edge e4: A -> C label 0
edge e5: B -> A label 1
edge e6: A -> B label 1
"""


@pytest.mark.parametrize("command", [["fischer"], ["pressure"],
                                     ["verify", "lanford-ruelle"],
                                     ["verify", "dobrushin"]])
def test_vertex_renaming_leaves_the_machine_bytes(tmp_path, capsys, command):
    # the cover's states are numbered from the language alone
    (tmp_path / "f.pot").write_text("[potential] range=1\nf(0) = 0.25\n"
                                    "f(1) = -0.5\n")
    potential = ([] if command == ["fischer"]
                 else ["--potential", str(tmp_path / "f.pot")])
    outs = []
    for text in (THREE_VERTICES,
                 THREE_VERTICES.translate(str.maketrans("AC", "CA"))):
        (tmp_path / "s.shift").write_text(text)
        code, _, out = run(capsys, *command, str(tmp_path / "s.shift"),
                           *potential, "--format", "machine")
        outs.append((code, out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_potential_words_are_read_over_the_declared_alphabet(tmp_path, capsys):
    # `1` is declared and carried only by the trimmed dead-end edge: the
    # potential may name it, as a word outside the language
    (tmp_path / "s.shift").write_text(LABELED_DEAD_END)
    (tmp_path / "f.pot").write_text("[potential] range=1\nf(0) = 0.5\n"
                                    "f(1) = -0.25\n")
    code, values, _ = run(capsys, "pressure", str(tmp_path / "s.shift"),
                          "--potential", str(tmp_path / "f.pot"),
                          "--format", "machine")
    assert (code, values["pressure"]) == (0, "0.5")


def test_readme_command_block_names_every_subcommand():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    named = []
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "soficgibbs"
        named.append(" ".join(words[1:3] if words[1] == "verify" else words[1:2]))
    assert named == [name for name, *_ in cli._SUBCOMMANDS]


# Small spec files, edgeless and malformed ones among them: no run of any
# subcommand on them, with any potential, may raise out of `main`.
CORPUS = {
    "golden_mean": GOLDEN_MEAN + "[code] memory=0 anticipation=0\n"
                   "map e1 -> 0\nmap e2 -> 1\nmap e3 -> 0\n",
    "even_two_block": EVEN_SHIFT + "[code] memory=0 anticipation=1\n"
                      "map a a -> 1\nmap a b -> 0\nmap b c -> 1\n"
                      "map c a -> 0\nmap c b -> 0\n",
    "xor": XOR,
    "forbidden": "[alphabet] 0 1\n[shift] kind=forbidden window=2\nforbid 11\n",
    "edgeless_edge": "[alphabet] 0\n[shift] kind=edge vertices=A\n"
                     "[code] memory=0 anticipation=0\n",
    "edgeless_labeled": "[alphabet] 0\n[shift] kind=labeled vertices=A\n"
                        "[code] memory=0 anticipation=0\n",
    "forbid_every_symbol": "[alphabet] 0 1\n[shift] kind=forbidden window=2\n"
                           "forbid 0\nforbid 1\n[code] memory=0 anticipation=0\n",
    "code_without_map": GOLDEN_MEAN + "[code] memory=0 anticipation=0\n",
    "dead_end": DEAD_END,
    "reducible": "[alphabet] 0 1\n[shift] kind=labeled vertices=L R\n"
                 "edge a: L -> L label 0\nedge b: L -> R label 1\n"
                 "edge c: R -> R label 0\n",
    "period_two": "[alphabet] 0 1\n[shift] kind=labeled vertices=A B\n"
                  "edge a: A -> B label 0\nedge b: B -> A label 1\n",
    "composite_collision": COMPOSITE_COLLISION,
    "labeled_dead_end": LABELED_DEAD_END,
    "empty_memory": GOLDEN_MEAN + "[code] memory= anticipation=0\n"
                    "map e1 -> 0\nmap e2 -> 1\nmap e3 -> 0\n",
}

POTENTIALS = {
    "range1": "[potential] range=1\nf(0) = 0.5\nf(1) = -0.25\n",
    "range2": "[potential] range=2\nf(00) = 0.1\nf(01) = -0.2\n"
              "f(10) = 0.3\nf(11) = log(2)\n",
    "range3": "[potential] range=3\n" + "".join(
        f"f({w:03b}) = {w / 10}\n" for w in range(8)),
    "empty": "[potential] range=1\n",
    "empty_range": "[potential] range=\nf(0) = 0.5\nf(1) = -0.25\n",
}

# small values for the options that size the work
_SMALL = {"--depth": "3", "--cmax": "3"}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_input_makes_the_cli_raise(tmp_path, capsys, name):
    spec = tmp_path / f"{name}.shift"
    spec.write_text(CORPUS[name])
    potentials = [None, "zero"]
    for pot, text in POTENTIALS.items():
        (tmp_path / f"{pot}.pot").write_text(text)
        potentials.append(str(tmp_path / f"{pot}.pot"))
    bad = []
    for command, _, _, options in cli._SUBCOMMANDS:
        if "file" not in options:
            continue
        argv = [*command.split(), str(spec), "--format", "machine"]
        argv += [x for o in options if o in _SMALL for x in (o, _SMALL[o])]
        for pot in potentials if "--potential" in options else [None]:
            run = argv + ["--potential", pot] * (pot is not None)
            try:
                code = main(run)
            except Exception as exc:  # a raise is what this test catches
                code = exc
            captured = capsys.readouterr()
            one_error_line = (not captured.out and captured.err.count("\n") == 1
                              and captured.err.startswith("error: "))
            if code not in (0, 1, 2) or code == 2 and not one_error_line:
                bad.append((run, code, captured.err))
    assert not bad


FORBIDDEN_11 = "[alphabet] 0 1\n[shift] kind=forbidden window=2\nforbid 11\n"
ONE_LOOP = "[alphabet] 0\n[shift] kind=edge vertices=A\nedge a: A -> A\n"

# One small file for each refusal of the spec-file reader: the shift file,
# the potential file or None, the command, and the one error line it prints.
SPEC_REFUSALS = {
    "unknown-attribute": ("[shift] kind=edge vertices=A colour=red\n", None,
                          "analyze", "line 1: unknown attribute 'colour'"),
    "stray-token": ("[shift] edge kind=edge vertices=A\n", None, "analyze",
                    "line 1: stray token 'edge'"),
    "unterminated-header": ("[shift kind=edge vertices=A\n", None, "analyze",
                            "line 1, column 1: unterminated section header"),
    "empty-alphabet": ("[alphabet]\n" + ONE_LOOP.split("\n", 1)[1], None,
                       "analyze", "line 1: empty [alphabet] section"),
    "two-kinds": ("[shift] kind=edge labeled vertices=A\n", None, "analyze",
                  "line 1: kind takes one value"),
    "unknown-kind": ("[shift] kind=graph vertices=A\n", None, "analyze",
                     "line 1: unknown shift kind 'graph'"),
    "window-not-integer": (FORBIDDEN_11.replace("window=2", "window=two"),
                           None, "analyze", "line 2: window must be an integer"),
    "memory-not-integer": (GOLDEN_MEAN + "[code] memory=one\nmap e1 -> 0\n",
                           None, "verify finite-to-one",
                           "line 6: memory/anticipation must be integers"),
    "empty-memory": (GOLDEN_MEAN + "[code] memory=\nmap e1 -> 0\n", None,
                     "verify finite-to-one",
                     "line 6: memory/anticipation must be integers"),
    "empty-anticipation": (GOLDEN_MEAN + "[code] anticipation=\nmap e1 -> 0\n",
                           None, "verify finite-to-one",
                           "line 6: memory/anticipation must be integers"),
    "range-not-integer": (GOLDEN_MEAN, "[potential] range=x\nf(0) = 0\n",
                          "pressure", "line 1: range must be an integer"),
    "empty-range": (GOLDEN_MEAN, "[potential] range=\nf(0) = 0\n", "pressure",
                    "line 1: range must be an integer"),
    "bad-forbid": (FORBIDDEN_11.replace("forbid 11", "forbid 1 1"), None,
                   "analyze", "line 3: expected: forbid <word>"),
    "bad-map": (GOLDEN_MEAN + "[code] memory=0\nmapping e1 -> 0\n", None,
                "verify finite-to-one",
                "line 7: malformed code declaration 'mapping e1 -> 0'"),
    "bad-potential": (GOLDEN_MEAN, "[potential] range=1\ng(0) = 1\n",
                      "pressure",
                      "line 2: malformed potential declaration 'g(0) = 1'"),
    "outside-section": ("edge a: A -> A\n", None, "analyze",
                        "line 1, column 1: declaration outside any section: "
                        "'edge a: A -> A'"),
    "forbidden-without-alphabet": (FORBIDDEN_11.split("\n", 1)[1], None,
                                   "analyze", "forbidden-words shift requires "
                                   "[alphabet]"),
    "forbidden-without-window": (FORBIDDEN_11.replace(" window=2", ""), None,
                                 "analyze", "forbidden-words shift requires "
                                 "window=<n>"),
    "labeled-edge-without-label": (
        ONE_LOOP.replace("kind=edge", "kind=labeled"), None, "analyze",
        "edge 'a' needs a label"),
    "no-potential-section": (GOLDEN_MEAN, "# no section\n", "pressure",
                             "missing [potential] section"),
    "potential-word-too-short": (GOLDEN_MEAN, "[potential] range=2\nf(0) = 0\n",
                                 "pressure", "potential word '0' does not have "
                                 "length 2"),
    "map-misses-an-edge": (GOLDEN_MEAN + "[code] memory=0\nmap e1 -> 0\n", None,
                           "verify finite-to-one",
                           "table missing domain word ('e2',)"),
    "repeated-potential-word": (
        GOLDEN_MEAN, "[potential] range=1\nf(0) = 0\nf(0) = 1\nf(1) = 0\n",
        "pressure", "line 3: duplicate potential word '0'"),
    "respelled-potential-word": (
        GOLDEN_MEAN, "[potential] range=2\nf(01) = 0\nf(0.1) = 1\n"
        "f(00) = 0\nf(10) = 0\n", "pressure",
        "duplicate potential word '01'"),
    "repeated-map-word": (
        TWO_LOOPS + "[code] memory=0 anticipation=0\n"
        "map a -> 0\nmap a -> 1\nmap b -> 1\n", None, "verify finite-to-one",
        "line 7: duplicate map word 'a'"),
    # an explicit label is read against the declared alphabet, wherever the
    # alphabet is declared; an edge without a label reads its id (ONE_LOOP)
    "label-outside-alphabet": (
        "[alphabet] 0 1\n[shift] kind=labeled vertices=A B\n"
        "edge a: A -> A label 0\nedge b: A -> B label 2\n"
        "edge c: B -> A label 1\n", None, "analyze",
        "line 4: label '2' is not in [alphabet]"),
    "label-outside-later-alphabet": (
        "[shift] kind=edge vertices=A\nedge a: A -> A label 1\n"
        "edge b: A -> A\n[alphabet] 0\n", None, "fischer",
        "line 2: label '1' is not in [alphabet]"),
    # log(p/q) is taken of the quotient rounded to a double: one that
    # overflows, underflows to zero or to a subnormal is refused
    "log-above-the-doubles": (
        GOLDEN_MEAN, f"[potential] range=1\nf(0) = log({10 ** 400})\n"
        "f(1) = 0\n", "pressure",
        "line 2: log argument is not a positive normal double"),
    "log-below-the-doubles": (
        GOLDEN_MEAN, f"[potential] range=1\nf(0) = 0\n"
        f"f(1) = log(1/{10 ** 400})\n", "pressure",
        "line 3: log argument is not a positive normal double"),
    "log-of-a-subnormal": (
        GOLDEN_MEAN, f"[potential] range=1\nf(0) = 0\n"
        f"f(1) = log(1/{10 ** 320})\n", "pressure",
        "line 3: log argument is not a positive normal double"),
}


@pytest.mark.parametrize("name", sorted(SPEC_REFUSALS))
def test_spec_file_refusal_exits_2_with_its_one_error_line(tmp_path, capsys,
                                                          name):
    shift, potential, command, message = SPEC_REFUSALS[name]
    (tmp_path / "s.shift").write_text(shift)
    argv = [*command.split(), str(tmp_path / "s.shift")]
    if potential is not None:
        (tmp_path / "f.pot").write_text(potential)
        argv += ["--potential", str(tmp_path / "f.pot")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["analyze", "fischer"])
def test_edge_without_label_reads_its_id_outside_the_alphabet(tmp_path, capsys,
                                                              command):
    # ONE_LOOP declares [alphabet] 0 and an unlabeled edge `a`: only an
    # explicit label is read against the alphabet
    (tmp_path / "s.shift").write_text(ONE_LOOP)
    assert main([command, str(tmp_path / "s.shift"), "--format", "machine"]) == 0
    assert capsys.readouterr().out.endswith("verdict = pass\n")
