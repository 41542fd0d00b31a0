"""Each limit of the package is one module constant, read when the code runs:
lowering it reaches every entry point that it bounds.  A potential keeps the
Perron solve made under the limits in force at its first use."""

import ast
from pathlib import Path

import numpy as np
import pytest

import soficgibbs as sg
from soficgibbs import gibbs, measures, shifts, thermo

from conftest import identity_presentation, loop_shift

SOURCES = sorted(Path(sg.__file__).parent.glob("*.py"))

LIMITS = {"DEFAULT_ENUMERATION_CAP", "SUBSET_STATE_CAP", "PERRON_TOL",
          "PERRON_MAX_ITER", "PERRON_DENSE_DIM", "PAIR_CAP", "CLASS_PAIR_CAP",
          "TREND_SLACK", "TREND_FLOOR", "CROSS_CHECK_LENGTH",
          "COUNTEREXAMPLE_COUNT_LENGTH"}


def _full2_languages():
    """The full 2-shift as each of the four language objects; each has 4
    words of length 2."""
    shift = loop_shift(2)
    mu = sg.equilibrium_measure(shift, sg.LocallyConstantPotential.zero(shift))
    return {"EdgeShift": shift, "MarkovMeasure": mu,
            "SoficPresentation": identity_presentation(shift),
            "HiddenMarkovMeasure": sg.pushforward(
                mu, sg.SlidingBlockCode.identity(shift))}


def _all_ones():
    """The code reading 1 on both loops of the full 2-shift."""
    return sg.SlidingBlockCode.one_block(loop_shift(2), {"0": "1", "1": "1"},
                                         sg.Alphabet(("1",)))


ENUMERATIONS = {
    **{f"{name}.words_of_length": (lambda name=name: _full2_languages()[name]
                                   .words_of_length(2))
       for name in ("EdgeShift", "MarkovMeasure", "SoficPresentation",
                    "HiddenMarkovMeasure")},
    "HiddenMarkovMeasure.level_walk": lambda: list(
        _full2_languages()["HiddenMarkovMeasure"].level_walk(2)),
    "SoficPresentation.word_levels": lambda: list(
        _full2_languages()["SoficPresentation"].word_levels(2)),
    "sft_from_forbidden_words": lambda: sg.sft_from_forbidden_words(
        sg.Alphabet(("0", "1")), (), 3),
    # the two loops of the full 2-shift both read 1: 11 has 4 preimage paths
    "preimage_words": lambda: sg.preimage_words(_all_ones(), ("1", "1")),
    "preimage level walk": lambda: list(measures._preimage_sum_levels(
        sg.pushforward(_full2_languages()["MarkovMeasure"], _all_ones()), 2)),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumeration_reads_the_cap_when_called(name, monkeypatch):
    # 4 words (or 4 vertex words of the forbidden-word graph, or 4 preimage
    # paths) meet a cap of 4 and exceed a cap of 3
    enumerate_ = ENUMERATIONS[name]
    monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 4)
    enumerate_()
    monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 3)
    with pytest.raises(sg.EnumerationCapError) as info:
        enumerate_()
    assert (info.value.count, info.value.cap) == (4, 3)


def test_battery_reads_the_class_pair_cap_when_called(monkeypatch):
    # the largest count on the golden runs and the bench workloads is 478
    assert gibbs.CLASS_PAIR_CAP == 200_000
    # the full 2-shift with a window-2 potential: at every length two left
    # and two right classes, split by their boundary symbol
    image = identity_presentation(loop_shift(2))
    potential = sg.LocallyConstantPotential(image, 2, {
        w: 0.1 * i for i, w in enumerate(image.words_of_length(2))})
    nu = sg.equilibrium_upstairs(image.labeling_code(), potential).downstairs
    fresh = []
    deviation = gibbs._max_deviation_hidden
    monkeypatch.setattr(gibbs, "_max_deviation_hidden",
                        lambda pair, lefts, rights, *rest: fresh.append(
                            len(lefts) * len(rights))
                        or deviation(pair, lefts, rights, *rest))
    lengths = [1, 2, 3, 4, 5]
    battery = sg.run_ratio_battery(nu, potential, lengths, 1e-6)
    # the class lists repeat from one length to the next, so each pair is
    # evaluated once and read from its memo after that
    assert fresh == [4] * len(battery.reports)
    count = sum(fresh)
    monkeypatch.setattr(gibbs, "CLASS_PAIR_CAP", count)
    sg.run_ratio_battery(nu, potential, lengths, 1e-6)
    monkeypatch.setattr(gibbs, "CLASS_PAIR_CAP", count - 1)
    with pytest.raises(sg.EnumerationCapError) as info:
        sg.run_ratio_battery(nu, potential, lengths, 1e-6)
    assert (info.value.count, info.value.cap) == (count, count - 1)


def test_perron_reads_the_iteration_limit_when_called(monkeypatch):
    golden = np.array([[1.0, 1.0], [1.0, 0.0]])
    assert sg.perron(golden).eigenvalue == pytest.approx((1 + 5 ** 0.5) / 2)
    # with no dense route every matrix is solved by iteration
    monkeypatch.setattr(thermo, "PERRON_DENSE_DIM", 0)
    monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 1)
    with pytest.raises(sg.ConvergenceError):
        sg.perron(golden)


def test_potential_keeps_the_solve_made_under_its_first_limits(monkeypatch):
    # the solve is cached on the potential object: the limits in force at
    # its first use hold for it, a fresh potential reads them anew
    shift = loop_shift(2)
    table = {("0",): 0.0, ("1",): 0.5}
    solved = sg.LocallyConstantPotential(shift, 1, table)
    value = sg.pressure(shift, solved)
    assert value == pytest.approx(np.log(1 + np.exp(0.5)))
    monkeypatch.setattr(thermo, "PERRON_DENSE_DIM", 0)
    monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 1)
    with pytest.raises(sg.ConvergenceError):
        sg.pressure(shift, sg.LocallyConstantPotential(shift, 1, table))
    assert sg.pressure(shift, solved) == value


def test_perron_reads_the_dense_limit_when_called(monkeypatch):
    golden = np.array([[1.0, 1.0], [1.0, 0.0]])
    iterated = []
    power_side = thermo._power_side
    monkeypatch.setattr(thermo, "_power_side", lambda *args: iterated.append(
        len(args[0])) or power_side(*args))
    sg.perron(golden)
    assert iterated == []
    monkeypatch.setattr(thermo, "PERRON_DENSE_DIM", 1)
    assert sg.perron(golden).eigenvalue == pytest.approx((1 + 5 ** 0.5) / 2)
    assert iterated == [2, 2]


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_default_names_a_limit():
    # a default is evaluated once, at import, so a limit copied into one
    # would not follow the constant
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                defaults = node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]
                if LIMITS.intersection(n for d in defaults for n in _names(d)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_function_level_package_import():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                found += [f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                          if isinstance(sub, ast.ImportFrom) and sub.level]
    assert found == []


def test_no_range_takes_a_literal_bound():
    # a loop bound written as a literal is a limit outside the constants
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "range"):
                found += [f"{path.name}:{node.lineno}"
                          for arg in node.args for sub in ast.walk(arg)
                          if isinstance(sub, ast.Constant)
                          and type(sub.value) is int and sub.value >= 100]
    assert found == []
