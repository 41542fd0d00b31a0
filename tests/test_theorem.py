"""The two sofic pipelines on a census of the smallest irreducible sofic
shifts, with the cases that fail today pinned as a set.

The census takes every strongly connected graph labeled over {0, 1} with 1
vertex and at most 2 edges, 2 vertices and at most 6 edges, or 3 vertices
and at most 6 edges, with no (source, target, label) triple repeated, and
keeps the first graph enumerated of each language, read up to length 8:
262 shifts.  A shift is named by its edges, each written as source index,
target index and label: `010-101` is the cycle v0 -0-> v1 -1-> v0.

`verify_sofic_lanford_ruelle` and `verify_sofic_dobrushin` run on each with
their default tolerances, under the zero potential and under one fixed
window-2 potential.  The theorem holds on every irreducible sofic shift, so
each pinned failure is a defect of a verdict:

- Lanford-Ruelle fails only with an empty battery.  A single orbit has no
  exchangeable pair; every other shift drops each of its pairs at the first
  context length without a valid exchange context, and a battery without a
  tested pair fails.
- Dobrushin fails where the block entropy difference at horizon 12, an
  upper estimate of the entropy, is still 0.01 or more above it.

The set is pinned, not its size, so a case that starts failing shows even
when another starts passing.  A change that moves a case edits the set here
and says why; a new entry is a regression.
"""

import itertools
import math
from functools import cache
from pathlib import Path

import pytest

import soficgibbs as sg
from soficgibbs.cli import main

EVEN_SHIFT = Path(__file__).resolve().parent.parent / "scripts/data/even_shift.shift"
SIZES = ((1, 2), (2, 6), (3, 6))  # (vertices, most edges)
WINDOW_2 = {("0", "0"): 0.3, ("0", "1"): -0.2, ("1", "0"): 0.5,
            ("1", "1"): -0.4}
POTENTIALS = {
    "zero": sg.LocallyConstantPotential.zero,
    "window-2": lambda p: sg.LocallyConstantPotential(
        p, 2, {w: WINDOW_2[w] for w in p.words_of_length(2)}),
}
PIPELINES = {
    "lanford-ruelle": sg.verify_sofic_lanford_ruelle,
    "dobrushin": sg.verify_sofic_dobrushin,
}


def _presentation(vertices, triples):
    return sg.SoficPresentation(tuple(vertices), tuple(
        sg.LabeledEdge(a, b, s, f"e{i}") for i, (a, b, s) in enumerate(triples)))


def _name(presentation):
    index = {v: i for i, v in enumerate(presentation.vertices)}
    return "-".join(f"{index[e.source]}{index[e.target]}{e.label}"
                    for e in presentation.edges)


def _strongly_connected(n, triples):
    for forward in (True, False):
        reached, todo = {0}, [0]
        for v in todo:
            for a, b, _ in triples:
                a, b = (a, b) if forward else (b, a)
                if a == v and b not in reached:
                    reached.add(b)
                    todo.append(b)
        if len(reached) < n:
            return False
    return True


@cache
def _census():
    """The census shifts by name, in the order enumerated."""
    languages, shifts = set(), {}
    for n, most in SIZES:
        vertices = [f"v{i}" for i in range(n)]
        triples = [(a, b, s) for a in range(n) for b in range(n) for s in "01"]
        for size in range(1, most + 1):
            for chosen in itertools.combinations(triples, size):
                if not _strongly_connected(n, chosen):
                    continue
                p = _presentation(vertices, [(vertices[a], vertices[b], s)
                                             for a, b, s in chosen])
                language = tuple(p.words_of_length(8))
                if language not in languages:
                    languages.add(language)
                    shifts[_name(p)] = p
    return shifts


@cache
def _reports(potential, pipeline):
    return {name: PIPELINES[pipeline](p, POTENTIALS[potential](p))
            for name, p in _census().items()}


def _failing_cases():
    return {(potential, pipeline): {name for name, report in _reports(
        potential, pipeline).items() if not report.passed}
        for potential in POTENTIALS for pipeline in PIPELINES}


# The failing shifts of each (potential, pipeline), shortest names first.
FAILING = {
    ("zero", "lanford-ruelle"): """
    000 001 010-101 010-120-201 010-121-201 000-010-120-201 001-010-120-201
    001-010-121-200 001-010-121-201 010-011-120-200 010-011-120-201
    010-011-121-200 010-011-121-201 010-020-100-211 010-020-101-210
    010-021-100-201 010-021-100-211 010-021-101-200 010-021-101-211
    010-021-120-200 010-021-120-201 010-021-121-201 000-010-021-101-200
    000-010-100-121-211 000-010-120-200-211 000-010-121-201-220
    000-011-100-120-201 000-011-120-200-201 000-011-120-201-210
    000-011-120-201-211 001-010-021-101-200 001-010-021-121-200
    001-010-101-121-200 001-010-111-120-201 001-010-120-121-201
    001-010-120-200-210 001-010-121-200-201 001-010-121-200-210
    001-010-121-200-211 001-011-101-120-210 001-011-121-201-210
    010-011-020-100-201 010-011-020-120-200 010-011-020-120-201
    010-011-021-101-200 010-011-021-120-201 010-011-021-121-200
    010-011-021-121-201 010-011-120-121-200 010-011-120-121-201
    010-011-121-200-211 010-020-101-120-211 010-021-101-120-200
    010-021-101-120-211 010-021-101-121-200 001-010-120-200-210-211
    010-011-020-120-121-201 010-011-020-121-201-210 010-011-021-120-121-200
    010-011-021-120-200-211 010-020-101-120-201-211
    """,
    ("zero", "dobrushin"): """
    010-011-120-200 010-011-121-201 010-021-101-211 010-021-120-200
    000-010-121-201-220 000-011-021-101-210 000-011-101-120-210
    000-011-110-121-201 000-011-120-121-201 000-011-120-201-210
    000-011-121-201-210 001-010-020-100-211 001-010-100-121-211
    001-010-111-120-200 001-010-111-120-201 001-010-120-121-200
    001-010-120-200-211 001-010-121-200-211 010-011-020-100-201
    010-011-021-101-200 010-011-100-121-201 010-011-101-120-200
    010-011-120-121-200 010-011-120-121-201 010-021-101-120-200
    010-021-101-120-211 000-010-100-121-211-220 001-010-100-121-211-221
    """,
    ("window-2", "lanford-ruelle"): """
    000 001 010-101 010-120-201 010-121-201 000-010-120-201 000-010-121-201
    001-010-120-200 001-010-120-201 001-010-121-200 001-010-121-201
    010-011-120-200 010-011-120-201 010-011-121-200 010-011-121-201
    010-020-100-211 010-020-101-210 010-020-101-211 010-021-100-201
    010-021-100-211 010-021-101-200 010-021-101-211 010-021-120-200
    010-021-120-201 010-021-121-201 000-010-021-101-200 000-010-021-101-210
    000-010-100-121-211 000-010-120-200-211 000-010-121-200-201
    000-010-121-201-220 000-011-100-120-201 000-011-120-200-201
    000-011-120-201-210 000-011-120-201-211 000-011-121-201-211
    001-010-021-101-200 001-010-021-121-200 001-010-101-121-200
    001-010-111-120-201 001-010-120-121-201 001-010-120-200-210
    001-010-121-200-201 001-010-121-200-210 001-010-121-200-211
    001-011-101-120-210 001-011-121-201-210 010-011-020-100-201
    010-011-020-120-200 010-011-020-120-201 010-011-020-121-200
    010-011-020-121-201 010-011-021-101-200 010-011-021-120-201
    010-011-021-121-200 010-011-021-121-201 010-011-120-121-200
    010-011-120-121-201 010-011-121-200-211 010-020-101-120-211
    010-021-101-120-200 010-021-101-120-211 010-021-101-121-200
    000-010-011-120-201-210 000-011-120-200-201-210 000-011-121-201-210-211
    001-010-120-200-210-211 001-010-121-200-201-211 010-011-020-120-121-201
    010-011-020-121-201-210 010-011-021-120-121-200 010-011-021-120-200-211
    010-020-101-120-201-211
    """,
    ("window-2", "dobrushin"): """
    001-010-120-200 010-011-120-200 010-020-100-211 010-021-100-201
    010-021-100-211 010-021-120-200 000-010-121-201-220 000-011-021-101-210
    000-011-101-120-210 000-011-110-121-201 000-011-120-201-210
    001-010-020-100-211 001-010-100-121-211 001-010-111-120-200
    001-010-111-120-201 001-010-120-121-200 001-010-120-200-211
    001-010-121-200-211 001-011-101-120-210 001-011-120-201-210
    010-011-020-100-201 010-011-021-101-200 010-011-100-121-201
    010-011-101-120-200 010-011-120-121-200 010-021-101-120-200
    010-021-101-120-211 000-010-100-121-211-220 001-010-100-121-211-221
    """,
}


def test_census_has_262_shifts():
    shifts = _census()
    assert len(shifts) == 262
    assert all(p.is_irreducible_graph() for p in shifts.values())


@pytest.mark.parametrize("potential, pipeline", sorted(FAILING))
def test_failing_cases_are_pinned(potential, pipeline):
    assert _failing_cases()[potential, pipeline] == set(
        FAILING[potential, pipeline].split())


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_lanford_ruelle_fails_only_with_an_empty_battery(potential):
    reports = _reports(potential, "lanford-ruelle")
    failing = [r for r in reports.values() if not r.passed]
    assert failing
    assert all(not r.battery.reports and r.cover_analysis.almost_invertible
               for r in failing)


def _named(vertices, *edges):
    """A presentation from edges written as source, target and label."""
    return _presentation(vertices, [tuple(e) for e in edges])


SINGLE_ORBITS = {"000": _named(["A"], "AA0"),
                 "010-101": _named(["A", "B"], "AB0", "BA1")}


@pytest.mark.parametrize("name", sorted(SINGLE_ORBITS))
def test_single_orbit_fails_lanford_ruelle_with_no_pair(name):
    # in a single orbit no exchange of two words keeps both sides in the
    # language, so no pair is tested, and an empty battery fails
    p = SINGLE_ORBITS[name]
    assert _name(p) == name and name in _census()
    f = sg.LocallyConstantPotential.zero(p)
    report = sg.verify_sofic_lanford_ruelle(p, f)
    assert not report.passed and report.battery.reports == ()
    assert sg.verify_sofic_dobrushin(p, f).passed


def test_cycles_01_and_111_fail_with_no_pair_tested():
    # positive entropy, but no exchangeable pair of words of length at most
    # 3 keeps a valid context at every length: (0111, 1110) would
    p = _named(["A", "B", "C"], "AB0", "AC1", "BA1", "CB1")
    assert _name(p) == "010-021-101-211" and _name(p) in _census()
    f = sg.LocallyConstantPotential.zero(p)
    assert sg.lift_equilibrium(p, f).pressure_value > 0.0  # the entropy
    report = sg.verify_sofic_lanford_ruelle(p, f)
    assert not report.passed and report.battery.reports == ()
    assert len(report.battery.skipped_pairs) == 14
    assert not sg.verify_sofic_dobrushin(p, f).passed


DIAMOND = ("[shift] kind=labeled vertices=A B C\nedge a: A -> A label 1\n"
           "edge b: A -> B label 0\nedge c: B -> A label 0\n"
           "edge d: A -> C label 0\nedge e: C -> A label 0\n")


def _machine(capsys, *argv):
    code = main([*argv, "--potential", "zero", "--format", "machine"])
    lines = capsys.readouterr().out.splitlines()
    return code, dict(line.split(" = ", 1) for line in lines)


def test_diamond_even_shift_answers_by_its_presentation(tmp_path, capsys):
    # the even shift presented with a diamond at A: the sofic pipelines lift
    # through the Fischer cover and pass, while pushforward and gibbs-check
    # lift through the file's own labeling, which is not finite-to-one, and
    # give another measure than the even shift's own file
    path = tmp_path / "diamond.shift"
    path.write_text(DIAMOND)
    for pipeline in ("lanford-ruelle", "dobrushin"):
        assert _machine(capsys, "verify", pipeline, str(path))[0] == 0
    code, values = _machine(capsys, "pushforward", str(path), "--depth", "2")
    assert code == 0 and values["cylinder(1)"] == "0.33333333333333337"
    values = _machine(capsys, "pushforward", str(EVEN_SHIFT), "--depth", "2")[1]
    assert values["cylinder(1)"] == "0.4472135954999581"
    code, values = _machine(capsys, "gibbs-check", str(path))
    assert code == 1
    assert float(values["max_final_deviation"]) == pytest.approx(math.log(4))
