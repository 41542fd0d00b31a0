"""Workloads of the soficgibbs benchmark: fixtures made from a seed, the
operations that are timed, and the independent checks made on their results.

Every operation builds its library objects afresh from plain data, so no
cached property carries work from one batch into the next.  The checks use
only numpy and the code in this file; they run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import soficgibbs as sg
from soficgibbs import cli

# Shapes of the random labeled graphs, and the potentials on them, are drawn
# once from this seed: the ratio battery's work depends on the potential's
# values, so this keeps every run's batch at the same work and wall_s
# comparable across run seeds.  The run seed renames the vertices, draws the
# window potentials (whose values do not change the work) and orders the
# batch.
SHAPE_SEED = 2020
TOL = 1e-9


@dataclass
class Op:
    """One timed call.  `run` gets a dict shared by the operations of one
    batch, so a pipeline step can use the previous step's result."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[object], list]
    report: Callable[[object], list]
    # pipeline verdict on an input where the theorem predicts a pass
    certified: Callable[[object], bool] | None = None
    size: str = ""


def _lines(pairs):
    return [f"{key} = {value!r}" for key, value in pairs]


def _close(name, got, want, tol=TOL):
    if abs(got - want) <= tol * max(1.0, abs(want)):  # false for nan
        return []
    return [f"{name} = {got!r}, expected {want!r}"]


def _log_spectral_radius(matrix):
    return math.log(float(np.max(np.abs(np.linalg.eigvals(matrix)))))


# -- the README's commands on scripts/data ------------------------------------

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

# (argv with data-file names, theorem-backed verdict)
DESK_COMMANDS = (
    (("analyze", "golden_mean.shift"), False),
    (("analyze", "even_shift.shift"), False),
    (("fischer", "even_shift.shift"), False),
    (("fischer", "golden_mean.shift"), False),
    (("pressure", "golden_mean.shift", "--potential", "zero"), False),
    (("pressure", "even_shift.shift", "--potential", "f_log2.pot"), False),
    (("eqmeasure", "golden_mean.shift", "--potential", "f_range2.pot",
      "--depth", "4"), False),
    (("pushforward", "even_shift.shift", "--potential", "f_log2.pot",
      "--depth", "4"), False),
    (("gibbs-check", "even_shift.shift", "--potential", "f_range2.pot",
      "--cmax", "12"), True),
    (("verify", "lanford-ruelle", "even_shift.shift", "--potential",
      "f_log2.pot"), True),
    (("verify", "lanford-ruelle", "golden_mean.shift", "--potential",
      "f_range2.pot"), True),
    (("verify", "dobrushin", "even_shift.shift", "--potential",
      "f_range2.pot"), True),
    (("verify", "dobrushin", "golden_mean.shift", "--potential",
      "f_log2.pot"), True),
    (("verify", "finite-to-one", "full2_xor.shift", "--potential",
      "f_log2.pot"), True),
    (("verify", "counterexample"), True),
)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _desk_check(argv):
    def check(result):
        code, text = result
        lines = text.splitlines()
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        if not lines or lines[-1] != "verdict = pass":
            problems.append("last line is not 'verdict = pass'")
        values = dict(line.split(" = ", 1) for line in lines if " = " in line)
        if argv[:2] == ("pressure", "golden_mean.shift"):
            problems += _close("pressure", float(values.get("pressure", "nan")),
                               LOG_PHI, 1e-12)
        if argv == ("verify", "counterexample"):
            if values.get("equilibrium") != "yes" or values.get("gibbs") != "no":
                problems.append("counterexample lines differ from the theorem")
        return problems
    return check


def _desk_ops(root):
    data = root / "scripts" / "data"
    names = {arg for argv, _ in DESK_COMMANDS for arg in argv
             if arg.endswith((".shift", ".pot"))}
    for name in sorted(names):
        (data / name).read_text(encoding="utf-8")  # every spec file is readable
    ops = []
    for argv, backed in DESK_COMMANDS:
        full = tuple(str(data / a) if a.endswith((".shift", ".pot")) else a
                     for a in argv) + ("--format", "machine")
        ops.append(Op(
            name=" ".join(argv),
            run=lambda state, full=full: _run_cli(full),
            check=_desk_check(argv),
            report=lambda result: [f"exit = {result[0]}"] + result[1].splitlines(),
            certified=(lambda result: result[0] == 0) if backed else None,
            size="sample file"))
    return ops


# -- window: full shifts with long-window potentials, and a periodic graph ----

FULL_SHAPES = ((2, 7), (5, 3), (3, 4), (4, 3))  # (alphabet size k, window w)
PERIOD, CLASS_SIZE = 3, 2


def _full_shift_fixture(rng, k, w):
    """Window-w potential on the full k-shift presented with 2-symbol edge
    ids, and the log spectral radius of its de Bruijn transfer matrix."""
    symbols = [str(i) for i in range(k)]
    table = {}
    debruijn = np.zeros((k ** w, k ** w))
    for word in itertools.product(symbols, repeat=w + 1):
        value = rng.uniform(-1.0, 1.0)
        table[tuple(word[i] + word[i + 1] for i in range(w))] = value
        row = int("".join(word[:w]), k)
        col = int("".join(word[1:]), k)
        debruijn[row, col] = math.exp(value)
    return symbols, table, debruijn


def _periodic_fixture(rng):
    """Cyclic graph on PERIOD classes of CLASS_SIZE vertices, every vertex
    joined to every vertex of the next class: irreducible with period
    PERIOD.  Returns vertices, edges, a window-2 potential on edge pairs
    and the edge-pair transfer matrix."""
    ids = rng.sample(range(100, 1000), PERIOD * CLASS_SIZE)
    classes = [[f"c{c}v{ids[c * CLASS_SIZE + j]}" for j in range(CLASS_SIZE)]
               for c in range(PERIOD)]
    edges = [(u, v, f"p{n:02d}") for n, (u, v) in enumerate(
        (u, v) for c in range(PERIOD) for u in classes[c]
        for v in classes[(c + 1) % PERIOD])]
    table = {}
    matrix = np.zeros((len(edges), len(edges)))
    for i, (_, t, a) in enumerate(edges):
        for j, (s, _, b) in enumerate(edges):
            if t == s:
                value = rng.uniform(-1.0, 1.0)
                table[(a, b)] = value
                matrix[i, j] = math.exp(value)
    vertices = [v for cls in classes for v in cls]
    return vertices, edges, table, matrix


def _markov_entropy(mu):
    """Entropy rate of a Markov measure from its stationary vector and
    transition probabilities alone."""
    return -sum(mu.stationary[e.source] * mu.transitions[e.id]
                * math.log(mu.transitions[e.id]) for e in mu.shift.edges)


def _edge_integral(mu, potential):
    return sum(mu.stationary[e.source] * mu.transitions[e.id]
               * potential.table[(e.id,)] for e in mu.shift.edges)


def _window_ops(tag, build, entries, p_ref):
    """Potential, pressure and equilibrium steps of one shift; the potential
    table has `entries` words and p_ref() gives the reference pressure."""
    def potential(state):
        state[tag] = build()
        return state[tag][1]

    def pressure(state):
        shift, pot = state[tag]
        return sg.pressure(shift, pot)

    def equilibrium(state):
        _, pot = state[tag]
        recoded, edge_potential, _ = sg.reduce_to_edge_potential(pot)
        mu = sg.equilibrium_measure(recoded, edge_potential)
        state[tag + "/mu"] = mu
        return mu, edge_potential

    def check_identity(result):
        mu, edge_potential = result
        value = _markov_entropy(mu) + _edge_integral(mu, edge_potential)
        return (_close("h + integral", value, p_ref())
                + _close("stationary mass", sum(mu.stationary.values()), 1.0))

    def report_measure(result):
        mu, edge_potential = result
        return _lines([("vertices", len(mu.shift.vertices)),
                       ("edges", len(mu.shift.edges)),
                       ("entropy", _markov_entropy(mu)),
                       ("integral", _edge_integral(mu, edge_potential))])

    return [
        Op(f"{tag}/potential", potential,
           lambda pot: ([] if len(pot.table) == entries
                        else [f"{len(pot.table)} table entries, expected {entries}"]),
           lambda pot: _lines([("window", pot.k), ("entries", len(pot.table))])),
        Op(f"{tag}/pressure", pressure,
           lambda value: _close("pressure", value, p_ref()),
           lambda value: _lines([("pressure", value)])),
        Op(f"{tag}/equilibrium", equilibrium, check_identity, report_measure),
    ]


def window(seed, root):
    rng = random.Random(f"window-{seed}")
    chains = []
    for k, w in FULL_SHAPES:
        symbols, table, debruijn = _full_shift_fixture(rng, k, w)

        def build(symbols=symbols, table=table, w=w):
            shift = sg.sft_from_forbidden_words(sg.Alphabet(tuple(symbols)), (), 2)
            return shift, sg.LocallyConstantPotential(shift, w, table)

        tag = f"full{k}-w{w}"
        ops = _window_ops(tag, build, len(table), functools.cache(
            lambda m=debruijn: _log_spectral_radius(m)))
        for op in ops:
            op.size = f"k={k} window={w}"
        chains.append(ops)

    vertices, edges, table, matrix = _periodic_fixture(rng)
    p_ref = functools.cache(lambda: _log_spectral_radius(matrix))

    def build_periodic():
        shift = sg.EdgeShift(tuple(vertices),
                             tuple(sg.Edge(u, v, e) for u, v, e in edges))
        return shift, sg.LocallyConstantPotential(shift, 2, table)

    def cyclic(state):
        shift, pot = state["periodic"]
        return sg.cyclic_pressure_check(shift, pot)

    def check_cyclic(rep):
        problems = [] if rep.period == PERIOD else [f"period {rep.period}"]
        return (problems + _close("pressure_full", rep.pressure_full, p_ref())
                + _close("pressure_class0", rep.pressure_class0, PERIOD * p_ref()))

    def restrict(state):
        mu = state["periodic/mu"]
        structure = sg.cyclic_structure(mu.shift)
        return mu, sg.restrict_and_average(mu, structure, max_length=PERIOD)

    def check_restrict(result):
        # Abramov: the return map to one class has p times the entropy
        mu, ra = result
        r = ra.restricted
        return (_close("restricted entropy", _markov_entropy(r),
                       PERIOD * _markov_entropy(mu))
                + _close("restricted mass", sum(r.stationary.values()), 1.0))

    periodic = _window_ops("periodic", build_periodic, len(table), p_ref) + [
        Op("periodic/cyclic-pressure", cyclic, check_cyclic,
           lambda rep: _lines([("period", rep.period),
                               ("pressure_full", rep.pressure_full),
                               ("pressure_class0", rep.pressure_class0),
                               ("identity_deviation", rep.identity_deviation),
                               ("cylinder_max_deviation", rep.cylinder_max_deviation),
                               ("passed", rep.passed)]),
           certified=lambda rep: rep.passed),
        Op("periodic/restrict-average", restrict, check_restrict,
           lambda result: _lines([
               ("period", result[1].period),
               ("reconstruction_max_deviation",
                result[1].reconstruction_max_deviation),
               ("cylinders_checked", result[1].cylinders_checked)]),
           certified=lambda result: (result[1].reconstruction_max_deviation < 1e-10
                                     and result[1].full_support_matches)),
    ]
    for op in periodic:
        op.size = f"period={PERIOD} vertices={len(vertices)} edges={len(edges)}"
    chains.append(periodic)
    rng.shuffle(chains)
    return [op for chain in chains for op in chain]


# -- random labeled graphs -----------------------------------------------------


def graph_shape(rng, n, extra):
    """Random irreducible labeled graph on vertices 0..n-1 over {0, 1}.

    A Hamiltonian cycle 0 -> 1 -> ... -> n-1 -> 0 with random labels
    a_1..a_n makes it irreducible.  A chord i -> 0 labeled c != a_(i+1)
    closes a second cycle at 0 with label word b = a_1..a_i c; neither of a
    and b is a prefix of the other, so they do not commute, every
    concatenation of them is a word of the shift, and the entropy is
    positive.  `extra` further random edges follow.
    """
    labels = [rng.choice("01") for _ in range(n)]
    edges = [(i, (i + 1) % n, labels[i]) for i in range(n)]
    i = rng.randrange(n)
    edges.append((i, 0, "1" if labels[i] == "0" else "0"))
    while len(edges) < n + 1 + extra:
        edge = (rng.randrange(n), rng.randrange(n), rng.choice("01"))
        if edge not in edges:
            edges.append(edge)
    return n, edges


def _named(rng, n, edges):
    """Random vertex names; edge ids keep the shape's order."""
    names = [f"v{i}" for i in rng.sample(range(100, 1000), n)]
    return names, [(names[u], names[v], s) for u, v, s in edges]


def _presentation(names, edges):
    return sg.SoficPresentation(
        tuple(names),
        tuple(sg.LabeledEdge(u, v, s, f"e{j:02d}") for j, (u, v, s) in enumerate(edges)))


def subset_graph(names, edges):
    """Right-resolving presentation of the same shift by the subset
    construction from the full vertex set: (state count, edges)."""
    succ = {}
    for u, v, s in edges:
        succ.setdefault((u, s), set()).add(v)
    symbols = sorted({s for _, _, s in edges})
    start = frozenset(names)
    index = {start: 0}
    todo = [start]
    out = []
    while todo:
        current = todo.pop()
        for s in symbols:
            nxt = frozenset(v for u in current for v in succ.get((u, s), ()))
            if nxt:
                if nxt not in index:
                    index[nxt] = len(index)
                    todo.append(nxt)
                out.append((index[current], index[nxt], s))
    return len(index), out


def sofic_pressure_reference(names, edges, table):
    """Pressure of a window-2 label potential: a right-resolving
    presentation is finite-to-one, so the pressure is the log spectral
    radius of its edge-pair transfer matrix."""
    _, sub = subset_graph(names, edges)
    m = np.zeros((len(sub), len(sub)))
    for i, (_, t, a) in enumerate(sub):
        for j, (s, _, b) in enumerate(sub):
            if t == s:
                m[i, j] = math.exp(table[(a, b)])
    return _log_spectral_radius(m)


def entropy_reference(names, edges):
    count, sub = subset_graph(names, edges)
    a = np.zeros((count, count))
    for u, v, _ in sub:
        a[u, v] += 1
    return _log_spectral_radius(a)


# -- both certification pipelines on small random graphs ----------------------

SOFIC_GRAPHS = 12


def _sofic_ops(seed):
    shapes = random.Random(f"sofic-{SHAPE_SEED}")
    potentials = random.Random(f"sofic-potential-{SHAPE_SEED}")
    rng = random.Random(f"sofic-{seed}")
    ops = []
    for g in range(SOFIC_GRAPHS):
        n = shapes.randint(4, 8)
        n, shape = graph_shape(shapes, n, shapes.randint(1, n // 2))
        names, edges = _named(rng, n, shape)
        table = {(a, b): potentials.uniform(-1.0, 1.0) for a in "01" for b in "01"}
        p_ref = functools.cache(
            lambda names=names, edges=edges, table=table:
            sofic_pressure_reference(names, edges, table))

        def setup(names=names, edges=edges, table=table):
            p = _presentation(names, edges)
            return p, sg.LocallyConstantPotential(p, 2, table)

        def pressure_ok(value, p_ref=p_ref):
            return _close("pressure", value, p_ref())

        size = f"vertices={n} edges={len(edges)}"
        ops.append(Op(
            f"sofic-{g:02d}/lanford-ruelle",
            lambda state, setup=setup: sg.verify_sofic_lanford_ruelle(*setup()),
            lambda rep, ok=pressure_ok: ok(rep.lift.pressure_value),
            lambda rep: _lines([
                ("cover_states", len(rep.lift.cover.vertices)),
                ("cover_degree", rep.cover_analysis.degree),
                ("pairs_tested", len(rep.battery.reports)),
                ("pairs_skipped", len(rep.battery.skipped_pairs)),
                ("max_final_deviation", rep.battery.max_final_deviation),
                ("passed", rep.passed)]),
            certified=lambda rep: rep.passed, size=size))
        ops.append(Op(
            f"sofic-{g:02d}/dobrushin",
            lambda state, setup=setup: sg.verify_sofic_dobrushin(*setup()),
            lambda rep, ok=pressure_ok: ok(rep.pressure_value),
            lambda rep: _lines([
                ("cover_states", len(rep.lift.cover.vertices)),
                ("pressure", rep.pressure_value),
                ("entropy_estimate", rep.entropy_sequence[-1]),
                ("integral", rep.integral),
                ("deviation", rep.deviation),
                ("passed", rep.passed)]),
            certified=lambda rep: rep.passed, size=size))
    return ops


# -- Fischer cover and code analysis on larger random graphs ------------------

COVER_GRAPHS = 15
COVER_EXTRA_EDGES = 8


def _cover_check(names, edges):
    h_ref = functools.cache(lambda: entropy_reference(names, edges))

    def check(result):
        fischer, _, analysis = result
        problems = []
        labels = {}
        for e in fischer.edges:
            labels.setdefault(e.source, []).append(e.label)
        if any(len(ls) != len(set(ls)) for ls in labels.values()):
            problems.append("cover is not right-resolving")
        index = {v: i for i, v in enumerate(fischer.vertices)}
        a = np.zeros((len(index), len(index)))
        for e in fischer.edges:
            a[index[e.source], index[e.target]] += 1
        problems += _close("cover entropy", _log_spectral_radius(a), h_ref())
        magic = analysis.magic_word
        if magic is None:
            return problems + ["no magic word"]
        # every cover path reading the magic word crosses the same edges
        # at its coordinate
        paths = [(e,) for e in fischer.edges if e.label == magic.word[0]]
        for s in magic.word[1:]:
            paths = [p + (e,) for p in paths for e in fischer.edges
                     if e.source == p[-1].target and e.label == s]
        at = sorted({p[magic.coordinate].id for p in paths})
        if at != sorted(magic.preimage_symbols):
            problems.append(f"magic word edges {at} != {list(magic.preimage_symbols)}")
        return problems
    return check


def _cover_ops(seed):
    shapes = random.Random(f"cover-{SHAPE_SEED}")
    rng = random.Random(f"cover-{seed}")
    ops = []
    for g in range(COVER_GRAPHS):
        n, shape = graph_shape(shapes, shapes.randint(11, 14), COVER_EXTRA_EDGES)
        names, edges = _named(rng, n, shape)

        def fischer(state, names=names, edges=edges):
            cover_graph, code = sg.minimize_fischer(_presentation(names, edges))
            return cover_graph, code, sg.analyze_code(code)

        ops.append(Op(
            f"cover-{g:02d}/fischer", fischer,
            _cover_check(names, edges),
            lambda result: _lines([
                ("states", len(result[0].vertices)),
                ("edges", len(result[0].edges)),
                ("degree", result[2].degree),
                ("magic_word", "".join(result[2].magic_word.word)),
                ("magic_coordinate", result[2].magic_word.coordinate),
                ("almost_invertible", result[2].almost_invertible)]),
            certified=lambda result: (result[2].almost_invertible
                                      and result[2].degree == 1),
            size=f"vertices={n} edges={len(edges)}"))
    return ops


def _shuffled(name, seed, ops):
    random.Random(f"{name}-{seed}").shuffle(ops)
    return ops


def desk(seed, root):
    """The README's commands on scripts/data, in a seeded order."""
    return _shuffled("desk", seed, _desk_ops(root))


def sofic(seed, root):
    return _shuffled("sofic", seed, _sofic_ops(seed))


def cover(seed, root):
    return _shuffled("cover", seed, _cover_ops(seed))


WORKLOADS = {"desk": desk, "window": window, "sofic": sofic, "cover": cover}


def build(name: str, seed: int, root: Path) -> list[Op]:
    return WORKLOADS[name](seed, root)
