import math

import numpy as np
import pytest

import soficgibbs as sg
from soficgibbs import gibbs
from soficgibbs.errors import EmptyShiftError, ReducibleShiftError
from soficgibbs.codes import _subset_closure
from soficgibbs.presentations import (LabeledEdge, SoficPresentation,
                                      _subset_name)

PHI = (1 + math.sqrt(5)) / 2


def loop_shift(k):
    """Full k-shift as a single vertex with k loop edges."""
    return sg.EdgeShift(("*",), tuple(sg.Edge("*", "*", str(i)) for i in range(k)))


def identity_presentation(shift):
    """The edge shift as a sofic presentation, each edge labeled by its id."""
    return sg.image_presentation(sg.SlidingBlockCode.identity(shift))


def random_markov_measure(shift, rng):
    """A random fully supported stationary Markov measure on the shift.

    Transitions are Dirichlet-ish per vertex; the stationary vector comes
    from numpy's eigensolver and is polished by the lazy chain, so it meets
    the construction tolerances independently of the library's Perron code.
    """
    transitions = {}
    for v in shift.vertices:
        out = shift.out_edges(v)
        weights = rng.uniform(0.1, 1.0, size=len(out))
        weights /= weights.sum()
        for e, w in zip(out, weights):
            transitions[e.id] = float(w)
    n = len(shift.vertices)
    idx = shift.vertex_index
    t = np.zeros((n, n))
    for e in shift.edges:
        t[idx[e.source], idx[e.target]] += transitions[e.id]
    vals, vecs = np.linalg.eig(t.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    x = np.real(vecs[:, i])
    x = np.abs(x)
    x /= x.sum()
    half = 0.5 * (t + np.eye(n))
    for _ in range(400):
        x = x @ half
        x /= x.sum()
    stationary = {v: float(x[idx[v]]) for v in shift.vertices}
    return sg.MarkovMeasure(shift, stationary, transitions)


def brute_sft_language(alphabet, forbidden, window, n, cycle_length=None):
    """Independent language oracle for an irreducible SFT: factors of clean
    cyclic sequences, enumerated from the raw forbidden-word definition."""
    symbols = tuple(alphabet)
    forbidden = {tuple(w) for w in forbidden}
    if cycle_length is None:
        cycle_length = n + 2 * window + 2

    def cyclic_clean(seq):
        doubled = seq + seq
        for m in range(1, window + 1):
            for i in range(len(seq)):
                if doubled[i:i + m] in forbidden:
                    return False
        return True

    words = set()
    stack = [()]
    while stack:
        seq = stack.pop()
        if len(seq) == cycle_length:
            if cyclic_clean(seq):
                doubled = seq + seq
                for i in range(len(seq)):
                    words.add(doubled[i:i + n])
            continue
        for s in symbols:
            stack.append(seq + (s,))
    return sorted(words)


def unmemoized_battery(nu, potential, lengths, tol, sync):
    """The ratio battery with nothing reused: every class is pushed, and
    every word matrix, left product, dot and window delta is computed, where
    it is used.  A class carries the first vector that reached its rounded
    key on either side, as the engine's does."""
    b, mats = potential.k - 1, nu._sub_matrices
    pattern = tuple(sync) if sync else ()
    rules = ((lambda vec, s: vec @ mats[s],
              lambda bnd, s: (bnd + (s,))[-b:] if b else (), pattern),
             (lambda vec, s: mats[s] @ vec,
              lambda bnd, s: ((s,) + bnd)[:b] if b else (), pattern[::-1]))
    canon = {}  # rounded key -> (index, canonical vector), both sides

    def canonical(vec):
        return canon.setdefault(tuple(np.round(vec, 13)), (len(canon), vec))

    def push(level, apply_mat, boundary_update, pattern):
        nxt = {}
        for (_, bnd, st), (vec, count) in level:
            for s in nu.symbols:
                vec2 = apply_mat(vec, s)
                total = vec2.sum()
                if total <= 0.0:
                    continue
                index, vec2 = canonical(vec2 / total)
                key = (index, boundary_update(bnd, s),
                       gibbs._sync_step(pattern, st, s))
                if key in nxt:
                    nxt[key][1] += count
                else:
                    nxt[key] = [vec2, count]
        return sorted(nxt.items())

    def word_matrix(word):
        m = np.eye(len(nu.upstairs.shift.vertices))
        for s in word:
            if s not in mats:
                return None
            m = m @ mats[s]
        return m

    def max_deviation(u, v, lefts, rights):
        tu, tv = word_matrix(u), word_matrix(v)
        if tu is None or tv is None:
            return 0.0, 0
        worst, count = 0.0, 0
        for lvec, lbnd, lcount in lefts:
            lu, lv = lvec @ tu, lvec @ tv
            for rvec, rbnd, rcount in rights:
                num, den = float(lu @ rvec), float(lv @ rvec)
                if num <= 0.0 or den <= 0.0:
                    continue
                count += lcount * rcount
                delta = gibbs._window_delta(potential, lbnd, u, v, rbnd)
                worst = max(worst, abs(math.log(num) - math.log(den) - delta))
        return worst, count

    starts = (nu._stationary_row, np.ones(len(nu.upstairs.shift.vertices)))
    levels = [[((index, (), 0), [v0, 1])]
              for index, v0 in map(canonical, (v / v.sum() for v in starts))]
    pairs = gibbs.exchangeable_pairs(nu.words_of_length)
    rows, dropped, reached = {pair: [] for pair in pairs}, {}, 0
    for c in lengths:
        live = [pair for pair in pairs if pair not in dropped]
        if not live:
            break
        for _ in range(c - reached):
            levels = [push(level, *rule) for level, rule in zip(levels, rules)]
        reached = c
        lefts, rights = ([(vec, bnd, count) for (_, bnd, st), (vec, count)
                          in level if st == len(rule[2])]
                         for level, rule in zip(levels, rules))
        for pair in live:
            dev, count = max_deviation(*pair, lefts, rights)
            if count == 0:
                dropped[pair] = c
            else:
                rows[pair].append((dev, count))
    reports = []
    for pair in pairs:
        if pair in dropped:
            continue
        devs, counts = zip(*rows[pair])
        passed = (math.isfinite(devs[-1]) and devs[-1] < tol
                  and gibbs._trend_non_increasing(devs))
        reports.append(gibbs.GibbsRatioReport(
            *pair, tuple(lengths), devs, counts, pattern or None, tol, passed))
    return sg.RatioBattery(tuple(reports),
                           tuple(pair for pair in pairs if pair in dropped),
                           bool(reports) and all(r.passed for r in reports))


# The Fischer cover built through a string-named presentation at every
# stage: determinized, trimmed, merged, each component, renamed.


def string_determinize(presentation: SoficPresentation) -> SoficPresentation:
    """Right-resolving presentation of the same language via the subset
    construction on reachable nonempty subsets of the essential part, trimmed
    to its essential part."""
    p = presentation.essential()
    if p.is_empty:
        return p
    reached = _subset_closure(p.vertices, p._successors)
    name = {states: _subset_name(states) for states in reached}
    edges = tuple(LabeledEdge(name[src], name[tgt], s, f"{name[src]}.{s}")
                  for src in reached for s in p.label_alphabet
                  if (tgt := p._step(src, s)))
    return SoficPresentation(tuple(name.values()), edges).essential()


def _follower_partition(presentation: SoficPresentation):
    """Moore refinement of the deterministic graph with an implicit sink for
    missing transitions; returns the map state -> class representative."""
    symbols = tuple(presentation.label_alphabet)
    delta = {}
    for v in presentation.vertices:
        for e in presentation.out_edges(v):
            delta[(v, e.label)] = e.target
    block_of = {v: 0 for v in presentation.vertices}
    while True:
        signatures = {}
        for v in presentation.vertices:
            sig = (block_of[v],) + tuple(
                block_of.get(delta.get((v, s)), -1) for s in symbols)
            signatures.setdefault(sig, []).append(v)
        new_block_of = {}
        for i, (_, members) in enumerate(sorted(signatures.items(),
                                                key=lambda kv: kv[1][0])):
            for v in members:
                new_block_of[v] = i
        if len(set(new_block_of.values())) == len(set(block_of.values())):
            return new_block_of
        block_of = new_block_of


def _merge_followers(presentation: SoficPresentation) -> SoficPresentation:
    block_of = _follower_partition(presentation)
    reps = {}
    for v in sorted(presentation.vertices):
        reps.setdefault(block_of[v], v)
    name = {b: _subset_name([v for v in presentation.vertices if block_of[v] == b])
            for b in reps}
    seen = set()
    edges = []
    for e in presentation.edges:
        src, tgt = name[block_of[e.source]], name[block_of[e.target]]
        key = (src, e.label)
        if key in seen:
            continue
        seen.add(key)
        edges.append(LabeledEdge(src, tgt, e.label, f"{src}.{e.label}"))
    merged = SoficPresentation(tuple(sorted(set(name.values()))), tuple(edges))
    return merged.essential()


def _language_contained(whole: SoficPresentation, part: SoficPresentation) -> bool:
    """Exact test that every word readable in `whole` is readable in `part`."""
    start = (frozenset(whole.vertices), frozenset(part.vertices))
    symbols = sorted({e.label for e in whole.edges} | {e.label for e in part.edges})
    seen = {start}
    todo = [start]
    while todo:
        sw, sp = todo.pop()
        for s in symbols:
            nw = whole._step(sw, s)
            if not nw:
                continue
            np_ = part._step(sp, s)
            if not np_:
                return False
            nxt = (nw, np_)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def _rename_canonical(presentation: SoficPresentation) -> SoficPresentation:
    names = {v: f"q{i}" for i, v in enumerate(presentation.vertices)}
    edges = tuple(LabeledEdge(names[e.source], names[e.target], e.label,
                              f"{names[e.source]}.{e.label}")
                  for e in presentation.edges)
    return SoficPresentation(tuple(names.values()), edges)


def string_minimize_fischer(presentation: SoficPresentation):
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Returns the presentation together with its cover code (the one-block
    labeling code from the presentation's edge shift onto the shift), which
    has degree one.  Raises ReducibleShiftError when no strongly connected
    component of the merged deterministic graph presents the full language.
    """
    det = string_determinize(presentation)
    if det.is_empty:
        raise EmptyShiftError("requires a nonempty sofic shift")
    merged = _merge_followers(det)
    graph = merged.underlying_edge_shift()
    candidates = []
    for comp in graph.strongly_connected_components():
        keep = set(comp)
        edges = tuple(e for e in merged.edges if e.source in keep and e.target in keep)
        if not edges:
            continue
        sub = SoficPresentation(tuple(comp), edges)
        if _language_contained(merged, sub):
            candidates.append(sub)
    if not candidates:
        raise ReducibleShiftError("requires irreducible sofic shift")
    candidates.sort(key=lambda s: (len(s.vertices), s.vertices))
    fischer = _rename_canonical(candidates[0])
    return fischer, fischer.labeling_code()


@pytest.fixture
def alpha01():
    return sg.Alphabet(("0", "1"))


@pytest.fixture
def golden_mean(alpha01):
    return sg.sft_from_forbidden_words(alpha01, {("1", "1")}, 2)


@pytest.fixture
def full2_2block(alpha01):
    """Full 2-shift presented on vertex set {0, 1} with edges the 2-windows."""
    return sg.sft_from_forbidden_words(alpha01, set(), 2)


@pytest.fixture
def even_cover():
    """Right-resolving presentation of the even shift (runs of 0 between 1s
    have even length)."""
    return sg.SoficPresentation(("A", "B"), (
        sg.LabeledEdge("A", "A", "1", "a"),
        sg.LabeledEdge("A", "B", "0", "b"),
        sg.LabeledEdge("B", "A", "0", "c"),
    ))


@pytest.fixture
def xor_code(full2_2block):
    """Degree-2 parity code: edge (a, b) of the full 2-shift maps to a xor b."""
    labels = {e.id: str(int(e.id[0] != e.id[1])) for e in full2_2block.edges}
    return sg.SlidingBlockCode.one_block(full2_2block, labels)


@pytest.fixture
def amalgamation():
    """Symbol merge 0,1,2 -> 0,1,1 between full shifts (not finite-to-one)."""
    full3 = loop_shift(3)
    return sg.SlidingBlockCode.one_block(
        full3, {"0": "0", "1": "1", "2": "1"}, sg.Alphabet(("0", "1")))


@pytest.fixture
def period2_parallel():
    """Irreducible period-2 graph: two parallel edges one way, one back."""
    return sg.EdgeShift(("u", "v"), (
        sg.Edge("u", "v", "p1"), sg.Edge("u", "v", "p2"), sg.Edge("v", "u", "q")))


@pytest.fixture
def two_cycle():
    return sg.EdgeShift(("a", "b"), (sg.Edge("a", "b", "x"), sg.Edge("b", "a", "y")))
