import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import soficgibbs as sg
from soficgibbs import gibbs, measures, shifts, thermo

from conftest import (loop_shift, random_markov_measure, string_determinize,
                      string_minimize_fischer, unmemoized_battery)


@st.composite
def essential_graphs(draw):
    """Small essential nonempty edge shifts."""
    n = draw(st.integers(min_value=1, max_value=4))
    vertices = tuple(f"v{i}" for i in range(n))
    pairs = [(a, b) for a in vertices for b in vertices]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=3 * n))
    edges = tuple(sg.Edge(a, b, f"e{i}") for i, (a, b) in enumerate(chosen))
    shift = sg.EdgeShift(vertices, edges).essential()
    assume(not shift.is_empty)
    return shift


@st.composite
def irreducible_graphs(draw):
    shift = draw(essential_graphs())
    assume(shift.is_irreducible())
    return shift


@st.composite
def multigraphs(draw):
    """Essential graphs with at least one pair of parallel edges."""
    shift = draw(essential_graphs())
    e = draw(st.sampled_from(shift.edges))
    return sg.EdgeShift(shift.vertices,
                        shift.edges + (sg.Edge(e.source, e.target, "par"),))


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(min_value=0, max_value=8))
def test_word_counts_match_adjacency_powers(shift, n):
    # oracle: the entries of the n-th power of the adjacency matrix, in
    # exact object-dtype arithmetic
    a = np.array(shift.adjacency(), dtype=object)
    power = np.identity(len(shift.vertices), dtype=object)
    for _ in range(n):
        power = power @ a
    expected = 1 if n == 0 else int(power.sum())
    assert shift.count_words(n) == expected
    if expected > shifts.DEFAULT_ENUMERATION_CAP:
        # the enumeration refuses, naming the exact count
        with pytest.raises(sg.EnumerationCapError) as info:
            shift.words_of_length(n)
        assert info.value.count == expected
    else:
        assert len(shift.words_of_length(n)) == expected


def _table_verdict(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(min_value=1, max_value=3), st.booleans(),
       st.booleans(), st.booleans(), st.integers(min_value=0, max_value=10 ** 6))
def test_table_validation_matches_enumeration(shift, k, drop, extra,
                                              wrong_length, seed):
    rng = np.random.default_rng(seed)
    ids = [e.id for e in shift.edges]

    def random_key(length):
        return tuple(str(s) for s in rng.choice(ids, length))

    words = shift.words_of_length(k)
    keys = list(words)
    if drop:
        keys.pop(int(rng.integers(len(keys))))
    if extra:  # length-k keys outside the language
        keys += [w for w in (random_key(k) for _ in range(3)) if w not in words]
        keys.append(("zz",) * k)
    if wrong_length:
        keys += [random_key(k + 1), random_key(k - 1)]
    potential_table = {w: float(rng.uniform(-1.0, 1.0)) for w in keys}
    code_table = {w: str(rng.choice(["a", "b"])) for w in keys}
    codomain = sg.Alphabet(("a", "b"))

    # oracle: the enumeration that validated both tables before counting
    missing = next((w for w in words if w not in keys), None)
    bad_key = next((w for w in keys if len(w) != k), None)
    assert _table_verdict(
        lambda: sg.LocallyConstantPotential(shift, k, potential_table)) == (
        None if missing is None else f"potential table missing word {missing!r}")
    if bad_key is not None:
        expected = f"table key {bad_key!r} does not have length {k}"
    elif missing is not None:
        expected = f"table missing domain word {missing!r}"
    else:
        expected = None
    assert _table_verdict(lambda: sg.SlidingBlockCode(
        shift, codomain, 0, k - 1, code_table)) == expected


@settings(max_examples=60, deadline=None)
@given(essential_graphs())
def test_pruning_is_idempotent_and_essential(shift):
    assert shift.is_essential()
    assert shift.essential() == shift


@settings(max_examples=40, deadline=None)
@given(irreducible_graphs())
def test_cyclic_classes_advance(shift):
    structure = sg.cyclic_structure(shift)
    p = structure.period
    assert p >= 1
    for e in shift.edges:
        assert (structure.class_of[e.source] + 1) % p == \
            structure.class_of[e.target]


@st.composite
def nonnegative_matrices(draw):
    """Square nonnegative matrices, n from 1 to 10, with a free random zero
    pattern, all zeros, or zeros below a diagonal block (block triangular)."""
    n = draw(st.integers(min_value=1, max_value=10))
    entries = draw(st.lists(st.sampled_from((0.0, 0.0, 0.25, 1.0, 3.5)),
                            min_size=n * n, max_size=n * n))
    m = np.array(entries).reshape(n, n)
    shape = draw(st.sampled_from(("free", "zero", "block")))
    if shape == "zero":
        m[:] = 0.0
    elif shape == "block":
        cut = draw(st.integers(min_value=1, max_value=n))
        m[cut:, :cut] = 0.0
    return m


def _support_strongly_connected(m):
    """Oracle that reads no package code: Warshall's closure of the support
    graph under paths of length >= 1; the graph is strongly connected with
    a cycle iff vertex 0 reaches every vertex, itself included, and every
    vertex reaches vertex 0."""
    reach = m > 0
    for k in range(len(m)):
        reach = reach | (reach[:, k:k + 1] & reach[k:k + 1, :])
    return bool(reach[0].all() and reach[:, 0].all())


@settings(max_examples=200, deadline=None)
@given(nonnegative_matrices())
def test_matrix_irreducible_matches_support_graph(m):
    assert thermo._matrix_irreducible(m) == _support_strongly_connected(m)


@settings(max_examples=30, deadline=None)
@given(irreducible_graphs(), st.integers(min_value=1, max_value=3))
def test_higher_block_round_trip(shift, n):
    assume(shift.count_words(n) <= 200)
    recoded, decode, paths = sg.higher_block_shift(shift, n)
    encoder = sg.higher_block_encoder(shift, n)
    # the map sends each recoded edge id to its path, in lexicographic order
    assert sorted(paths) == [e.id for e in recoded.edges]
    assert list(paths.values()) == shift.words_of_length(n)
    for eid, path in paths.items():
        assert decode.label(eid) == path[0]
        assert encoder.apply_to_word(path) == (eid,)
    for w in shift.words_of_length(n + 2):
        up = encoder.apply_to_word(w)
        assert decode.apply_to_word(up) == w[:len(up)]


@settings(max_examples=30, deadline=None)
@given(irreducible_graphs(), st.integers(min_value=0, max_value=1_000_000))
def test_kolmogorov_consistency_random_markov(shift, seed):
    rng = np.random.default_rng(seed)
    mu = random_markov_measure(shift, rng)
    symbols = [e.id for e in shift.edges]
    for n in range(0, 4):
        for w in shift.words_of_length(n):
            total = sum(mu.cylinder_prob(w + (s,)) for s in symbols)
            assert total == pytest.approx(mu.cylinder_prob(w), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(irreducible_graphs(), st.integers(min_value=0, max_value=1_000_000))
def test_variational_inequality(shift, seed):
    rng = np.random.default_rng(seed)
    values = {e.id: float(rng.uniform(-1, 1)) for e in shift.edges}
    f = sg.LocallyConstantPotential(
        shift, 1, {(e.id,): values[e.id] for e in shift.edges})
    p = sg.pressure(shift, f)
    nu = random_markov_measure(shift, rng)
    assert sg.entropy(nu) + sg.integrate(f, nu) <= p + 1e-9
    mu = sg.equilibrium_measure(shift, f)
    assert sg.entropy(mu) + sg.integrate(f, mu) == pytest.approx(p, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(irreducible_graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=1_000_000))
def test_cached_solve_matches_a_fresh_potential(shift, k, seed):
    # one potential is asked for its measure first and its pressure twice,
    # an equal fresh one for its pressure first: every value agrees bit for
    # bit, and with a solve made outside the cache
    rng = np.random.default_rng(seed)
    words = shift.words_of_length(k)
    table = dict(zip(words, rng.uniform(-1.0, 1.0, len(words)).tolist()))
    f = sg.LocallyConstantPotential(shift, k, table)
    g = sg.LocallyConstantPotential(shift, k, table)
    mu_f = sg.equilibrium_measure(*sg.reduce_to_edge_potential(f)[:2])
    pressures_f = [sg.pressure(shift, f).hex() for _ in range(2)]
    pressure_g = sg.pressure(shift, g).hex()
    recoded, edge_potential, _ = sg.reduce_to_edge_potential(g)
    mu_g = sg.equilibrium_measure(recoded, edge_potential)
    uncached = math.log(sg.perron(sg.transfer_matrix(
        recoded, edge_potential)).eigenvalue).hex()
    assert pressures_f == [pressure_g, pressure_g] and pressure_g == uncached
    assert mu_f.stationary == mu_g.stationary
    assert mu_f.transitions == mu_g.transitions


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from([("0",), ("1",)]),
                       st.floats(min_value=-5, max_value=5,
                                 allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=2))
def test_variation_window_and_norm(table):
    full = loop_shift(2)
    f = sg.LocallyConstantPotential(full, 1, table)
    assert sg.variation(f, -1) == max(abs(v) for v in table.values())
    for j in range(0, 4):
        assert sg.variation(f, j) == 0.0
    assert sg.sv_norm(f) == sg.variation(f, -1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_cocycle_additivity_random(seed):
    rng = np.random.default_rng(seed)
    full = loop_shift(2)
    f = sg.LocallyConstantPotential(
        full, 1, {("0",): float(rng.uniform(-1, 1)),
                  ("1",): float(rng.uniform(-1, 1))})
    words = full.words_of_length(2)
    pick = lambda: words[rng.integers(len(words))]
    u, v, w, p, s = pick(), pick(), pick(), pick(), pick()
    duv = sg.cocycle_delta(f, p, u, v, s)
    dvw = sg.cocycle_delta(f, p, v, w, s)
    duw = sg.cocycle_delta(f, p, u, w, s)
    assert duw == pytest.approx(duv + dvw, abs=1e-12)


@st.composite
def labeled_graphs(draw):
    """Small irreducible labeled graphs over {0, 1}: sofic presentations."""
    shift = draw(irreducible_graphs())
    labels = draw(st.lists(st.sampled_from("01"), min_size=len(shift.edges),
                           max_size=len(shift.edges)))
    edges = tuple(sg.LabeledEdge(e.source, e.target, s, e.id)
                  for e, s in zip(shift.edges, labels))
    return sg.SoficPresentation(shift.vertices, edges)


@st.composite
def untrimmed_labeled_graphs(draw):
    """Labeled graphs over {0, 1} as drawn, not trimmed to their essential
    part: vertices without in- or out-edges, vertices with two out-edges of
    one label, and, when a drawn edge is repeated, parallel edges with the
    same label."""
    n = draw(st.integers(min_value=1, max_value=5))
    vertices = [f"v{i}" for i in range(n)]
    triples = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                      st.sampled_from(vertices),
                                      st.sampled_from("01")),
                            max_size=3 * n))
    if triples and draw(st.booleans()):
        triples.append(draw(st.sampled_from(triples)))
    return sg.SoficPresentation(tuple(vertices), tuple(
        sg.LabeledEdge(a, b, s, f"e{i}") for i, (a, b, s) in enumerate(triples)))


def random_potential(presentation, k, seed):
    rng = np.random.default_rng(seed)
    words = presentation.words_of_length(k)
    return sg.LocallyConstantPotential(
        presentation, k, dict(zip(words, rng.uniform(-1.0, 1.0, len(words)))))


@settings(max_examples=40, deadline=None)
@given(labeled_graphs())
def test_analysis_agrees_with_degree_and_magic_word(presentation):
    code = presentation.labeling_code()
    analysis = sg.analyze_code(code)
    assert analysis.finite_to_one == sg.is_finite_to_one(code)
    if not analysis.finite_to_one:
        assert analysis.degree is None and analysis.magic_word is None
        with pytest.raises(sg.NotFiniteToOneError):
            sg.degree(code)
        return
    magic = sg.find_magic_word(code)
    assert analysis.degree == sg.degree(code) == magic.multiplicity
    assert analysis.magic_word == magic
    assert analysis.almost_invertible == (analysis.degree == 1)


@st.composite
def labeled_covers(draw):
    """One-block codes on k-sheeted covers (k = 1, 2, 3) of small labeled
    graphs.  A base edge is labeled by its rank among the out-edges of its
    source (or the in-edges of its target) under a drawn naming of ranks, so
    the base is right- (left-) resolving, unless a drawn rank also takes the
    label of rank 0; then the base may be infinite-to-one.  Each base edge
    lifts along a random permutation of the sheets and keeps its label, so
    an irreducible cover of a finite-to-one base has k times its degree (the
    xor code is the 2-sheeted cover of the full 2-shift)."""
    n = draw(st.integers(min_value=1, max_value=3))
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for a in vertices for b in vertices]
    base = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=3 * n))
    end = draw(st.sampled_from((0, 1)))
    names = draw(st.permutations("abcdefghi"))
    merged = draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=1, max_value=3))
    edges, labels, rank = [], {}, Counter()
    for j, pair in enumerate(base):
        label = names[0 if rank[pair[end]] == merged else rank[pair[end]]]
        rank[pair[end]] += 1
        for sheet, image in enumerate(draw(st.permutations(range(k)))):
            eid = f"e{j}s{sheet}"
            edges.append(sg.Edge(f"{pair[0]}s{sheet}", f"{pair[1]}s{image}", eid))
            labels[eid] = label
    shift = sg.EdgeShift(tuple(f"{v}s{i}" for v in vertices for i in range(k)),
                         tuple(edges))
    assume(shift.is_irreducible())
    return sg.SlidingBlockCode.one_block(shift, labels)


def _reachable_subsets(code, forward):
    """The full closure of one side of the degree search."""
    from soficgibbs import codes

    succ = codes._successor_sets(codes._labeled_triples(code), forward)
    return codes._subset_closure(code.domain.vertices, succ, forward)


def _tuple_degree_search(code):
    """Reference degree search without masks: one sorted tuple of edge ids
    per (front, back, symbol) triple, in the same visiting order."""
    if not sg.is_finite_to_one(code):
        raise sg.NotFiniteToOneError("degree undefined (infinite)")
    by_label = code._label_edges
    fwd = _reachable_subsets(code, True)
    bwd = _reachable_subsets(code, False)
    best = best_key = best_witness = None
    for front, prefix in fwd.items():
        for back, suffix in bwd.items():
            for s in sorted(by_label):
                hits = tuple(sorted(e.id for e in by_label[s]
                                    if e.source in front and e.target in back))
                if not hits:
                    continue
                word = prefix + (s,) + suffix
                key = (len(hits), len(word), word)
                if best is None or key < best_key:
                    best, best_key = len(hits), key
                    best_witness = sg.MagicWord(word, len(prefix), hits)
    return best, best_witness


def _one_block_code(*edges):
    """One-block code from (source, target, label) triples; edge i is e{i}."""
    shift = sg.EdgeShift(tuple(sorted({v for a, b, _ in edges for v in (a, b)})),
                         tuple(sg.Edge(a, b, f"e{i}")
                               for i, (a, b, _) in enumerate(edges)))
    return sg.SlidingBlockCode.one_block(
        shift, {f"e{i}": label for i, (_, _, label) in enumerate(edges)})


# Codes whose searches meet each tie-break: degree 1 first seen as
# multiplicity 2 on a shorter word; a later word of equal multiplicity and
# length that is smaller; equal keys at two coordinates.
_TIE_BREAK_CODES = (
    _one_block_code(("u", "u", "a"), ("u", "v", "a"), ("u", "v", "b"),
                    ("v", "u", "b")),
    _one_block_code(("u", "w", "a"), ("v", "u", "a"), ("v", "u", "b"),
                    ("v", "u", "c"), ("w", "v", "a"), ("w", "u", "b"),
                    ("w", "v", "c")),
    _one_block_code(("u", "u", "a"), ("u", "w", "a"), ("u", "w", "b"),
                    ("v", "u", "b"), ("w", "v", "a")),
)


@settings(max_examples=80, deadline=None)
@given(labeled_covers())
@example(_TIE_BREAK_CODES[0])
@example(_TIE_BREAK_CODES[1])
@example(_TIE_BREAK_CODES[2])
def test_mask_degree_search_matches_tuple_oracle(code):
    try:
        expected = _tuple_degree_search(code)
    except sg.NotFiniteToOneError:
        with pytest.raises(sg.NotFiniteToOneError):
            sg.find_magic_word(code)
        return
    assert (sg.degree(code), sg.find_magic_word(code)) == expected


def _three_cycle_with_loop(labels):
    """v1 -> v2 -> v3 -> v1 and a loop at v1, labeled in that order."""
    pairs = (("v1", "v2"), ("v2", "v3"), ("v3", "v1"), ("v1", "v1"))
    return sg.SoficPresentation(("v1", "v2", "v3"), tuple(
        sg.LabeledEdge(a, b, s, f"e{i}")
        for i, ((a, b), s) in enumerate(zip(pairs, labels))))


# Fischer covers whose searches meet multiplicity 1 at length 2 first on the
# word 10, then on the smaller word 00 at a deeper front; and on the word 00
# at coordinates 0 and 1.
_FISCHER_TIE_BREAKS = (_three_cycle_with_loop("1100"),
                       _three_cycle_with_loop("0011"))


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=1_000_000))
@example(_FISCHER_TIE_BREAKS[0], 2, 0)
@example(_FISCHER_TIE_BREAKS[1], 2, 0)
def test_early_stop_matches_full_closure_oracle_on_sofic_codes(presentation,
                                                              k, seed):
    # Fischer cover codes have degree 1, so the search stops early, often
    # before the deeper levels of either closure; the recoded push code of
    # the cover is the code the sofic pipelines analyze
    cover = sg.minimize_fischer(presentation)[1]
    push = sg.equilibrium_upstairs(
        cover, random_potential(presentation, k, seed)).downstairs.code
    for code in (cover, push):
        expected = _tuple_degree_search(code)
        assert expected[0] == 1
        assert (sg.degree(code), sg.find_magic_word(code)) == expected


def _shortest_diamond(code, longest):
    """Brute force: the least length, up to `longest`, of two distinct paths
    with one start, one end and one label word, or None."""
    # one (start, end, label word) entry per path
    paths = [(v, v, ()) for v in code.domain.vertices]
    for length in range(1, longest + 1):
        paths = [(start, e.target, word + (code.label(e.id),))
                 for start, end, word in paths
                 for e in code.domain.out_edges(end)]
        if max(Counter(paths).values()) > 1:
            return length
    return None


def _walk_of(module, call, *args):
    """The verdict of `call(*args)` and the result of the pair walk it
    runs, run again on the same start set, step and stop test."""
    from soficgibbs import codes

    with mock.patch.object(module, "_pair_walk",
                           wraps=codes._pair_walk) as walk:
        verdict = call(*args)
    return verdict, codes._pair_walk(*walk.call_args.args)


@settings(max_examples=150, deadline=None)
@given(st.one_of(labeled_covers(),
                 labeled_graphs().map(lambda p: p.labeling_code())))
def test_pair_walk_finds_shortest_diamond(code):
    from soficgibbs import codes

    finite, found = _walk_of(codes, sg.is_finite_to_one, code)
    assert finite == (found is None)
    shortest = _shortest_diamond(code, 6)
    if shortest is None:
        assert found is None or len(found[1]) > 5
    else:
        # the walk starts one step in, past the two first edges
        assert not finite
        assert len(found[1]) == shortest - 1


def _merged_table(presentation):
    """The follower-merged subset table that `minimize_fischer` builds."""
    from soficgibbs import presentations

    _, _, delta = presentations._subset_table(presentation)
    block_of = presentations._follower_classes(delta)
    first = {}
    for i, b in enumerate(block_of):
        first.setdefault(b, i)
    return [[block_of[t] if t >= 0 else -1 for t in delta[first[b]]]
            for b in range(len(first))]


def _least_word_outside(table, part, longest):
    """Brute force: the shortlex-least word, up to `longest` symbols, that
    state 0 of the table reads and no path inside `part` reads, or None."""

    def reads(state, word, inside):
        # `state` reads `word` along steps that stay in `inside`
        for j in word:
            state = table[state][j]
            if state not in inside:
                return False
        return True

    for length in range(longest + 1):
        for word in itertools.product(range(len(table[0])), repeat=length):
            if (reads(0, word, range(len(table)))
                    and not any(reads(v, word, part) for v in part)):
                return word
    return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(labeled_graphs(), untrimmed_labeled_graphs()))
def test_pair_walk_finds_least_word_outside_a_component(presentation):
    from soficgibbs import presentations

    # state 0 is the class of the full vertex set, which reads every word;
    # the walk is asked only about components that no step leaves
    table = _merged_table(presentation)
    for comp in shifts._strong_components([[t for t in row if t >= 0]
                                           for row in table]):
        part = set(comp)
        if any(t >= 0 and t not in part for v in part for t in table[v]):
            continue
        whole, found = _walk_of(presentations, presentations._presents_whole,
                                table, part)
        assert whole == (found is None)
        least = _least_word_outside(table, part, 6)
        if least is None:
            assert found is None or len(found[1]) > 6
        else:
            assert found[1] == least


def _edge_scan_subsets(code, forward):
    """Reference subset search: each step scans every edge of the symbol."""
    by_label = code._label_edges
    full = frozenset(code.domain.vertices)
    seen, queue = {full: ()}, [full]
    while queue:
        nxt_queue = []
        for cur in queue:
            for s in sorted(by_label):
                if forward:
                    nxt = frozenset(e.target for e in by_label[s] if e.source in cur)
                else:
                    nxt = frozenset(e.source for e in by_label[s] if e.target in cur)
                if nxt and nxt not in seen:
                    seen[nxt] = seen[cur] + (s,) if forward else (s,) + seen[cur]
                    nxt_queue.append(nxt)
        queue = nxt_queue
    return seen


@settings(max_examples=60, deadline=None)
@given(labeled_covers(), st.booleans())
def test_reachable_subsets_match_edge_scan_oracle(code, forward):
    from soficgibbs import codes

    expected = list(_edge_scan_subsets(code, forward).items())
    with pytest.MonkeyPatch.context() as mp:
        # a cap of exactly the number of reachable subsets is met; one fewer
        # is exceeded by the last of them (the full set is never refused)
        mp.setattr(codes, "SUBSET_STATE_CAP", len(expected))
        assert list(_reachable_subsets(code, forward).items()) == expected
        if len(expected) > 1:
            mp.setattr(codes, "SUBSET_STATE_CAP", len(expected) - 1)
            with pytest.raises(sg.EnumerationCapError) as info:
                _reachable_subsets(code, forward)
            assert (info.value.count, info.value.cap) == (len(expected),
                                                          len(expected) - 1)


@settings(max_examples=150, deadline=None)
@given(untrimmed_labeled_graphs())
def test_presentation_essential_matches_edge_shift_trim(presentation):
    trimmed = presentation.essential()
    assert type(trimmed) is sg.SoficPresentation
    # oracle: the underlying edge shift trimmed, then the labeled edges
    # whose ids survive
    core = presentation.underlying_edge_shift().essential()
    keep = {e.id for e in core.edges}
    assert trimmed == sg.SoficPresentation(core.vertices, tuple(
        e for e in presentation.edges if e.id in keep))
    # and a fixpoint of its own: drop every vertex without an in- or an
    # out-edge among the vertices left, until none is dropped
    alive = set(presentation.vertices)
    while True:
        arcs = [e for e in presentation.edges
                if e.source in alive and e.target in alive]
        left = {e.source for e in arcs} & {e.target for e in arcs}
        if left == alive:
            break
        alive = left
    assert set(trimmed.vertices) == alive
    assert set(trimmed.edges) == set(arcs)


def _count_and_walk_missing_word(shift, keys, n):
    """The table check as it was: the keys of length n that are paths, each
    walked edge by edge, counted against `count_words(n)`."""
    def is_path(word):
        at = None
        for eid in word:
            e = shift.edge_by_id.get(eid)
            if e is None or (at is not None and e.source != at):
                return False
            at = e.target
        return True

    if shift.count_words(n) == sum(1 for w in keys
                                   if len(w) == n and is_path(w)):
        return None
    return next((w for w in shift.words_of_length(n) if w not in keys), None)


@settings(max_examples=150, deadline=None)
@given(untrimmed_labeled_graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=10 ** 6))
def test_table_check_matches_count_and_walk_oracle(presentation, n, drop, fake,
                                                   other, seed):
    shift = presentation.underlying_edge_shift()
    rng = np.random.default_rng(seed)
    words = shift.words_of_length(n)
    ids = [e.id for e in shift.edges]
    # a random subset of the language, all but `drop` words of it, and tuples
    # outside it: `fake` tuples of edge ids that are not paths, `other` paths
    # of length n - 1 or n + 1 (with as many as are dropped, a count that
    # takes them agrees), and an unknown id
    keys = [words[i] for i in rng.permutation(len(words))[drop:]]
    in_language = set(words)
    not_paths = [w for w in itertools.product(ids, repeat=n)
                 if w not in in_language]
    keys += [not_paths[i] for i in rng.permutation(len(not_paths))[:fake]]
    near = [w for w in shift.words_of_length(n - 1)
            + shift.words_of_length(n + 1) if w]
    keys += [near[i] for i in rng.permutation(len(near))[:other]]
    keys.append(("zz",) * n)
    keys = dict.fromkeys(keys[i] for i in rng.permutation(len(keys)))
    assert shifts.missing_word(shift, keys, n) == _count_and_walk_missing_word(
        shift, keys, n)


def _per_edge_transfer_matrix(shift, potential):
    """The transfer matrix as it was: one numpy scalar read and written per
    edge."""
    n = len(shift.vertices)
    idx = shift.vertex_index
    m = np.zeros((n, n))
    for e in shift.edges:
        i, j = idx[e.source], idx[e.target]
        m[i, j] = float(m[i, j]) + math.exp(potential.value((e.id,)))
    return m


def _per_edge_transitions(shift, potential, data):
    """The transitions of `thermo.equilibrium_measure` as they were: each
    weight a Python float times a numpy scalar of the right Perron vector."""
    idx = shift.vertex_index
    transitions = {}
    for v in shift.vertices:
        weights = {e.id: math.exp(potential.value((e.id,)))
                   * data.right[idx[e.target]] for e in shift.out_edges(v)}
        total = sum(weights.values())
        for eid, w in weights.items():
            transitions[eid] = w / total
    return transitions


def _per_vertex_markov_defect(shift, stationary, transitions):
    """The refusal of `MarkovMeasure` as it was, each vertex's out-flow and
    in-flow summed left to right over its edges, or None."""
    tol = sg.MarkovMeasure.TOL
    if any(p <= 0 for p in transitions.values()):
        return "support must be exactly the edge set"
    if any(p < 0 for p in stationary.values()):
        return "stationary vector must be nonnegative"
    if abs(thermo._sum(stationary.values()) - 1.0) > tol:
        return "stationary vector must sum to 1"
    for v in shift.vertices:
        row = thermo._sum(transitions[e.id] for e in shift.out_edges(v))
        if abs(row - 1.0) > tol:
            return f"outgoing probabilities at {v!r} sum to {row}, not 1"
    for v in shift.vertices:
        inflow = thermo._sum(stationary[e.source] * transitions[e.id]
                             for e in shift.in_edges(v))
        if abs(inflow - stationary[v]) > tol:
            return "vector is not stationary for the transitions"
    return None


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(min_value=0, max_value=3),
       st.floats(min_value=0.1, max_value=30.0),
       st.integers(min_value=0, max_value=10 ** 6))
def test_edge_form_is_bit_identical_to_per_edge_numpy_forms(shift, copies,
                                                            scale, seed):
    # more copies of the parallel edge, so that a sum's order shows in its bits
    par = shift.edge_by_id["par"]
    shift = sg.EdgeShift(shift.vertices, shift.edges + tuple(
        sg.Edge(par.source, par.target, f"par{i}") for i in range(copies)))
    assume(shift.is_irreducible())
    rng = np.random.default_rng(seed)
    f = sg.LocallyConstantPotential(shift, 1, {
        (e.id,): float(rng.uniform(-scale, scale)) for e in shift.edges})
    m = sg.transfer_matrix(shift, f)
    assert np.array_equal(m, _per_edge_transfer_matrix(shift, f))
    data = sg.perron(m)
    mu = sg.equilibrium_measure(shift, f)
    assert mu.transitions == _per_edge_transitions(shift, f, data)
    assert list(mu.transitions) == [e.id for v in shift.vertices
                                    for e in shift.out_edges(v)]
    mass = data.left * data.right
    assert list(mu.stationary) == list(shift.vertices)
    assert np.array_equal(np.array(list(mu.stationary.values())),
                          mass / mass.sum())
    # the whole-array checks of MarkovMeasure accept and refuse what the
    # per-vertex sums did, on one transition or one stationary entry moved
    # by the tolerance give or take a few half-ulps of 1
    assert _per_vertex_markov_defect(shift, mu.stationary,
                                     mu.transitions) is None
    for trial in range(8):
        stationary, transitions = dict(mu.stationary), dict(mu.transitions)
        delta = float(rng.choice((-1.0, 1.0))) * (
            sg.MarkovMeasure.TOL + int(rng.integers(-4, 5)) * 2.0 ** -53)
        if trial % 2:
            stationary[shift.vertices[rng.integers(len(shift.vertices))]] += delta
        else:
            transitions[shift.edges[rng.integers(len(shift.edges))].id] += delta
        expected = _per_vertex_markov_defect(shift, stationary, transitions)
        try:
            sg.MarkovMeasure(shift, stationary, transitions)
        except ValueError as error:
            assert str(error) == expected
        else:
            assert expected is None


@st.composite
def weighted_cycle_graphs(draw):
    """Irreducible edge shifts of 3 to 48 vertices, some above
    PERRON_DENSE_DIM: a cycle through every vertex plus random edges,
    parallel ones and loops among them, with an edge potential of at most
    30 in absolute value."""
    n = draw(st.integers(min_value=3, max_value=48))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    cycle = rng.permutation(n)
    pairs = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
    pairs += rng.integers(0, n, (draw(st.integers(0, 2 * n)), 2)).tolist()
    vertices = tuple(f"v{i}" for i in range(n))
    shift = sg.EdgeShift(vertices, tuple(
        sg.Edge(vertices[a], vertices[b], f"e{i}")
        for i, (a, b) in enumerate(pairs)))
    scale = draw(st.floats(min_value=0.1, max_value=30.0))
    return shift, sg.LocallyConstantPotential(shift, 1, {
        (e.id,): float(rng.uniform(-scale, scale)) for e in shift.edges})


@settings(max_examples=40, deadline=None)
@given(weighted_cycle_graphs())
def test_stationary_vector_from_perron_data_is_stationary(drawn):
    # l_i r_i over its sum, with no iteration after the Perron solve, meets
    # the measure's own tolerance, here summed by fsum, apart from the
    # measure's own check
    shift, f = drawn
    try:
        mu = sg.equilibrium_measure(shift, f)
    except sg.SoficGibbsError:
        # no certified Perron solve, or a weight or a transition outside
        # the normal doubles
        assume(False)
    inflow = {v: [] for v in shift.vertices}
    for e in shift.edges:
        inflow[e.target].append(mu.stationary[e.source] * mu.transitions[e.id])
    defects = [abs(math.fsum(inflow[v]) - mu.stationary[v])
               for v in shift.vertices]
    defects.append(abs(math.fsum(mu.stationary.values()) - 1.0))
    assert max(defects) <= sg.MarkovMeasure.TOL


def _vertex_rooted_edge_paths(shift, n):
    """The edge paths of length n, walked depth first from each vertex in
    turn and then sorted."""
    paths = []
    stack = [((), v) for v in reversed(shift.vertices)]
    while stack:
        path, at = stack.pop()
        if len(path) == n:
            paths.append(path)
            continue
        for e in reversed(shift.out_edges(at)):
            stack.append((path + (e.id,), e.target))
    return sorted(paths)


def _sorted_label_paths(presentation, n):
    """The labels of the length-n paths, walked depth first over the sorted
    symbols on subsets of vertices and then sorted."""
    symbols = sorted({e.label for e in presentation.edges})
    out = []
    stack = [((), frozenset(presentation.vertices))]
    while stack:
        word, states = stack.pop()
        if len(word) == n:
            out.append(word)
            continue
        for s in reversed(symbols):
            nxt = frozenset(e.target for e in presentation.edges
                            if e.source in states and e.label == s)
            if nxt:
                stack.append((word + (s,), nxt))
    return sorted(out)


def _sorted_preimage_paths(presentation, word):
    """The paths that read a word, built level by level and then sorted."""
    paths = [((), None)]
    for s in word:
        paths = [(path + (e.id,), e.target) for path, at in paths
                 for e in presentation.edges
                 if e.label == s and at in (None, e.source)]
    return sorted(path for path, _ in paths)


def _strictly_increasing(words):
    return all(a < b for a, b in zip(words, words[1:]))


@settings(max_examples=150, deadline=None)
@given(untrimmed_labeled_graphs())
def test_enumerations_come_out_in_lexicographic_order(presentation):
    # the three walks emit their words already sorted: each equals the
    # sorted output of the walk it replaced, and nothing is listed twice
    shift = presentation.underlying_edge_shift()
    code = presentation.labeling_code() if presentation.edges else None
    for n in range(1, 5):
        paths = shift.words_of_length(n)
        assert _strictly_increasing(paths)
        assert paths == _vertex_rooted_edge_paths(shift, n)
        words = presentation.words_of_length(n)
        assert _strictly_increasing(words)
        assert words == _sorted_label_paths(presentation, n)
        for w in words:
            preimages = sg.preimage_words(code, w)
            assert _strictly_increasing(preimages)
            assert preimages == _sorted_preimage_paths(presentation, w)


def _spelled_label_words(presentation, n):
    # every length-n string over the labels, in order, kept when some edge
    # path spells it; no edge path is listed, so parallel edges cost nothing
    alphabet = sorted({e.label for e in presentation.edges})
    words = []
    for word in itertools.product(alphabet, repeat=n):
        ends = set(presentation.vertices)
        for a in word:
            ends = {e.target for e in presentation.edges
                    if e.source in ends and e.label == a}
        if ends:
            words.append(word)
    return words


@settings(max_examples=150, deadline=None)
@given(st.one_of(labeled_graphs(), untrimmed_labeled_graphs()))
@example(sg.SoficPresentation(("v0",), ()))
@example(sg.SoficPresentation((), ()))
@example(sg.SoficPresentation(("v0", "v1"), tuple(
    sg.LabeledEdge("v1", "v1", "0", f"e{i}") for i in range(9))))
def test_word_levels_list_the_labels_of_the_paths(presentation):
    # each level, and words_of_length, is the sorted set of the label words
    # of the graph's paths, on graphs that are not essential too, and on
    # graphs with more edge paths than an edge shift lists
    levels = [[()] if presentation.vertices else []]
    levels += presentation.word_levels(6)
    for n in range(7):
        words = _spelled_label_words(presentation, n)
        assert levels[n] == presentation.words_of_length(n) == words


@settings(max_examples=80, deadline=None)
@given(labeled_covers(), st.integers(min_value=0, max_value=1_000_000))
def test_cross_check_sums_are_the_preimage_oracle_doubles(code, seed):
    # the level walk of the finite-to-one cross-check sums the same products
    # in the same order as the per-word oracle: equal doubles, not close ones
    mu = random_markov_measure(code.domain, np.random.default_rng(seed))
    nu = sg.pushforward(mu, code)
    walk = measures._preimage_sum_levels(nu, 4)
    for (words, probs), (listed, listed_probs, sums) in zip(nu.word_levels(4),
                                                            walk):
        assert (listed, listed_probs) == (words, probs)
        assert sums == [sg.preimage_cylinder_sum(nu, w) for w in words]


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=1_000_000))
def test_battery_pair_list_is_the_word_list_pair_list(presentation,
                                                      max_word_length, seed):
    # the pairs run_ratio_battery hands its engine on a hidden Markov measure
    # are the ones exchangeable_pairs lists from words_of_length
    f = random_potential(presentation, 1, seed)
    nu = sg.equilibrium_upstairs(presentation.labeling_code(), f).downstairs
    seen = []
    with mock.patch.object(gibbs, "_ratio_engine", lambda measure, potential,
                           pairs, *rest: seen.append(pairs) or ([], [])):
        sg.run_ratio_battery(nu, f, [1], 1e-6,
                             max_word_length=max_word_length)
    assert seen == [gibbs.exchangeable_pairs(nu.words_of_length,
                                             max_word_length)]


def _depth_first_determinize(presentation):
    """The subset construction as a depth-first walk whose step scans every
    out-edge of each state and filters by label."""
    from soficgibbs.presentations import _subset_name

    p = presentation.essential()
    if p.is_empty:
        return p
    start = frozenset(p.vertices)
    order, transitions, todo = [start], {}, [start]
    while todo:
        states = todo.pop()
        for s in p.label_alphabet:
            nxt = frozenset(e.target for v in states for e in p.out_edges(v)
                            if e.label == s)
            if not nxt:
                continue
            transitions[(states, s)] = nxt
            if nxt not in order:
                order.append(nxt)
                todo.append(nxt)
    edges = tuple(sg.LabeledEdge(_subset_name(src), _subset_name(tgt), s,
                                 f"{_subset_name(src)}.{s}")
                  for (src, s), tgt in transitions.items())
    return sg.SoficPresentation(tuple(map(_subset_name, order)),
                                edges).essential()


@settings(max_examples=150, deadline=None)
@given(untrimmed_labeled_graphs())
def test_determinize_matches_depth_first_oracle(presentation):
    det = sg.determinize(presentation)
    assert det == _depth_first_determinize(presentation)
    assert det.is_deterministic


def _row_follower_classes(delta):
    """Moore refinement as `presentations._follower_classes` did it before
    it read the table by columns: one signature tuple per row."""
    block_of, count = [0] * len(delta) + [-1], 1
    while True:
        signatures = {}
        new = [signatures.setdefault(
                   (block_of[i], *map(block_of.__getitem__, row)), len(signatures))
               for i, row in enumerate(delta)]
        if len(signatures) == count:
            return new
        block_of, count = new + [-1], len(signatures)


@st.composite
def deterministic_tables(draw):
    """Tables of 1-40 states over 1-3 symbols, each step a state or -1."""
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(st.integers(min_value=-1, max_value=n - 1),
                   min_size=k, max_size=k)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(deterministic_tables())
def test_column_refinement_matches_row_signatures(delta):
    from soficgibbs import presentations

    assert presentations._follower_classes(delta) == _row_follower_classes(delta)


def _stepped_table(presentation):
    """The subset table from the closure order and `_step` alone: each step
    target looked up by its position in the closure."""
    from soficgibbs import codes

    p = presentation.essential()
    if p.is_empty:
        return [], [], []
    subsets = list(codes._subset_closure(p.vertices, p._successors))
    position = {states: i for i, states in enumerate(subsets)}
    symbols = list(p.label_alphabet)
    return subsets, symbols, [[position[t] if (t := p._step(states, s)) else -1
                               for s in symbols] for states in subsets]


@settings(max_examples=200, deadline=None)
@given(untrimmed_labeled_graphs())
def test_numbered_subset_table_matches_stepped_closure(presentation):
    from soficgibbs import codes, presentations

    subsets, symbols, delta = presentations._subset_table(presentation)
    assert (subsets, symbols, delta) == _stepped_table(presentation)
    assert presentations._follower_classes(delta) == _row_follower_classes(delta)
    if len(subsets) < 2:
        return
    # one below the closure size: every walk is refused on its last subset
    code = presentation.essential().labeling_code()
    cap = len(subsets) - 1
    refused = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "SUBSET_STATE_CAP", cap)
        for call in (lambda: _reachable_subsets(code, True),
                     lambda: presentations._subset_table(presentation),
                     lambda: sg.determinize(presentation)):
            with pytest.raises(sg.EnumerationCapError) as info:
                call()
            refused.append((info.value.count, info.value.cap))
    assert refused == [(len(subsets), cap)] * 3


def _isomorphism(a, b):
    """The vertex map that carries the right-resolving irreducible
    presentation `a` onto `b`, labels kept, or None."""
    out_a = {(e.source, e.label): e.target for e in a.edges}
    out_b = {(e.source, e.label): e.target for e in b.edges}
    for image in b.vertices:
        phi, todo = {a.vertices[0]: image}, [a.vertices[0]]
        for v in todo:
            for (u, s), t in out_a.items():
                if u == v and t not in phi:
                    phi[t] = out_b.get((phi[v], s))
                    todo.append(t)
        if (len(set(phi.values())) == len(phi) == len(b.vertices)
                and {(phi[u], s): phi[t] for (u, s), t in out_a.items()}
                == out_b):
            return phi
    return None


def _assert_cover_matches_string_oracle(presentation):
    # the oracle names the cover's states by their sets of subsets, so the
    # covers agree up to a renaming of states and, with it, of edge ids
    assert sg.determinize(presentation) == string_determinize(presentation)
    try:
        oracle_fischer, oracle_code = string_minimize_fischer(presentation)
    except (sg.EmptyShiftError, sg.ReducibleShiftError) as error:
        with pytest.raises(type(error)):
            sg.minimize_fischer(presentation)
        if isinstance(error, sg.ReducibleShiftError):
            assert not sg.is_irreducible_sofic(presentation)
        return
    fischer, code = sg.minimize_fischer(presentation)
    phi = _isomorphism(fischer, oracle_fischer)
    assert phi is not None
    ids = {e.id: f"{phi[e.source]}.{e.label}" for e in fischer.edges}
    assert {(ids[e],): s for (e,), s in code.table.items()} == oracle_code.table
    assert code == fischer.labeling_code()
    assert sg.is_irreducible_sofic(presentation)


@settings(max_examples=150, deadline=None)
@given(labeled_graphs())
def test_fischer_cover_matches_string_oracle(presentation):
    _assert_cover_matches_string_oracle(presentation)


@settings(max_examples=300, deadline=None)
@given(untrimmed_labeled_graphs())
def test_fischer_cover_of_untrimmed_graph_matches_string_oracle(presentation):
    _assert_cover_matches_string_oracle(presentation)


def _out_split(presentation, v, part):
    """The out-split of vertex v, labels kept (Lind & Marcus §2.4): the
    out-edges of v with an id in `part` leave copy v+"a", the others copy
    v+"b", and each edge into v is doubled, one into each copy."""
    edges = []
    for e in presentation.edges:
        source = v + ("a" if e.id in part else "b") if e.source == v else e.source
        if e.target == v:
            edges += [sg.LabeledEdge(source, v + c, e.label, e.id + c)
                      for c in "ab"]
        else:
            edges.append(sg.LabeledEdge(source, e.target, e.label, e.id))
    return sg.SoficPresentation(
        tuple(u for u in presentation.vertices if u != v) + (v + "a", v + "b"),
        tuple(edges))


def _reversed(presentation):
    return sg.SoficPresentation(presentation.vertices, tuple(
        sg.LabeledEdge(e.target, e.source, e.label, e.id)
        for e in presentation.edges))


def _cover_or_error(presentation):
    try:
        return sg.minimize_fischer(presentation)
    except (sg.EmptyShiftError, sg.ReducibleShiftError) as error:
        return type(error)


@settings(max_examples=200, deadline=None)
@given(st.one_of(labeled_graphs(), untrimmed_labeled_graphs()), st.data())
def test_fischer_cover_is_invariant_under_presentation_moves(presentation,
                                                             data):
    # the cover, state names and edge ids included, and the error alike
    # depend on the presented shift alone
    p = presentation
    names = dict(zip(p.vertices, data.draw(st.permutations(p.vertices))))
    ids = data.draw(st.permutations([e.id for e in p.edges]))
    v = data.draw(st.sampled_from(p.vertices))
    side = data.draw(st.lists(st.booleans(), min_size=len(p.edges),
                              max_size=len(p.edges)))
    part = {e.id for e, a in zip(p.edges, side) if a}
    ends = data.draw(st.tuples(st.sampled_from("01"), st.sampled_from("01")))
    moves = {
        "renamed": sg.SoficPresentation(tuple(names.values()), tuple(
            sg.LabeledEdge(names[e.source], names[e.target], e.label, e.id)
            for e in p.edges)),
        "ids permuted": sg.SoficPresentation(p.vertices, tuple(
            sg.LabeledEdge(e.source, e.target, e.label, i)
            for e, i in zip(p.edges, ids))),
        # a vertex without in-edges and one without out-edges
        "tail": sg.SoficPresentation(p.vertices + ("in", "out"), p.edges + (
            sg.LabeledEdge("in", v, ends[0], "t0"),
            sg.LabeledEdge(v, "out", ends[1], "t1"))),
        "out-split": _out_split(p, v, part),
        "in-split": _reversed(_out_split(_reversed(p), v, part)),
        "determinized": sg.determinize(p),
    }
    cover = _cover_or_error(p)
    for move, moved in moves.items():
        assert _cover_or_error(moved) == cover, move


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(), st.data())
def test_step_matches_edge_scan_oracle(presentation, data):
    states = frozenset(data.draw(st.sets(st.sampled_from(presentation.vertices))))
    for symbol in "012":
        # oracle: scan every out-edge of every state, filtering by label
        expected = frozenset(e.target for v in states
                             for e in presentation.out_edges(v)
                             if e.label == symbol)
        step = presentation._step(states, symbol)
        assert isinstance(step, frozenset) and step == expected


@settings(max_examples=40, deadline=None)
@given(labeled_graphs())
def test_membership_matches_word_lists(presentation):
    # every word over the alphabet, the empty word included, is in the
    # language exactly when it is listed by words_of_length
    shift = presentation.underlying_edge_shift()
    mu = sg.equilibrium_measure(shift, sg.LocallyConstantPotential.zero(shift))
    nu = sg.pushforward(mu, presentation.labeling_code())
    for language, alphabet in ((shift, shift.alphabet()),
                               (mu, shift.alphabet()),
                               (presentation, presentation.label_alphabet),
                               (nu, presentation.label_alphabet)):
        for n in range(4):
            members = [w for w in itertools.product(alphabet, repeat=n)
                       if language.in_language(w)]
            assert members == language.words_of_length(n)


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(), st.integers(min_value=0, max_value=1_000_000))
def test_upstairs_image_matches_preimage_sums(presentation, seed):
    f = random_potential(presentation, 2, seed)
    lift = sg.equilibrium_upstairs(presentation.labeling_code(), f)
    nu = lift.downstairs
    assert lift.potential_upstairs.k == 1 and nu.code.domain == nu.upstairs.shift
    for n in range(1, 5):
        words = nu.words_of_length(n)
        assert words == presentation.words_of_length(n)
        for w in words:
            assert nu.cylinder_prob(w) == pytest.approx(
                sg.preimage_cylinder_sum(nu, w), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=1_000_000))
def test_level_walk_is_bit_identical_to_cylinder_prob(presentation, k, seed):
    # each level lists the words of words_of_length with exactly the doubles
    # cylinder_prob computes, and the block entropies are summed from them
    # in that order
    nu = sg.equilibrium_upstairs(
        presentation.labeling_code(),
        random_potential(presentation, k, seed)).downstairs
    block = [0.0]
    for n, (words, probs) in enumerate(nu.word_levels(6), start=1):
        assert words == presentation.words_of_length(n)
        assert probs == [nu.cylinder_prob(w) for w in words]
        block.append(-sum(p * math.log(p) for p in probs))
    assert sg.entropy_estimate(nu, 6).h_sequence == tuple(
        b - a for a, b in zip(block, block[1:]))


def _dobrushin_integral_oracle(report, presentation, potential):
    """The integral as a sum over the words listed by the presentation,
    each probability from `cylinder_prob`."""
    nu = report.lift.downstairs
    return sum(nu.cylinder_prob(w) * potential.value(w)
               for w in presentation.words_of_length(potential.k))


def _loop_with_dead_end():
    """A loop labeled 0 at A and an edge A -> B labeled 1: the graph is not
    essential, and its words of length 1 list the zero-mass word 1."""
    return sg.SoficPresentation(("A", "B"), (
        sg.LabeledEdge("A", "A", "0", "a"), sg.LabeledEdge("A", "B", "1", "b")))


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=1_000_000))
@example(_loop_with_dead_end(), 1, 0)
def test_dobrushin_integral_matches_cylinder_sum(presentation, k, seed):
    f = random_potential(presentation, k, seed)
    report = sg.verify_sofic_dobrushin(presentation, f, entropy_horizon=2)
    assert report.integral == _dobrushin_integral_oracle(report,
                                                         presentation, f)


def test_dobrushin_integral_drops_only_zero_mass_words():
    presentation = _loop_with_dead_end()
    assert presentation.words_of_length(1) == [("0",), ("1",)]
    f = sg.LocallyConstantPotential(presentation, 1, {("0",): 0.5,
                                                      ("1",): 0.25})
    report = sg.verify_sofic_dobrushin(presentation, f)
    assert report.lift.downstairs.cylinder_prob(("1",)) == 0.0
    assert report.integral == 0.5
    assert report.integral == _dobrushin_integral_oracle(report,
                                                         presentation, f)


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(), st.integers(min_value=0, max_value=1_000_000))
def test_window_one_push_code_is_the_code(presentation, seed):
    code = presentation.labeling_code()
    nu = sg.equilibrium_upstairs(
        code, random_potential(presentation, 1, seed)).downstairs
    assert nu.code == code
    assert nu.upstairs.shift == code.domain


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=1_000_000))
def test_lift_cover_is_the_fischer_cover(presentation, k, seed):
    # the lift keeps only the cover code; its cover is read back from it
    lift = sg.lift_equilibrium(presentation, random_potential(presentation, k,
                                                              seed))
    fischer, cover_code = sg.minimize_fischer(presentation)
    assert lift.code == cover_code
    assert lift.cover == fischer


class _WordsOnly:
    """A measure seen only through its cylinders, language and word lists:
    the ratio engine takes the brute-force word path on it."""

    def __init__(self, nu):
        self.cylinder_prob = nu.cylinder_prob
        self.in_language = nu.in_language
        self.words_of_length = nu.words_of_length


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=1_000_000))
def test_ratio_engine_classes_match_word_oracle(presentation, k, sync_len,
                                                seed):
    f = random_potential(presentation, k, seed)
    nu = sg.equilibrium_upstairs(presentation.labeling_code(), f).downstairs
    candidates = nu.words_of_length(sync_len)
    sync = candidates[seed % len(candidates)] if sync_len else None
    lengths = range(max(k - 1, 1, sync_len), 5)
    fast = sg.run_ratio_battery(nu, f, lengths, 1e-6, sync, max_word_length=2)
    slow = sg.run_ratio_battery(_WordsOnly(nu), f, lengths, 1e-6, sync,
                                max_word_length=2)
    assert fast.skipped_pairs == slow.skipped_pairs
    assert [(r.u, r.v) for r in fast.reports] == [(r.u, r.v) for r in slow.reports]
    for a, b in zip(fast.reports, slow.reports):
        assert a.context_counts == b.context_counts
        assert a.max_deviations == pytest.approx(b.max_deviations, abs=1e-9)
        assert a == sg.gibbs_ratio_test(nu, f, a.u, a.v, lengths, 1e-6, sync)
    for u, v in fast.skipped_pairs:
        with pytest.raises(sg.NoExchangeableContextError):
            sg.gibbs_ratio_test(nu, f, u, v, lengths, 1e-6, sync)


def _image_measure(presentation, k, seed):
    f = random_potential(presentation, k, seed)
    return sg.equilibrium_upstairs(presentation.labeling_code(), f).downstairs


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=1_000_000))
def test_entropy_walk_matches_two_pass_oracle(presentation, k, n_max, seed):
    # two passes per horizon: enumerate the words, then evaluate each
    # cylinder from the stationary row
    nu = _image_measure(presentation, k, seed)
    oracle, h_prev = [], 0.0
    for n in range(1, n_max + 1):
        h_n = 0.0
        for w in presentation.words_of_length(n):
            p = nu.cylinder_prob(w)
            if p > 0.0:
                h_n -= p * math.log(p)
        oracle.append(h_n - h_prev)
        h_prev = h_n
    for horizon in range(2, n_max + 1):
        est = sg.entropy_estimate(nu, horizon)
        assert est.h_sequence == tuple(oracle[:horizon])
        assert est.estimate == oracle[horizon - 1]


def _class_vectors(levels, classes):
    """Context classes with each vector id replaced by its vector."""
    return tuple([(levels.vectors[vid], bnd, count) for vid, bnd, count in side]
                 for side in classes)


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=1_000_000))
def test_incremental_context_classes_match_fresh_propagation(
        presentation, k, sync_len, seed):
    nu = _image_measure(presentation, k, seed)
    candidates = nu.words_of_length(sync_len)
    sync = candidates[seed % len(candidates)] if sync_len else None
    levels = gibbs._ContextLevels(nu, k - 1, sync)
    snapshots = {c: _class_vectors(levels, gibbs._context_classes(levels, c))
                 for c in range(1, 7)}
    for c, snapshot in snapshots.items():
        fresh_levels = gibbs._ContextLevels(nu, k - 1, sync)
        fresh = _class_vectors(fresh_levels,
                               gibbs._context_classes(fresh_levels, c))
        for got, want in zip(snapshot, fresh):
            assert len(got) == len(want)
            for (gvec, gbnd, gcount), (wvec, wbnd, wcount) in zip(got, want):
                assert np.array_equal(gvec, wvec)
                assert (gbnd, gcount) == (wbnd, wcount)
        # independently: the classes partition the context words of length
        # c that contain the sync word, by their boundary windows
        words = [w for w in presentation.words_of_length(c)
                 if not sync or any(w[i:i + sync_len] == sync
                                    for i in range(c - sync_len + 1))]
        lefts, rights = snapshot
        expected = (Counter(w[c - (k - 1):] for w in words),
                    Counter(w[:k - 1] for w in words))
        for classes, boundaries in zip((lefts, rights), expected):
            got = Counter()
            for _, bnd, count in classes:
                got[bnd] += count
            assert got == boundaries


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=1_000_000))
def test_memoized_battery_matches_unmemoized_oracle(presentation, k, sync_len,
                                                    seed):
    nu = _image_measure(presentation, k, seed)
    f = random_potential(presentation, k, seed)
    candidates = nu.words_of_length(sync_len)
    sync = candidates[seed % len(candidates)] if sync_len else None
    # up to length 9, so that synchronized class sets recur within a battery
    # and the per-pair deviation memo is exercised; past 6 only while a
    # length has at most 400 (left, right) class pairs, as the oracle's cost
    # grows with their number times the 35 or so word pairs
    levels, top = gibbs._ContextLevels(nu, k - 1, sync), 6
    while top < 9 and math.prod(
            map(len, gibbs._context_classes(levels, top + 1))) <= 400:
        top += 1
    lengths = tuple(range(max(k - 1, 1, sync_len), top + 1))
    battery = sg.run_ratio_battery(nu, f, lengths, 1e-6, sync,
                                   max_word_length=3)
    oracle = unmemoized_battery(nu, f, lengths, 1e-6, sync, 3)
    assert repr(battery) == repr(oracle)


@st.composite
def periodic_graphs(draw):
    """Irreducible graphs whose vertices fall in p >= 2 classes with every
    edge entering the next class, so the period is a multiple of p; parallel
    edges allowed.  A backbone cycle runs through the first vertex of each
    class, and every other vertex has an edge in from the previous class's
    backbone vertex and an edge out to the next one's, so the graph is
    strongly connected before one free extra edge per class is drawn (it may
    be parallel to another; more made the per-word oracles take seconds)."""
    p = draw(st.integers(min_value=2, max_value=3))
    classes = [[f"c{c}v{i}" for i in range(draw(st.integers(1, 2)))]
               for c in range(p)]
    pairs = []
    for c in range(p):
        here, ahead = classes[c], classes[(c + 1) % p]
        pairs.append((here[0], ahead[0]))
        pairs += [(here[0], v) for v in ahead[1:]]
        pairs += [(u, ahead[0]) for u in here[1:]]
        choices = [(u, v) for u in here for v in ahead]
        pairs += draw(st.lists(st.sampled_from(choices), max_size=1))
    return sg.EdgeShift(
        tuple(v for cls in classes for v in cls),
        tuple(sg.Edge(u, v, f"e{i}") for i, (u, v) in enumerate(pairs)))


@settings(max_examples=50, deadline=None)
@given(periodic_graphs())
def test_cyclic_class_shift_edges_are_the_class_paths(shift):
    structure = sg.cyclic_structure(shift)
    p = structure.period
    power0, expansion = sg.cyclic_class_shift(structure, 0)
    assert power0.vertices == structure.class_vertices(0)
    assert sorted(expansion) == [e.id for e in power0.edges]
    for e in power0.edges:
        path = expansion[e.id]
        assert shift.edge_by_id[path[0]].source == e.source
        assert shift.edge_by_id[path[-1]].target == e.target
    # oracle: every length-p edge sequence that is a path out of class 0
    class_paths = [tuple(e.id for e in walk)
                   for walk in itertools.product(shift.edges, repeat=p)
                   if structure.class_of[walk[0].source] == 0
                   and all(a.target == b.source for a, b in zip(walk, walk[1:]))]
    assert Counter(expansion.values()) == Counter(class_paths)


def _cyclic_report_oracle(shift, potential, cylinder_length):
    """`cyclic_pressure_check` from the public pressure and equilibrium
    measure calls, and `cylinder_prob` evaluated afresh for every word."""
    if potential.k > 1:
        shift, potential, _ = sg.reduce_to_edge_potential(potential)
    structure = sg.cyclic_structure(shift)
    p = structure.period
    p_full = sg.pressure(shift, potential)
    g = sg.period_sum_potential(potential, structure)
    power0, expansion = sg.cyclic_class_shift(structure, 0)
    p_class0 = sg.pressure(power0, g)
    identity_dev = abs(p_full - p_class0 / p)
    mu = sg.equilibrium_measure(shift, potential)
    mu0 = sg.equilibrium_measure(power0, g)
    max_dev = 0.0
    checked = 0
    for length in range(1, cylinder_length + 1):
        for w in power0.words_of_length(length):
            path = tuple(sym for eid in w for sym in expansion[eid])
            dev = abs(mu0.cylinder_prob(w) - p * mu.cylinder_prob(path))
            max_dev = max(max_dev, dev)
            checked += 1
    passed = identity_dev < 1e-10 and max_dev < 1e-10
    return sg.CyclicPressureReport(p, p_full, p_class0, identity_dev, max_dev,
                                   checked, passed)


def _restrict_average_oracle(measure, structure, max_length):
    """`restrict_and_average` with the restricted words enumerated afresh for
    every word and offset."""
    p = structure.period
    power0, expansion = sg.cyclic_class_shift(structure, 0)
    stationary0 = {v: p * measure.stationary[v] for v in power0.vertices}
    transitions0 = {}
    for e in power0.edges:
        prob = 1.0
        for eid in expansion[e.id]:
            prob *= measure.transitions[eid]
        transitions0[e.id] = prob
    restricted = sg.MarkovMeasure(power0, stationary0, transitions0)

    def offset_prob(word, offset):
        total = 0.0
        for w in power0.words_of_length(-(-(offset + len(word)) // p)):
            path = tuple(sym for eid in w for sym in expansion[eid])
            if path[offset:offset + len(word)] == word:
                total += restricted.cylinder_prob(w)
        return total

    max_dev = 0.0
    checked = 0
    for length in range(1, max_length + 1):
        for u in measure.shift.words_of_length(length):
            lhs = measure.cylinder_prob(u)
            rhs = sum(offset_prob(u, j) for j in range(p)) / p
            max_dev = max(max_dev, abs(lhs - rhs))
            checked += 1
    support = (all(v > 0 for v in measure.transitions.values())
               == all(v > 0 for v in restricted.transitions.values()))
    return sg.RestrictAverageResult(restricted, p, max_dev, checked, support)


def _period3_graph():
    """Period-3 graph on classes of 2, 1 and 2 vertices, every vertex joined
    to every vertex of the next class, with one parallel edge: each class-0
    vertex starts 5 paths of length 3, so the class-0 power shift has 2
    vertices of out-degree 5."""
    pairs = [("a0", "b"), ("a1", "b"), ("b", "c0"), ("b", "c1"),
             ("c0", "a0"), ("c0", "a1"), ("c1", "a0"), ("c1", "a1"),
             ("c1", "a1")]
    return sg.EdgeShift(("a0", "a1", "b", "c0", "c1"),
                        tuple(sg.Edge(u, v, f"e{i}")
                              for i, (u, v) in enumerate(pairs)))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("length", [4, 5])
def test_cyclic_walk_matches_per_word_oracle_at_long_lengths(k, length):
    shift = _period3_graph()
    rng = np.random.default_rng(10 * k + length)
    words = shift.words_of_length(k)
    f = sg.LocallyConstantPotential(
        shift, k, dict(zip(words, rng.uniform(-1.0, 1.0, len(words)))))
    report = sg.cyclic_pressure_check(shift, f, cylinder_length=length)
    assert report.period == 3
    assert report.cylinders_checked == sum(2 * 5 ** n for n in range(1, length + 1))
    assert report == _cyclic_report_oracle(shift, f, length)


def test_cyclic_walk_refuses_a_level_over_the_cap(monkeypatch):
    shift = _period3_graph()
    power0, _ = sg.cyclic_class_shift(sg.cyclic_structure(shift), 0)
    # the cap admits the 10 words of length 1 and refuses the 50 of length 2
    assert [power0.count_words(n) for n in (1, 2)] == [10, 50]
    monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 10)
    with pytest.raises(sg.EnumerationCapError) as info:
        sg.cyclic_pressure_check(shift, sg.LocallyConstantPotential.zero(shift))
    assert (info.value.count, info.value.cap) == (50, 10)


@settings(max_examples=40, deadline=None)
@given(periodic_graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=10 ** 6))
def test_periodic_certificates_match_per_word_oracles(shift, k, length, seed):
    rng = np.random.default_rng(seed)
    words = shift.words_of_length(k)
    f = sg.LocallyConstantPotential(
        shift, k, dict(zip(words, rng.uniform(-1.0, 1.0, len(words)))))
    assert sg.cyclic_pressure_check(shift, f, cylinder_length=length) == \
        _cyclic_report_oracle(shift, f, length)
    structure = sg.cyclic_structure(shift)
    mu = random_markov_measure(shift, rng)
    max_length = length * structure.period // 2 + 1
    assert sg.restrict_and_average(mu, structure, max_length) == \
        _restrict_average_oracle(mu, structure, max_length)


WEIGHTS = st.floats(min_value=0.1, max_value=100.0)


@st.composite
def irreducible_matrices(draw):
    """Irreducible nonnegative matrices up to 6 x 6: free entries over a
    positive cycle through every vertex, or a periodic graph with a positive
    weight on each edge (parallel edges summed)."""
    if draw(st.booleans()):
        shift = draw(periodic_graphs())
        m = np.zeros((len(shift.vertices), len(shift.vertices)))
        for e in shift.edges:
            m[shift.vertex_index[e.source], shift.vertex_index[e.target]] += \
                draw(WEIGHTS)
        return m
    n = draw(st.integers(min_value=1, max_value=6))
    m = np.array(draw(st.lists(st.one_of(st.just(0.0), WEIGHTS),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    cycle = draw(st.permutations(range(n)))
    for i in range(n):
        m[cycle[i], cycle[(i + 1) % n]] = draw(WEIGHTS)
    return m


def _characteristic_polynomial(m, t):
    """det(t I - M) in exact rationals: the float entries and t are exact
    binary fractions, so this has no rounding at all."""
    n = len(m)
    a = [[Fraction(t) * (i == j) - Fraction(float(m[i, j])) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= factor * a[c][j]
    return det


@settings(max_examples=100, deadline=None)
@given(irreducible_matrices(), st.sampled_from(("dense", "power")))
def test_perron_bracket_contains_the_perron_root(m, route):
    # the Perron root is the largest real root of det(t I - M), which is
    # monic: positive above the root and not positive at or just below it
    # (np.linalg.eigvals is off by up to 2.5e-15 relative, too much for an
    # oracle here)
    dense_dim = thermo.PERRON_DENSE_DIM if route == "dense" else 0
    with mock.patch.object(thermo, "PERRON_DENSE_DIM", dense_dim):
        data = sg.perron(m)
    assert data.lower <= data.eigenvalue <= data.upper
    assert data.upper - data.lower < thermo.PERRON_TOL * data.eigenvalue
    assert _characteristic_polynomial(m, data.upper) > 0
    assert _characteristic_polynomial(m, data.lower) <= 0
