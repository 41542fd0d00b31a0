import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import soficgibbs as sg
from soficgibbs import gibbs, shifts, thermo

from conftest import loop_shift, random_markov_measure


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


@settings(max_examples=200, deadline=None)
@given(nonnegative_matrices())
def test_matrix_irreducible_matches_support_graph(m):
    n = m.shape[0]
    support = sg.EdgeShift(
        tuple(f"v{i}" for i in range(n)),
        tuple(sg.Edge(f"v{i}", f"v{j}", f"e{i}_{j}")
              for i in range(n) for j in range(n) if m[i, j] > 0))
    assert thermo._matrix_irreducible(m) == support.is_irreducible()


@settings(max_examples=30, deadline=None)
@given(irreducible_graphs(), st.integers(min_value=1, max_value=3))
def test_higher_block_round_trip(shift, n):
    assume(shift.count_words(n) <= 200)
    recoded, decode = sg.higher_block_shift(shift, n)
    encoder = sg.higher_block_encoder(shift, n)
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


def _tuple_degree_search(code):
    """Reference degree search without masks: one sorted tuple of edge ids
    per (front, back, symbol) triple, in the same visiting order."""
    from soficgibbs import codes

    if not sg.is_finite_to_one(code):
        raise sg.NotFiniteToOneError("degree undefined (infinite)")
    by_label = codes._label_edges(code)
    fwd = codes._reachable_subsets(code, True)
    bwd = codes._reachable_subsets(code, False)
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


def _edge_scan_subsets(code, forward):
    """Reference subset search: each step scans every edge of the symbol."""
    from soficgibbs import codes

    by_label = codes._label_edges(code)
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
        assert list(codes._reachable_subsets(code, forward).items()) == expected
        if len(expected) > 1:
            mp.setattr(codes, "SUBSET_STATE_CAP", len(expected) - 1)
            with pytest.raises(sg.EnumerationCapError) as info:
                codes._reachable_subsets(code, forward)
            assert (info.value.count, info.value.cap) == (len(expected),
                                                          len(expected) - 1)


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
    snapshots = {c: gibbs._context_classes(levels, c) for c in range(1, 7)}
    for c, snapshot in snapshots.items():
        fresh = gibbs._context_classes(gibbs._ContextLevels(nu, k - 1, sync), c)
        for got, want in zip(snapshot, fresh):
            assert len(got) == len(want)
            for (gvec, gbnd, gcount), (wvec, wbnd, wcount) in zip(got, want):
                assert np.array_equal(gvec, wvec)
                assert (gbnd, gcount) == (wbnd, wcount)
        # independently: the classes partition the context words of length
        # c that contain the sync word, by their boundary windows
        words = [w for w in presentation.words_of_length(c)
                 if not sync or gibbs._contains(w, sync)]
        lefts, rights = snapshot
        expected = (Counter(w[c - (k - 1):] for w in words),
                    Counter(w[:k - 1] for w in words))
        for classes, boundaries in zip((lefts, rights), expected):
            got = Counter()
            for _, bnd, count in classes:
                got[bnd] += count
            assert got == boundaries


def _unmemoized_battery(nu, potential, lengths, tol, sync, max_word_length):
    """The ratio battery with nothing reused: every class is pushed, and
    every word matrix, left product, dot and window delta is computed, where
    it is used."""
    b, mats = potential.k - 1, nu._sub_matrices
    pattern = tuple(sync) if sync else ()
    rules = ((lambda vec, s: vec @ mats[s],
              lambda bnd, s: (bnd + (s,))[-b:] if b else (), pattern),
             (lambda vec, s: mats[s] @ vec,
              lambda bnd, s: ((s,) + bnd)[:b] if b else (), pattern[::-1]))

    def push(level, apply_mat, boundary_update, pattern):
        nxt = {}
        for (_, bnd, st), (vec, count) in level:
            for s in nu.symbols:
                vec2 = apply_mat(vec, s)
                total = vec2.sum()
                if total <= 0.0:
                    continue
                vec2 = vec2 / total
                key = (tuple(np.round(vec2, 13)), boundary_update(bnd, s),
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
    levels = [[((tuple(np.round(v0, 13)), (), 0), [v0, 1])]
              for v0 in (v / v.sum() for v in starts)]
    pairs = gibbs.exchangeable_pairs(nu.words_of_length, max_word_length)
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
    lengths = tuple(range(max(k - 1, 1, sync_len), 7))
    battery = sg.run_ratio_battery(nu, f, lengths, 1e-6, sync,
                                   max_word_length=3)
    oracle = _unmemoized_battery(nu, f, lengths, 1e-6, sync, 3)
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


def _cyclic_report_oracle(shift, potential, cylinder_length):
    """`cyclic_pressure_check` with one Perron solve per pressure and per
    measure, and `cylinder_prob` evaluated afresh for every word."""
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
    support_ok = all(v > 0 for v in mu.transitions.values()) and all(
        v > 0 for v in mu0.transitions.values())
    passed = identity_dev < 1e-10 and max_dev < 1e-10
    return sg.CyclicPressureReport(p, p_full, p_class0, identity_dev, max_dev,
                                   checked, support_ok, passed)


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
