import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import soficgibbs as sg

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


@settings(max_examples=60, deadline=None)
@given(essential_graphs(), st.integers(min_value=0, max_value=6))
def test_word_counts_match_adjacency_powers(shift, n):
    a = np.array(shift.adjacency(), dtype=object)
    power = np.identity(len(shift.vertices), dtype=object)
    for _ in range(n):
        power = power @ a
    expected = 1 if n == 0 else int(power.sum())
    assert len(shift.words_of_length(n)) == expected


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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from("01"), min_size=2, max_size=30))
def test_empirical_frequencies_sum_to_one(symbols):
    word = tuple(symbols)
    emp = sg.empirical_measure(word)
    for n in (1, 2):
        if len(word) >= n:
            total = sum(emp.frequency(sub) for sub in
                        {word[i:i + n] for i in range(len(word) - n + 1)})
            assert total == pytest.approx(1.0, abs=1e-12)


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


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(), st.integers(min_value=0, max_value=1_000_000))
def test_upstairs_image_matches_preimage_sums(presentation, seed):
    f = random_potential(presentation, 2, seed)
    mu, edge_potential, push_code = sg.equilibrium_upstairs(
        presentation.labeling_code(), f)
    assert edge_potential.k == 1 and push_code.domain == mu.shift
    nu = sg.pushforward(mu, push_code)
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
    mu, _, push_code = sg.equilibrium_upstairs(
        code, random_potential(presentation, 1, seed))
    assert push_code == code
    assert mu.shift == code.domain
