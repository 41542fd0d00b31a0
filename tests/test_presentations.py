import random

import pytest

import soficgibbs as sg
from soficgibbs import codes, shifts

from conftest import identity_presentation, loop_shift


def language_upto(p, n_max):
    return {n: p.words_of_length(n) for n in range(n_max + 1)}


@pytest.fixture
def nondet_even(even_cover):
    """A nondeterministic presentation of the even shift: duplicate state."""
    return sg.SoficPresentation(("A", "B", "C"), (
        sg.LabeledEdge("A", "A", "1", "a"),
        sg.LabeledEdge("A", "B", "0", "b"),
        sg.LabeledEdge("B", "A", "0", "c"),
        sg.LabeledEdge("A", "C", "0", "d"),
        sg.LabeledEdge("C", "A", "0", "e"),
    ))


class TestImagePresentation:
    def test_identity_labeling_keeps_graph(self, golden_mean):
        p = identity_presentation(golden_mean)
        assert p.vertices == golden_mean.vertices
        assert len(p.edges) == len(golden_mean.edges)

    def test_even_cover_presents_even_shift(self, even_cover):
        # defining condition: between two 1s, the run of 0s has even length
        for n in range(1, 10):
            for w in even_cover.words_of_length(n):
                text = "".join(w)
                runs = text.strip("0").split("1")
                assert all(len(r) % 2 == 0 for r in runs if r)

    def test_membership_examples(self, even_cover):
        assert not even_cover.in_language(("1", "0", "1"))
        assert even_cover.in_language(("1", "0", "0", "1"))
        assert even_cover.in_language(())

    def test_amalgamation_image_is_full_shift(self, amalgamation):
        image = sg.image_presentation(amalgamation)
        for n in range(1, 8):
            assert len(image.words_of_length(n)) == 2 ** n

    def test_underlying_edge_shift_is_the_labeling_domain(self, nondet_even):
        shift = nondet_even.underlying_edge_shift()
        assert nondet_even.underlying_edge_shift() == shift
        assert nondet_even.labeling_code().domain == shift
        assert shift.vertices == nondet_even.vertices
        assert [(e.source, e.target, e.id) for e in shift.edges] == [
            (e.source, e.target, e.id) for e in nondet_even.edges]

    def test_underlying_edge_shift_built_once(self, nondet_even):
        shift = nondet_even.underlying_edge_shift()
        assert nondet_even.underlying_edge_shift() is shift
        assert nondet_even.labeling_code().domain is shift


class TestDeterminize:
    def test_already_deterministic(self, even_cover):
        det = sg.determinize(even_cover)
        assert det.is_deterministic
        for n in range(9):
            assert det.words_of_length(n) == even_cover.words_of_length(n)

    def test_nondeterministic_even_presentation(self, nondet_even):
        assert not nondet_even.is_deterministic
        det = sg.determinize(nondet_even)
        assert det.is_deterministic
        for n in range(9):
            assert det.words_of_length(n) == nondet_even.words_of_length(n)

    def test_two_loop_full_shift(self):
        p = sg.SoficPresentation(("x", "y"), (
            sg.LabeledEdge("x", "x", "0", "e1"),
            sg.LabeledEdge("x", "y", "0", "e2"),
            sg.LabeledEdge("y", "x", "1", "e3"),
            sg.LabeledEdge("y", "y", "1", "e4"),
            sg.LabeledEdge("x", "x", "1", "e5"),
            sg.LabeledEdge("y", "y", "0", "e6"),
        ))
        det = sg.determinize(p)
        assert det.is_deterministic
        assert len(det.vertices) == 1
        for n in range(7):
            assert len(det.words_of_length(n)) == 2 ** n

    def test_state_cap(self, nondet_even, monkeypatch):
        # the full vertex set is the first subset; any second one exceeds a
        # cap of one
        monkeypatch.setattr(codes, "SUBSET_STATE_CAP", 1)
        with pytest.raises(sg.EnumerationCapError) as info:
            sg.determinize(nondet_even)
        assert (info.value.count, info.value.cap) == (2, 1)


class TestMinimizeFischer:
    def test_even_shift_two_states_degree_one(self, even_cover):
        fischer, cover = sg.minimize_fischer(even_cover)
        assert len(fischer.vertices) == 2
        assert sg.degree(cover) == 1
        magic = sg.find_magic_word(cover)
        assert magic.word == ("1",)

    def test_full_shift_one_state(self):
        p = identity_presentation(loop_shift(2))
        fischer, cover = sg.minimize_fischer(p)
        assert len(fischer.vertices) == 1
        assert sg.degree(cover) == 1

    def test_golden_mean_is_its_own_cover(self, golden_mean):
        labels = {e.id: e.id[-1] for e in golden_mean.edges}
        p = sg.image_presentation(
            sg.SlidingBlockCode.one_block(golden_mean, labels))
        fischer, cover = sg.minimize_fischer(p)
        assert len(fischer.vertices) == 2
        assert sg.degree(cover) == 1

    def test_cover_equals_the_same_graph_built_by_hand(self, even_cover):
        fischer, _ = sg.minimize_fischer(even_cover)
        assert fischer == sg.SoficPresentation(fischer.vertices, fischer.edges)

    def test_language_preserved(self, nondet_even, even_cover):
        fischer, _ = sg.minimize_fischer(nondet_even)
        for n in range(10):
            assert fischer.words_of_length(n) == even_cover.words_of_length(n)

    def test_idempotent(self, even_cover):
        once, _ = sg.minimize_fischer(even_cover)
        twice, _ = sg.minimize_fischer(once)
        assert len(once.vertices) == len(twice.vertices)
        assert sorted((e.source, e.target, e.label) for e in once.edges) == \
            sorted((e.source, e.target, e.label) for e in twice.edges)

    def test_reducible_language_rejected(self):
        sunny = sg.sunny_side_up_presentation()
        with pytest.raises(sg.ReducibleShiftError):
            sg.minimize_fischer(sunny)
        assert not sg.is_irreducible_sofic(sunny)

    def test_fischer_cover_degree_one_across_examples(self, even_cover,
                                                      golden_mean):
        cases = [even_cover, identity_presentation(golden_mean),
                 identity_presentation(loop_shift(3))]
        for p in cases:
            _, cover = sg.minimize_fischer(p)
            assert sg.degree(cover) == 1

    def test_large_subset_closure_refused_at_default_cap(self):
        # a right-resolving presentation of the full 2-shift: a 0-labeled
        # cycle through all 18 vertices and one 1-labeled edge out of each;
        # its subset closure has 40 006 subsets, so the walk is refused when
        # it builds the 10 001st
        rng = random.Random(2)
        v = [f"v{i}" for i in range(18)]
        edges = [sg.LabeledEdge(v[i], v[(i + 1) % 18], "0", f"a{i}")
                 for i in range(18)]
        edges += [sg.LabeledEdge(v[i], v[rng.randrange(18)], "1", f"b{i}")
                  for i in range(18)]
        p = sg.SoficPresentation(tuple(v), tuple(edges))
        assert p.is_deterministic and p.is_irreducible_graph()
        with pytest.raises(sg.EnumerationCapError) as info:
            sg.minimize_fischer(p)
        assert (info.value.count, info.value.cap) == (10_001, 10_000)


class TestMergeAndEdgeCases:
    def test_duplicate_state_merges_to_fischer_size(self, nondet_even):
        fischer, _ = sg.minimize_fischer(nondet_even)
        assert len(fischer.vertices) == 2

    def test_empty_presentation(self):
        empty = sg.SoficPresentation((), ())
        assert empty.words_of_length(3) == []
        assert not empty.in_language(("0",))
        with pytest.raises(sg.EmptyShiftError):
            sg.minimize_fischer(empty)

    def test_determinize_empty(self):
        dead = sg.SoficPresentation(("A",), ())
        assert sg.determinize(dead).is_empty


def test_duplicate_vertex_refused_at_construction():
    # as EdgeShift refuses it, before any language query or cover sees it
    with pytest.raises(ValueError, match="duplicate vertex"):
        sg.SoficPresentation(("A", "A"), (sg.LabeledEdge("A", "A", "0", "a"),))


@pytest.mark.parametrize("graph, edge", [
    (sg.EdgeShift, lambda a, b, i: sg.Edge(a, b, i)),
    (sg.SoficPresentation, lambda a, b, i: sg.LabeledEdge(a, b, "0", i)),
], ids=["edge-shift", "presentation"])
@pytest.mark.parametrize("vertices, arcs, message", [
    (("A", "A"), [("A", "A", "a")], "duplicate vertex"),
    (("A",), [("A", "A", "a"), ("A", "A", "a")], "duplicate edge id"),
    (("A",), [("A", "A", "a"), ("A", "B", "b")],
     "edge 'b' has undeclared endpoint"),
], ids=["duplicate-vertex", "duplicate-edge-id", "undeclared-endpoint"])
def test_both_graph_types_refuse_a_malformed_graph(graph, edge, vertices, arcs,
                                                   message):
    with pytest.raises(ValueError) as info:
        graph(vertices, tuple(edge(*arc) for arc in arcs))
    assert str(info.value) == message


def test_enumeration_cap_reports_integer_count(monkeypatch):
    full2 = sg.SoficPresentation(
        ("*",), (sg.LabeledEdge("*", "*", "0", "a"),
                 sg.LabeledEdge("*", "*", "1", "b")))
    monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 10)
    with pytest.raises(sg.EnumerationCapError) as info:
        full2.words_of_length(5)
    assert isinstance(info.value.count, int)
    assert info.value.count > info.value.cap == 10
