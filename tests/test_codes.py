import math

import pytest

import soficgibbs as sg
from soficgibbs import codes

from conftest import loop_shift


@pytest.fixture
def xor_two_block(full2_2block):
    """Memory-0, anticipation-1 parity code y_i = x_i xor x_{i+1} expressed on
    the vertex-level full 2-shift (single vertex, loops 0 and 1)."""
    full = loop_shift(2)
    table = {(a, b): str(int(a != b)) for a in "01" for b in "01"}
    return sg.SlidingBlockCode(full, sg.Alphabet(("0", "1")), 0, 1, table)


class TestApply:
    def test_identity(self, golden_mean):
        ident = sg.SlidingBlockCode.identity(golden_mean)
        word = golden_mean.words_of_length(3)[0]
        assert ident.apply_to_word(word) == word

    def test_amalgamation_word(self, amalgamation):
        assert amalgamation.apply_to_word(("0", "1", "2")) == ("0", "1", "1")

    def test_two_block_xor(self, full2_2block, xor_two_block):
        assert xor_two_block.apply_to_word(("0", "1", "1", "0")) == ("1", "0", "1")

    def test_word_too_short(self, xor_two_block):
        with pytest.raises(sg.NotInLanguageError):
            xor_two_block.apply_to_word(("0",))

    def test_word_outside_language(self, golden_mean):
        ident = sg.SlidingBlockCode.identity(golden_mean)
        with pytest.raises(sg.NotInLanguageError):
            ident.apply_to_word(("01", "01"))

    def test_table_must_be_total(self, golden_mean):
        with pytest.raises(ValueError):
            sg.SlidingBlockCode(golden_mean, sg.Alphabet(("0", "1")), 0, 0,
                                {("00",): "0"})


class TestRecoding:
    def test_one_block_returned_unchanged(self, golden_mean):
        ident = sg.SlidingBlockCode.identity(golden_mean)
        domain, recoded = sg.recode_to_one_block(ident)
        assert domain == golden_mean and recoded is ident

    def test_xor_recoding_agrees_on_words(self, xor_two_block):
        domain, one_block = sg.recode_to_one_block(xor_two_block)
        assert len(domain.vertices) == 2 and len(domain.edges) == 4
        encoder = sg.higher_block_encoder(xor_two_block.domain, 2)
        for n in range(2, 7):
            for w in xor_two_block.domain.words_of_length(n):
                assert one_block.apply_to_word(encoder.apply_to_word(w)) \
                    == xor_two_block.apply_to_word(w)

    def test_higher_block_round_trip(self, golden_mean):
        recoded, decode, _ = sg.higher_block_shift(golden_mean, 3)
        encoder = sg.higher_block_encoder(golden_mean, 3)
        for n in range(3, 8):
            for w in golden_mean.words_of_length(n):
                up = encoder.apply_to_word(w)
                assert decode.apply_to_word(up) == w[:len(up)]

    def test_higher_block_n1_identity(self, golden_mean):
        recoded, decode, _ = sg.higher_block_shift(golden_mean, 1)
        assert recoded == golden_mean

    def test_full_shift_higher_block_3(self):
        full = loop_shift(2)
        recoded, _, _ = sg.higher_block_shift(full, 3)
        assert len(recoded.vertices) == 4
        assert len(recoded.edges) == 8

    def test_higher_block_of_a_dead_end_is_empty(self):
        # A -> B has no path of length 2: the recoded shift is empty, and its
        # decode still reads onto the original alphabet
        shift = sg.EdgeShift(("A", "B"), (sg.Edge("A", "B", "e"),))
        recoded, decode, _ = sg.higher_block_shift(shift, 3)
        assert recoded.is_empty and not recoded.edges
        assert decode.domain == recoded
        assert tuple(decode.codomain) == ("e",)

    def test_higher_block_of_an_edgeless_shift_is_refused(self):
        shift = sg.EdgeShift(("A",), ())
        with pytest.raises(sg.EmptyShiftError):
            sg.higher_block_shift(shift, 2)

    @pytest.mark.parametrize("edges, n, name", [
        # the edge paths (a, a~a) and (a~a, a)
        ((("A", "A", "a"), ("A", "A", "a~a")), 2, "a~a~a"),
        # the vertex paths (x~y, z) and (x, y~z), both ending at a dead end
        ((("S", "M", "x~y"), ("M", "D", "z"), ("S", "N", "x"),
          ("N", "D", "y~z")), 3, "x~y~z"),
    ], ids=["edges", "vertices"])
    def test_two_paths_with_one_composite_id_are_refused(self, edges, n, name):
        shift = sg.EdgeShift(tuple(sorted({v for a, b, _ in edges
                                           for v in (a, b)})),
                             tuple(sg.Edge(*e) for e in edges))
        with pytest.raises(sg.SoficGibbsError,
                           match=f"two paths have the composite id '{name}'$"):
            sg.higher_block_shift(shift, n)

    @pytest.mark.parametrize("build", [
        lambda shift: shift.alphabet(),
        sg.SlidingBlockCode.identity,
        lambda shift: sg.higher_block_shift(shift, 1),
        lambda shift: sg.SoficPresentation(shift.vertices, ()).label_alphabet,
        lambda shift: sg.SoficPresentation(shift.vertices, ()).labeling_code(),
    ], ids=["alphabet", "identity", "higher-block-1", "label-alphabet",
            "labeling-code"])
    def test_a_graph_without_edges_has_no_alphabet(self, build):
        with pytest.raises(sg.EmptyShiftError):
            build(sg.EdgeShift(("A",), ()))


class TestRightResolving:
    def test_even_cover_is_right_resolving(self, even_cover):
        assert sg.is_right_resolving(even_cover.labeling_code())

    def test_equal_labels_not_right_resolving(self):
        full = loop_shift(2)
        code = sg.SlidingBlockCode.one_block(full, {"0": "x", "1": "x"})
        assert not sg.is_right_resolving(code)

    def test_identity_labeling(self, golden_mean):
        assert sg.is_right_resolving(sg.SlidingBlockCode.identity(golden_mean))


class TestFiniteToOne:
    def test_even_cover_finite_to_one(self, even_cover):
        assert sg.is_finite_to_one(even_cover.labeling_code())

    def test_identity_finite_to_one(self, golden_mean):
        assert sg.is_finite_to_one(sg.SlidingBlockCode.identity(golden_mean))

    def test_immediate_diamond(self):
        full = loop_shift(2)
        code = sg.SlidingBlockCode.one_block(full, {"0": "x", "1": "x"})
        assert not sg.is_finite_to_one(code)

    def test_amalgamation_not_finite_to_one(self, amalgamation):
        assert not sg.is_finite_to_one(amalgamation)

    def test_xor_finite_to_one(self, xor_code):
        assert sg.is_finite_to_one(xor_code)

    def test_matches_preimage_count_boundedness(self, even_cover, xor_code,
                                                amalgamation):
        # finite-to-one iff preimage counts of length-n words stay bounded
        def max_preimages(code, n):
            image = sg.image_presentation(code)
            return max(len(sg.preimage_words(code, w))
                       for w in image.words_of_length(n))

        for code, expect in ((even_cover.labeling_code(), True),
                             (xor_code, True), (amalgamation, False)):
            counts = [max_preimages(code, n) for n in range(2, 12, 3)]
            bounded = counts[-1] <= counts[0]
            assert bounded == expect
            assert sg.is_finite_to_one(code) == expect


class TestDegree:
    def test_even_cover_degree_one(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        assert sg.degree(cover) == 1

    def test_identity_degree_one(self, golden_mean):
        assert sg.degree(sg.SlidingBlockCode.identity(golden_mean)) == 1

    def test_xor_degree_two(self, xor_code):
        assert sg.degree(xor_code) == 2

    def test_xor_every_word_has_two_preimages(self, xor_code):
        image = sg.image_presentation(xor_code)
        for n in range(1, 9):
            for w in image.words_of_length(n):
                assert len(sg.preimage_words(xor_code, w)) == 2

    def test_amalgamation_degree_undefined(self, amalgamation):
        with pytest.raises(sg.NotFiniteToOneError):
            sg.degree(amalgamation)

    def test_amalgamation_preimage_counts_grow_exponentially(self, amalgamation):
        # 2^(number of 1s) preimages: the fibers are unbounded
        for n in (2, 4, 6):
            w = ("1",) * n
            assert len(sg.preimage_words(amalgamation, w)) == 2 ** n

    def test_degree_matches_brute_force_coordinate_minimum(self, even_cover,
                                                           xor_code):
        for code in (even_cover.labeling_code(), xor_code):
            d = sg.degree(code)
            image = sg.image_presentation(code)
            best = math.inf
            for n in range(1, 7):
                for w in image.words_of_length(n):
                    paths = sg.preimage_words(code, w)
                    for i in range(n):
                        best = min(best, len({path[i] for path in paths}))
            assert best == d

    def test_degree_monotone_under_extension(self, even_cover):
        # the coordinate minimum never increases when a word is extended
        code = even_cover.labeling_code()
        image = sg.image_presentation(code)

        def coordinate_minimum(word):
            paths = sg.preimage_words(code, word)
            return min(len({path[i] for path in paths})
                       for i in range(len(word)))

        for w in image.words_of_length(3):
            dw = coordinate_minimum(w)
            for s in ("0", "1"):
                if image.in_language(w + (s,)):
                    assert coordinate_minimum(w + (s,)) <= dw

    def test_search_groups_edges_by_label_once(self, xor_code, monkeypatch):
        # the degree search and every preimage enumeration share one
        # grouping per code, so no enumeration labels an edge again
        calls, labeled = [], []
        grouping = vars(codes.SlidingBlockCode)["_label_edges"]
        build, label = grouping.func, codes.SlidingBlockCode.label
        monkeypatch.setattr(grouping, "func",
                            lambda code: calls.append(code) or build(code))
        monkeypatch.setattr(codes.SlidingBlockCode, "label",
                            lambda code, eid: labeled.append(eid)
                            or label(code, eid))
        assert sg.degree(xor_code) == 2
        labeled.clear()
        for word in (("0",), ("1", "0"), ("0", "1", "1")):
            sg.preimage_words(xor_code, word)
        assert calls == [xor_code] and labeled == []

    def test_subset_cap_bounds_every_subset_built(self, golden_mean,
                                                   monkeypatch):
        # The two-sheeted cover of the golden mean identity code has degree
        # 2, so the search builds both closures: the full set and the two
        # fibres {0s0, 0s1} and {1s0, 1s1} on each side, exceeding a cap of 2.
        edges, labels = [], {}
        for e in golden_mean.edges:
            for sheet in range(2):
                image = 1 - sheet if e.id == "00" else sheet
                eid = f"{e.id}s{sheet}"
                edges.append(sg.Edge(f"{e.source}s{sheet}",
                                     f"{e.target}s{image}", eid))
                labels[eid] = e.id
        shift = sg.EdgeShift(tuple(f"{v}s{i}" for v in "01" for i in range(2)),
                             tuple(edges))
        code = sg.SlidingBlockCode.one_block(shift, labels)
        monkeypatch.setattr(codes, "SUBSET_STATE_CAP", 2)
        with pytest.raises(sg.EnumerationCapError) as info:
            sg.degree(code)
        assert (info.value.count, info.value.cap) == (3, 2)
        monkeypatch.setattr(codes, "SUBSET_STATE_CAP", 3)
        assert sg.degree(code) == 2

    def test_shallow_magic_word_answers_below_full_closure(self, golden_mean,
                                                          monkeypatch):
        # The golden mean identity code reads degree 1 off the two full sets
        # at word length 1; its full closures, three subsets each, are never
        # built, so a cap of 1 does not refuse it.
        code = sg.SlidingBlockCode.identity(golden_mean)
        monkeypatch.setattr(codes, "SUBSET_STATE_CAP", 1)
        assert sg.degree(code) == 1
        assert len(sg.find_magic_word(code).word) == 1


class TestMagicWord:
    def test_even_cover_magic_symbol(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        magic = sg.find_magic_word(cover)
        assert magic.word == ("1",)
        assert magic.coordinate == 0
        assert magic.multiplicity == 1

    def test_identity_magic_is_single_symbol(self, golden_mean):
        magic = sg.find_magic_word(sg.SlidingBlockCode.identity(golden_mean))
        assert len(magic.word) == 1
        assert magic.multiplicity == 1

    def test_xor_magic_multiplicity_two(self, xor_code):
        magic = sg.find_magic_word(xor_code)
        assert magic.multiplicity == 2
        # the preimage symbol count at the magic coordinate equals the degree
        paths = sg.preimage_words(xor_code, magic.word)
        symbols = {p[magic.coordinate] for p in paths}
        assert len(symbols) == sg.degree(xor_code)
        assert symbols == set(magic.preimage_symbols)

    def test_degree_consistency_when_magic_word_repeats(self, even_cover):
        # words containing the magic word twice have exactly `degree` preimages
        _, cover = sg.minimize_fischer(even_cover)
        magic = sg.find_magic_word(cover)
        image = sg.image_presentation(cover)
        found = 0
        for n in range(2 * len(magic.word), 8):
            for w in image.words_of_length(n):
                hits = [i for i in range(n - len(magic.word) + 1)
                        if w[i:i + len(magic.word)] == magic.word]
                if len(hits) >= 2:
                    assert len(sg.preimage_words(cover, w)) == sg.degree(cover)
                    found += 1
        assert found > 0


class TestAnalysis:
    def test_even_cover_analysis(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        analysis = sg.analyze_code(cover)
        assert analysis.right_resolving
        assert analysis.finite_to_one
        assert analysis.degree == 1
        assert analysis.almost_invertible

    def test_almost_invertible_iff_degree_one(self, xor_code, even_cover,
                                              golden_mean):
        for code in (xor_code, even_cover.labeling_code(),
                     sg.SlidingBlockCode.identity(golden_mean)):
            analysis = sg.analyze_code(code)
            assert analysis.almost_invertible == (analysis.degree == 1)

    def test_infinite_to_one_analysis(self, amalgamation):
        analysis = sg.analyze_code(amalgamation)
        assert not analysis.finite_to_one
        assert analysis.degree is None
        assert analysis.magic_word is None
        assert not analysis.almost_invertible


class TestPullback:
    def test_zero_pulls_back_to_zero(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        f = sg.LocallyConstantPotential.zero(
            sg.image_presentation(cover))
        g = sg.pullback_potential(cover, f)
        assert all(v == 0.0 for v in g.table.values())

    def test_range1_composition(self, amalgamation):
        image = sg.image_presentation(amalgamation)
        f = sg.LocallyConstantPotential(image, 1, {("0",): 0.0, ("1",): 1.0})
        g = sg.pullback_potential(amalgamation, f)
        assert g.table == {("0",): 0.0, ("1",): 1.0, ("2",): 1.0}

    def test_range2_pullback_on_even_cover(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        image = sg.image_presentation(cover)
        table = {w: float(i) for i, w in enumerate(image.words_of_length(2))}
        f = sg.LocallyConstantPotential(image, 2, table)
        g = sg.pullback_potential(cover, f)
        for w in cover.domain.words_of_length(2):
            assert g.value(w) == f.value(tuple(cover.label(s) for s in w))

    def test_sv_norm_never_grows(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        image = sg.image_presentation(cover)
        table = {w: 0.3 * i - 0.5 for i, w in enumerate(image.words_of_length(2))}
        f = sg.LocallyConstantPotential(image, 2, table)
        g = sg.pullback_potential(cover, f)
        assert sg.sv_norm(g) <= sg.sv_norm(f) + 1e-12
