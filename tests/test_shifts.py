import math

import numpy as np
import pytest

import soficgibbs as sg
from soficgibbs import shifts

from conftest import brute_sft_language, loop_shift


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            sg.Alphabet(("0", "0"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sg.Alphabet(())

    def test_word_parsing_single_char(self, alpha01):
        assert alpha01.word("010") == ("0", "1", "0")
        assert alpha01.word("") == ()

    def test_word_parsing_multichar(self):
        alpha = sg.Alphabet(("e1", "e2"))
        assert alpha.word("e1.e2") == ("e1", "e2")
        with pytest.raises(ValueError):
            alpha.word("e3")


class TestForbiddenWords:
    def test_golden_mean_graph(self, golden_mean):
        assert golden_mean.vertices == ("0", "1")
        assert golden_mean.adjacency().tolist() == [[1, 1], [1, 0]]

    def test_golden_mean_language_matches_brute_force(self, alpha01, golden_mean):
        # oracle: factors of clean cyclic sequences from the raw definition
        labeling = sg.SlidingBlockCode.one_block(
            golden_mean, {e.id: e.id[-1] for e in golden_mean.edges}, alpha01)
        for n in range(1, 6):
            got = sorted({labeling.apply_to_word(w)
                          for w in golden_mean.words_of_length(n)})
            expected = brute_sft_language(alpha01, {("1", "1")}, 2, n)
            assert got == expected

    def test_golden_mean_vertex_words_length_3(self, alpha01, golden_mean):
        labeling = sg.SlidingBlockCode.one_block(
            golden_mean, {e.id: e.id[-1] for e in golden_mean.edges}, alpha01)
        words = sorted({"".join(labeling.apply_to_word(w))
                        for w in golden_mean.words_of_length(3)})
        assert words == ["000", "001", "010", "100", "101"]

    def test_full_shift_no_constraints(self, alpha01):
        full = sg.sft_from_forbidden_words(alpha01, set(), 2)
        assert full.adjacency().tolist() == [[1, 1], [1, 1]]

    def test_all_symbols_forbidden_gives_empty_shift(self, alpha01):
        empty = sg.sft_from_forbidden_words(alpha01, {("0",), ("1",)}, 2)
        assert empty.is_empty
        assert empty.words_of_length(3) == []

    def test_forbidden_word_longer_than_window_rejected(self, alpha01):
        with pytest.raises(ValueError):
            sg.sft_from_forbidden_words(alpha01, {("0", "1", "0")}, 2)

    def test_wider_window(self, alpha01):
        # no 111 factor; counts satisfy the tribonacci-style recursion,
        # cross-checked against the brute-force cyclic oracle
        shift = sg.sft_from_forbidden_words(alpha01, {("1", "1", "1")}, 3)
        labeling = sg.SlidingBlockCode.one_block(
            shift, {e.id: e.id[-1] for e in shift.edges}, alpha01)
        for n in range(1, 6):
            got = sorted({labeling.apply_to_word(w)
                          for w in shift.words_of_length(n)})
            assert got == brute_sft_language(alpha01, {("1", "1", "1")}, 3, n)


class TestEssential:
    def test_pruning_removes_dead_ends(self):
        shift = sg.EdgeShift(("a", "b", "c"), (
            sg.Edge("a", "a", "e1"), sg.Edge("a", "b", "e2")))
        core = shift.essential()
        assert core.vertices == ("a",)
        assert [e.id for e in core.edges] == ["e1"]

    def test_pruning_is_a_fixpoint(self, golden_mean):
        assert golden_mean.is_essential()
        assert golden_mean.essential() == golden_mean

    def test_every_vertex_on_a_cycle_after_pruning(self):
        # chain into a cycle: the chain must vanish
        shift = sg.EdgeShift(("a", "b", "c", "d"), (
            sg.Edge("a", "b", "e1"), sg.Edge("b", "c", "e2"),
            sg.Edge("c", "d", "e3"), sg.Edge("d", "c", "e4")))
        core = shift.essential()
        assert set(core.vertices) == {"c", "d"}
        assert core.is_essential()


class TestIrreducibility:
    def test_golden_mean_irreducible(self, golden_mean):
        assert golden_mean.is_irreducible()

    def test_word_condition_cross_check(self, golden_mean):
        # every ordered pair of short words is joined by some connector
        words = [w for n in (1, 2, 3) for w in golden_mean.words_of_length(n)]
        for u in words:
            for v in words:
                joined = False
                for m in range(0, 5):
                    for w in golden_mean.words_of_length(m):
                        if golden_mean.in_language(u + w + v):
                            joined = True
                            break
                    if joined:
                        break
                assert joined, (u, v)

    def test_disjoint_loops_reducible(self):
        shift = sg.EdgeShift(("a", "b"), (
            sg.Edge("a", "a", "e1"), sg.Edge("b", "b", "e2")))
        assert not shift.is_irreducible()

    def test_single_self_loop_irreducible(self):
        assert loop_shift(1).is_irreducible()


class TestCyclicStructure:
    def test_golden_mean_aperiodic(self, golden_mean):
        assert sg.cyclic_structure(golden_mean).period == 1

    def test_two_cycle_period_two(self, two_cycle):
        structure = sg.cyclic_structure(two_cycle)
        assert structure.period == 2
        assert structure.class_of["a"] != structure.class_of["b"]

    def test_full_shift_period_one(self):
        assert sg.cyclic_structure(loop_shift(2)).period == 1

    def test_reducible_input_rejected(self):
        shift = sg.EdgeShift(("a", "b"), (
            sg.Edge("a", "a", "e1"), sg.Edge("b", "b", "e2")))
        with pytest.raises(sg.ReducibleShiftError):
            sg.cyclic_structure(shift)

    def test_classes_advance_along_edges(self, period2_parallel):
        structure = sg.cyclic_structure(period2_parallel)
        p = structure.period
        assert p == 2
        for e in period2_parallel.edges:
            assert (structure.class_of[e.source] + 1) % p == \
                structure.class_of[e.target]

    @pytest.mark.parametrize("fixture_name,expected", [
        ("golden_mean", 1), ("period2_parallel", 2), ("two_cycle", 2)])
    def test_random_cycle_lengths_multiple_of_period(self, request, fixture_name,
                                                     expected):
        shift = request.getfixturevalue(fixture_name)
        structure = sg.cyclic_structure(shift)
        assert structure.period == expected
        rng = np.random.default_rng(7)
        lengths = []
        for _ in range(100):
            v0 = shift.vertices[rng.integers(len(shift.vertices))]
            seen = {v0: 0}
            v = v0
            for step in range(1, 50):
                edges = shift.out_edges(v)
                v = edges[rng.integers(len(edges))].target
                if v in seen:
                    lengths.append(step - seen[v])
                    break
                seen[v] = step
        g = 0
        for length in lengths:
            g = math.gcd(g, length)
        assert g % structure.period == 0
        assert g == structure.period  # attained on these graphs


class TestWordCounts:
    @pytest.mark.parametrize("k", [2, 3])
    def test_counts_match_adjacency_powers(self, k):
        shift = loop_shift(k)
        a = shift.adjacency()
        for n in range(0, 9):
            expected = int(np.linalg.matrix_power(a, n).sum()) if n else 1
            assert shift.count_words(n) == expected
            assert len(shift.words_of_length(n)) == expected

    def test_golden_mean_counts_are_fibonacci(self, golden_mean):
        # edge words of length n biject with vertex words of length n+1
        fib = [1, 1]
        while len(fib) < 16:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 12):
            assert golden_mean.count_words(n) == fib[n + 2]

    def test_empty_word(self, golden_mean):
        assert golden_mean.words_of_length(0) == [()]
        assert golden_mean.in_language(())
        assert not sg.EdgeShift((), ()).in_language(())

    def test_enumeration_cap(self, golden_mean, monkeypatch):
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 5)
        with pytest.raises(sg.EnumerationCapError):
            golden_mean.words_of_length(10)

    def test_lexicographic_order(self, golden_mean):
        words = golden_mean.words_of_length(3)
        assert words == sorted(words)


class TestHigherPower:
    def test_cyclic_class_shift_is_mixing(self, period2_parallel):
        structure = sg.cyclic_structure(period2_parallel)
        power0, expansion = sg.cyclic_class_shift(structure, 0)
        assert power0.vertices == ("u",)
        assert len(power0.edges) == 2
        assert power0.is_irreducible()
        assert sg.cyclic_structure(power0).period == 1
        for eid, path in expansion.items():
            assert len(path) == 2
