import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import soficgibbs as sg
from soficgibbs import codes, gibbs, shifts, thermo
from soficgibbs.cli import main

from conftest import (identity_presentation, loop_shift, random_markov_measure,
                      unmemoized_battery)


def range1(shift, values):
    return sg.LocallyConstantPotential(
        shift, 1, {(e.id,): values[e.id] for e in shift.edges})


@pytest.fixture
def even_potentials(even_cover):
    f0 = sg.LocallyConstantPotential.zero(even_cover)
    f1 = sg.LocallyConstantPotential(even_cover, 1, {("0",): 0.0, ("1",): 1.0})
    table = {w: 0.1 * i - 0.2 for i, w in enumerate(even_cover.words_of_length(2))}
    f2 = sg.LocallyConstantPotential(even_cover, 2, table)
    return f0, f1, f2


class TestCocycleDelta:
    def test_zero_potential(self, golden_mean):
        # vertex words 000 and 010 exchange between matched endpoints
        f = sg.LocallyConstantPotential.zero(golden_mean)
        assert sg.cocycle_delta(f, ("10",), ("00", "00"), ("01", "10"),
                                ("00",)) == 0.0

    def test_single_window_difference(self):
        full = loop_shift(2)
        f = range1(full, {"0": 0.25, "1": 1.0})
        delta = sg.cocycle_delta(f, ("0",), ("0",), ("1",), ("1",))
        assert delta == pytest.approx(0.25 - 1.0, abs=1e-15)

    def test_equal_words_give_zero(self, golden_mean):
        f = range1(golden_mean, {"00": 0.3, "01": -0.1, "10": 0.2})
        assert sg.cocycle_delta(f, ("00",), ("01",), ("01",), ("10",)) == 0.0

    def test_exact_window_sum(self, golden_mean):
        f = range1(golden_mean, {"00": 0.3, "01": -0.1, "10": 0.2})
        delta = sg.cocycle_delta(f, ("10",), ("00", "00"), ("01", "10"), ("00",))
        assert delta == pytest.approx(0.3 + 0.3 - (-0.1 + 0.2), abs=1e-15)

    def test_insufficient_context_rejected(self, full2_2block):
        table = {w: float(i) for i, w in enumerate(full2_2block.words_of_length(2))}
        f = sg.LocallyConstantPotential(full2_2block, 2, table)
        with pytest.raises(sg.InsufficientContextError):
            sg.cocycle_delta(f, (), ("00",), ("01",), ())

    def test_out_of_language_rejected(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        with pytest.raises(sg.NotInLanguageError):
            sg.cocycle_delta(f, ("01",), ("01",), ("00",), ("00",))

    def test_additivity_on_random_triples(self):
        # cocycle equation: delta(u, w) = delta(u, v) + delta(v, w)
        full = loop_shift(2)
        f = range1(full, {"0": 0.7, "1": -0.4})
        rng = np.random.default_rng(5)
        words = full.words_of_length(3)
        contexts = full.words_of_length(2)
        checked = 0
        while checked < 500:
            u, v, w = (words[rng.integers(len(words))] for _ in range(3))
            p, s = (contexts[rng.integers(len(contexts))] for _ in range(2))
            duv = sg.cocycle_delta(f, p, u, v, s)
            dvw = sg.cocycle_delta(f, p, v, w, s)
            duw = sg.cocycle_delta(f, p, u, w, s)
            assert duw == pytest.approx(duv + dvw, abs=1e-12)
            checked += 1

    def test_swap_negates(self, golden_mean):
        f = range1(golden_mean, {"00": 0.5, "01": 0.0, "10": -0.25})
        d1 = sg.cocycle_delta(f, ("10",), ("00", "00"), ("01", "10"), ("00",))
        d2 = sg.cocycle_delta(f, ("10",), ("01", "10"), ("00", "00"), ("00",))
        assert d1 == pytest.approx(-d2, abs=1e-15)


class TestRatioTestUpstairs:
    """The equilibrium Markov measure is exactly conformal at all contexts."""

    def test_uniform_bernoulli_zero_potential(self):
        full = loop_shift(2)
        f = sg.LocallyConstantPotential.zero(full)
        mu = sg.equilibrium_measure(full, f)
        report = sg.gibbs_ratio_test(mu, f, ("0",), ("1",), range(1, 6), 1e-9)
        assert report.passed
        assert report.final_deviation < 1e-12

    def test_parry_exact_conformality(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        mu = sg.equilibrium_measure(golden_mean, f)
        report = sg.gibbs_ratio_test(mu, f, ("00", "00"), ("01", "10"),
                                     range(1, 8), 1e-9)
        assert report.passed
        assert all(d < 1e-10 for d in report.max_deviations)

    def test_weighted_equilibrium_exact(self, golden_mean):
        f = range1(golden_mean, {"00": 0.4, "01": -0.3, "10": 0.1})
        mu = sg.equilibrium_measure(golden_mean, f)
        battery = sg.run_ratio_battery(mu, f, range(1, 7), 1e-9)
        assert battery.passed
        assert battery.max_final_deviation < 1e-9

    def test_non_equilibrium_measure_fails(self, golden_mean):
        # a Markov measure that is not the equilibrium for f = 0 is detected
        f = sg.LocallyConstantPotential.zero(golden_mean)
        skewed = sg.MarkovMeasure(
            golden_mean,
            {"0": 0.8, "1": 0.2},
            {"00": 0.75, "01": 0.25, "10": 1.0})
        report = sg.gibbs_ratio_test(skewed, f, ("00", "00"), ("01", "10"),
                                     range(1, 6), 1e-9)
        assert not report.passed
        assert report.final_deviation > 1e-3


class TestRatioTestDownstairs:
    def test_even_shift_synchronized_contexts_exact(self, even_cover):
        f = sg.LocallyConstantPotential.zero(even_cover)
        lift = sg.lift_equilibrium(even_cover, f)
        report = sg.gibbs_ratio_test(lift.downstairs, f, ("0", "0"), ("1", "1"),
                                     range(1, 21), 1e-6,
                                     synchronizing_word=("1",))
        assert report.passed
        assert report.final_deviation < 1e-12

    def test_unsynchronized_contexts_do_not_converge(self, even_cover):
        # all-zero contexts keep a constant deviation: the certificate must
        # restrict to synchronized contexts, mirroring the magic-word argument
        f = sg.LocallyConstantPotential.zero(even_cover)
        lift = sg.lift_equilibrium(even_cover, f)
        report = sg.gibbs_ratio_test(lift.downstairs, f, ("0", "0"), ("1", "1"),
                                     range(2, 13, 2), 1e-6,
                                     synchronizing_word=None)
        assert not report.passed
        assert report.final_deviation > 0.1

    def test_vacuous_pair_raises(self, even_cover):
        # a single 0/1 swap always breaks the parity structure next to a 1
        f = sg.LocallyConstantPotential.zero(even_cover)
        lift = sg.lift_equilibrium(even_cover, f)
        with pytest.raises(sg.NoExchangeableContextError):
            sg.gibbs_ratio_test(lift.downstairs, f, ("0",), ("1",),
                                range(1, 6), 1e-6, synchronizing_word=("1",))

    def test_bernoulli_image_of_xor_is_exactly_gibbs(self, xor_code):
        image = sg.image_presentation(xor_code)
        f = sg.LocallyConstantPotential(
            image, 1, {("0",): 0.0, ("1",): math.log(2)})
        g = sg.pullback_potential(xor_code, f)
        mu = sg.equilibrium_measure(xor_code.domain, g)
        nu = sg.pushforward(mu, xor_code)
        # the image is the (1/3, 2/3) Bernoulli measure, conformal exactly
        report = sg.gibbs_ratio_test(nu, f, ("0",), ("1",), range(1, 10), 1e-9,
                                     synchronizing_word=("0",))
        assert report.passed
        assert report.final_deviation < 1e-12


class _SpyStack(np.ndarray):
    """Stacked sub-transition matrices that record each row of a stacked
    push through them: (side, vector bytes, symbol)."""

    @classmethod
    def of(cls, mats, symbols, pushes):
        spy = mats.view(cls)
        spy.symbols, spy.pushes = symbols, pushes
        return spy

    def __array_finalize__(self, obj):
        self.symbols = getattr(obj, "symbols", None)
        self.pushes = getattr(obj, "pushes", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _SpyStack) else x
                 for x in inputs]
        if ufunc is np.matmul and plain[0].ndim == 4:
            # (k, 1, 1, n) @ (1, S, n, n) or (1, S, n, n) @ (k, 1, n, 1)
            left = isinstance(inputs[1], _SpyStack)
            vecs = plain[0] if left else plain[1]
            for vec in vecs.reshape(len(vecs), -1):
                self.pushes += [("left" if left else "right", vec.tobytes(), s)
                                for s in self.symbols]
        return getattr(ufunc, method)(*plain, **kwargs)


class _SpyMatrix:
    """A sub-transition matrix that records each vector pushed through it:
    (side, vector bytes, symbol)."""

    __array_ufunc__ = None  # numpy defers `vec @ spy` to __rmatmul__

    def __init__(self, mat, symbol, pushes):
        self.mat, self.symbol, self.pushes = mat, symbol, pushes

    def __matmul__(self, vec):
        if vec.ndim == 1:
            self.pushes.append(("right", vec.tobytes(), self.symbol))
        return self.mat @ vec

    def __rmatmul__(self, vec):
        if vec.ndim == 1:
            self.pushes.append(("left", vec.tobytes(), self.symbol))
        return vec @ self.mat


class TestRatioEngine:
    @pytest.fixture
    def pushed(self, monkeypatch):
        """Length reached by each push of the context levels."""
        lengths = []
        advance = gibbs._ContextLevels.advance

        def counting(levels):
            advance(levels)
            lengths.append(levels.length)

        monkeypatch.setattr(gibbs._ContextLevels, "advance", counting)
        return lengths

    def test_each_level_pushed_once_per_battery(self, even_cover, pushed):
        # seven pushes for lengths 1..7, not one run from the empty context
        # per length (1 + 2 + ... + 7 = 28)
        f = sg.LocallyConstantPotential.zero(even_cover)
        nu = sg.lift_equilibrium(even_cover, f).downstairs
        battery = sg.run_ratio_battery(nu, f, range(1, 8), 1e-6,
                                       synchronizing_word=("1",))
        assert len(battery.reports) > 1
        assert pushed == list(range(1, 8))

    def test_length_loop_stops_once_every_pair_is_skipped(self, even_cover,
                                                          pushed):
        # the lone pair 0/1 has no valid exchange context next to a 1
        f = sg.LocallyConstantPotential.zero(even_cover)
        nu = sg.lift_equilibrium(even_cover, f).downstairs
        battery = sg.run_ratio_battery(nu, f, range(1, 8), 1e-6,
                                       synchronizing_word=("1",),
                                       max_word_length=1)
        assert battery.reports == ()
        assert battery.skipped_pairs == ((("0",), ("1",)),)
        assert pushed == [1]

    def test_class_count_cap(self, full2_2block, xor_code, monkeypatch):
        # without a synchronizing word the forward vectors of the parity
        # image never collapse: level c holds 2c classes
        nu = sg.pushforward(random_markov_measure(
            full2_2block, np.random.default_rng(0)), xor_code)
        f = sg.LocallyConstantPotential.zero(loop_shift(2))
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 10)
        with pytest.raises(sg.EnumerationCapError) as info:
            sg.run_ratio_battery(nu, f, range(1, 12), 1e-6)
        assert (info.value.count, info.value.cap) == (11, 10)
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 12)
        assert sg.run_ratio_battery(nu, f, range(1, 7), 1e-6).reports

    @pytest.fixture
    def synced(self, even_cover):
        """An image measure, its window-2 potential, its exchangeable pairs
        and their battery at lengths 1..9 next to the sync word 1."""
        table = {w: 0.1 * i for i, w in enumerate(even_cover.words_of_length(2))}
        f = sg.LocallyConstantPotential(even_cover, 2, table)
        nu = sg.lift_equilibrium(even_cover, f).downstairs
        pairs = gibbs.exchangeable_pairs(nu.words_of_length)
        expected = gibbs._ratio_engine(nu, f, pairs, range(1, 10), 1e-6,
                                       ("1",))
        return nu, f, pairs, expected

    def test_each_class_vector_pushed_once_per_symbol(self, synced,
                                                      monkeypatch):
        # synchronized classes recur with the same vectors at every length;
        # each (side, vector, symbol) is a row of one stacked push, once
        nu, f, pairs, expected = synced
        pushes = []
        init = gibbs._ContextLevels.__init__

        def spying(levels, hidden, *args):
            init(levels, hidden, *args)
            levels.mats = _SpyStack.of(levels.mats, hidden.symbols, pushes)

        monkeypatch.setattr(gibbs._ContextLevels, "__init__", spying)
        got = gibbs._ratio_engine(nu, f, pairs, range(1, 10), 1e-6, ("1",))
        assert repr(got) == repr(expected)
        assert len(pushes) > 2 * len(nu.symbols)
        assert {side for side, _, _ in pushes} == {"left", "right"}
        assert max(Counter(pushes).values()) == 1

    def test_each_rounded_key_has_one_vector(self, synced, monkeypatch):
        # the even shift next to the sync word 1 reaches some rounded keys
        # by vectors that differ in their last bits; each key keeps the
        # first of them, on both sides and at every length
        nu = synced[0]
        reached = {}
        normalized = gibbs._ContextLevels._normalized

        def spying(levels, vecs):
            rows = vecs[vecs.sum(axis=1) > 0.0]
            for row in rows / rows.sum(axis=1)[:, None]:
                reached.setdefault(row.round(13).tobytes(),
                                   set()).add(row.tobytes())
            return normalized(levels, vecs)

        monkeypatch.setattr(gibbs._ContextLevels, "_normalized", spying)
        levels = gibbs._ContextLevels(nu, 1, ("1",))
        lengths = {}  # (rounded key, boundary, vector id) -> lengths read
        for c in range(1, 10):
            for side in gibbs._context_classes(levels, c):
                for vid, bnd, _ in side:
                    key = levels.vectors[vid].round(13).tobytes()
                    lengths.setdefault((key, bnd, vid), set()).add(c)
        assert any(len(rows) > 1 for rows in reached.values())
        keys = [vec.round(13).tobytes() for vec in levels.vectors]
        assert len(set(keys)) == len(keys)
        classes = Counter((key, bnd) for key, bnd, _ in lengths)
        assert max(classes.values()) == 1
        assert max(map(len, lengths.values())) > 1

    def test_repeated_class_sets_reuse_each_pair_deviation(self, synced,
                                                          monkeypatch):
        # from some length on the synchronized (vector, boundary) classes
        # repeat, so a pair's deviation is computed once for them and only
        # its integer context counts are summed again
        nu, f, pairs, expected = synced
        calls = []
        max_deviation = gibbs._max_deviation_hidden

        def counting(pair, *args):
            calls.append(pair)
            return max_deviation(pair, *args)

        monkeypatch.setattr(gibbs, "_max_deviation_hidden", counting)
        lengths = range(1, 10)
        battery = sg.run_ratio_battery(nu, f, lengths, 1e-6, ("1",))
        oracle = unmemoized_battery(nu, f, tuple(lengths), 1e-6, ("1",), 3)
        assert repr(battery) == repr(oracle)
        # a skipped pair was evaluated at each length up to the one it
        # failed at
        evaluations = len(battery.reports) * len(lengths) + sum(
            c for _, _, c in expected[1])
        assert 0 < len(calls) < evaluations

    def test_each_word_product_computed_once(self, synced, monkeypatch):
        # a word sits in many pairs: its matrix is built once per battery and
        # each left class vector goes through it once
        nu, f, pairs, expected = synced
        built, products = [], []
        word_matrix = gibbs._word_matrix

        def spying(hidden, word):
            built.append(word)
            m = word_matrix(hidden, word)
            return None if m is None else _SpyMatrix(m, word, products)

        monkeypatch.setattr(gibbs, "_word_matrix", spying)
        got = gibbs._ratio_engine(nu, f, pairs, range(1, 10), 1e-6, ("1",))
        assert repr(got) == repr(expected)
        assert sorted(built) == sorted(set().union(*pairs))
        assert len(products) > len(built)
        assert max(Counter(products).values()) == 1

    def test_each_window_delta_computed_once(self, synced, monkeypatch):
        # boundaries recur at every length and in every class pair
        nu, f, pairs, expected = synced
        calls = []
        window_delta = gibbs._window_delta

        def counting(potential, left, u, v, right):
            calls.append((left, u, v, right))
            return window_delta(potential, left, u, v, right)

        monkeypatch.setattr(gibbs, "_window_delta", counting)
        got = gibbs._ratio_engine(nu, f, pairs, range(1, 10), 1e-6, ("1",))
        assert repr(got) == repr(expected)
        assert calls
        assert max(Counter(calls).values()) == 1

    def test_empty_length_range_rejected(self, even_cover):
        f = sg.LocallyConstantPotential.zero(even_cover)
        nu = sg.lift_equilibrium(even_cover, f).downstairs
        with pytest.raises(sg.InsufficientContextError):
            sg.run_ratio_battery(nu, f, [], 1e-6)


class TestLanfordRuelle:
    def test_even_shift_battery(self, even_cover, even_potentials):
        for f in even_potentials:
            report = sg.verify_sofic_lanford_ruelle(even_cover, f,
                                                    tol=1e-6, c_max=20)
            assert report.passed
            assert report.cover_analysis.degree == 1
            assert report.battery.max_final_deviation < 1e-6
            for r in report.battery.reports:
                assert r.passed

    def test_full_shift_exact(self):
        p = identity_presentation(loop_shift(2))
        f = sg.LocallyConstantPotential.zero(p)
        report = sg.verify_sofic_lanford_ruelle(p, f, tol=1e-9, c_max=12)
        assert report.passed
        assert report.battery.max_final_deviation < 1e-12

    def test_cover_is_certified_almost_invertible(self, even_cover):
        f = sg.LocallyConstantPotential.zero(even_cover)
        report = sg.verify_sofic_lanford_ruelle(even_cover, f, c_max=8)
        assert report.cover_analysis.almost_invertible
        assert report.cover_analysis.magic_word.word == ("1",)


class TestDobrushin:
    def test_full_shift_exact(self):
        p = identity_presentation(loop_shift(2))
        f = sg.LocallyConstantPotential.zero(p)
        report = sg.verify_sofic_dobrushin(p, f, tol=1e-9)
        assert report.passed
        assert report.pressure_value == pytest.approx(math.log(2), abs=1e-12)

    def test_even_shift_battery(self, even_cover, even_potentials):
        for f in even_potentials:
            report = sg.verify_sofic_dobrushin(even_cover, f, tol=0.01,
                                               entropy_horizon=12)
            assert report.passed, f.table
            assert report.deviation < 0.01

    def test_entropy_trend_reported(self, even_cover):
        f = sg.LocallyConstantPotential.zero(even_cover)
        report = sg.verify_sofic_dobrushin(even_cover, f)
        assert len(report.entropy_sequence) == 12
        assert report.entropy_sequence[-1] == pytest.approx(
            math.log((1 + math.sqrt(5)) / 2), abs=0.01)


class TestFiniteToOne:
    def test_identity_code_exact(self, golden_mean):
        ident = sg.SlidingBlockCode.identity(golden_mean)
        image = sg.image_presentation(ident)
        f = sg.LocallyConstantPotential(
            image, 1, {(e.id,): 0.1 for e in golden_mean.edges})
        report = sg.verify_finite_to_one_preservation(ident, f, c_max=8)
        assert report.passed
        assert report.analysis.degree == 1

    def test_degree_two_xor_bernoulli(self, xor_code):
        image = sg.image_presentation(xor_code)
        f = sg.LocallyConstantPotential(
            image, 1, {("0",): 0.0, ("1",): math.log(2)})
        report = sg.verify_finite_to_one_preservation(xor_code, f,
                                                      tol=1e-6, c_max=20)
        assert report.passed
        assert report.analysis.degree == 2
        assert report.pushforward_max_deviation < 1e-12

    def test_degree_one_fischer_cover(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        f = sg.LocallyConstantPotential.zero(even_cover)
        report = sg.verify_finite_to_one_preservation(cover, f,
                                                      tol=1e-6, c_max=16)
        assert report.passed
        assert report.analysis.degree == 1

    def test_infinite_to_one_rejected(self, amalgamation):
        image = sg.image_presentation(amalgamation)
        f = sg.LocallyConstantPotential.zero(image)
        with pytest.raises(sg.NotFiniteToOneError):
            sg.verify_finite_to_one_preservation(amalgamation, f)

    def test_reducible_domain_rejected_after_one_walk(self, monkeypatch):
        # a loop at each of two vertices joined one way: essential, reducible
        domain = sg.EdgeShift(("A", "B"), (sg.Edge("A", "A", "a"),
                                           sg.Edge("A", "B", "c"),
                                           sg.Edge("B", "B", "b")))
        code = sg.SlidingBlockCode.identity(domain)
        f = sg.LocallyConstantPotential.zero(sg.image_presentation(code))
        walks = []
        is_irreducible = sg.EdgeShift.is_irreducible

        def counting(shift):
            walks.append(shift)
            return is_irreducible(shift)

        monkeypatch.setattr(sg.EdgeShift, "is_irreducible", counting)
        with pytest.raises(sg.ReducibleShiftError,
                           match="^finite-to-one test requires an "
                                 "irreducible domain$"):
            sg.verify_finite_to_one_preservation(code, f)
        assert walks == [domain]


class TestOneLift:
    """Each Gibbs certificate reads one lift: one Perron solve, one analysis
    of the push code, and no entropy of the measure upstairs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of perron, analyze_code and entropy, counted in every
        package module that holds them."""
        counts = Counter()
        for fn in (thermo.perron, codes.analyze_code, thermo.entropy):
            def counting(*args, fn=fn, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "soficgibbs":
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counting)
        return counts

    def test_lanford_ruelle(self, even_cover, even_potentials, calls):
        report = sg.verify_sofic_lanford_ruelle(even_cover, even_potentials[2],
                                                c_max=8)
        assert report.passed
        assert calls == {"perron": 1, "analyze_code": 1}

    def test_finite_to_one(self, xor_code, calls):
        f = sg.LocallyConstantPotential.zero(sg.image_presentation(xor_code))
        report = sg.verify_finite_to_one_preservation(xor_code, f, c_max=8)
        assert report.passed
        assert calls == {"perron": 1, "analyze_code": 1}

    def test_gibbs_check(self, calls, capsys):
        shift = Path(__file__).resolve().parent.parent / "scripts" / "data"
        assert main(["gibbs-check", str(shift / "even_shift.shift"),
                     "--cmax", "8"]) == 0
        assert calls == {"perron": 1, "analyze_code": 1}


class TestCounterexample:
    def test_report_passes(self):
        report = sg.sunny_side_up_counterexample()
        assert report.passed

    def test_point_mass_values(self):
        nu = sg.SunnySideUpMeasure()
        assert nu.cylinder_prob(("0",) * 5) == 1.0
        assert nu.cylinder_prob(("1",)) == 0.0

    def test_word_counts(self):
        nu = sg.SunnySideUpMeasure()
        for n in range(1, 31):
            assert len(nu.words_of_length(n)) == n + 1

    def test_growth_rate_vanishes(self):
        # (1/n) log(n+1) decreasing toward zero: entropy zero
        rates = [math.log(n + 1) / n for n in (10, 40, 160, 640)]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.011

    def test_equilibrium_but_not_gibbs(self):
        report = sg.sunny_side_up_counterexample()
        assert report.equilibrium_ok
        assert report.gibbs_ok
        assert math.isinf(report.gibbs_report.final_deviation)
        assert not report.irreducible_graph
        assert not report.irreducible_language


class TestHolonomySymmetry:
    def test_log_ratio_negates_under_swap(self, golden_mean):
        f = range1(golden_mean, {"00": 0.2, "01": -0.1, "10": 0.05})
        mu = sg.equilibrium_measure(golden_mean, f)
        u, v = ("00", "00"), ("01", "10")
        checked = 0
        for p in golden_mean.words_of_length(2):
            for s in golden_mean.words_of_length(2):
                pus, pvs = p + u + s, p + v + s
                if mu.cylinder_prob(pus) > 0 and mu.cylinder_prob(pvs) > 0:
                    r1 = math.log(mu.cylinder_prob(pus) / mu.cylinder_prob(pvs))
                    r2 = math.log(mu.cylinder_prob(pvs) / mu.cylinder_prob(pus))
                    assert r1 == pytest.approx(-r2, abs=1e-12)
                    d1 = sg.cocycle_delta(f, p, u, v, s)
                    d2 = sg.cocycle_delta(f, p, v, u, s)
                    assert d1 == pytest.approx(-d2, abs=1e-12)
                    checked += 1
        assert checked > 0


class TestOddShift:
    """A second irreducible sofic family: runs of 0s between 1s have odd
    length."""

    @pytest.fixture
    def odd_cover(self):
        return sg.SoficPresentation(("A", "B"), (
            sg.LabeledEdge("A", "B", "0", "a"),
            sg.LabeledEdge("B", "A", "0", "b"),
            sg.LabeledEdge("B", "A", "1", "c"),
        ))

    def test_language(self, odd_cover):
        for n in range(1, 10):
            for w in odd_cover.words_of_length(n):
                runs = "".join(w).strip("0").split("1")
                assert all(len(r) % 2 == 1 for r in runs if r != "")

    def test_fischer_cover_two_states_degree_one(self, odd_cover):
        fischer, cover = sg.minimize_fischer(odd_cover)
        assert len(fischer.vertices) == 2
        analysis = sg.analyze_code(cover)
        assert analysis.degree == 1
        assert analysis.magic_word.word == ("1",)

    def test_lanford_ruelle_and_dobrushin(self, odd_cover):
        # the weighted potential needs a slightly longer entropy horizon;
        # the deviation halves every couple of steps, so the convergence
        # itself is asserted alongside the verdict
        for f in (sg.LocallyConstantPotential.zero(odd_cover),
                  sg.LocallyConstantPotential(odd_cover, 1,
                                              {("0",): 0.2, ("1",): -0.4})):
            lr = sg.verify_sofic_lanford_ruelle(odd_cover, f, tol=1e-6,
                                                c_max=20)
            assert lr.passed
            assert lr.battery.max_final_deviation < 1e-6
            devs = [sg.verify_sofic_dobrushin(odd_cover, f, tol=0.01,
                                              entropy_horizon=h).deviation
                    for h in (12, 14, 16)]
            assert devs[2] < devs[1] < devs[0]
            assert devs[2] < 0.01


class TestRunLengthLimited:
    """Runs of 0s between 1s of length 1 to 3: the minimal cover has four
    states and the shortest magic word has length two."""

    @pytest.fixture
    def rll_cover(self):
        # includes a redundant duplicate of one state, merged away by the
        # follower-set minimization
        return sg.SoficPresentation(("s0", "s1", "s1b", "s2", "s3"), (
            sg.LabeledEdge("s0", "s1", "0", "e01"),
            sg.LabeledEdge("s1", "s2", "0", "e12"),
            sg.LabeledEdge("s1b", "s2", "0", "e12b"),
            sg.LabeledEdge("s2", "s3", "0", "e23"),
            sg.LabeledEdge("s1", "s0", "1", "e10"),
            sg.LabeledEdge("s1b", "s0", "1", "e10b"),
            sg.LabeledEdge("s2", "s0", "1", "e20"),
            sg.LabeledEdge("s3", "s0", "1", "e30"),
        ))

    def test_fischer_four_states_magic_word_length_two(self, rll_cover):
        fischer, cover = sg.minimize_fischer(rll_cover)
        assert len(fischer.vertices) == 4
        analysis = sg.analyze_code(cover)
        assert analysis.degree == 1
        assert analysis.magic_word.word == ("1", "0")
        assert analysis.magic_word.coordinate == 1

    def test_language_run_lengths(self, rll_cover):
        for n in range(2, 10):
            for w in rll_cover.words_of_length(n):
                runs = "".join(w).strip("0").split("1")
                assert all(1 <= len(r) <= 3 for r in runs if r != "")

    def test_entropy_matches_quartic_root(self, rll_cover):
        # the adjacency characteristic polynomial is x^4 - x^2 - x - 1
        fischer, _ = sg.minimize_fischer(rll_cover)
        f = sg.LocallyConstantPotential.zero(fischer)
        p = sg.lift_equilibrium(fischer, f).pressure_value
        root = max(abs(np.roots([1, 0, -1, -1, -1])))
        assert p == pytest.approx(math.log(root), abs=1e-10)

    def test_lanford_ruelle(self, rll_cover):
        fischer, _ = sg.minimize_fischer(rll_cover)
        f = sg.LocallyConstantPotential.zero(fischer)
        rep = sg.verify_sofic_lanford_ruelle(fischer, f, tol=1e-6, c_max=16)
        assert rep.passed
        assert rep.battery.max_final_deviation < 1e-6
