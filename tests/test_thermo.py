import gc
import itertools
import math
import re
import time
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import soficgibbs as sg
from soficgibbs import thermo
from soficgibbs.shifts import PATH_SEP

from conftest import PHI, loop_shift, random_markov_measure


def range1(shift, values):
    return sg.LocallyConstantPotential(
        shift, 1, {(e.id,): values[e.id] for e in shift.edges})


class TestVariation:
    def test_zero_potential(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        assert sg.variation(f, -1) == 0.0
        assert sg.variation(f, 0) == 0.0
        assert sg.sv_norm(f) == 0.0

    def test_range1_indicator_on_full_shift(self):
        full = loop_shift(2)
        f = range1(full, {"0": 0.0, "1": 1.0})
        assert sg.variation(f, -1) == 1.0
        # agreeing at coordinate 0 forces equal values
        assert sg.variation(f, 0) == 0.0
        assert sg.sv_norm(f) == 1.0

    def test_range2_vanishing_beyond_window(self, full2_2block):
        table = {w: float(i) for i, w in enumerate(full2_2block.words_of_length(2))}
        f = sg.LocallyConstantPotential(full2_2block, 2, table)
        assert sg.variation(f, 0) > 0.0
        assert sg.variation(f, 1) == 0.0
        assert sg.variation(f, 5) == 0.0
        assert sg.sv_norm(f) == sg.variation(f, -1) + sg.variation(f, 0)

    def test_variation_zero_matches_brute_force(self, full2_2block):
        # independent maximization over pairs of padded words
        table = {w: 0.7 * i - 1.0 for i, w in
                 enumerate(full2_2block.words_of_length(2))}
        f = sg.LocallyConstantPotential(full2_2block, 2, table)
        best = 0.0
        padded = full2_2block.words_of_length(2)
        for a in padded:
            for b in padded:
                if a[0] == b[0]:
                    best = max(best, abs(f.value(a) - f.value(b)))
        assert sg.variation(f, 0) == pytest.approx(best, abs=0)


class TestPerron:
    def test_golden_ratio(self):
        data = sg.perron(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert data.eigenvalue == pytest.approx(PHI, abs=1e-12)
        assert data.lower <= PHI <= data.upper
        assert data.upper - data.lower < thermo.PERRON_TOL * data.eigenvalue
        # relative to lambda ||x||_inf, which is below 1.9 on both sides:
        # each side's ||Mx - lambda x||_inf stays below 1e-12
        assert data.residual < 5e-13
        assert float(data.left @ data.right) == pytest.approx(1.0, abs=1e-12)

    def test_one_by_one(self):
        data = sg.perron(np.array([[2.0]]))
        assert data.eigenvalue == pytest.approx(2.0, abs=1e-14)

    def test_permutation_matrix_periodic(self):
        data = sg.perron(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert data.eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(sg.ReducibleShiftError):
            sg.perron(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_zero_one_by_one_is_reducible(self):
        # one vertex without a loop carries no cycle, hence no Perron data
        assert not thermo._matrix_irreducible(np.zeros((1, 1)))
        with pytest.raises(sg.ReducibleShiftError):
            sg.perron(np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_matrix_rejected(self, bad):
        # power iteration would run every step on NaN before giving up
        with pytest.raises(ValueError, match="finite"):
            sg.perron(np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_eigvector_against_numpy(self):
        m = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
        data = sg.perron(m)
        w = np.linalg.eigvals(m)
        assert data.eigenvalue == pytest.approx(float(max(w.real)), abs=1e-10)

    @staticmethod
    def _large_eigenvalue_matrix():
        # a positive matrix with dominant eigenvalue about 437: successive
        # estimates of lambda + 1 keep differing by an ulp or two, above an
        # absolute 1e-13, so an absolute stop never comes
        rng = np.random.default_rng(0)
        m = rng.uniform(0.0, 1.0, (3, 3)) + 1e-3
        m *= rng.uniform(250, 450) / max(abs(np.linalg.eigvals(m)))
        return m, float(max(np.linalg.eigvals(m).real))

    @staticmethod
    def _assert_at_the_rounding_floor(m, data):
        # the parent's accuracy: residual below 8 eps ||M||_inf (or
        # PERRON_TOL) times the largest entry of the vector
        floor = max(thermo.PERRON_TOL,
                    8 * np.finfo(float).eps * max(m.sum(axis=1).max(),
                                                  m.sum(axis=0).max()))
        assert data.lower <= data.eigenvalue <= data.upper
        assert data.upper - data.lower < thermo.PERRON_TOL * data.eigenvalue
        for a, x in ((m, data.right), (m.T, data.left)):
            assert (x > 0).all()
            assert np.max(np.abs(a @ x - data.eigenvalue * x)) < floor * x.max()

    def test_large_eigenvalue_stops_at_the_rounding_floor(self, monkeypatch):
        # the power route stops only once the residual is at the floor
        m, lam = self._large_eigenvalue_matrix()
        monkeypatch.setattr(thermo, "PERRON_DENSE_DIM", 0)
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 10_000)
        data = sg.perron(m)
        assert data.eigenvalue == pytest.approx(lam, rel=1e-14)
        # relative to lambda ||x||_inf, which is below ||M||_inf on both
        # sides: each side's ||Mx - lambda x||_inf stays below 8 eps ||M||_inf
        assert data.residual < 8 * np.finfo(float).eps
        self._assert_at_the_rounding_floor(m, data)

    def test_large_eigenvalue_dense_route_reaches_the_rounding_floor(
            self, monkeypatch):
        m, lam = self._large_eigenvalue_matrix()
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 0)
        data = sg.perron(m)
        assert data.eigenvalue == pytest.approx(lam, rel=1e-14)
        self._assert_at_the_rounding_floor(m, data)

    @pytest.mark.parametrize("dense_dim", [32, 0], ids=["dense", "power"])
    def test_periodic_large_eigenvalue_is_bracketed(self, monkeypatch,
                                                    dense_dim):
        # power iteration on M + I contracts the eigenvalue -lambda only by
        # (lambda - 1) / (lambda + 1) per step; with an absolute stop all
        # 10**6 steps ran.  A shift of the order of lambda damps it at
        # once, and the dense route takes no step.
        m = np.array([[0.0, 54.21], [67.2, 0.0]])
        monkeypatch.setattr(thermo, "PERRON_DENSE_DIM", dense_dim)
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 0 if dense_dim else 10_000)
        data = sg.perron(m)
        assert data.lower <= data.eigenvalue <= data.upper
        assert data.upper - data.lower <= thermo.PERRON_TOL * data.eigenvalue
        # lambda squared is the product of the two entries, exactly
        assert Fraction(data.lower) ** 2 <= Fraction(54.21) * Fraction(67.2) \
            <= Fraction(data.upper) ** 2

    @pytest.mark.parametrize("period2", [[[0.0, 54.21], [67.2, 0.0]],
                                         [[0.0, 2000.0], [3000.0, 0.0]]],
                             ids=["lambda60", "lambda2434"])
    def test_periodic_matrix_above_the_dense_limit_is_bracketed(
            self, monkeypatch, period2):
        # period 2 on 34 vertices: the power route's stop
        rng = np.random.default_rng(5)
        block = rng.uniform(0.5, 1.5, (17, 17)) / 17
        m = np.kron(np.array(period2), block)
        assert len(m) > thermo.PERRON_DENSE_DIM
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 10_000)
        data = sg.perron(m)
        assert data.eigenvalue == pytest.approx(
            float(max(np.linalg.eigvals(m).real)), rel=1e-12)
        self._assert_at_the_rounding_floor(m, data)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_power_route_does_not_depend_on_the_scale(self, monkeypatch,
                                                      scale):
        # shifting by I, lambda = 1e-3 made the ratios of (M + I)x round
        # to a spread far wider than PERRON_TOL * lambda, and all 10**6
        # steps ran; a shift that scales with M stops in a few dozen
        rng = np.random.default_rng(3)
        m = rng.uniform(0.5, 1.5, (40, 40))
        m *= scale / float(max(np.linalg.eigvals(m).real))
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 200)
        data = sg.perron(m)
        assert data.eigenvalue == pytest.approx(scale, rel=1e-13)
        self._assert_at_the_rounding_floor(m, data)

    @pytest.mark.parametrize("k, w, seed", [(2, 7, 1), (3, 5, 14)])
    def test_de_bruijn_vectors_meet_the_floor_at_the_eigenvalue(self, k, w,
                                                                 seed):
        # full k-shift, window-w weights: each vector's residual at the
        # reported eigenvalue (the midpoint of both brackets), not only at
        # its own bracket's midpoint, stays at the floor
        rng = np.random.default_rng(seed)
        n = k ** (w - 1)
        m = np.zeros((n, n))
        for v in range(n):
            for s in range(k):
                m[v, (v * k + s) % n] = np.exp(rng.uniform(-1, 1))
        assert n > thermo.PERRON_DENSE_DIM
        self._assert_at_the_rounding_floor(m, sg.perron(m))

    def test_power_route_moves_a_poor_shift(self, monkeypatch):
        # row sums 0.1 to 159 start the shift near 1, far below lambda / 4
        # (about 27); kept there, this nearly periodic matrix is not
        # certified within 10 000 steps
        m = np.array([[0.0, 0.0, 0.1, 0.0], [0.0, 0.0, 89.0, 0.0],
                      [0.0, 0.0, 0.0, 159.0], [12.0, 85.0, 0.0, 0.0]])
        monkeypatch.setattr(thermo, "PERRON_DENSE_DIM", 0)
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 10_000)
        data = sg.perron(m)
        assert data.eigenvalue == pytest.approx(
            float(max(np.linalg.eigvals(m).real)), rel=1e-13)
        self._assert_at_the_rounding_floor(m, data)

    def test_moved_shift_keeps_no_rounding_of_the_first(self):
        # the first shift, about 8.7e11, rounds the diagonal to multiples of
        # 1.2e-4 against lambda about 2.1e6: moved in place, the shift kept
        # that rounding, the iteration converged to a perturbed matrix, and
        # its bracket stuck 2.6e-11 of lambda wide until all 10**6 steps ran
        m = np.array([[0.0, 2.7493014878882044e-09, 0.0],
                      [25244123476.63958, 0.0, 1.18091869252045e-35],
                      [4.441668747618587e+33, 1.0032310315012933e+17,
                       2116414.1561950333]])
        start = time.perf_counter()
        data = sg.perron(m)
        assert time.perf_counter() - start < 1.0
        assert data.lower <= data.eigenvalue <= data.upper
        assert data.upper - data.lower < thermo.PERRON_TOL * data.eigenvalue

    def test_a_failed_power_route_warns_of_nothing(self, monkeypatch):
        # a cycle through every vertex plus up to 2n edges, of weights
        # e^-100 to e^100: some iterates lose an entry to underflow, where
        # dividing by the iterate warned and the bracket read inf or nan
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 2000)
        rng = np.random.default_rng(1)
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                n = int(rng.integers(3, 12))
                cycle = rng.permutation(n)
                pairs = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
                pairs += rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)),
                                             2)).tolist()
                m = np.zeros((n, n))
                for a, b in pairs:
                    m[a, b] += math.exp(rng.uniform(-100, 100))
                try:
                    sg.perron(m)
                except sg.ConvergenceError as error:
                    messages.append(str(error))
        vanished = [message for message in messages if message.endswith(
            "(an entry of the iterate vanished)")]
        assert vanished
        for message in messages:
            if message not in vanished:
                lower, upper = re.search(r"bracket \[(.*), (.*)\]\)$",
                                         message).groups()
                assert math.isfinite(float(lower)) and math.isfinite(float(upper))

    def test_power_route_refuses_sums_beyond_a_double(self):
        # every entry is finite, but (M + sI)x and its sum would overflow
        m = np.full((thermo.PERRON_DENSE_DIM + 1,) * 2, 1e307)
        with pytest.raises(sg.SoficGibbsError, match="overflows a double"):
            sg.perron(m)

    def test_dense_vector_not_positive_falls_through(self, monkeypatch):
        # a dense vector with a zero entry is not certified; the power route
        # takes over for that side
        eig = np.linalg.eig

        def eig_with_a_zero(a):
            w, v = eig(a)
            v = v.copy()
            v[0, int(np.argmax(w.real))] = 0.0
            return w, v

        iterated = []
        power_side = thermo._power_side
        monkeypatch.setattr(thermo.np.linalg, "eig", eig_with_a_zero)
        monkeypatch.setattr(thermo, "_power_side", lambda *args: iterated.append(
            len(args[0])) or power_side(*args))
        data = sg.perron(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert iterated == [2, 2]
        assert data.lower <= PHI <= data.upper


class TestPressure:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_full_shift_entropy(self, k):
        shift = loop_shift(k)
        f = sg.LocallyConstantPotential.zero(shift)
        assert sg.pressure(shift, f) == pytest.approx(math.log(k), abs=1e-12)

    def test_golden_mean_entropy(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        assert sg.pressure(golden_mean, f) == pytest.approx(math.log(PHI),
                                                            abs=1e-10)

    def test_normalized_potential_zero_pressure(self):
        full = loop_shift(2)
        f = range1(full, {"0": math.log(1 / 3), "1": math.log(2 / 3)})
        assert sg.pressure(full, f) == pytest.approx(0.0, abs=1e-12)

    def test_range2_reduction_preserves_pressure(self, full2_2block):
        table = {w: 0.2 * i for i, w in enumerate(full2_2block.words_of_length(2))}
        f = sg.LocallyConstantPotential(full2_2block, 2, table)
        direct = sg.pressure(full2_2block, f)
        shift2, f2, _ = sg.reduce_to_edge_potential(f)
        assert sg.pressure(shift2, f2) == pytest.approx(direct, abs=1e-12)
        oracle = sg.pressure_periodic_oracle(full2_2block, f, 30)
        assert abs(direct - oracle) < 1e-3

    def test_reduction_makes_no_language_queries(self, full2_2block,
                                                 monkeypatch):
        table = {w: 0.2 * i for i, w in enumerate(full2_2block.words_of_length(2))}
        # a key that is no length-2 path is accepted, and dropped by the recoding
        f = sg.LocallyConstantPotential(full2_2block, 2,
                                        {**table, ("00", "00", "00"): 9.0})
        queried = []
        in_language = sg.EdgeShift.in_language

        def spy(self, word):
            if self is full2_2block:
                queried.append(word)
            return in_language(self, word)

        monkeypatch.setattr(sg.EdgeShift, "in_language", spy)
        _, f2, _ = sg.reduce_to_edge_potential(f)
        assert queried == []
        assert f2.table == {(PATH_SEP.join(w),): v for w, v in table.items()}

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_potential_rejected(self, golden_mean, bad):
        table = {(e.id,): 0.0 for e in golden_mean.edges}
        table[(golden_mean.edges[0].id,)] = bad
        with pytest.raises(ValueError, match="finite"):
            sg.LocallyConstantPotential(golden_mean, 1, table)

    def test_exp_overflow_names_the_edge(self, golden_mean):
        eid = golden_mean.edges[0].id
        table = {(e.id,): 800.0 if e.id == eid else 0.0
                 for e in golden_mean.edges}
        f = sg.LocallyConstantPotential(golden_mean, 1, table)
        with pytest.raises(sg.SoficGibbsError, match=repr(eid)):
            sg.transfer_matrix(golden_mean, f)

    def test_exp_underflow_names_the_edge(self, golden_mean):
        # exp(-746) is 0.0: the entry would vanish and the matrix read as
        # reducible
        eid = golden_mean.edges[0].id
        table = {(e.id,): -746.0 if e.id == eid else 0.0
                 for e in golden_mean.edges}
        f = sg.LocallyConstantPotential(golden_mean, 1, table)
        with pytest.raises(sg.SoficGibbsError,
                           match=f"{eid!r} underflows a double"):
            sg.transfer_matrix(golden_mean, f)

    def test_parallel_edge_sum_overflow_names_the_vertex_pair(self):
        # each exp(709.5) is finite, their sum is not
        shift = loop_shift(2)
        f = range1(shift, {"0": 709.5, "1": 709.5})
        with pytest.raises(sg.SoficGibbsError,
                           match="'\\*' -> '\\*' overflows a double"):
            sg.transfer_matrix(shift, f)

    def test_parallel_sum_overflow_before_a_later_underflow_is_named(self):
        # edge order 0, 1, 2: the sum of 0 and 1 overflows before exp(-746)
        # underflows on 2
        shift = loop_shift(3)
        f = range1(shift, {"0": 709.5, "1": 709.5, "2": -746.0})
        for call in (sg.transfer_matrix, sg.pressure):
            with pytest.raises(sg.SoficGibbsError) as info:
                call(shift, f)
            assert str(info.value) == ("the summed exp of the potential on "
                                       "the edges '*' -> '*' overflows a double")

    def test_underflow_before_a_later_overflow_is_named(self):
        shift = loop_shift(2)
        f = range1(shift, {"0": -746.0, "1": 800.0})
        for call in (sg.transfer_matrix, sg.pressure):
            with pytest.raises(sg.SoficGibbsError) as info:
                call(shift, f)
            assert str(info.value) == ("exp of the potential on edge '0' "
                                       "underflows a double")

    def test_transition_underflow_names_the_edge(self):
        # every weight is a normal double, but P(a) = exp(-1400) r_A / r_B
        # is not
        shift = sg.EdgeShift(("A", "B"), (sg.Edge("A", "A", "a"),
                                          sg.Edge("A", "B", "b"),
                                          sg.Edge("B", "A", "c")))
        f = range1(shift, {"a": -700.0, "b": 700.0, "c": 700.0})
        assert sg.pressure(shift, f) == pytest.approx(700.0)
        with pytest.raises(sg.SoficGibbsError,
                           match="edge 'a' underflows a double"):
            sg.equilibrium_measure(shift, f)

    def test_transition_underflow_names_the_first_edge_by_vertex(self):
        # P(a) and P(z) are both about exp(-1400); 'a' comes first in edge
        # order, but 'z' leaves the first vertex
        shift = sg.EdgeShift(("A", "B"), (sg.Edge("A", "A", "z"),
                                          sg.Edge("A", "B", "y"),
                                          sg.Edge("B", "A", "x"),
                                          sg.Edge("B", "B", "a")))
        f = range1(shift, {"a": -700.0, "x": 700.0, "y": 700.0, "z": -700.0})
        with pytest.raises(sg.SoficGibbsError) as info:
            sg.equilibrium_measure(shift, f)
        assert str(info.value) == ("the transition probability of edge 'z' "
                                   "underflows a double")

    def test_edgeless_shift_has_no_pressure(self):
        shift = sg.EdgeShift(("a",), ())
        with pytest.raises(sg.EmptyShiftError):
            sg.LocallyConstantPotential.zero(shift)
        f = sg.LocallyConstantPotential(shift, 1, {})
        assert np.array_equal(sg.transfer_matrix(shift, f), np.zeros((1, 1)))
        assert sg.transfer_matrix(shift, f).dtype == float
        with pytest.raises(sg.ReducibleShiftError):
            sg.pressure(shift, f)

    def test_edgeless_shift_window2_pressure_is_a_library_error(self):
        # the window-2 recoding of a shift without edges is refused as
        # empty, not built on an empty alphabet
        shift = sg.EdgeShift(("a",), ())
        with pytest.raises(sg.SoficGibbsError):
            sg.pressure(shift, sg.LocallyConstantPotential(shift, 2, {}))

    def test_window6_full3_matches_de_bruijn(self):
        # a window-6 potential on the full 3-shift recodes to 729 vertices
        # and 2187 edges; its transfer matrix is the de Bruijn matrix
        k, w = 3, 6
        rng = np.random.default_rng(6)
        symbols = [str(i) for i in range(k)]
        shift = sg.sft_from_forbidden_words(sg.Alphabet(tuple(symbols)), (), 2)
        table = {}
        debruijn = np.zeros((k ** w, k ** w))
        for word in itertools.product(symbols, repeat=w + 1):
            value = rng.uniform(-1.0, 1.0)
            table[tuple(a + b for a, b in zip(word, word[1:]))] = value
            debruijn[int("".join(word[:-1]), k),
                     int("".join(word[1:]), k)] = math.exp(value)
        f = sg.LocallyConstantPotential(shift, w, table)
        recoded, edge_potential, _ = sg.reduce_to_edge_potential(f)
        assert (len(recoded.vertices), len(recoded.edges)) == (729, 2187)
        mu = sg.equilibrium_measure(recoded, edge_potential)
        assert sum(mu.stationary.values()) == pytest.approx(1.0, abs=1e-12)
        expected = math.log(float(np.max(np.abs(np.linalg.eigvals(debruijn)))))
        assert sg.pressure(shift, f) == pytest.approx(expected, abs=1e-10)


class TestCachedSolve:
    """Each potential object recodes once and solves Perron once; pressure,
    the equilibrium measure and the cyclic check all read that solve."""

    def test_one_recoding_and_one_solve_per_potential(self, full2_2block):
        f = sg.LocallyConstantPotential(full2_2block, 3, {
            w: 0.1 * i - 0.5
            for i, w in enumerate(full2_2block.words_of_length(3))})
        with mock.patch.object(thermo, "higher_block_shift",
                               wraps=thermo.higher_block_shift) as recode, \
                mock.patch.object(thermo, "perron",
                                  wraps=thermo.perron) as solve:
            value = sg.pressure(full2_2block, f)
            recoded, edge_potential, decode = sg.reduce_to_edge_potential(f)
            mu = sg.equilibrium_measure(recoded, edge_potential)
            report = sg.cyclic_pressure_check(full2_2block, f)
        assert (recode.call_count, solve.call_count) == (1, 1)
        assert report.period == 1 and report.pressure_full == value
        assert sum(mu.stationary.values()) == pytest.approx(1.0, abs=1e-12)
        # the same three objects on every call
        again = sg.reduce_to_edge_potential(f)
        assert all(a is b for a, b in zip(again, (recoded, edge_potential,
                                                  decode)))

    def test_one_exp_per_recoded_edge(self, full2_2block, monkeypatch):
        # pressure and the equilibrium measure read one set of exp weights
        f = sg.LocallyConstantPotential(full2_2block, 2, {
            w: 0.1 * i - 0.5
            for i, w in enumerate(full2_2block.words_of_length(2))})
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        sg.pressure(full2_2block, f)
        recoded, edge_potential, _ = sg.reduce_to_edge_potential(f)
        sg.equilibrium_measure(recoded, edge_potential)
        assert len(calls) == len(recoded.edges) == 8

    def test_window1_reduction_returns_the_potential_itself(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        first = sg.reduce_to_edge_potential(f)
        assert first[0] is golden_mean and first[1] is f
        assert all(a is b for a, b in zip(first, sg.reduce_to_edge_potential(f)))

    def test_overflow_is_raised_on_every_call(self, golden_mean):
        eid = golden_mean.edges[0].id
        f = sg.LocallyConstantPotential(golden_mean, 1, {
            (e.id,): 800.0 if e.id == eid else 0.0 for e in golden_mean.edges})
        messages = []
        for _ in range(2):
            with pytest.raises(sg.SoficGibbsError) as info:
                sg.pressure(golden_mean, f)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and repr(eid) in messages[0]

    def test_reducible_shift_is_refused_on_every_call(self):
        shift = sg.EdgeShift(("a", "b"), (sg.Edge("a", "a", "x"),
                                          sg.Edge("a", "b", "y"),
                                          sg.Edge("b", "b", "z")))
        f = sg.LocallyConstantPotential.zero(shift)
        for _ in range(2):
            with pytest.raises(sg.ReducibleShiftError):
                sg.equilibrium_measure(shift, f)

    def test_window1_potential_is_freed(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        sg.pressure(golden_mean, f)
        sg.reduce_to_edge_potential(f)
        ref = weakref.ref(f)
        # no reference cycle: freed by its count, without a collection
        gc.disable()
        try:
            del f
            assert ref() is None
        finally:
            gc.enable()


class TestEquilibrium:
    def test_full_shift_uniform(self):
        full = loop_shift(2)
        mu = sg.equilibrium_measure(full, sg.LocallyConstantPotential.zero(full))
        assert mu.transitions["0"] == pytest.approx(0.5, abs=1e-13)
        assert mu.transitions["1"] == pytest.approx(0.5, abs=1e-13)

    def test_full3_uniform(self):
        full = loop_shift(3)
        mu = sg.equilibrium_measure(full, sg.LocallyConstantPotential.zero(full))
        for e in full.edges:
            assert mu.transitions[e.id] == pytest.approx(1 / 3, abs=1e-13)

    def test_golden_mean_parry_measure(self, golden_mean):
        mu = sg.equilibrium_measure(golden_mean,
                                    sg.LocallyConstantPotential.zero(golden_mean))
        assert mu.transitions["00"] == pytest.approx(1 / PHI, abs=1e-10)
        assert mu.transitions["01"] == pytest.approx(1 / PHI ** 2, abs=1e-10)
        assert mu.transitions["10"] == pytest.approx(1.0, abs=1e-12)
        assert mu.stationary["0"] == pytest.approx(PHI ** 2 / (1 + PHI ** 2),
                                                   abs=1e-10)
        assert mu.stationary["1"] == pytest.approx(1 / (1 + PHI ** 2), abs=1e-10)

    def test_variational_equality_at_equilibrium(self, golden_mean):
        f = range1(golden_mean, {"00": 0.3, "01": -0.1, "10": 0.4})
        mu = sg.equilibrium_measure(golden_mean, f)
        p = sg.pressure(golden_mean, f)
        assert sg.entropy(mu) + sg.integrate(f, mu) == pytest.approx(p, abs=1e-9)

    def test_variational_inequality_random_measures(self, golden_mean):
        f = range1(golden_mean, {"00": 0.3, "01": -0.1, "10": 0.4})
        p = sg.pressure(golden_mean, f)
        rng = np.random.default_rng(11)
        for _ in range(100):
            nu = random_markov_measure(golden_mean, rng)
            assert sg.entropy(nu) + sg.integrate(f, nu) <= p + 1e-9

    def test_gibbs_markov_cylinder_identity(self, golden_mean):
        f = range1(golden_mean, {"00": 0.2, "01": 0.0, "10": -0.3})
        mu = sg.equilibrium_measure(golden_mean, f)
        data = sg.perron(sg.transfer_matrix(golden_mean, f))
        idx = golden_mean.vertex_index
        for n in range(1, 7):
            for w in golden_mean.words_of_length(n):
                src, tgt = golden_mean.path_endpoints(w)
                expected = (data.left[idx[src]]
                            * math.exp(f.word_sum(w)) * data.right[idx[tgt]]
                            / data.eigenvalue ** len(w))
                assert mu.cylinder_prob(w) == pytest.approx(expected, abs=1e-9)


class TestMarkovMeasure:
    def test_vertex_without_an_out_edge_sums_to_0(self):
        shift = sg.EdgeShift(("A", "B"), (sg.Edge("A", "B", "e"),))
        with pytest.raises(ValueError) as info:
            sg.MarkovMeasure(shift, {"A": 0.5, "B": 0.5}, {"e": 1.0})
        assert str(info.value) == "outgoing probabilities at 'B' sum to 0, not 1"


class TestEntropyIntegral:
    def test_uniform_entropy(self):
        full = loop_shift(2)
        mu = sg.equilibrium_measure(full, sg.LocallyConstantPotential.zero(full))
        assert sg.entropy(mu) == pytest.approx(math.log(2), abs=1e-12)

    def test_parry_entropy_equals_pressure(self, golden_mean):
        mu = sg.equilibrium_measure(golden_mean,
                                    sg.LocallyConstantPotential.zero(golden_mean))
        assert sg.entropy(mu) == pytest.approx(math.log(PHI), abs=1e-10)

    def test_integral_of_zero(self, golden_mean):
        mu = sg.equilibrium_measure(golden_mean,
                                    sg.LocallyConstantPotential.zero(golden_mean))
        f = sg.LocallyConstantPotential.zero(golden_mean)
        assert sg.integrate(f, mu) == 0.0


class TestPeriodicOracle:
    def test_full_shift_exact(self):
        full = loop_shift(2)
        f = sg.LocallyConstantPotential.zero(full)
        assert sg.pressure_periodic_oracle(full, f, 10) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_golden_mean_lucas_trace(self, golden_mean):
        # trace of A^12 is the Lucas number 322
        f = sg.LocallyConstantPotential.zero(golden_mean)
        assert sg.pressure_periodic_oracle(golden_mean, f, 12) == pytest.approx(
            math.log(322) / 12, abs=1e-12)

    def test_two_cycle_sentinel(self, two_cycle):
        f = sg.LocallyConstantPotential.zero(two_cycle)
        assert sg.pressure_periodic_oracle(two_cycle, f, 7) == float("-inf")
        assert sg.pressure_periodic_oracle(two_cycle, f, 8) == pytest.approx(
            math.log(2) / 8, abs=1e-12)

    @pytest.mark.parametrize("values", [
        {"00": 0.0, "01": 0.0, "10": 0.0},
        {"00": 0.5, "01": -0.2, "10": 0.1},
        {"00": -1.0, "01": 0.3, "10": 0.8},
    ])
    def test_oracle_error_decreasing_golden_mean(self, golden_mean, values):
        f = range1(golden_mean, values)
        p = sg.pressure(golden_mean, f)
        errors = [abs(sg.pressure_periodic_oracle(golden_mean, f, n) - p)
                  for n in range(10, 31)]
        assert errors[-1] < 1e-3
        for a, b in zip(errors, errors[1:]):
            assert b <= a * 1.05 + 1e-12


class TestPeriodSum:
    def test_period_one_returns_potential(self, golden_mean):
        structure = sg.cyclic_structure(golden_mean)
        f = sg.LocallyConstantPotential.zero(golden_mean)
        assert sg.period_sum_potential(f, structure) is f

    def test_two_cycle_vertex_indicator(self, two_cycle):
        structure = sg.cyclic_structure(two_cycle)
        # f = 1 on the edge out of the class-0 vertex, 0 on the way back
        f = range1(two_cycle, {"x": 1.0, "y": 0.0})
        g = sg.period_sum_potential(f, structure)
        assert set(g.table.values()) == {1.0}

    def test_zero_maps_to_zero(self, period2_parallel):
        structure = sg.cyclic_structure(period2_parallel)
        f = sg.LocallyConstantPotential.zero(period2_parallel)
        g = sg.period_sum_potential(f, structure)
        assert all(v == 0.0 for v in g.table.values())

    def test_sv_norm_bound(self, period2_parallel):
        structure = sg.cyclic_structure(period2_parallel)
        f = range1(period2_parallel, {"p1": 0.5, "p2": -0.5, "q": 1.0})
        g = sg.period_sum_potential(f, structure)
        assert math.isfinite(sg.sv_norm(g))
        assert sg.sv_norm(g) <= structure.period * sg.sv_norm(f) + 1e-12


class TestCyclicPressure:
    def test_aperiodic_trivial(self, golden_mean):
        f = sg.LocallyConstantPotential.zero(golden_mean)
        report = sg.cyclic_pressure_check(golden_mean, f)
        assert report.period == 1 and report.passed

    def test_two_cycle_zero_pressure(self, two_cycle):
        f = sg.LocallyConstantPotential.zero(two_cycle)
        report = sg.cyclic_pressure_check(two_cycle, f)
        assert report.passed
        assert report.pressure_full == pytest.approx(0.0, abs=1e-12)

    def test_parallel_edges_pressure_split(self, period2_parallel):
        f = sg.LocallyConstantPotential.zero(period2_parallel)
        report = sg.cyclic_pressure_check(period2_parallel, f)
        assert report.passed
        assert report.pressure_full == pytest.approx(math.log(2) / 2, abs=1e-12)
        assert report.pressure_class0 == pytest.approx(math.log(2), abs=1e-12)
        assert report.identity_deviation < 1e-10
        assert report.cylinder_max_deviation < 1e-10

    def test_weighted_potential(self, period2_parallel):
        f = range1(period2_parallel, {"p1": 0.7, "p2": -0.4, "q": 0.25})
        report = sg.cyclic_pressure_check(period2_parallel, f)
        assert report.passed
        assert report.identity_deviation < 1e-10


class TestPerronLarger:
    def test_random_irreducible_matrix_against_numpy(self):
        rng = np.random.default_rng(17)
        m = rng.uniform(0.0, 1.0, size=(6, 6))
        m[m < 0.4] = 0.0
        for i in range(6):  # a positive cycle keeps the support irreducible
            m[i, (i + 1) % 6] = rng.uniform(0.2, 1.0)
        data = sg.perron(m)
        w = np.linalg.eigvals(m)
        assert data.eigenvalue == pytest.approx(float(max(w.real)), abs=1e-9)
        # eigvector residuals at the requested tolerance
        assert np.max(np.abs(m @ data.right - data.eigenvalue * data.right)) \
            < 1e-11
        assert np.max(np.abs(m.T @ data.left - data.eigenvalue * data.left)) \
            < 1e-11
