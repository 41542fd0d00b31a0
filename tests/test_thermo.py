import itertools
import math

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
        assert data.residual < 1e-12
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

    def test_large_eigenvalue_stops_at_the_rounding_floor(self, monkeypatch):
        # a positive matrix with dominant eigenvalue about 437: successive
        # estimates of lambda + 1 keep differing by an ulp or two, above an
        # absolute 1e-13, so only the rounding floor 8 eps ||M||_inf stops it
        rng = np.random.default_rng(0)
        m = rng.uniform(0.0, 1.0, (3, 3)) + 1e-3
        m *= rng.uniform(250, 450) / max(abs(np.linalg.eigvals(m)))
        lam = float(max(np.linalg.eigvals(m).real))
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 10_000)
        data = sg.perron(m)
        assert data.eigenvalue == pytest.approx(lam, rel=1e-14)
        assert data.residual < 8 * np.finfo(float).eps * m.sum(axis=1).max()


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

    def test_edgeless_shift_has_no_pressure(self):
        shift = sg.EdgeShift(("a",), ())
        with pytest.raises(sg.EmptyShiftError):
            sg.LocallyConstantPotential.zero(shift)
        with pytest.raises(sg.ReducibleShiftError):
            sg.pressure(shift, sg.LocallyConstantPotential(shift, 1, {}))

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
