import math

import numpy as np
import pytest

import soficgibbs as sg
from soficgibbs import shifts

from conftest import (PHI, identity_presentation, loop_shift,
                      random_markov_measure)


@pytest.fixture
def uniform2():
    full = loop_shift(2)
    return sg.equilibrium_measure(full, sg.LocallyConstantPotential.zero(full))


@pytest.fixture
def parry(golden_mean):
    return sg.equilibrium_measure(
        golden_mean, sg.LocallyConstantPotential.zero(golden_mean))


@pytest.fixture
def bernoulli_amalgamation(amalgamation):
    full3 = amalgamation.domain
    mu = sg.equilibrium_measure(full3, sg.LocallyConstantPotential.zero(full3))
    return sg.pushforward(mu, amalgamation)


class TestCylinders:
    def test_uniform_word(self, uniform2):
        assert uniform2.cylinder_prob(("0", "1", "0")) == pytest.approx(
            0.125, abs=1e-13)

    def test_forbidden_word_zero(self, parry):
        assert parry.cylinder_prob(("01", "01")) == 0.0

    def test_parry_two_zeros(self, parry):
        # the edge "00" is the vertex word 0,0: mass p_0 * P(0 -> 0)
        expected = (PHI ** 2 / (1 + PHI ** 2)) * (1 / PHI)
        assert parry.cylinder_prob(("00",)) == pytest.approx(expected, abs=1e-10)
        assert parry.cylinder_prob(("00", "00")) == pytest.approx(
            expected / PHI, abs=1e-10)

    def test_kolmogorov_consistency(self, parry):
        symbols = [e.id for e in parry.shift.edges]
        for n in range(0, 6):
            for w in parry.shift.words_of_length(n):
                total = sum(parry.cylinder_prob(w + (s,)) for s in symbols)
                assert total == pytest.approx(parry.cylinder_prob(w), abs=1e-10)


class TestPushforward:
    def test_amalgamation_matches_bernoulli(self, bernoulli_amalgamation):
        nu = bernoulli_amalgamation
        assert nu.cylinder_prob(("1",)) == pytest.approx(2 / 3, abs=1e-13)
        # independence: product over symbols, exactly
        for n in range(1, 9):
            for w in nu.words_of_length(n):
                ones = sum(1 for s in w if s == "1")
                expected = (1 / 3) ** (n - ones) * (2 / 3) ** ones
                assert nu.cylinder_prob(w) == pytest.approx(expected, rel=1e-13)

    def test_two_ones(self, bernoulli_amalgamation):
        assert bernoulli_amalgamation.cylinder_prob(("1", "1")) == pytest.approx(
            4 / 9, abs=1e-13)

    def test_identity_code_preserves_cylinders(self, parry):
        ident = sg.SlidingBlockCode.identity(parry.shift)
        nu = sg.pushforward(parry, ident)
        for n in range(1, 5):
            for w in parry.shift.words_of_length(n):
                assert nu.cylinder_prob(w) == pytest.approx(
                    parry.cylinder_prob(w), abs=1e-14)

    def test_matrix_product_matches_preimage_enumeration(self, even_cover):
        # dual route: transfer-operator evaluation vs brute preimage sums
        _, cover = sg.minimize_fischer(even_cover)
        mu = sg.equilibrium_measure(
            cover.domain, sg.LocallyConstantPotential.zero(cover.domain))
        nu = sg.pushforward(mu, cover)
        for n in range(1, 9):
            for w in nu.words_of_length(n):
                assert nu.cylinder_prob(w) == pytest.approx(
                    sg.preimage_cylinder_sum(nu, w), abs=1e-12)

    def test_kolmogorov_consistency_hidden(self, bernoulli_amalgamation):
        nu = bernoulli_amalgamation
        for n in range(0, 6):
            for w in nu.words_of_length(n) if n else [()]:
                total = sum(nu.cylinder_prob(w + (s,)) for s in nu.symbols)
                assert total == pytest.approx(nu.cylinder_prob(w), abs=1e-10)

    def test_enumeration_cap_counts_every_word(self, even_cover, monkeypatch):
        # the cap is checked on every level's kept words, the last level's
        # too
        nu = sg.lift_equilibrium(
            even_cover, sg.LocallyConstantPotential.zero(even_cover)).downstairs
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 1)
        with pytest.raises(sg.EnumerationCapError) as info:
            nu.words_of_length(1)
        assert info.value.count == 2
        # the even shift has 4 words of length 2, all refused at level 2
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", 2)
        with pytest.raises(sg.EnumerationCapError) as info:
            nu.words_of_length(3)
        assert info.value.count == 4

    def test_stacked_vector_matrix_rows_are_per_row_products(self):
        # the level walk's probabilities are the doubles of `cylinder_prob`,
        # and the context classes' vectors those of one push per vector,
        # only because numpy evaluates a stacked vector-matrix or
        # matrix-vector product as one gemv per row (a 2-D matrix-matrix
        # product rounds differently) and sums each row of a 2-D array as it
        # sums a 1-D one; a numpy or BLAS build that breaks either fails here
        rng = np.random.default_rng(13)
        for n in range(2, 41):
            mats = rng.uniform(0.0, 1.0, (3, n, n)) * (
                rng.uniform(size=(3, n, n)) < 0.5)
            vecs = rng.uniform(0.0, 1.0, (64, n))
            per_row = [v @ m for v in vecs for m in mats]
            assert np.array_equal((vecs[:, None, :] @ mats[0])[:, 0],
                                  per_row[::3])
            stacked = (vecs[:, None, None, :] @ mats[None]).reshape(-1, n)
            assert np.array_equal(stacked, per_row)
            assert stacked.sum(axis=1).tolist() == [float(v.sum())
                                                    for v in per_row]
            # the right-side form of the context classes' backward push
            per_row = [m @ v for v in vecs for m in mats]
            stacked = (mats[None] @ vecs[:, None, :, None]).reshape(-1, n)
            assert np.array_equal(stacked, per_row)
            assert stacked.sum(axis=1).tolist() == [float(v.sum())
                                                    for v in per_row]

    @pytest.mark.parametrize("cap", [0, 1, 2, 4, 7, 12, 20, 33])
    def test_entropy_walk_cap_matches_words_of_length(self, even_cover,
                                                      monkeypatch, cap):
        # the one walk to n_max raises exactly where enumerating each length
        # 1..n_max on its own would, with the same count and cap, the size
        # of the refused level; the even shift has 2, 4, 7, 12, 20, 33, 54
        # words of lengths 1..7
        nu = sg.lift_equilibrium(
            even_cover, sg.LocallyConstantPotential.zero(even_cover)).downstairs
        counts = {n: len(even_cover.words_of_length(n)) for n in range(1, 8)}
        monkeypatch.setattr(shifts, "DEFAULT_ENUMERATION_CAP", cap)
        for n_max in range(2, 8):
            over = [n for n in range(1, n_max + 1) if counts[n] > cap]
            if not over:
                sg.entropy_estimate(nu, n_max)
                continue
            with pytest.raises(sg.EnumerationCapError) as per_length:
                nu.words_of_length(over[0])
            with pytest.raises(sg.EnumerationCapError) as walk:
                sg.entropy_estimate(nu, n_max)
            assert ((walk.value.count, walk.value.cap)
                    == (per_length.value.count, per_length.value.cap)
                    == (counts[over[0]], cap))

    def test_degree_one_unique_preimage_mass(self, even_cover):
        # words flanked by the magic symbol have a single preimage carrying
        # the full image mass
        _, cover = sg.minimize_fischer(even_cover)
        mu = sg.equilibrium_measure(
            cover.domain, sg.LocallyConstantPotential.zero(cover.domain))
        nu = sg.pushforward(mu, cover)
        for w in nu.words_of_length(6):
            if w[0] == "1" and w[-1] == "1":
                paths = sg.preimage_words(cover, w)
                assert len(paths) == 1
                assert nu.cylinder_prob(w) == pytest.approx(
                    mu.cylinder_prob(paths[0]), abs=1e-14)


class TestEntropyEstimate:
    def test_bernoulli_constant_sequence(self, bernoulli_amalgamation):
        est = sg.entropy_estimate(bernoulli_amalgamation, 8)
        expected = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
        for h in est.h_sequence:
            assert h == pytest.approx(expected, abs=1e-12)

    def test_markov_exact_from_two(self, parry):
        nu = sg.pushforward(parry, sg.SlidingBlockCode.identity(parry.shift))
        est = sg.entropy_estimate(nu, 6)
        for h in est.h_sequence[1:]:
            assert h == pytest.approx(math.log(PHI), abs=1e-10)

    def test_sequence_non_increasing(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        mu = sg.equilibrium_measure(
            cover.domain, sg.LocallyConstantPotential.zero(cover.domain))
        est = sg.entropy_estimate(sg.pushforward(mu, cover), 12)
        for a, b in zip(est.h_sequence, est.h_sequence[1:]):
            assert b <= a + 1e-9

    def test_entropy_preserved_degree_one(self, even_cover):
        _, cover = sg.minimize_fischer(even_cover)
        mu = sg.equilibrium_measure(
            cover.domain, sg.LocallyConstantPotential.zero(cover.domain))
        est = sg.entropy_estimate(sg.pushforward(mu, cover), 12)
        assert abs(est.estimate - sg.entropy(mu)) <= 0.01

    def test_entropy_preserved_degree_two(self, xor_code):
        mu = sg.equilibrium_measure(
            xor_code.domain, sg.LocallyConstantPotential.zero(xor_code.domain))
        est = sg.entropy_estimate(sg.pushforward(mu, xor_code), 12)
        assert abs(est.estimate - sg.entropy(mu)) <= 0.01


class TestLift:
    def test_full_shift_trivial(self):
        p = identity_presentation(loop_shift(2))
        f = sg.LocallyConstantPotential.zero(p)
        lift = sg.lift_equilibrium(p, f)
        assert lift.pressure_value == pytest.approx(math.log(2), abs=1e-12)
        mu = lift.downstairs.upstairs
        assert mu.transitions == pytest.approx({k: 0.5 for k in mu.transitions})

    def test_even_shift_cover_is_parry(self, even_cover):
        f = sg.LocallyConstantPotential.zero(even_cover)
        lift = sg.lift_equilibrium(even_cover, f)
        assert lift.pressure_value == pytest.approx(math.log(PHI), abs=1e-10)
        assert sg.entropy(lift.downstairs.upstairs) == pytest.approx(
            math.log(PHI), abs=1e-10)
        assert sg.verify_sofic_dobrushin(even_cover, f).deviation < 0.01

    def test_weighted_even_shift_matches_oracle(self, even_cover):
        f = sg.LocallyConstantPotential(even_cover, 1,
                                        {("0",): 0.0, ("1",): 0.5})
        lift = sg.lift_equilibrium(even_cover, f)
        # oracle route: periodic points of the cover with the lifted weights
        shift = lift.downstairs.upstairs.shift
        oracle = sg.pressure_periodic_oracle(shift, lift.potential_upstairs, 30)
        assert abs(lift.pressure_value - oracle) < 1e-3
        assert sg.verify_sofic_dobrushin(even_cover, f).deviation < 0.01

    def test_sofic_pressure_shortcut(self, even_cover):
        f = sg.LocallyConstantPotential.zero(even_cover)
        p = sg.lift_equilibrium(even_cover, f).pressure_value
        assert p == pytest.approx(math.log(PHI), abs=1e-10)


class TestRestrictAverage:
    def test_period_one_identity(self, parry):
        structure = sg.cyclic_structure(parry.shift)
        result = sg.restrict_and_average(parry, structure)
        assert result.period == 1
        assert result.restricted is parry

    def test_two_cycle_point_mass(self, two_cycle):
        mu = sg.equilibrium_measure(
            two_cycle, sg.LocallyConstantPotential.zero(two_cycle))
        structure = sg.cyclic_structure(two_cycle)
        result = sg.restrict_and_average(mu, structure)
        assert result.reconstruction_max_deviation < 1e-12
        assert set(result.restricted.transitions.values()) == {1.0}

    def test_parallel_graph_reconstruction(self, period2_parallel):
        mu = sg.equilibrium_measure(
            period2_parallel,
            sg.LocallyConstantPotential.zero(period2_parallel))
        structure = sg.cyclic_structure(period2_parallel)
        result = sg.restrict_and_average(mu, structure, max_length=8)
        assert result.reconstruction_max_deviation < 1e-10
        assert result.full_support_matches

    def test_random_measure_reconstruction(self, period2_parallel):
        rng = np.random.default_rng(3)
        mu = random_markov_measure(period2_parallel, rng)
        structure = sg.cyclic_structure(period2_parallel)
        result = sg.restrict_and_average(mu, structure, max_length=6)
        assert result.reconstruction_max_deviation < 1e-10
