"""Cylinder-ratio certification of Gibbsianness, and end-to-end pipelines.

For a locally constant potential, exchanging two equal-length blocks inside a
configuration changes the energy by a finite window sum; a measure is Gibbs
exactly when its cylinder ratios across such exchanges match the exponential
of that sum.  The ratio test evaluates the worst deviation over exchange
contexts of growing length.

Context handling: for a Markov measure the ratios are exact at every context,
and the test runs over all of them.  For the image of a Markov measure under
a factor code, ratios converge only along contexts that approximate typical
points; contexts that never synchronize the hidden state (such as the
all-zero runs of the even shift) keep a constant deviation forever.  The
pipelines therefore restrict contexts to those containing a magic word of the
cover code on both sides, which is precisely the family the preimage
uniqueness argument controls.  Pass `synchronizing_word=None` to test over
all valid contexts.

Contexts are collapsed into classes with equal normalized forward or backward
state vectors, equal boundary windows, and equal synchronization status; the
deviation is a function of the class, so the maximum over classes equals the
maximum over all contexts (up to the 1e-13 rounding of the class key).

The pipelines take the equilibrium measure upstairs and push it down.  The
Gibbs verdicts (Lanford-Ruelle, finite-to-one) run `synchronized_battery` on
the image; the Dobrushin verdict holds the variational pressure certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import (CodeAnalysis, SlidingBlockCode, analyze_code,
                    is_finite_to_one)
from .errors import (InsufficientContextError, NoExchangeableContextError,
                     NotFiniteToOneError, NotInLanguageError,
                     ReducibleShiftError)
from .measures import (HiddenMarkovMeasure, LiftResult, entropy_estimate,
                       equilibrium_upstairs, lift_equilibrium,
                       preimage_cylinder_sum, pushforward)
from .presentations import (LabeledEdge, SoficPresentation, minimize_fischer)
from .shifts import Word
from .thermo import LocallyConstantPotential, MarkovMeasure


def cocycle_delta(potential: LocallyConstantPotential, left: Word, u: Word,
                  v: Word, right: Word) -> float:
    """Exact energy difference of exchanging u for v between the contexts.

    Both words left+u+right and left+v+right must lie in the language and the
    contexts must be at least k-1 long, so that every window that can differ
    is contained in the given words; the value then equals the full cocycle
    sum for any bi-infinite extension.
    """
    left, u, v, right = tuple(left), tuple(u), tuple(v), tuple(right)
    if len(u) != len(v):
        raise ValueError("exchanged words must have equal length")
    k = potential.k
    if len(left) < k - 1 or len(right) < k - 1:
        raise InsufficientContextError(
            f"contexts of length >= {k - 1} required for exact cocycle")
    shift = potential.shift
    if not shift.in_language(left + u + right):
        raise NotInLanguageError("left + u + right is not in the language")
    if not shift.in_language(left + v + right):
        raise NotInLanguageError("left + v + right is not in the language")
    return _window_delta(potential, left, u, v, right)


def _window_delta(potential, left, u, v, right):
    k = potential.k
    w1 = left + u + right
    w2 = left + v + right
    total = 0.0
    for i in range(len(w1) - k + 1):
        a, b = w1[i:i + k], w2[i:i + k]
        if a != b:
            total += potential.value(a) - potential.value(b)
    return total


@dataclass(frozen=True)
class GibbsRatioReport:
    """Per-context-length worst deviations of log cylinder ratios from the
    exchange energy, with the tolerance-and-trend verdict."""

    u: Word
    v: Word
    context_lengths: tuple[int, ...]
    max_deviations: tuple[float, ...]
    context_counts: tuple[int, ...]
    synchronizing_word: Word | None
    tolerance: float
    passed: bool

    @property
    def final_deviation(self) -> float:
        return self.max_deviations[-1]

    @property
    def trend_ok(self) -> bool:
        return _trend_non_increasing(self.max_deviations)


def _trend_non_increasing(devs, slack=0.10, floor=1e-12):
    return all(b <= (1.0 + slack) * a + floor for a, b in zip(devs, devs[1:]))


def _kmp_failure(pattern):
    m = len(pattern)
    fail = [0] * (m + 1)
    for i in range(1, m):
        j = fail[i]
        while j and pattern[i] != pattern[j]:
            j = fail[j]
        fail[i + 1] = j + 1 if pattern[i] == pattern[j] else 0
    return fail


def _kmp_step(pattern, fail, state, symbol):
    m = len(pattern)
    if state == m:
        return m
    j = state
    while True:
        if pattern[j] == symbol:
            return j + 1
        if j == 0:
            return 0
        j = fail[j]


def _context_classes(nu: HiddenMarkovMeasure, length: int, boundary_len: int,
                     sync_word: Word | None):
    """Collapsed left and right context classes of a given length.

    A left class carries the normalized forward vector alpha (the stationary
    row pushed through the sub-transition matrices of the context), the last
    boundary_len symbols, the number of contexts in the class, and one
    representative word.  Right classes are symmetric with backward vectors.
    """
    symbols = nu.symbols
    mats = nu._sub_matrices

    def propagate(start_vec, apply_mat, boundary_update, pattern):
        fail = _kmp_failure(pattern) if pattern else None
        level = {}
        v0 = start_vec / start_vec.sum()
        key0 = (tuple(np.round(v0, 13)), (), 0)
        level[key0] = [v0, (), 0, 1, ()]
        for _ in range(length):
            nxt = {}
            for (kvec, bnd, st), (vec, _, _, count, rep) in sorted(level.items()):
                for s in symbols:
                    vec2 = apply_mat(vec, s)
                    total = vec2.sum()
                    if total <= 0.0:
                        continue
                    vec2 = vec2 / total
                    bnd2 = boundary_update(bnd, s)
                    st2 = _kmp_step(pattern, fail, st, s) if pattern else 0
                    rep2 = rep + (s,)
                    key = (tuple(np.round(vec2, 13)), bnd2, st2)
                    cell = nxt.get(key)
                    if cell is None:
                        nxt[key] = [vec2, bnd2, st2, count, rep2]
                    else:
                        cell[3] += count
            level = nxt
        want = len(pattern) if pattern else 0
        out = []
        for (kvec, bnd, st), (vec, _, _, count, rep) in sorted(level.items()):
            if pattern and st != want:
                continue
            out.append((vec, bnd, count, rep))
        return out

    pattern = tuple(sync_word) if sync_word else ()
    lefts = propagate(
        nu._stationary_row,
        lambda vec, s: vec @ mats[s],
        lambda bnd, s: (bnd + (s,))[-boundary_len:] if boundary_len else (),
        pattern,
    )
    # right contexts are built from the far end inward, so the word is
    # reversed: boundary tracks the eventual first symbols, and containment
    # is matched against the reversed pattern
    rights_raw = propagate(
        np.ones(len(nu.upstairs.shift.vertices)),
        lambda vec, s: mats[s] @ vec,
        lambda bnd, s: ((s,) + bnd)[:boundary_len] if boundary_len else (),
        tuple(reversed(pattern)),
    )
    rights = [(vec, bnd, count, tuple(reversed(rep)))
              for vec, bnd, count, rep in rights_raw]
    return lefts, rights


def _hidden(measure) -> HiddenMarkovMeasure:
    if isinstance(measure, HiddenMarkovMeasure):
        return measure
    if isinstance(measure, MarkovMeasure):
        return HiddenMarkovMeasure(measure, SlidingBlockCode.identity(measure.shift))
    return None


def gibbs_ratio_test(measure, potential: LocallyConstantPotential, u: Word,
                     v: Word, context_lengths: Sequence[int], tol: float,
                     synchronizing_word: Word | None = None) -> GibbsRatioReport:
    """Worst deviation |log nu[pus] - log nu[pvs] - delta| over exchange
    contexts p, s at each requested length.

    Contexts are valid when both exchanged cylinders lie in the language; a
    language-valid exchange hitting a zero-probability cylinder counts as an
    infinite deviation (it witnesses singularity).  The verdict requires the
    deviation at the largest length to be below tol with a non-increasing
    trend (10 percent slack).
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("exchanged words must have equal length")
    k = potential.k
    lengths = tuple(sorted(context_lengths))
    if not lengths:
        raise ValueError("at least one context length required")
    if lengths[0] < k - 1:
        raise InsufficientContextError(
            f"context lengths below {k - 1} cannot certify a window-{k} potential")
    hidden = _hidden(measure)
    devs = []
    counts = []
    for c in lengths:
        if hidden is not None:
            dev, count = _max_deviation_hidden(hidden, potential, u, v, c,
                                               synchronizing_word)
        else:
            dev, count = _max_deviation_generic(measure, potential, u, v, c,
                                                synchronizing_word)
        if count == 0:
            raise NoExchangeableContextError(
                f"no valid exchange context of length {c} for {u!r} / {v!r}")
        devs.append(dev)
        counts.append(count)
    passed = (math.isfinite(devs[-1]) and devs[-1] < tol
              and _trend_non_increasing(devs))
    return GibbsRatioReport(u, v, tuple(lengths), tuple(devs), tuple(counts),
                            tuple(synchronizing_word) if synchronizing_word else None,
                            tol, passed)


def _word_matrix(nu, word):
    n = len(nu.upstairs.shift.vertices)
    m = np.eye(n)
    for s in word:
        sub = nu._sub_matrices.get(s)
        if sub is None:
            return None
        m = m @ sub
    return m


def _max_deviation_hidden(nu, potential, u, v, c, sync_word):
    boundary = potential.k - 1
    lefts, rights = _context_classes(nu, c, boundary, sync_word)
    tu = _word_matrix(nu, u)
    tv = _word_matrix(nu, v)
    worst = 0.0
    count = 0
    for lvec, lbnd, lcount, _ in lefts:
        for rvec, rbnd, rcount, _ in rights:
            num = float(lvec @ tu @ rvec) if tu is not None else 0.0
            den = float(lvec @ tv @ rvec) if tv is not None else 0.0
            # positive mass is equivalent to language membership here (the
            # upstairs measure has full support), so a context is a valid
            # exchange exactly when both sides carry mass
            if num <= 0.0 or den <= 0.0:
                continue
            count += lcount * rcount
            delta = _window_delta(potential, lbnd, u, v, rbnd)
            worst = max(worst, abs(math.log(num) - math.log(den) - delta))
    return worst, count


def _contains(word, pattern):
    n, m = len(word), len(pattern)
    return any(word[i:i + m] == pattern for i in range(n - m + 1))


def _max_deviation_generic(measure, potential, u, v, c, sync_word):
    words = measure.words_of_length(c)
    if sync_word:
        pattern = tuple(sync_word)
        words = [w for w in words if _contains(w, pattern)]
    worst = 0.0
    count = 0
    for p in words:
        for s in words:
            pus, pvs = p + u + s, p + v + s
            ok_u = measure.in_language(pus)
            ok_v = measure.in_language(pvs)
            if not (ok_u and ok_v):
                continue
            count += 1
            num = measure.cylinder_prob(pus)
            den = measure.cylinder_prob(pvs)
            if num <= 0.0 or den <= 0.0:
                worst = float("inf")
                continue
            delta = _window_delta(potential, p, u, v, s)
            worst = max(worst, abs(math.log(num) - math.log(den) - delta))
    return worst, count


# -- batteries and pipelines --------------------------------------------------


@dataclass(frozen=True)
class RatioBattery:
    reports: tuple[GibbsRatioReport, ...]
    skipped_pairs: tuple[tuple[Word, Word], ...]
    passed: bool

    @property
    def max_final_deviation(self) -> float:
        return max((r.final_deviation for r in self.reports), default=float("nan"))


def exchangeable_pairs(language_words, max_word_length: int = 3,
                       pair_cap: int = 200):
    """Candidate equal-length word pairs, lexicographic, capped."""
    pairs = []
    for length in range(1, max_word_length + 1):
        words = language_words(length)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                pairs.append((a, b))
                if len(pairs) >= pair_cap:
                    return pairs
    return pairs


def run_ratio_battery(measure, potential, context_lengths, tol,
                      synchronizing_word=None, max_word_length: int = 3,
                      pair_cap: int = 200) -> RatioBattery:
    """Ratio tests over an enumerated battery of exchangeable word pairs;
    pairs with no valid exchange context at some tested length are skipped."""
    reports = []
    skipped = []
    for u, v in exchangeable_pairs(measure.words_of_length, max_word_length,
                                   pair_cap):
        try:
            reports.append(gibbs_ratio_test(measure, potential, u, v,
                                            context_lengths, tol,
                                            synchronizing_word))
        except NoExchangeableContextError:
            skipped.append((u, v))
    passed = bool(reports) and all(r.passed for r in reports)
    return RatioBattery(tuple(reports), tuple(skipped), passed)


def synchronized_battery(nu: HiddenMarkovMeasure,
                         potential: LocallyConstantPotential,
                         analysis: CodeAnalysis, tol: float, c_max: int,
                         max_word_length: int = 3,
                         pair_cap: int = 200) -> RatioBattery:
    """Ratio battery on the image of a Markov measure, with contexts
    synchronized by the magic word of the pushing code's `analysis`.

    Context lengths run from the longest of k-1, 1 and the magic word up to
    c_max; without a magic word (infinite-to-one code) all valid contexts
    are tested.
    """
    sync = analysis.magic_word.word if analysis.magic_word else None
    start = max(potential.k - 1, 1, len(sync) if sync else 1)
    return run_ratio_battery(nu, potential, list(range(start, c_max + 1)), tol,
                             synchronizing_word=sync,
                             max_word_length=max_word_length,
                             pair_cap=pair_cap)


@dataclass(frozen=True)
class LanfordRuelleReport:
    """Equilibrium measure of an irreducible sofic shift, certified Gibbs."""

    lift: LiftResult
    cover_analysis: CodeAnalysis
    battery: RatioBattery
    passed: bool


def verify_sofic_lanford_ruelle(presentation: SoficPresentation,
                                potential: LocallyConstantPotential,
                                tol: float = 1e-6, c_max: int = 20,
                                max_word_length: int = 3,
                                pair_cap: int = 200) -> LanfordRuelleReport:
    """Lift the equilibrium measure through the minimal right-resolving cover
    (degree one, certified), push it back down, and run the Gibbs ratio
    battery on the image with magic-word-synchronized contexts."""
    lift = lift_equilibrium(presentation, potential)
    analysis = analyze_code(lift.downstairs.code)
    battery = synchronized_battery(lift.downstairs, potential, analysis, tol,
                                   c_max, max_word_length, pair_cap)
    passed = battery.passed and analysis.almost_invertible
    return LanfordRuelleReport(lift, analysis, battery, passed)


@dataclass(frozen=True)
class DobrushinReport:
    """Gibbs measure of an irreducible sofic shift, certified equilibrium."""

    lift: LiftResult
    pressure_value: float
    entropy_sequence: tuple[float, ...]
    integral: float
    deviation: float
    passed: bool


def verify_sofic_dobrushin(presentation: SoficPresentation,
                           potential: LocallyConstantPotential,
                           tol: float = 0.01,
                           entropy_horizon: int = 12) -> DobrushinReport:
    """Construct the Gibbs measure downstairs as the image of the equilibrium
    Gibbs-Markov measure upstairs, and certify the variational equality:
    block entropy of the image plus the exact integral matches the pressure
    (the entropies upstairs and downstairs agree because the cover code is
    finite-to-one)."""
    lift = lift_equilibrium(presentation, potential)
    nu = lift.downstairs
    est = entropy_estimate(nu, entropy_horizon)
    integral = sum(nu.cylinder_prob(w) * potential.value(w)
                   for w in presentation.words_of_length(potential.k))
    deviation = abs(est.estimate + integral - lift.pressure_value)
    return DobrushinReport(lift, lift.pressure_value, est.h_sequence,
                           integral, deviation, deviation < tol)


@dataclass(frozen=True)
class FiniteToOneReport:
    analysis: CodeAnalysis
    battery: RatioBattery
    pushforward_max_deviation: float
    passed: bool


def verify_finite_to_one_preservation(code: SlidingBlockCode,
                                      potential: LocallyConstantPotential,
                                      tol: float = 1e-6, c_max: int = 20,
                                      max_word_length: int = 3,
                                      pair_cap: int = 200,
                                      cross_check_length: int = 6) -> FiniteToOneReport:
    """Push the Gibbs-Markov measure for the pulled-back potential through a
    finite-to-one code and certify the image is Gibbs for the potential;
    the lift direction is confirmed by matching the image cylinders against
    brute-force preimage sums."""
    if not code.domain.is_irreducible():
        raise ReducibleShiftError("requires an irreducible domain")
    if not is_finite_to_one(code):
        raise NotFiniteToOneError("code is not finite-to-one")
    mu, _, push_code = equilibrium_upstairs(code, potential)
    nu = pushforward(mu, push_code)
    push_analysis = analyze_code(push_code)
    battery = synchronized_battery(nu, potential, push_analysis, tol, c_max,
                                   max_word_length, pair_cap)
    cross_dev = 0.0
    for n in range(1, cross_check_length + 1):
        for w in nu.words_of_length(n):
            cross_dev = max(cross_dev, abs(nu.cylinder_prob(w)
                                           - preimage_cylinder_sum(nu, w)))
    passed = battery.passed and cross_dev < 1e-10
    return FiniteToOneReport(push_analysis, battery, cross_dev, passed)


# -- the reducible counterexample ---------------------------------------------


class SunnySideUpMeasure:
    """Cylinder evaluator of the unique shift-invariant measure on the
    sequences with at most a single 1: the point mass at the all-zero point."""

    symbols = ("0", "1")

    def cylinder_prob(self, word: Word) -> float:
        return 1.0 if all(s == "0" for s in word) else 0.0

    def in_language(self, word: Word) -> bool:
        return (all(s in self.symbols for s in word)
                and sum(1 for s in word if s == "1") <= 1)

    def words_of_length(self, n: int) -> list[Word]:
        if n == 0:
            return [()]
        words = [("0",) * n]
        for i in range(n):
            words.append(("0",) * i + ("1",) + ("0",) * (n - 1 - i))
        return sorted(words)


def sunny_side_up_presentation() -> SoficPresentation:
    """Two chains of zeros joined by a single 1; reducible as a graph and as
    a language."""
    edges = (
        LabeledEdge("L", "L", "0", "a0"),
        LabeledEdge("L", "R", "1", "b1"),
        LabeledEdge("R", "R", "0", "c0"),
    )
    return SoficPresentation(("L", "R"), edges)


@dataclass(frozen=True)
class CounterexampleReport:
    word_counts_match: bool
    growth_rates: tuple[float, ...]
    measure_entropy: float
    equilibrium_ok: bool
    gibbs_report: GibbsRatioReport
    gibbs_ok: bool
    irreducible_graph: bool
    irreducible_language: bool
    passed: bool


def sunny_side_up_counterexample(max_count_length: int = 30) -> CounterexampleReport:
    """Certify that the invariant measure of the sunny-side-up shift is an
    equilibrium measure for the zero potential but not a Gibbs measure.

    The language has n+1 words of length n, so the topological entropy is
    zero; the point mass has entropy zero, hence attains the pressure.  The
    block exchange of a 1 against a 0 is language-valid with all-zero
    contexts but moves mass between a null and a full cylinder, so the ratio
    test reports an infinite deviation.  The failure is tied to reducibility.
    """
    nu = SunnySideUpMeasure()
    presentation = sunny_side_up_presentation()
    counts_ok = all(len(nu.words_of_length(n)) == n + 1
                    for n in range(1, max_count_length + 1))
    counts_ok = counts_ok and all(
        nu.words_of_length(n) == presentation.words_of_length(n)
        for n in range(0, 13))
    # block entropies of the point mass vanish at every horizon
    h = 0.0
    for w in nu.words_of_length(8):
        p = nu.cylinder_prob(w)
        if p > 0:
            h -= p * math.log(p)
    growth = tuple(math.log(n + 1) / n for n in (10, 20, 40, 80))
    equilibrium_ok = (counts_ok and h == 0.0
                      and all(b < a for a, b in zip(growth, growth[1:])))
    potential = LocallyConstantPotential(
        presentation, 1, {("0",): 0.0, ("1",): 0.0})
    report = gibbs_ratio_test(nu, potential, ("1",), ("0",),
                              list(range(1, 7)), 1e-6)
    gibbs_ok = (not report.passed) and math.isinf(report.final_deviation)
    irreducible_graph = presentation.is_irreducible_graph()
    try:
        minimize_fischer(presentation)
        irreducible_language = True
    except ReducibleShiftError:
        irreducible_language = False
    passed = (equilibrium_ok and gibbs_ok and not irreducible_graph
              and not irreducible_language)
    return CounterexampleReport(counts_ok, growth, h, equilibrium_ok, report,
                                gibbs_ok, irreducible_graph,
                                irreducible_language, passed)
