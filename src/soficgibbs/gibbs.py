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
maximum over all contexts (up to the 1e-13 rounding of the class key).  The
classes do not depend on the exchanged pair: one engine serves
`gibbs_ratio_test` and `run_ratio_battery`.  Each battery pushes its context
levels forward once, one symbol per level, and each tested length reads a
snapshot shared by every pair still live; a level of more than
`shifts.DEFAULT_ENUMERATION_CAP` classes raises `EnumerationCapError`; the
limits below are module constants too, read when called.  A pair is skipped
at the first length without a valid exchange context, and the levels stop
once no pair is live.  A battery computes each push, word
matrix, product, dot and window delta once, keyed on its exact inputs: a
recompute is the same numpy call on the same bytes, so no bit changes (stacked
products such as `L @ T_u @ R.T` round differently, and are not used).

The pipelines read one `measures.LiftResult`, the equilibrium measure
upstairs pushed down.  The Gibbs verdicts (Lanford-Ruelle, finite-to-one)
run `synchronized_battery` on the image, which also analyzes its push code;
the Dobrushin verdict holds the variational pressure certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import (CodeAnalysis, SlidingBlockCode, analyze_code,
                    is_finite_to_one)
from . import shifts
from .errors import (EnumerationCapError, InsufficientContextError,
                     NoExchangeableContextError, NotFiniteToOneError,
                     NotInLanguageError, ReducibleShiftError)
from .measures import (HiddenMarkovMeasure, LiftResult, _hidden,
                       entropy_estimate, equilibrium_upstairs,
                       lift_equilibrium, preimage_cylinder_sum)
from .presentations import (LabeledEdge, SoficPresentation,
                            is_irreducible_sofic)
from .shifts import Word
from .thermo import LocallyConstantPotential

PAIR_CAP = 200  # most exchangeable word pairs one battery tests
# a passing trend lets each deviation exceed the one before by TREND_SLACK of
# it plus TREND_FLOOR, which absorbs rounding drift near zero deviation
TREND_SLACK = 0.10
TREND_FLOOR = 1e-12
CROSS_CHECK_LENGTH = 6  # longest image word checked against its preimages
COUNTEREXAMPLE_COUNT_LENGTH = 30  # longest length whose n + 1 words are counted


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


def _trend_non_increasing(devs):
    return all(b <= (1.0 + TREND_SLACK) * a + TREND_FLOOR
               for a, b in zip(devs, devs[1:]))


def _sync_step(pattern, state, symbol):
    """Length of the longest prefix of `pattern` that is a suffix of
    pattern[:state] + (symbol,); a complete match is kept for good."""
    if state == len(pattern):
        return state
    text = pattern[:state] + (symbol,)
    for j in range(len(text), 0, -1):
        if text[-j:] == pattern[:j]:
            return j
    return 0


class _Memo(dict):
    """A dict that computes a missing value from its key, once."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(*key)
        return value


def _normalized(vec):
    """The vector over its sum and its 13-digit key; None without mass."""
    total = vec.sum()
    if total <= 0.0:
        return None
    vec = vec / total
    return vec, tuple(np.round(vec, 13))


class _ContextLevels:
    """Left and right context classes of a hidden Markov measure, one sorted
    level per context length, each pushed one symbol from the level before.

    A left class is keyed by its normalized forward vector (the stationary
    row pushed through the context's sub-transition matrices) rounded to 13
    digits, its last boundary_len symbols and its progress through the sync
    word; it carries the vector and its number of contexts.  Right classes
    are symmetric with backward vectors.

    Class vectors recur at every length: each is interned by its bytes and
    each (side, vector id, symbol) pushed once per battery, as a recompute
    would be the same numpy call on the same bytes."""

    def __init__(self, nu: HiddenMarkovMeasure, boundary_len: int,
                 sync_word: Word | None):
        mats, b = nu._sub_matrices, boundary_len
        pattern = tuple(sync_word) if sync_word else ()
        self.symbols, self.length = nu.symbols, 0
        # right contexts are built from the far end inward, so the word is
        # reversed: boundary tracks the eventual first symbols, and
        # containment is matched against the reversed pattern
        self.rules = ((lambda vec, s: vec @ mats[s],
                       lambda bnd, s: (bnd + (s,))[-b:] if b else (), pattern),
                      (lambda vec, s: mats[s] @ vec,
                       lambda bnd, s: ((s,) + bnd)[:b] if b else (),
                       pattern[::-1]))
        self.ids, self.vectors = {}, []
        self.pushes = _Memo(lambda side, vid, s: _normalized(
            self.rules[side][0](self.vectors[vid], s)))
        starts = (nu._stationary_row, np.ones(len(nu.upstairs.shift.vertices)))
        self.levels = tuple([((key, (), 0), [v0, 1])]
                            for v0, key in map(_normalized, starts))

    def _vector_id(self, vec) -> int:
        """Id shared by every class vector with these bytes."""
        vid = self.ids.setdefault(vec.tobytes(), len(self.ids))
        if vid == len(self.vectors):
            self.vectors.append(vec)
        return vid

    def advance(self):
        """Push both sides one symbol further."""
        self.levels = tuple(self._push(side, level)
                            for side, level in enumerate(self.levels))
        self.length += 1

    def _push(self, side, level):
        _, boundary_update, pattern = self.rules[side]
        cap = shifts.DEFAULT_ENUMERATION_CAP
        nxt = {}
        for (_, bnd, st), (vec, count) in level:
            vid = self._vector_id(vec)
            for s in self.symbols:
                pushed = self.pushes[side, vid, s]
                if pushed is None:
                    continue
                vec2, rounded = pushed
                key = (rounded, boundary_update(bnd, s),
                       _sync_step(pattern, st, s))
                cell = nxt.get(key)
                if cell is not None:
                    cell[1] += count
                    continue
                nxt[key] = [vec2, count]
                if len(nxt) > cap:
                    raise EnumerationCapError(len(nxt), cap)
        return sorted(nxt.items())


def _context_classes(levels: _ContextLevels, length: int):
    """Synchronized left and right classes of one context length, as lists
    of (vector, boundary, count) in key order: the levels are pushed up to
    that length and read."""
    while levels.length < length:
        levels.advance()
    return tuple([(vec, bnd, count) for (_, bnd, st), (vec, count) in level
                  if st == len(pattern)]
                 for level, (_, _, pattern) in zip(levels.levels, levels.rules))


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
    reports, skipped = _ratio_engine(measure, potential, [(u, v)],
                                     context_lengths, tol, synchronizing_word)
    if skipped:
        raise NoExchangeableContextError(
            f"no valid exchange context of length {skipped[0][2]} "
            f"for {u!r} / {v!r}")
    return reports[0]


def _ratio_engine(measure, potential, pairs, context_lengths, tol,
                  synchronizing_word):
    """Ratio tests of equal-length word pairs, lengths outside and pairs
    inside: each length's contexts are read once for every live pair.  A
    pair is dropped at the first length without a valid exchange context.

    Returns the reports of the kept pairs and the dropped pairs as
    (u, v, length), both in the order of `pairs`.
    """
    k = potential.k
    lengths = tuple(sorted(context_lengths))
    if not lengths:
        raise InsufficientContextError("at least one context length required")
    if lengths[0] < k - 1:
        raise InsufficientContextError(
            f"context lengths below {k - 1} cannot certify a window-{k} potential")
    sync = tuple(synchronizing_word) if synchronizing_word else None
    hidden = _hidden(measure)
    if hidden is not None:
        levels = _ContextLevels(hidden, k - 1, sync)
        mats = {w: _word_matrix(hidden, w) for w in set().union(*pairs)}
        products = _Memo(lambda w, lid: levels.vectors[lid] @ mats[w])
        dots = _Memo(lambda w, lid, rid: float(products[w, lid]
                                               @ levels.vectors[rid]))
        deltas = _Memo(lambda pair, lbnd, rbnd: _window_delta(
            potential, lbnd, *pair, rbnd))
    found = [[] for _ in pairs]
    dropped_at = [None] * len(pairs)
    live = range(len(pairs))
    for c in lengths:
        if not live:
            break
        if hidden is not None:
            lefts, rights = ([(levels._vector_id(vec), bnd, count)
                              for vec, bnd, count in classes]
                             for classes in _context_classes(levels, c))
            results = [_max_deviation_hidden(pairs[i], lefts, rights, mats,
                                             dots, deltas) for i in live]
        else:
            words = [w for w in measure.words_of_length(c)
                     if not sync or _contains(w, sync)]
            results = [_max_deviation_generic(measure, potential, pairs[i],
                                              words) for i in live]
        for i, (dev, count) in zip(live, results):
            if count == 0:
                dropped_at[i] = c
            else:
                found[i].append((dev, count))
        live = [i for i in live if dropped_at[i] is None]
    reports, skipped = [], []
    for (u, v), rows, c in zip(pairs, found, dropped_at):
        if c is not None:
            skipped.append((u, v, c))
            continue
        devs, counts = zip(*rows)
        passed = (math.isfinite(devs[-1]) and devs[-1] < tol
                  and _trend_non_increasing(devs))
        reports.append(GibbsRatioReport(u, v, lengths, devs, counts, sync,
                                        tol, passed))
    return reports, skipped


def _word_matrix(nu, word):
    n = len(nu.upstairs.shift.vertices)
    m = np.eye(n)
    for s in word:
        sub = nu._sub_matrices.get(s)
        if sub is None:
            return None
        m = m @ sub
    return m


def _max_deviation_hidden(pair, lefts, rights, mats, dots, deltas):
    """Worst deviation of a pair over (vector id, boundary, count) classes,
    reading the battery's word matrices, dots and window deltas."""
    u, v = pair
    if mats[u] is None or mats[v] is None:
        return 0.0, 0
    worst, count = 0.0, 0
    for lid, lbnd, lcount in lefts:
        for rid, rbnd, rcount in rights:
            num, den = dots[u, lid, rid], dots[v, lid, rid]
            # positive mass is equivalent to language membership here (the
            # upstairs measure has full support), so a context is a valid
            # exchange exactly when both sides carry mass
            if num <= 0.0 or den <= 0.0:
                continue
            count += lcount * rcount
            delta = deltas[pair, lbnd, rbnd]
            worst = max(worst, abs(math.log(num) - math.log(den) - delta))
    return worst, count


def _contains(word, pattern):
    n, m = len(word), len(pattern)
    return any(word[i:i + m] == pattern for i in range(n - m + 1))


def _max_deviation_generic(measure, potential, pair, words):
    u, v = pair
    worst, count = 0.0, 0
    for p in words:
        for s in words:
            pus, pvs = p + u + s, p + v + s
            if not (measure.in_language(pus) and measure.in_language(pvs)):
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


def exchangeable_pairs(language_words, max_word_length: int = 3):
    """Candidate equal-length word pairs, lexicographic, at most PAIR_CAP."""
    pairs = []
    for length in range(1, max_word_length + 1):
        words = language_words(length)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                pairs.append((a, b))
                if len(pairs) >= PAIR_CAP:
                    return pairs
    return pairs


def run_ratio_battery(measure, potential, context_lengths, tol,
                      synchronizing_word=None,
                      max_word_length: int = 3) -> RatioBattery:
    """Ratio tests over an enumerated battery of exchangeable word pairs;
    a pair with no valid exchange context at some tested length is skipped."""
    pairs = exchangeable_pairs(measure.words_of_length, max_word_length)
    reports, skipped = _ratio_engine(measure, potential, pairs,
                                     context_lengths, tol, synchronizing_word)
    passed = bool(reports) and all(r.passed for r in reports)
    return RatioBattery(tuple(reports), tuple((u, v) for u, v, _ in skipped),
                        passed)


def synchronized_battery(nu: HiddenMarkovMeasure,
                         potential: LocallyConstantPotential, tol: float,
                         c_max: int) -> tuple[CodeAnalysis, RatioBattery]:
    """The analysis of `nu.code`, the code pushing a Markov measure onto
    `nu`, and the ratio battery on `nu` with contexts synchronized by its
    magic word.

    Context lengths run from the longest of k-1, 1 and the magic word up to
    c_max; without a magic word (infinite-to-one code) all valid contexts
    are tested.
    """
    analysis = analyze_code(nu.code)
    sync = analysis.magic_word.word if analysis.magic_word else None
    start = max(potential.k - 1, 1, len(sync) if sync else 1)
    return analysis, run_ratio_battery(nu, potential,
                                       list(range(start, c_max + 1)), tol,
                                       synchronizing_word=sync)


@dataclass(frozen=True)
class LanfordRuelleReport:
    """Equilibrium measure of an irreducible sofic shift, certified Gibbs."""

    lift: LiftResult
    cover_analysis: CodeAnalysis
    battery: RatioBattery
    passed: bool


def verify_sofic_lanford_ruelle(presentation: SoficPresentation,
                                potential: LocallyConstantPotential,
                                tol: float = 1e-6,
                                c_max: int = 20) -> LanfordRuelleReport:
    """Lift the equilibrium measure through the minimal right-resolving cover
    (degree one, certified), push it back down, and run the Gibbs ratio
    battery on the image with magic-word-synchronized contexts."""
    lift = lift_equilibrium(presentation, potential)
    analysis, battery = synchronized_battery(lift.downstairs, potential, tol,
                                             c_max)
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
                                      tol: float = 1e-6,
                                      c_max: int = 20) -> FiniteToOneReport:
    """Push the Gibbs-Markov measure for the pulled-back potential through a
    finite-to-one code and certify the image is Gibbs for the potential;
    the lift direction is confirmed by matching the image cylinders against
    brute-force preimage sums."""
    if not code.domain.is_irreducible():
        raise ReducibleShiftError("requires an irreducible domain")
    if not is_finite_to_one(code):
        raise NotFiniteToOneError("code is not finite-to-one")
    nu = equilibrium_upstairs(code, potential).downstairs
    analysis, battery = synchronized_battery(nu, potential, tol, c_max)
    cross_dev = 0.0
    for w, p in nu.forward_walk(CROSS_CHECK_LENGTH):
        if w:
            cross_dev = max(cross_dev, abs(p - preimage_cylinder_sum(nu, w)))
    passed = battery.passed and cross_dev < 1e-10
    return FiniteToOneReport(analysis, battery, cross_dev, passed)


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


def sunny_side_up_counterexample() -> CounterexampleReport:
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
                    for n in range(1, COUNTEREXAMPLE_COUNT_LENGTH + 1))
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
    irreducible_language = is_irreducible_sofic(presentation)
    passed = (equilibrium_ok and gibbs_ok and not irreducible_graph
              and not irreducible_language)
    return CounterexampleReport(counts_ok, growth, h, equilibrium_ok, report,
                                gibbs_ok, irreducible_graph,
                                irreducible_language, passed)
