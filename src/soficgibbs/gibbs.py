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
state vectors, rounded to 13 digits, equal boundary windows, and equal
synchronization status.  Each rounded vector has one canonical vector, the
first that reached it in the battery, and the deviation of a class is read
off that vector, so the maximum over classes equals the maximum over all
contexts up to the 1e-13 rounding of the class key.  The classes do not
depend on the exchanged pair: one engine serves `gibbs_ratio_test` and
`run_ratio_battery`.  Each battery pushes its context levels forward once,
one symbol per level, and each tested length reads a snapshot shared by every
pair still live; a level of more than `shifts.DEFAULT_ENUMERATION_CAP`
classes, or more than `CLASS_PAIR_CAP` (left, right) class pairs evaluated in
one battery, raises `EnumerationCapError` with the classes of that level or
the class pairs evaluated by then; the limits below are module constants
too, read when called.  A battery tests at most `PAIR_CAP` exchangeable pairs
of words of length up to `PAIR_WORD_LENGTH`.  A pair is skipped at the first
length without a valid exchange context, and the levels stop once no pair is
live.

A battery computes each value once, keyed on its exact inputs, since a
recompute would be the same numpy call on the same bytes: the level cells
carry the ids of canonical vectors, each (side, vector id) is pushed by every
symbol in one stacked product per level, each word matrix is built once, and
the boundary and sync steps, left products, dots and window deltas are
`functools.cache` closures that live as long as the battery.  Each pair's
worst deviation and its valid (left, right) class pairs are memoized on the
length's synchronized (vector id, boundary) lists: once those repeat, a
tested length only re-sums its exact integer context counts.  A stacked
product of vectors, `(k, 1, 1, n) @ (1, S, n, n)` or `(1, S, n, n) @ (k, 1,
n, 1)`, is one gemv per row and bit-identical to the 1-D `vec @ mat` or
`mat @ vec`; a matrix-matrix product such as `L @ T_u @ R.T` (one BLAS gemm)
rounds differently, so it is not used.

The pipelines read one `measures.LiftResult`, the equilibrium measure
upstairs pushed down.  The Gibbs verdicts (Lanford-Ruelle, finite-to-one)
run `synchronized_battery` on the image, which also analyzes its push code;
the finite-to-one verdict also matches every image cylinder up to
`CROSS_CHECK_LENGTH` against its preimage sum, from one level walk of both;
the Dobrushin verdict holds the variational pressure certificate, its
integral read off the last level of the image's word walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import Sequence

import numpy as np

from .codes import (CodeAnalysis, SlidingBlockCode, analyze_code,
                    is_finite_to_one)
from . import shifts
from .errors import (InsufficientContextError, NoExchangeableContextError,
                     NotFiniteToOneError, NotInLanguageError)
from .measures import (HiddenMarkovMeasure, LiftResult, _hidden,
                       _preimage_sum_levels, entropy_estimate,
                       equilibrium_upstairs, lift_equilibrium)
from .presentations import (LabeledEdge, SoficPresentation,
                            is_irreducible_sofic)
from .shifts import Word
from .thermo import LocallyConstantPotential, _sum

PAIR_CAP = 200  # most exchangeable word pairs one battery tests
PAIR_WORD_LENGTH = 3  # longest exchanged word of a battery
# most (left, right) class pairs one battery evaluates afresh: a pair's
# deviation read again from its memo does not count
CLASS_PAIR_CAP = 200_000
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


class _ContextLevels:
    """Left and right context classes of a hidden Markov measure, one sorted
    level per context length, each pushed one symbol from the level before.

    A left class is keyed by its normalized forward vector (the stationary
    row pushed through the context's sub-transition matrices) rounded to 13
    digits, its last boundary_len symbols and its progress through the sync
    word; a level holds ((vector id, boundary, sync state), number of
    contexts) cells, sorted.  Right classes are symmetric with backward
    vectors.

    Every vector is interned by the bytes of its rounded key, shared by both
    sides: the first vector that reaches a key is that key's one vector for
    the whole battery, so a class read at two lengths carries one id.  Each
    (side, vector id) is pushed once per battery: a level's new vectors go
    through every sub-transition matrix in one stacked product, `(k, 1, 1,
    n) @ (1, S, n, n)` on the left and `(1, S, n, n) @ (k, 1, n, 1)` on the
    right.  Numpy evaluates each of its rows with one gemv, the call of
    `vec @ mats[s]` or `mats[s] @ vec`, so every row is the same double;
    rows are summed, normalized and rounded as one array.  The boundary and
    sync steps of each (boundary, sync state) are cached for the life of the
    levels."""

    def __init__(self, nu: HiddenMarkovMeasure, boundary_len: int,
                 sync_word: Word | None):
        b = boundary_len
        self.mats = np.stack([nu._sub_matrices[s] for s in nu.symbols])
        self.length = 0
        pattern = tuple(sync_word) if sync_word else ()
        self.synced = len(pattern)
        # right contexts are built from the far end inward, so the word is
        # reversed: boundary tracks the eventual first symbols, and
        # containment is matched against the reversed pattern
        self.steps = (
            cache(lambda bnd, st: tuple(
                ((bnd + (s,))[-b:] if b else (), _sync_step(pattern, st, s))
                for s in nu.symbols)),
            cache(lambda bnd, st: tuple(
                (((s,) + bnd)[:b] if b else (),
                 _sync_step(pattern[::-1], st, s))
                for s in nu.symbols)))
        self.ids, self.vectors = {}, []
        self.successors = ({}, {})
        starts = np.stack([nu._stationary_row,
                           np.ones(len(nu.upstairs.shift.vertices))])
        self.levels = tuple([((vid, (), 0), 1)]
                            for vid in self._normalized(starts))

    def _normalized(self, vecs):
        """The vector id of each row over its sum; None for a row without
        mass."""
        totals = vecs.sum(axis=1)
        live = totals > 0.0
        normed = vecs[live] / totals[live, None]
        width = 8 * vecs.shape[1]
        keys = normed.round(13).tobytes()
        out = [None] * len(vecs)
        for j, row in enumerate(np.flatnonzero(live).tolist()):
            vid = self.ids.setdefault(keys[j * width:(j + 1) * width],
                                      len(self.ids))
            if vid == len(self.vectors):
                self.vectors.append(normed[j])
            out[row] = vid
        return out

    def advance(self):
        """Push both sides one symbol further."""
        self.levels = tuple(self._push(side, level)
                            for side, level in enumerate(self.levels))
        self.length += 1

    def _push(self, side, level):
        successors, steps = self.successors[side], self.steps[side]
        fresh = [vid for vid in dict.fromkeys(vid for (vid, _, _), _ in level)
                 if vid not in successors]
        if fresh:
            vecs = np.array([self.vectors[vid] for vid in fresh])
            pushed = (vecs[:, None, None, :] @ self.mats[None] if side == 0
                      else self.mats[None] @ vecs[:, None, :, None])
            rows = self._normalized(pushed.reshape(-1, vecs.shape[1]))
            n_sym = len(self.mats)
            for i, vid in enumerate(fresh):
                successors[vid] = rows[i * n_sym:(i + 1) * n_sym]
        nxt = {}
        for (vid, bnd, st), count in level:
            for pushed, step in zip(successors[vid], steps(bnd, st)):
                if pushed is not None:
                    key = (pushed, *step)
                    nxt[key] = nxt.get(key, 0) + count
        shifts._check_cap(len(nxt), shifts.DEFAULT_ENUMERATION_CAP)
        return sorted(nxt.items())


def _context_classes(levels: _ContextLevels, length: int):
    """Synchronized left and right classes of one context length, as lists
    of (vector id, boundary, count) in level order: the levels are pushed up
    to that length and read."""
    while levels.length < length:
        levels.advance()
    return tuple([(vid, bnd, count) for (vid, bnd, st), count in level
                  if st == levels.synced]
                 for level in levels.levels)


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
        products = cache(lambda w, lid: levels.vectors[lid] @ mats[w])
        dots = cache(lambda w, lid, rid: float(products(w, lid)
                                               @ levels.vectors[rid]))
        deltas = cache(lambda pair, lbnd, rbnd: _window_delta(
            potential, lbnd, *pair, rbnd))
        # per synced (vector id, boundary) lists: pair index -> (worst
        # deviation, valid class index pairs)
        deviations = {}
        evaluated = 0
    found = [[] for _ in pairs]
    dropped_at = [None] * len(pairs)
    live = range(len(pairs))
    for c in lengths:
        if not live:
            break
        if hidden is not None:
            lefts, rights = _context_classes(levels, c)
            classes = tuple(tuple((vid, bnd) for vid, bnd, _ in side)
                            for side in (lefts, rights))
            memo = deviations.setdefault(classes, {})
            results = []
            for i in live:
                if i not in memo:
                    evaluated += len(lefts) * len(rights)
                    shifts._check_cap(evaluated, CLASS_PAIR_CAP)
                    memo[i] = _max_deviation_hidden(pairs[i], *classes, mats,
                                                    dots, deltas)
                worst, valid = memo[i]
                results.append((worst, sum(lefts[a][2] * rights[b][2]
                                           for a, b in valid)))
        else:
            # containment of the sync word, by the automaton of the levels
            words = [w for w in measure.words_of_length(c) if not sync
                     or reduce(partial(_sync_step, sync), w, 0) == len(sync)]
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
    """Worst deviation of a pair over classes given as (vector id, boundary),
    and the (left, right) index pairs that are valid exchange contexts,
    reading the battery's word matrices, dots and window deltas."""
    u, v = pair
    if mats[u] is None or mats[v] is None:
        return 0.0, ()
    worst, valid = 0.0, []
    for a, (lid, lbnd) in enumerate(lefts):
        for b, (rid, rbnd) in enumerate(rights):
            num, den = dots(u, lid, rid), dots(v, lid, rid)
            # positive mass is equivalent to language membership here (the
            # upstairs measure has full support), so a context is a valid
            # exchange exactly when both sides carry mass
            if num <= 0.0 or den <= 0.0:
                continue
            valid.append((a, b))
            delta = deltas(pair, lbnd, rbnd)
            worst = max(worst, abs(math.log(num) - math.log(den) - delta))
    return worst, valid


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


def exchangeable_pairs(language_words):
    """Candidate equal-length word pairs of length up to PAIR_WORD_LENGTH,
    lexicographic, at most PAIR_CAP."""
    pairs = []
    for length in range(1, PAIR_WORD_LENGTH + 1):
        words = language_words(length)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                pairs.append((a, b))
                if len(pairs) >= PAIR_CAP:
                    return pairs
    return pairs


def run_ratio_battery(measure, potential, context_lengths, tol,
                      synchronizing_word=None) -> RatioBattery:
    """Ratio tests over an enumerated battery of exchangeable word pairs;
    a pair with no valid exchange context at some tested length is skipped."""
    pairs = exchangeable_pairs(measure.words_of_length)
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
    for words, probs in nu.word_levels(potential.k):
        pass
    integral = _sum(p * potential.value(w) for w, p in zip(words, probs))
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
    if not is_finite_to_one(code):
        raise NotFiniteToOneError("code is not finite-to-one")
    nu = equilibrium_upstairs(code, potential).downstairs
    analysis, battery = synchronized_battery(nu, potential, tol, c_max)
    cross_dev = 0.0
    for _, probs, sums in _preimage_sum_levels(nu, CROSS_CHECK_LENGTH):
        for p, q in zip(probs, sums):
            cross_dev = max(cross_dev, abs(p - q))
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
        nu.words_of_length(n) == words
        for n, words in enumerate(presentation.word_levels(12), start=1))
    # block entropies of the point mass vanish at every horizon
    h = 0.0
    for w in nu.words_of_length(8):
        p = nu.cylinder_prob(w)
        if p > 0:
            h -= p * math.log(p)
    equilibrium_ok = counts_ok and h == 0.0
    potential = LocallyConstantPotential(
        presentation, 1, {("0",): 0.0, ("1",): 0.0})
    report = gibbs_ratio_test(nu, potential, ("1",), ("0",),
                              list(range(1, 7)), 1e-6)
    gibbs_ok = (not report.passed) and math.isinf(report.final_deviation)
    irreducible_graph = presentation.is_irreducible_graph()
    irreducible_language = is_irreducible_sofic(presentation)
    passed = (equilibrium_ok and gibbs_ok and not irreducible_graph
              and not irreducible_language)
    return CounterexampleReport(counts_ok, h, equilibrium_ok, report,
                                gibbs_ok, irreducible_graph,
                                irreducible_language, passed)
