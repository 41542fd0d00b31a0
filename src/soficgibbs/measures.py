"""Exact cylinder probabilities for Markov measures and their one-block images.

A hidden Markov measure evaluates cylinders with label-restricted transfer
operators (a forward pass of sub-transition matrices), which is exact and
linear in the word length; its level walk pushes the forward vectors of all
words of one length by every symbol in one stacked product, each row the same
double as `cylinder_prob`; a level of more than
`shifts.DEFAULT_ENUMERATION_CAP` words is refused with its word count.
Brute-force preimage enumeration is kept as an independent oracle, and
walked by levels for the finite-to-one cross-check, each sum the same double.

`equilibrium_upstairs` is the one upstairs step of every pipeline: pull a
potential back through a one-block code, take the equilibrium measure of the
pulled-back potential and push it onto the image, as one `LiftResult` that
every certificate and CLI table reads.  `lift_equilibrium` applies it to the
minimal right-resolving cover.  The module also restricts and averages
measures across cyclically moving classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .codes import (SlidingBlockCode, _extend_preimages, compose_one_block,
                    preimage_words)
from . import shifts
from .presentations import (SoficPresentation, image_presentation,
                            minimize_fischer)
from .shifts import CyclicStructure, Word, cyclic_class_shift
from .thermo import (LocallyConstantPotential, MarkovMeasure, _sum,
                     equilibrium_measure, pressure, pullback_potential,
                     reduce_to_edge_potential)


@dataclass(frozen=True)
class HiddenMarkovMeasure:
    """Image of a Markov measure under a one-block code."""

    upstairs: MarkovMeasure
    code: SlidingBlockCode

    def __post_init__(self):
        if not self.code.is_one_block:
            raise ValueError("hidden Markov measures require a one-block code")
        if self.code.domain != self.upstairs.shift:
            raise ValueError("code domain must be the shift of the measure")

    @cached_property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted({self.code.label(e.id) for e in self.code.domain.edges}))

    @cached_property
    def _sub_matrices(self) -> Mapping[str, np.ndarray]:
        shift = self.upstairs.shift
        idx = shift.vertex_index
        n = len(shift.vertices)
        mats = {s: np.zeros((n, n)) for s in self.symbols}
        for e in shift.edges:
            mats[self.code.label(e.id)][idx[e.source], idx[e.target]] += \
                self.upstairs.transitions[e.id]
        return mats

    @cached_property
    def _stationary_row(self) -> np.ndarray:
        return self.upstairs.stationary_vector()

    def cylinder_prob(self, word: Word) -> float:
        vec = self._stationary_row
        for s in word:
            mat = self._sub_matrices.get(s)
            if mat is None:
                return 0.0
            vec = vec @ mat
        return float(vec.sum())

    def in_language(self, word: Word) -> bool:
        # the upstairs measure has full support, so positivity is exact
        return self.cylinder_prob(word) > 0.0

    def words_of_length(self, n: int) -> list[Word]:
        words = [()] if n == 0 else []
        for words, _ in self.word_levels(n):
            pass
        return words

    def level_walk(self, n_max: int):
        """Cylinder probabilities of the image language, one word length at
        a time.  For n = 1..n_max it yields `(rows, probs)`: the words of
        length n in lexicographic order, each as a row index into the
        (parent, symbol) extensions of the words of length n - 1 (row i
        extends parent i // |symbols| by symbols[i % |symbols|]), and their
        probabilities.

        Each level pushes all its forward vectors by every sub-transition
        matrix in one stacked product.  Numpy evaluates it with one
        vector-matrix product per row, the call `cylinder_prob` makes, and
        sums each row as `cylinder_prob` sums its vector, so every
        probability is the same double.  A level of more than
        `shifts.DEFAULT_ENUMERATION_CAP` words raises `EnumerationCapError`
        with its word count, once its product is built; so while the level
        before it is within the cap, a product takes at most cap * |symbols|
        * states * 8 bytes."""
        mats = np.stack([self._sub_matrices[s] for s in self.symbols])
        vecs = self._stationary_row[None, :]
        for _ in range(n_max):
            pushed = (vecs[:, None, None, :] @ mats[None]).reshape(
                -1, vecs.shape[1])
            totals = pushed.sum(axis=1)
            rows = np.flatnonzero(totals > 0.0)
            shifts._check_cap(len(rows), shifts.DEFAULT_ENUMERATION_CAP)
            vecs = pushed[rows]
            yield rows, totals[rows]

    def word_levels(self, n_max: int):
        """The words of each length 1..n_max in lexicographic order with
        their cylinder probabilities, as lists, from one `level_walk`."""
        symbols = self.symbols
        k = len(symbols)
        words = [()]
        for rows, probs in self.level_walk(n_max):
            words = [words[i // k] + (symbols[i % k],) for i in rows.tolist()]
            yield words, probs.tolist()


def pushforward(measure: MarkovMeasure, code: SlidingBlockCode) -> HiddenMarkovMeasure:
    """The image measure; cylinders are evaluated by label-restricted
    transfer operators, exactly."""
    return HiddenMarkovMeasure(measure, code)


def preimage_cylinder_sum(nu: HiddenMarkovMeasure, word: Word) -> float:
    """Independent oracle: sum of upstairs cylinder probabilities over the
    enumerated preimage paths of the word."""
    return _sum(nu.upstairs.cylinder_prob(u) for u in preimage_words(nu.code, word))


def _preimage_sum_levels(nu: HiddenMarkovMeasure, n_max: int):
    """`nu.word_levels(n_max)` with each word's `preimage_cylinder_sum`, the
    same doubles: a word's preimage paths extend its prefix's, each with its
    end and running product stationary[source] * t(e1) * ... * t(en), the
    products `MarkovMeasure.cylinder_prob` takes, in `preimage_words` order."""
    mu = nu.upstairs
    extend = (lambda p, e: (mu.stationary[e.source] if p is None else p)
              * mu.transitions[e.id])
    paths = {(): [(None, None)]}
    for words, probs in nu.word_levels(n_max):
        paths = {w: _extend_preimages(nu.code, paths[w[:-1]], w[-1], extend)
                 for w in words}
        yield words, probs, [_sum(p for p, _ in paths[w]) for w in words]


@dataclass(frozen=True)
class EntropyEstimate:
    """Block entropy differences h_n = H(n) - H(n-1) and the final estimate."""

    h_sequence: tuple[float, ...]
    estimate: float


def entropy_estimate(nu: HiddenMarkovMeasure, n_max: int) -> EntropyEstimate:
    """Conditional block entropies of the image measure up to horizon n_max.

    The sequence is non-increasing and converges to the entropy of the image;
    for finite-to-one codes this equals the entropy upstairs.  Every H(n)
    comes from one level walk to n_max, summed from 0.0 in the lexicographic
    order of `words_of_length(n)`; no word is built.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    block = [0.0]
    for _, probs in nu.level_walk(n_max):
        h = 0.0
        for p in probs.tolist():
            h -= p * math.log(p)
        block.append(h)
    hs = [b - a for a, b in zip(block, block[1:])]
    return EntropyEstimate(tuple(hs), hs[-1])


@dataclass(frozen=True)
class LiftResult:
    """Equilibrium measure for a potential pulled back through the one-block
    `code`, pushed onto its image: `downstairs.upstairs` is the equilibrium
    measure of the edge potential `potential_upstairs`, and `downstairs.code`
    is `code` through the recoding conjugacy."""

    code: SlidingBlockCode
    downstairs: HiddenMarkovMeasure
    potential_upstairs: LocallyConstantPotential
    pressure_value: float

    @property
    def cover(self) -> SoficPresentation:
        """The presentation `code` labels: for `lift_equilibrium`, the cover."""
        return image_presentation(self.code)


def equilibrium_upstairs(code: SlidingBlockCode,
                         potential: LocallyConstantPotential) -> LiftResult:
    """Equilibrium measure for the potential pulled back through a one-block
    code, recoded to read a single edge, and its image; the pressure is read
    off the same Perron solve."""
    lifted = pullback_potential(code, potential)
    shift, edge_potential, decode = reduce_to_edge_potential(lifted)
    mu = equilibrium_measure(shift, edge_potential)
    return LiftResult(code,
                      HiddenMarkovMeasure(mu, compose_one_block(code, decode)),
                      edge_potential, pressure(shift, edge_potential))


def lift_equilibrium(presentation: SoficPresentation,
                     potential: LocallyConstantPotential) -> LiftResult:
    """Lift a potential on an irreducible sofic shift to its minimal
    right-resolving cover, take the equilibrium measure there, and push it
    back down."""
    return equilibrium_upstairs(minimize_fischer(presentation)[1], potential)


def _hidden(measure) -> HiddenMarkovMeasure | None:
    """A hidden Markov measure as it is, a Markov measure as its image under
    the identity code, and None for any other cylinder evaluator."""
    if isinstance(measure, HiddenMarkovMeasure):
        return measure
    if isinstance(measure, MarkovMeasure):
        return HiddenMarkovMeasure(measure, SlidingBlockCode.identity(measure.shift))
    return None


@dataclass(frozen=True)
class RestrictAverageResult:
    restricted: MarkovMeasure
    period: int
    reconstruction_max_deviation: float
    cylinders_checked: int
    full_support_matches: bool


def restrict_and_average(measure: MarkovMeasure, structure: CyclicStructure,
                         max_length: int | None = None) -> RestrictAverageResult:
    """Normalized restriction of a stationary measure to the class-0 power
    shift, with the averaging reconstruction verified on short cylinders.

    The restriction multiplies the stationary mass of class-0 vertices by the
    period p and multiplies transition probabilities along length-p paths.
    Averaging the p shifted copies of the restriction recovers the original
    measure; the check compares both sides on all cylinders up to length 4p
    (or `max_length`).
    """
    if measure.shift != structure.shift:
        raise ValueError("measure and cyclic structure disagree on the shift")
    p = structure.period
    if max_length is None:
        max_length = 4 * p
    if p == 1:
        return RestrictAverageResult(measure, 1, 0.0, 0, True)
    power0, expansion = cyclic_class_shift(structure)
    stationary0 = {v: p * measure.stationary[v] for v in power0.vertices}
    transitions0 = {}
    for e in power0.edges:
        prob = 1.0
        for eid in expansion[e.id]:
            prob *= measure.transitions[eid]
        transitions0[e.id] = prob
    restricted = MarkovMeasure(power0, stationary0, transitions0)

    # The restricted words of each length `blocks` are enumerated once; the
    # expansion of one carries a word of length n at offset j when blocks =
    # ceil((j + n) / p), and each (j, word) sum accumulates in the
    # lexicographic order of the restricted words.
    spans = {}
    for n in range(1, max_length + 1):
        for j in range(p):
            spans.setdefault(-(-(j + n) // p), []).append((j, n))
    offset_probs = {}
    for blocks, offsets in spans.items():
        for w in restricted.shift.words_of_length(blocks):
            path = tuple(sym for eid in w for sym in expansion[eid])
            prob = restricted.cylinder_prob(w)
            for j, n in offsets:
                key = (j, path[j:j + n])
                offset_probs[key] = offset_probs.get(key, 0.0) + prob

    max_dev = 0.0
    checked = 0
    for length in range(1, max_length + 1):
        for u in measure.shift.words_of_length(length):
            lhs = measure.cylinder_prob(u)
            rhs = _sum(offset_probs.get((j, u), 0.0) for j in range(p)) / p
            max_dev = max(max_dev, abs(lhs - rhs))
            checked += 1
    support = (all(v > 0 for v in measure.transitions.values())
               == all(v > 0 for v in restricted.transitions.values()))
    return RestrictAverageResult(restricted, p, max_dev, checked, support)
