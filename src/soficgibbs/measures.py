"""Exact cylinder probabilities for Markov measures and their one-block images.

A hidden Markov measure evaluates cylinders with label-restricted transfer
operators (a forward pass of sub-transition matrices), which is exact and
linear in the word length; brute-force preimage enumeration is kept alongside
as an independent oracle.

`equilibrium_upstairs` is the one upstairs step of every pipeline: pull a
potential back through a one-block code, take the equilibrium measure of the
pulled-back potential, and return the code that pushes it onto the image.
`lift_equilibrium` applies it to the minimal right-resolving cover; the
variational pressure certificate on the image is computed by
`gibbs.verify_sofic_dobrushin`, its only verdict.  The module also restricts
and averages measures across cyclically moving classes and handles
finite-horizon empirical measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .codes import (SlidingBlockCode, compose_one_block, preimage_words,
                    pullback_potential)
from .errors import EnumerationCapError, NotInLanguageError
from .presentations import SoficPresentation, minimize_fischer
from .shifts import CyclicStructure, Word, cyclic_class_shift
from .thermo import (LocallyConstantPotential, MarkovMeasure,
                     equilibrium_measure, entropy, pressure,
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

    def words_of_length(self, n: int, cap: int = 500_000) -> list[Word]:
        if n == 0:
            return [()]
        out = []
        stack = [((), self._stationary_row)]
        while stack:
            word, vec = stack.pop()
            if len(word) == n:
                out.append(word)
                continue
            for s in reversed(self.symbols):
                nxt = vec @ self._sub_matrices[s]
                if nxt.sum() > 0.0:
                    stack.append((word + (s,), nxt))
            if len(out) > cap:
                raise EnumerationCapError(len(out), cap)
        return sorted(out)


def pushforward(measure: MarkovMeasure, code: SlidingBlockCode) -> HiddenMarkovMeasure:
    """The image measure; cylinders are evaluated by label-restricted
    transfer operators, exactly."""
    return HiddenMarkovMeasure(measure, code)


def preimage_cylinder_sum(nu: HiddenMarkovMeasure, word: Word) -> float:
    """Independent oracle: sum of upstairs cylinder probabilities over the
    enumerated preimage paths of the word."""
    return sum(nu.upstairs.cylinder_prob(u) for u in preimage_words(nu.code, word))


@dataclass(frozen=True)
class EntropyEstimate:
    """Block entropy differences h_n = H(n) - H(n-1) and the final estimate."""

    h_sequence: tuple[float, ...]
    estimate: float


def entropy_estimate(nu: HiddenMarkovMeasure, n_max: int) -> EntropyEstimate:
    """Conditional block entropies of the image measure up to horizon n_max.

    The sequence is non-increasing and converges to the entropy of the image;
    for finite-to-one codes this equals the entropy upstairs.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    h_prev = 0.0
    hs = []
    for n in range(1, n_max + 1):
        h_n = 0.0
        for w in nu.words_of_length(n):
            p = nu.cylinder_prob(w)
            if p > 0.0:
                h_n -= p * math.log(p)
        hs.append(h_n - h_prev)
        h_prev = h_n
    return EntropyEstimate(tuple(hs), hs[-1])


def equilibrium_upstairs(code: SlidingBlockCode,
                         potential: LocallyConstantPotential):
    """Equilibrium measure for the potential pulled back through a one-block
    code, with the one-block code pushing it onto the image.

    The pulled-back potential is recoded to read a single edge; returns the
    Markov measure on the recoded shift, the edge potential there, and the
    code through the recoding conjugacy (the code itself for window-1
    potentials).
    """
    lifted = pullback_potential(code, potential)
    shift, edge_potential, decode = reduce_to_edge_potential(lifted)
    mu = equilibrium_measure(shift, edge_potential)
    return mu, edge_potential, compose_one_block(code, decode)


@dataclass(frozen=True)
class LiftResult:
    """Equilibrium measure upstairs on the minimal right-resolving cover and
    its image downstairs; `potential_upstairs` is the edge potential on the
    shift of `upstairs` whose equilibrium measure it is."""

    cover: SoficPresentation
    cover_code: SlidingBlockCode
    upstairs: MarkovMeasure
    downstairs: HiddenMarkovMeasure
    potential_upstairs: LocallyConstantPotential
    pressure_value: float
    entropy_upstairs: float


def lift_equilibrium(presentation: SoficPresentation,
                     potential: LocallyConstantPotential) -> LiftResult:
    """Lift a potential on an irreducible sofic shift to its minimal
    right-resolving cover, take the equilibrium measure there, and push it
    back down."""
    fischer, cover_code = minimize_fischer(presentation)
    mu, edge_potential, push_code = equilibrium_upstairs(cover_code, potential)
    return LiftResult(fischer, cover_code, mu, HiddenMarkovMeasure(mu, push_code),
                      edge_potential, pressure(mu.shift, edge_potential),
                      entropy(mu))


def sofic_pressure(presentation: SoficPresentation,
                   potential: LocallyConstantPotential) -> float:
    """Pressure of a potential on an irreducible sofic shift, computed on the
    minimal right-resolving cover (lifting preserves pressure)."""
    _, cover_code = minimize_fischer(presentation)
    lifted = pullback_potential(cover_code, potential)
    return pressure(cover_code.domain, lifted)


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
    power0, expansion = cyclic_class_shift(structure, 0)
    stationary0 = {v: p * measure.stationary[v] for v in power0.vertices}
    transitions0 = {}
    for e in power0.edges:
        prob = 1.0
        for eid in expansion[e.id]:
            prob *= measure.transitions[eid]
        transitions0[e.id] = prob
    restricted = MarkovMeasure(power0, stationary0, transitions0)

    max_dev = 0.0
    checked = 0
    for length in range(1, max_length + 1):
        for u in measure.shift.words_of_length(length):
            lhs = measure.cylinder_prob(u)
            rhs = sum(_offset_restricted_prob(restricted, expansion, u, j)
                      for j in range(p)) / p
            max_dev = max(max_dev, abs(lhs - rhs))
            checked += 1
    support = (all(v > 0 for v in measure.transitions.values())
               == all(v > 0 for v in restricted.transitions.values()))
    return RestrictAverageResult(restricted, p, max_dev, checked, support)


def _offset_restricted_prob(restricted: MarkovMeasure, expansion, word: Word,
                            offset: int) -> float:
    """Probability, under the restricted power-shift measure, that the
    expanded trajectory carries `word` starting at coordinate `offset`."""
    p = len(next(iter(expansion.values())))
    blocks = -(-(offset + len(word)) // p)
    total = 0.0
    for w in restricted.shift.words_of_length(blocks):
        path = tuple(sym for eid in w for sym in expansion[eid])
        if path[offset:offset + len(word)] == tuple(word):
            total += restricted.cylinder_prob(w)
    return total


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Cylinder frequencies read off a single finite word."""

    word: Word

    def frequency(self, sub: Word) -> float:
        sub = tuple(sub)
        n = len(self.word) - len(sub) + 1
        if n <= 0 or not sub:
            return 0.0
        hits = sum(1 for i in range(n) if self.word[i:i + len(sub)] == sub)
        return hits / n


def empirical_measure(word: Word) -> EmpiricalMeasure:
    return EmpiricalMeasure(tuple(word))


def lift_empirical(y_prefix: Word, code: SlidingBlockCode) -> Word:
    """Lexicographically least preimage word of an image word under a
    one-block code; its empirical measure pushes forward to the empirical
    measure of the image word."""
    if not code.is_one_block:
        raise ValueError("lifting requires a one-block code")
    shift = code.domain
    word = tuple(y_prefix)
    by_label = {}
    for e in shift.edges:
        by_label.setdefault(code.label(e.id), []).append(e)
    # backward viability sets
    viable = [set(shift.vertices)]
    for s in reversed(word):
        cur = viable[-1]
        viable.append({e.source for e in by_label.get(s, ()) if e.target in cur})
    viable.reverse()
    lifted = []
    at = None
    for j, s in enumerate(word):
        options = [e for e in by_label.get(s, ())
                   if (at is None or e.source == at) and e.target in viable[j + 1]]
        if not options:
            raise NotInLanguageError(f"{word!r} has no preimage path")
        e = min(options, key=lambda e: e.id)
        lifted.append(e.id)
        at = e.target
    return tuple(lifted)
