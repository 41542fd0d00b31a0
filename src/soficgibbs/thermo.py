"""Thermodynamic formalism for locally constant potentials on edge shifts.

Potentials read a fixed window of coordinates, anchored at [0, k-1].
Variations are taken with respect to symmetric windows [-j, j] by embedding
the anchored table, so v_j vanishes for j >= k-1 and the summable-variation
norm is a finite sum.  Pressure and the unique equilibrium (Gibbs-Markov)
measure come from Perron data of the weighted transfer matrix; power
iteration runs on M + I so periodic matrices converge too, within the limits
`PERRON_TOL` and `PERRON_MAX_ITER`, read when called.  Potentials on an image
pull back through a one-block code.  A brute-force periodic-point oracle
provides an independent route to the same pressure.

The periodic certificate walks the cylinders of the class-0 power shift level
by level over numpy arrays.  Each element takes the same correctly rounded
IEEE products, in the same order, as a word-by-word walk on Python floats,
and a maximum does not depend on the visiting order, so the report is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import shifts
from .codes import SlidingBlockCode, _require_one_block, higher_block_shift
from .errors import (ConvergenceError, EmptyShiftError, EnumerationCapError,
                     ReducibleShiftError, SoficGibbsError)
from .shifts import (PATH_SEP, CyclicStructure, EdgeShift, Word,
                     cyclic_class_shift, cyclic_structure, missing_word)

PERRON_TOL = 1e-13
PERRON_MAX_ITER = 10 ** 6


@dataclass(frozen=True)
class LocallyConstantPotential:
    """A real table over the length-k words of a shift; f(x) = table[x_[0,k-1]].

    The shift may be an EdgeShift (words of edge ids) or a SoficPresentation
    (words of labels); both expose the same language interface.  Keys
    outside the language are accepted; on an EdgeShift the table is checked
    to cover the language by counting, without enumerating it.
    """

    shift: object
    k: int
    table: Mapping[Word, float]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("window length must be positive")
        table = {tuple(w): float(v) for w, v in self.table.items()}
        if not all(map(math.isfinite, table.values())):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "table", table)
        missing = missing_word(self.shift, table, self.k)
        if missing is not None:
            raise ValueError(f"potential table missing word {missing!r}")

    @classmethod
    def zero(cls, shift) -> "LocallyConstantPotential":
        if not shift.edges:
            raise EmptyShiftError("the zero potential requires a shift with an edge")
        return cls(shift, 1, {w: 0.0 for w in shift.words_of_length(1)})

    def value(self, window: Word) -> float:
        return self.table[tuple(window)]

    def word_sum(self, word: Word) -> float:
        """Sum of the potential over all windows of a word (length >= k)."""
        word = tuple(word)
        return sum(self.table[word[i:i + self.k]] for i in range(len(word) - self.k + 1))


def variation(potential: LocallyConstantPotential, j: int) -> float:
    """The j-th variation; j = -1 gives the sup norm."""
    if j < -1:
        raise ValueError("variation index must be >= -1")
    values = potential.table
    if j == -1:
        return max((abs(v) for v in values.values()), default=0.0)
    k = potential.k
    if j >= k - 1:
        return 0.0
    # words of length j+k stand for the coordinates [-j, k-1]; two points
    # agreeing on [-j, j] share the prefix of length 2j+1
    padded = potential.shift.words_of_length(j + k)
    groups = {}
    for w in padded:
        groups.setdefault(w[:2 * j + 1], []).append(values[w[j:]])
    best = 0.0
    for vals in groups.values():
        if len(vals) > 1:
            best = max(best, max(vals) - min(vals))
    return best


def sv_norm(potential: LocallyConstantPotential) -> float:
    """Sup norm plus the sum of all variations (finite for locally constant f)."""
    return variation(potential, -1) + sum(
        variation(potential, j) for j in range(potential.k - 1))


def pullback_potential(code: SlidingBlockCode, potential):
    """Compose a locally constant potential on the image with the code.

    The result reads domain words of the same window length; its summable
    variation norm never exceeds that of the original potential.
    """
    _require_one_block(code)
    k = potential.k
    table = {}
    for w in code.domain.words_of_length(k):
        image = tuple(code.label(s) for s in w)
        table[w] = potential.value(image)
    return LocallyConstantPotential(code.domain, k, table)


def reduce_to_edge_potential(potential: LocallyConstantPotential):
    """Recode the shift so the potential reads a single edge.

    Returns the recoded shift, the window-1 potential on it, and the
    one-block conjugacy back to the original shift; pressure and equilibrium
    measures are preserved under the conjugacy.
    """
    shift = potential.shift
    if not isinstance(shift, EdgeShift):
        raise TypeError("reduction requires a potential on an edge shift")
    if potential.k == 1:
        return shift, potential, SlidingBlockCode.identity(shift)
    paths = []
    recoded, decode = higher_block_shift(shift, potential.k, paths)
    # the edges of the recoded shift are the length-k paths, each a key of
    # the table by the constructor's check; distinct paths have distinct ids
    table = {(PATH_SEP.join(w),): potential.table[w] for w in paths}
    return recoded, LocallyConstantPotential(recoded, 1, table), decode


@dataclass(frozen=True, eq=False)
class PerronData:
    """Dominant eigendata of a nonnegative irreducible matrix, normalized so
    that left . right = 1."""

    eigenvalue: float
    left: np.ndarray
    right: np.ndarray
    residual: float


def _matrix_irreducible(m: np.ndarray) -> bool:
    """Strong connectivity of the support graph; a matrix with no positive
    entry (the 1x1 zero matrix included) has no cycle and is reducible."""
    n = m.shape[0]
    rows, cols = np.nonzero(m > 0)
    if not rows.size:
        return False
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        succ[i].append(j)
        pred[j].append(i)
    for adj in (succ, pred):
        seen = [True] + [False] * (n - 1)
        todo = [0]
        while todo:
            for j in adj[todo.pop()]:
                if not seen[j]:
                    seen[j] = True
                    todo.append(j)
        if not all(seen):
            return False
    return True


def perron(m: np.ndarray) -> PerronData:
    """Perron eigendata by power iteration on M + I.

    The shift makes the iteration matrix primitive whenever M is irreducible;
    the eigenvalue is shifted back by one.  Iteration stops when successive
    eigenvalue estimates differ by less than tol and the residual
    ||M r - lambda r||_inf is below tol * ||r||_inf, where tol is PERRON_TOL
    raised to the rounding floor 8 eps ||M||_inf >= 4 eps (||M||_inf + lambda)
    when that is larger: near a lambda of a few hundred the estimates keep
    moving by an ulp or two, so an absolute tol alone is never met.  It
    gives up after PERRON_MAX_ITER steps.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if (m < 0).any():
        raise ValueError("matrix must be nonnegative")
    if not _matrix_irreducible(m):
        raise ReducibleShiftError("matrix is not irreducible")

    def residual_of(x, lam):
        return float(np.max(np.abs(m @ x - lam * x)))

    def dominant(mat, a):
        # mat is nonnegative, so its largest row sum is ||mat||_inf
        bound = max(PERRON_TOL, 8 * np.finfo(float).eps * float(mat.sum(axis=1).max()))
        x = np.ones(a.shape[0]) / a.shape[0]
        lam = None
        for _ in range(PERRON_MAX_ITER):
            y = a @ x
            lam_new = y.sum()  # x sums to 1, so this is the Rayleigh-type estimate
            x_new = y / lam_new
            if lam is not None and abs(lam_new - lam) < bound:
                res = float(np.max(np.abs(mat @ x_new - (lam_new - 1.0) * x_new)))
                if res < bound * float(np.max(np.abs(x_new))):
                    return lam_new - 1.0, x_new
            lam, x = lam_new, x_new
        res = float(np.max(np.abs(mat @ x - (lam - 1.0) * x)))
        raise ConvergenceError(
            f"power iteration did not converge within {PERRON_MAX_ITER} iterations "
            f"(residual {res:.3e})", residual=res)

    shifted = m + np.eye(m.shape[0])
    lam_r, right = dominant(m, shifted)
    lam_l, left = dominant(m.T, shifted.T)
    lam = 0.5 * (lam_r + lam_l)
    right = right / right.sum()
    left = left / float(left @ right)
    residual = max(residual_of(right, lam),
                   float(np.max(np.abs(m.T @ left - lam * left))))
    return PerronData(float(lam), left, right, residual)


def transfer_matrix(shift: EdgeShift, potential: LocallyConstantPotential) -> np.ndarray:
    """M[i, j] = sum over edges i -> j of exp(f(edge)); an exp beyond the
    largest double raises SoficGibbsError naming its edge."""
    _require_edge_potential(shift, potential)
    n = len(shift.vertices)
    idx = shift.vertex_index
    m = np.zeros((n, n))
    for e in shift.edges:
        try:
            m[idx[e.source], idx[e.target]] += math.exp(potential.value((e.id,)))
        except OverflowError:
            raise SoficGibbsError(
                f"exp of the potential on edge {e.id!r} overflows a double")
    return m


def _require_same_shift(shift, potential):
    if potential.shift is not shift and potential.shift != shift:
        raise ValueError("potential is defined on a different shift")


def _require_edge_potential(shift, potential):
    _require_same_shift(shift, potential)
    if potential.k != 1:
        raise ValueError("edge potential (window 1) required; reduce first")


def pressure(shift: EdgeShift, potential: LocallyConstantPotential) -> float:
    """Topological pressure of a locally constant potential: log of the
    Perron eigenvalue of the transfer matrix.  Potentials with window > 1
    are recoded to edge potentials first (pressure is conjugacy-invariant)."""
    _require_same_shift(shift, potential)
    if potential.k > 1:
        shift, potential, _ = reduce_to_edge_potential(potential)
    return math.log(perron(transfer_matrix(shift, potential)).eigenvalue)


@dataclass(frozen=True)
class MarkovMeasure:
    """A stationary Markov measure supported on exactly the edges of a shift."""

    shift: EdgeShift
    stationary: Mapping[str, float]
    transitions: Mapping[str, float]

    TOL = 1e-12

    def __post_init__(self):
        stationary = {str(v): float(p) for v, p in self.stationary.items()}
        transitions = {str(e): float(p) for e, p in self.transitions.items()}
        object.__setattr__(self, "stationary", stationary)
        object.__setattr__(self, "transitions", transitions)
        if set(stationary) != set(self.shift.vertices):
            raise ValueError("stationary vector must be indexed by the vertices")
        if set(transitions) != {e.id for e in self.shift.edges}:
            raise ValueError("transition probabilities must be indexed by the edges")
        if any(p <= 0 for p in transitions.values()):
            raise ValueError("support must be exactly the edge set")
        if any(p < 0 for p in stationary.values()):
            raise ValueError("stationary vector must be nonnegative")
        if abs(sum(stationary.values()) - 1.0) > self.TOL:
            raise ValueError("stationary vector must sum to 1")
        for v in self.shift.vertices:
            row = sum(transitions[e.id] for e in self.shift.out_edges(v))
            if abs(row - 1.0) > self.TOL:
                raise ValueError(f"outgoing probabilities at {v!r} sum to {row}, not 1")
        for v in self.shift.vertices:
            inflow = sum(stationary[e.source] * transitions[e.id]
                         for e in self.shift.in_edges(v))
            if abs(inflow - stationary[v]) > self.TOL:
                raise ValueError("vector is not stationary for the transitions")

    def cylinder_prob(self, word: Word) -> float:
        """Exact probability of the cylinder on a word of edge ids."""
        word = tuple(word)
        if not word:
            return 1.0
        ends = self.shift.path_endpoints(word)
        if ends is None:
            return 0.0
        p = self.stationary[ends[0]]
        for eid in word:
            p *= self.transitions[eid]
        return p

    def in_language(self, word: Word) -> bool:
        return self.shift.in_language(word)

    def words_of_length(self, n: int) -> list[Word]:
        return self.shift.words_of_length(n)

    def stationary_vector(self) -> np.ndarray:
        return np.array([self.stationary[v] for v in self.shift.vertices])


def equilibrium_measure(shift: EdgeShift,
                        potential: LocallyConstantPotential) -> MarkovMeasure:
    """The unique equilibrium = Gibbs-Markov measure of an edge potential on
    an irreducible shift: P(e: i->j) = exp(f(e)) r_j / (lambda r_i), with
    stationary vector l_i r_i."""
    return _equilibrium(shift, potential)[0]


def _equilibrium(shift, potential):
    """The equilibrium measure and the pressure log(lambda), from one Perron
    solve: the same value `pressure` returns."""
    _require_edge_potential(shift, potential)
    data = perron(transfer_matrix(shift, potential))
    idx = shift.vertex_index
    transitions = {}
    for v in shift.vertices:
        weights = {
            e.id: math.exp(potential.value((e.id,))) * data.right[idx[e.target]]
            for e in shift.out_edges(v)
        }
        total = sum(weights.values())
        for eid, w in weights.items():
            transitions[eid] = w / total
    stationary = _polished_stationary(shift, transitions,
                                      data.left * data.right)
    return (MarkovMeasure(shift, stationary, transitions),
            math.log(data.eigenvalue))


def _polished_stationary(shift, transitions, seed):
    """Refine a positive seed to the stationary vector, to near machine
    precision, by iterating the aperiodic half-step chain (T + I)/2."""
    n = len(shift.vertices)
    idx = shift.vertex_index
    t = np.zeros((n, n))
    for e in shift.edges:
        t[idx[e.source], idx[e.target]] += transitions[e.id]
    half = 0.5 * (t + np.eye(n))
    x = seed / seed.sum()
    for _ in range(100_000):
        y = x @ half
        y /= y.sum()
        done = np.max(np.abs(y - x)) < 1e-15
        x = y
        if done:
            break
    return {v: float(x[idx[v]]) for v in shift.vertices}


def entropy(measure: MarkovMeasure) -> float:
    """Entropy rate of the stationary Markov chain."""
    h = 0.0
    for v in measure.shift.vertices:
        acc = 0.0
        for e in measure.shift.out_edges(v):
            p = measure.transitions[e.id]
            acc -= p * math.log(p)
        h += measure.stationary[v] * acc
    return h


def integrate(potential: LocallyConstantPotential, measure: MarkovMeasure) -> float:
    """Exact integral of a locally constant potential: sum over length-k
    cylinders of probability times table value."""
    if potential.shift != measure.shift:
        raise ValueError("potential and measure live on different shifts")
    return sum(measure.cylinder_prob(w) * potential.value(w)
               for w in measure.shift.words_of_length(potential.k))


def period_sum_potential(potential: LocallyConstantPotential,
                         structure: CyclicStructure) -> LocallyConstantPotential:
    """The return-map potential on the class-0 power shift: the original
    potential summed over one full period of consecutive coordinates.

    For period 1 the potential is returned unchanged.
    """
    p = structure.period
    if potential.shift != structure.shift:
        raise ValueError("potential and cyclic structure disagree on the shift")
    if p == 1:
        return potential
    k = potential.k
    power0, expansion = cyclic_class_shift(structure, 0)
    m = 1 + (k - 1 + p - 1) // p  # smallest m with m*p >= p + k - 1
    table = {}
    for w in power0.words_of_length(m):
        path = tuple(sym for eid in w for sym in expansion[eid])
        table[w] = sum(potential.value(path[j:j + k]) for j in range(p))
    return LocallyConstantPotential(power0, m, table)


def pressure_periodic_oracle(shift: EdgeShift, potential: LocallyConstantPotential,
                             n: int) -> float:
    """(1/n) log of the exp-weighted count of closed paths of length n,
    computed as the trace of the n-th transfer matrix power with per-step
    scaling in log space.  Returns -inf when no closed path of length n
    exists.  Converges to the pressure for irreducible aperiodic shifts."""
    if n < 1:
        raise ValueError("n must be positive")
    _require_same_shift(shift, potential)
    if potential.k > 1:
        shift, potential, _ = reduce_to_edge_potential(potential)
    m = transfer_matrix(shift, potential)
    power = np.eye(m.shape[0])
    logscale = 0.0
    for _ in range(n):
        power = m @ power
        top = power.max()
        if top <= 0:
            return float("-inf")
        power /= top
        logscale += math.log(top)
    trace = float(np.trace(power))
    if trace <= 0:
        return float("-inf")
    return (logscale + math.log(trace)) / n


@dataclass(frozen=True)
class CyclicPressureReport:
    period: int
    pressure_full: float
    pressure_class0: float
    identity_deviation: float
    cylinder_max_deviation: float
    cylinders_checked: int
    full_support_both: bool
    passed: bool


def cyclic_pressure_check(shift: EdgeShift, potential: LocallyConstantPotential,
                          cylinder_length: int = 4,
                          tol: float = 1e-10) -> CyclicPressureReport:
    """Certify the pressure decomposition across cyclically moving classes.

    Checks that the pressure of the potential equals 1/p times the pressure
    of the period sum on the class-0 power shift, and that the equilibrium
    measure upstairs restricts (normalized by p) to the equilibrium measure
    of the period sum, on short cylinders.
    """
    _require_same_shift(shift, potential)
    if potential.k > 1:
        shift, potential, _ = reduce_to_edge_potential(potential)
    structure = cyclic_structure(shift)
    p = structure.period
    if p == 1:
        p_full = pressure(shift, potential)
        return CyclicPressureReport(1, p_full, p_full, 0.0, 0.0, 0, True, True)
    mu, p_full = _equilibrium(shift, potential)
    g = period_sum_potential(potential, structure)
    power0, expansion = cyclic_class_shift(structure, 0)
    mu0, p_class0 = _equilibrium(power0, g)
    identity_dev = abs(p_full - p_class0 / p)

    for length in range(1, cylinder_length + 1):
        count = power0.count_words(length)
        if count > shifts.DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(count, shifts.DEFAULT_ENUMERATION_CAP)
    # Walk the words of power0 level by level, one array element per word,
    # from the empty word at each vertex; each word is repeated once per
    # out-edge of its end vertex (edges grouped by source).  The walk is
    # exact: every element takes the correctly rounded products, left to
    # right, that `cylinder_prob` takes, and the maximum ignores the order.
    edges = [e for v in power0.vertices for e in power0.out_edges(v)]
    degree = np.array([len(power0.out_edges(v)) for v in power0.vertices])
    first = np.cumsum(degree) - degree
    target = np.array([power0.vertex_index[e.target] for e in edges])
    t0 = np.array([mu0.transitions[e.id] for e in edges])
    steps = np.array([[mu.transitions[sym] for sym in expansion[e.id]]
                      for e in edges]).T
    at = np.arange(len(power0.vertices))
    prob0 = np.array([mu0.stationary[v] for v in power0.vertices])
    prob = np.array([mu.stationary[v] for v in power0.vertices])
    max_dev = 0.0
    checked = 0
    for _ in range(cylinder_length):
        fan = degree[at]
        # copy j of word i sits at start_i + j and takes edge first[at_i] + j
        edge = np.repeat(first[at] - (np.cumsum(fan) - fan), fan)
        edge += np.arange(edge.size)
        prob0 = np.repeat(prob0, fan)
        prob0 *= t0[edge]
        prob = np.repeat(prob, fan)
        for step in steps:
            prob *= step[edge]
        max_dev = max(max_dev, float(np.max(np.abs(prob0 - p * prob))))
        checked += edge.size
        at = target[edge]
    support_ok = all(v > 0 for v in mu.transitions.values()) and all(
        v > 0 for v in mu0.transitions.values())
    passed = identity_dev < tol and max_dev < tol
    return CyclicPressureReport(p, p_full, p_class0, identity_dev, max_dev,
                                checked, support_ok, passed)
