"""Thermodynamic formalism for locally constant potentials on edge shifts.

Potentials read a fixed window of coordinates, anchored at [0, k-1].
Variations are taken with respect to symmetric windows [-j, j] by embedding
the anchored table, so v_j vanishes for j >= k-1 and the summable-variation
norm is a finite sum.  Pressure and the unique equilibrium (Gibbs-Markov)
measure come from Perron data of the weighted transfer matrix of the edge
form (a window above 1 recoded), irreducible by the walk of `shifts`.  Up to
`PERRON_DENSE_DIM` vertices the Perron vectors come from one dense eigen-solve
per side; above it, power iteration runs on M + sI with a shift s of the
order of the root, so periodic matrices converge too and the scale of M does
not matter, for at most `PERRON_MAX_ITER` steps.  Every solve ends in a
Collatz-Wielandt bracket on the Perron root, widened by a rounding allowance
of (nonzeros per row + 1) eps and narrower than `PERRON_TOL` times the root,
and in a residual at the rounding floor of the product Mx; the limits are
read when called.  The equilibrium measure's stationary vector is l_i r_i
over its sum, from the two certified Perron vectors, with no further
iteration.  Transfer-matrix weights and transition probabilities must be
normal doubles: one that overflows or underflows raises `SoficGibbsError`,
nothing is rescaled.  The per-vertex sums of the edge form (transfer matrix
entries, transition normalizers, the row sums and inflows a Markov measure
is checked by) are each one `np.bincount` over the edge ends of `shifts`:
it adds in edge order from 0.0, so every sum is the left-to-right one, to
the bit.  The exp weights are taken once per edge potential.  Potentials on
an image pull back through a one-block code.  A brute-force periodic-point
oracle provides an independent route to the same pressure.

The periodic certificate walks the cylinders of the class-0 power shift level
by level over numpy arrays.  Each element takes the same correctly rounded
IEEE products, in the same order, as a word-by-word walk on Python floats,
and a maximum does not depend on the visiting order, so the report is exact.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping

import numpy as np

from . import shifts
from .codes import SlidingBlockCode, _require_one_block, higher_block_shift
from .errors import (ConvergenceError, EmptyShiftError, EnumerationCapError,
                     ReducibleShiftError, SoficGibbsError)
from .shifts import (CyclicStructure, EdgeShift, Word, _strong_components,
                     cyclic_class_shift, cyclic_structure, missing_word)

PERRON_TOL = 1e-13
PERRON_MAX_ITER = 10 ** 6
PERRON_DENSE_DIM = 32


@dataclass(frozen=True)
class LocallyConstantPotential:
    """A real table over the length-k words of a shift; f(x) = table[x_[0,k-1]].

    The shift may be an EdgeShift (words of edge ids) or a SoficPresentation
    (words of labels); both expose the same language interface.  Keys
    outside the language are accepted; on an EdgeShift the table is checked
    to cover it by a set test at window 1, counting above, not enumeration.
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
        return _sum(self.table[word[i:i + self.k]] for i in range(len(word) - self.k + 1))

    @cached_property
    def _reduction(self):
        """The triple of `reduce_to_edge_potential`, None standing for the
        potential itself at window 1, so that no reference cycle forms."""
        if self.k == 1:
            return self.shift, None, SlidingBlockCode.identity(self.shift)
        recoded, decode, paths = higher_block_shift(self.shift, self.k)
        # the edges of the recoded shift are the length-k paths, each a key
        # of the table by the constructor's check
        table = {(eid,): self.table[w] for eid, w in paths.items()}
        return recoded, LocallyConstantPotential(recoded, 1, table), decode

    @cached_property
    def _weights(self) -> np.ndarray:
        """exp(f(e)) for each edge of a window-1 potential on an edge shift,
        in edge order, every one a normal double; otherwise SoficGibbsError
        names the first defect in edge order, as `transfer_matrix` does.
        `math.exp`, not `np.exp`, which differs from it by 1 ulp on some
        hosts."""
        table = self.table
        try:
            weights = np.array([math.exp(table[(e.id,)]) for e in self.shift.edges])
            if not (weights < sys.float_info.min).any():
                return weights
        except OverflowError:
            pass
        raise SoficGibbsError(_weight_defect(self.shift, table))

    @cached_property
    def _perron(self):
        """`perron` of the transfer matrix of a window-1 potential."""
        return perron(transfer_matrix(self.shift, self))


def _sum(values):
    """Float sum left to right from 0, one rounding per addition, as the
    builtin `sum` before Python 3.12 (which compensates float sums)."""
    return reduce(operator.add, values, 0)


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
    return variation(potential, -1) + _sum(
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
    measures are preserved under the conjugacy.  The recoding is built once
    per potential: every call returns the same three objects (at window 1,
    the shift, the potential itself and an identity code).
    """
    if not isinstance(potential.shift, EdgeShift):
        raise TypeError("reduction requires a potential on an edge shift")
    shift, edge_potential, decode = potential._reduction
    return shift, edge_potential or potential, decode


@dataclass(frozen=True, eq=False)
class PerronData:
    """Dominant eigendata of a nonnegative irreducible matrix, normalized so
    that left . right = 1; lower <= eigenvalue <= upper brackets the Perron
    root.  The residual is the larger over the two sides of
    ||Mx - lambda x||_inf / (lambda ||x||_inf), which does not depend on the
    scale of M or of x."""

    eigenvalue: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    lower: float
    upper: float


def _matrix_irreducible(m: np.ndarray) -> bool:
    """Strong connectivity of the support graph by the Kosaraju walk; a matrix
    with no positive entry (the 1x1 zero matrix included) is reducible."""
    succ = [[] for _ in range(m.shape[0])]
    rows, cols = np.nonzero(m > 0)  # row-major: each successor list sorted
    for i, j in zip(rows.tolist(), cols.tolist()):
        succ[i].append(j)
    return any(succ) and len(_strong_components(succ)) == 1


def _certified(a, x, allowance, tol, floor):
    """x scaled to sum 1 with its widened Collatz-Wielandt bracket
    (lower, upper) on the Perron root of a, or None unless x is strictly
    positive, the bracket is narrower than tol times lower, and the residual
    max_i |(ax)_i - mu x_i| is below floor times max_i x_i for every mu
    between the smallest and the largest ratio (ax)_i / x_i."""
    if not (x > 0).all():
        return None
    x = x / x.sum()
    ax = a @ x
    ratio = ax / x
    lo, hi = float(ratio.min()), float(ratio.max())
    lower, upper = lo * (1.0 - allowance), hi * (1.0 + allowance)
    if upper - lower >= tol * lower:
        return None
    # the residual is convex in mu, so its largest value over [lo, hi] is
    # taken at an end
    residual = max(float(np.max(np.abs(ax - lo * x))),
                   float(np.max(np.abs(ax - hi * x))))
    return (x, lower, upper) if residual < floor * float(x.max()) else None


def _dense_side(a, allowance, tol, floor):
    """Dense route: the absolute value of the real part of the vector of
    the eigenvalue of a with the largest real part, if certified."""
    w, v = np.linalg.eig(a)
    return _certified(a, np.abs(v[:, int(np.argmax(w.real))].real),
                      allowance, tol, floor)


def _power_side(a, allowance, tol, floor):
    """Power route: iterate on A + sI, primitive whenever A is irreducible.
    The shift s starts at a quarter of the geometric mean of the smallest
    and largest row sums of A, which bracket lambda, and follows a quarter
    of the estimate sum_i (Ax)_i of lambda when that is more than a factor
    of 2 away.  It scales with A, so the steps, their rounding and their
    count do not depend on the scale of A, and a shift of the order of
    lambda damps the eigenvalues lambda e^(2 pi i k/p) of a periodic A
    too.  Every fourth step the spread of the ratios ((A + sI)x)_i / x_i, a
    bracket on lambda + s, is compared with tol times lambda; once it is
    narrower, the first certified x is returned.  (On the `window` bench
    matrices, looking every step instead, or summing (A + sI)x apart from
    the product, each cost about 5 ms more per batch.)  An entry of the
    iterate that underflows, to 0 or so far that its ratio overflows, gives
    a ratio of inf or nan, which never certifies; when the last iterate
    still has one, the ConvergenceError says that an entry vanished, in
    place of a bracket."""
    n = a.shape[0]
    rows, cols = a.sum(axis=1), a.sum(axis=0)
    s = 0.25 * math.sqrt(float(rows.min())) * math.sqrt(float(rows.max()))
    if not np.isfinite(cols + s).all():
        raise SoficGibbsError("a row or column sum of the matrix overflows a double")

    def shifted(s):
        # the column sums as one more row: one product gives (A + sI)x and
        # its sum; built afresh from A, so no earlier shift's rounding stays
        return np.vstack((a + s * np.eye(n), cols + s))

    step = shifted(s)
    x = np.full(n, 1.0 / n)
    for i in range(PERRON_MAX_ITER):
        y = step @ x
        if i % 4 == 3:
            ratio = y[:n] / x
            lo, hi = float(ratio.min()), float(ratio.max())
            if hi - lo < tol * (lo - s):
                side = _certified(a, x, allowance, tol, floor)
                if side is not None:
                    return side
            # x sums to 1, so y[n] - s = sum_i (Ax)_i tends to lambda: move
            # the shift when it is off by more than a factor of 2
            t = 0.25 * (float(y[n]) - s)
            if t > 2 * s or 0 < 2 * t < s:
                step, s = shifted(t), t
        x = y[:n] / y[n]
    ratio = a @ x / x
    raise ConvergenceError(
        f"power iteration did not converge within {PERRON_MAX_ITER} iterations "
        + (f"(bracket [{ratio.min():.17g}, {ratio.max():.17g}])"
           if np.isfinite(ratio).all() else "(an entry of the iterate vanished)"))


def perron(m: np.ndarray) -> PerronData:
    """Perron eigendata with a two-sided certificate on the eigenvalue.

    Each side, the right vector (of M) and the left one (of M.T), takes one
    of two routes.  Up to PERRON_DENSE_DIM vertices it comes from one dense
    `np.linalg.eig`; above that, or when the dense vector is not strictly
    positive or not certified, from power iteration on M + sI with s of the
    order of lambda.  Both routes end in one certificate.  For every
    positive x the Collatz-Wielandt bracket
    min_i (Mx)_i / x_i <= lambda <= max_i (Mx)_i / x_i holds.  A computed
    ratio, k nonnegative products summed and one division, is within a
    relative (k + 1) eps / 2 or so of its exact value (barring underflow),
    so the bracket is widened by the rounding allowance (k + 1) eps, with k
    the largest nonzero count of a row; the slack covers the rounding of the
    widening itself.  A side is accepted when its vector is strictly
    positive, its widened bracket is narrower than PERRON_TOL times lambda,
    or than four allowances where those are wider (rows of more than 111
    nonzeros), and its residual ||Mx - mu x||_inf is below
    max(PERRON_TOL, 8 eps ||M||_inf) ||x||_inf, the rounding floor of the
    product Mx, for every mu between its smallest and largest ratio: the
    eigenvalue, the midpoint of the intersection of the two sides'
    brackets, may fall anywhere there.  Power iteration gives up after
    PERRON_MAX_ITER steps.  All three limits are read when called.
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
    eps = np.finfo(float).eps
    sides = []
    for a in (m, m.T):
        allowance = float(np.count_nonzero(a, axis=1).max() + 1) * eps
        tol = max(PERRON_TOL, 4 * allowance)
        # a vector entry that underflows gives a ratio of inf or nan, which
        # no certificate accepts: the routes read that, so numpy need not
        # warn of it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # a is nonnegative, so its largest row sum is ||a||_inf; where
            # that overflows, the power route refuses the matrix
            floor = max(PERRON_TOL, 8 * eps * float(a.sum(axis=1).max()))
            side = (_dense_side(a, allowance, tol, floor)
                    if len(a) <= PERRON_DENSE_DIM else None)
            sides.append(side or _power_side(a, allowance, tol, floor))
    (right, lower_r, upper_r), (left, lower_l, upper_l) = sides
    lower, upper = max(lower_r, lower_l), min(upper_r, upper_l)
    lam = 0.5 * (lower + upper)
    left = left / float(left @ right)
    residual = max(float(np.max(np.abs(a @ x - lam * x)))
                   / (lam * float(x.max()))
                   for a, x in ((m, right), (m.T, left)))
    return PerronData(lam, left, right, residual, lower, upper)


def transfer_matrix(shift: EdgeShift, potential: LocallyConstantPotential) -> np.ndarray:
    """M[i, j] = sum over edges i -> j of exp(f(edge)): one `np.bincount` of
    the potential's exp weights in edge order, which adds them in that order
    from 0.0, so each sum of parallel edges is the left-to-right one.  A
    weight outside the normal doubles raises SoficGibbsError naming the
    first defect in edge order: an exp that overflows or underflows names
    its edge, and a sum of parallel edges that overflows names its vertex
    pair."""
    _require_edge_potential(shift, potential)
    n = len(shift.vertices)
    src, tgt = shift._ends
    # float also without edges, where bincount returns integer zeros
    m = np.bincount(src * n + tgt, potential._weights, n * n).reshape(n, n)
    m = m.astype(float, copy=False)
    if np.isinf(m).any():
        raise SoficGibbsError(_weight_defect(shift, potential.table))
    return m


def _weight_defect(shift, table):
    """The message naming the first defect of the transfer-matrix weights
    of an edge potential, scanned in edge order once one is detected."""
    sums = {}  # parallel edges summed in edge order, from 0.0
    for e in shift.edges:
        try:
            weight = math.exp(table[(e.id,)])
        except OverflowError:
            return f"exp of the potential on edge {e.id!r} overflows a double"
        if weight < sys.float_info.min:
            return f"exp of the potential on edge {e.id!r} underflows a double"
        at = (e.source, e.target)
        total = sums[at] = sums.get(at, 0.0) + weight  # overflow gives inf
        if math.isinf(total):
            return ("the summed exp of the potential on the edges "
                    f"{e.source!r} -> {e.target!r} overflows a double")


def _require_same_shift(shift, potential):
    if potential.shift is not shift and potential.shift != shift:
        raise ValueError("potential is defined on a different shift")


def _require_edge_potential(shift, potential):
    _require_same_shift(shift, potential)
    if potential.k != 1:
        raise ValueError("edge potential (window 1) required; reduce first")


def _edge_form(shift, potential):
    """The shift, checked, and the edge potential: the potential itself at
    window 1, where no identity code is built, and its recoding above."""
    _require_same_shift(shift, potential)
    if potential.k > 1:
        shift, potential, _ = reduce_to_edge_potential(potential)
    return shift, potential


def pressure(shift: EdgeShift, potential: LocallyConstantPotential) -> float:
    """Topological pressure of a locally constant potential: log of the
    Perron eigenvalue of the transfer matrix.  Potentials with window > 1
    are recoded to edge potentials first (pressure is conjugacy-invariant).
    The recoding and the Perron solve are made once per potential object
    and shared with `equilibrium_measure`: the solve runs under the Perron
    limits in force at the potential's first use, and later calls reuse it."""
    shift, potential = _edge_form(shift, potential)
    return math.log(potential._perron.eigenvalue)


@dataclass(frozen=True)
class MarkovMeasure:
    """A stationary Markov measure supported on exactly the edges of a shift.

    The constructor checks, within TOL, that the outgoing probabilities at
    each vertex sum to 1 and that the stationary vector is stationary: each
    vertex's row sum and inflow is one `np.bincount` over the edges in edge
    order, and the first vertex off is named."""

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
        if abs(_sum(stationary.values()) - 1.0) > self.TOL:
            raise ValueError("stationary vector must sum to 1")
        n = len(self.shift.vertices)
        src, tgt = self.shift._ends
        t = np.array([transitions[e.id] for e in self.shift.edges])
        rows = np.bincount(src, t, n)
        off = np.abs(rows - 1.0) > self.TOL
        if off.any():
            v = self.shift.vertices[off.argmax()]
            # summed again for the message: 0, not 0.0, at a vertex without
            # an out-edge
            row = _sum(transitions[e.id] for e in self.shift.out_edges(v))
            raise ValueError(f"outgoing probabilities at {v!r} sum to {row}, not 1")
        st = self.stationary_vector()
        if (np.abs(np.bincount(tgt, st[src] * t, n) - st) > self.TOL).any():
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
    stationary vector l_i r_i over its sum, read off the certified Perron
    vectors.  The weights w_e = exp(f(e)) r_j and their sum per source are
    whole arrays in edge order; the transitions are listed by source vertex
    and then in edge order, and the first one in that order that underflows
    a double is named.  The exp weights and the Perron solve are the ones
    `pressure` takes: once per potential object, under the Perron limits in
    force at its first use."""
    _require_edge_potential(shift, potential)
    data = potential._perron
    src, tgt = shift._ends
    w = potential._weights * data.right[tgt]
    t = w / np.bincount(src, w, len(shift.vertices))[src]
    order, edges = src.argsort(kind="stable"), shift.edges
    transitions = dict(zip([edges[i].id for i in order.tolist()],
                           t[order].tolist()))
    if (t < sys.float_info.min).any():
        eid = next(eid for eid, p in transitions.items() if p < sys.float_info.min)
        raise SoficGibbsError(
            f"the transition probability of edge {eid!r} underflows a double")
    mass = data.left * data.right
    stationary = dict(zip(shift.vertices, (mass / mass.sum()).tolist()))
    return MarkovMeasure(shift, stationary, transitions)


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
    return _sum(measure.cylinder_prob(w) * potential.value(w)
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
        table[w] = _sum(potential.value(path[j:j + k]) for j in range(p))
    return LocallyConstantPotential(power0, m, table)


def pressure_periodic_oracle(shift: EdgeShift, potential: LocallyConstantPotential,
                             n: int) -> float:
    """(1/n) log of the exp-weighted count of closed paths of length n,
    computed as the trace of the n-th transfer matrix power with per-step
    scaling in log space.  Returns -inf when no closed path of length n
    exists.  Converges to the pressure for irreducible aperiodic shifts."""
    if n < 1:
        raise ValueError("n must be positive")
    shift, potential = _edge_form(shift, potential)
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
    shift, potential = _edge_form(shift, potential)
    structure = cyclic_structure(shift)
    p = structure.period
    if p == 1:
        p_full = pressure(shift, potential)
        return CyclicPressureReport(1, p_full, p_full, 0.0, 0.0, 0, True)
    g = period_sum_potential(potential, structure)
    power0, expansion = cyclic_class_shift(structure, 0)
    mu, mu0 = equilibrium_measure(shift, potential), equilibrium_measure(power0, g)
    p_full, p_class0 = pressure(shift, potential), pressure(power0, g)
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
    passed = identity_dev < tol and max_dev < tol
    return CyclicPressureReport(p, p_full, p_class0, identity_dev, max_dev,
                                checked, passed)
