"""Sofic shifts as labeled directed graphs.

A :class:`SoficPresentation` is a graph whose edges carry symbols from a
label alphabet; the presented sofic shift is the set of bi-infinite label
sequences along paths.  It shares the graph core `shifts._Graph` with
`EdgeShift`: constructor checks, emptiness, out-edge index and essential
part, trimmed without building an edge shift.  Language queries run on the
label subset automaton kept in `codes`: its successor sets, its subset step,
and its breadth-first closure over the reachable nonempty subsets, with its
one state cap.  The words of every length up to n come from one level walk,
`word_levels`, each level extending the one before by the symbols in order;
`words_of_length(n)` is its last level.

The subset construction has one home, a private integer table, untrimmed,
filled by the closure walk of `codes` as it numbers the subsets it meets:
every subset the closure reaches, in closure order, the sorted symbols, and
delta[state][symbol], a target index or -1.  `determinize` names its states
and trims its essential part; `minimize_fischer` reduces it to the minimal
right-resolving presentation of an irreducible sofic shift without building
a presentation on the way.  States with equal follower sets are merged by
Moore refinement, its signatures zipped from the table's columns; the one
terminal strongly connected component of the merged table is the cover, when
the class of the full vertex set reads no word outside it
(`codes._pair_walk` over a state and an index subset).  Its classes keep
their block order as q0, q1, ...: the subset that a word w reaches from the
full vertex set of an essential presentation has follower set F_X(w), the
closure visits subsets in shortlex order of their least words, and classes
are numbered by their first member, so q_k is the follower set of the k-th
shortlex-least word that reaches a new one of the cover.  That depends on
the language alone (Lind & Marcus Thm 3.3.18): one shift, however presented,
gets one cover, state names and edge ids included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Mapping

from .codes import (SlidingBlockCode, _pair_walk, _subset_closure,
                    _subset_step, _successor_sets)
from . import shifts
from .errors import EmptyShiftError, ReducibleShiftError
from .shifts import Alphabet, Edge, EdgeShift, Word, _Graph, _strong_components


@dataclass(frozen=True)
class LabeledEdge:
    source: str
    target: str
    label: str
    id: str


@dataclass(frozen=True)
class SoficPresentation(_Graph):
    """A graph of `LabeledEdge`s: the labels along its bi-infinite paths are
    the points of the presented sofic shift."""

    @cached_property
    def label_alphabet(self) -> Alphabet:
        if not self.edges:
            raise EmptyShiftError("a graph without edges has no alphabet")
        return Alphabet(tuple(sorted({e.label for e in self.edges})))

    def out_edges(self, v: str) -> tuple[LabeledEdge, ...]:
        return self._out[v]

    @cached_property
    def _triples(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((e.source, e.label, e.target) for e in self.edges)

    def underlying_edge_shift(self) -> EdgeShift:
        return self._edge_shift

    @cached_property
    def _edge_shift(self) -> EdgeShift:
        return EdgeShift(self.vertices,
                         tuple(Edge(e.source, e.target, e.id) for e in self.edges))

    def labeling_code(self) -> SlidingBlockCode:
        """The one-block factor code from the underlying edge shift onto the
        presented sofic shift."""
        return SlidingBlockCode.one_block(
            self.underlying_edge_shift(),
            {e.id: e.label for e in self.edges},
            self.label_alphabet,
        )

    def is_irreducible_graph(self) -> bool:
        return self.underlying_edge_shift().is_irreducible()

    # -- language queries ---------------------------------------------------

    @cached_property
    def _successors(self) -> Mapping[str, Mapping[str, set[str]]]:
        return _successor_sets(self._triples)

    def _step(self, states, symbol):
        return _subset_step(self._successors, states, symbol)

    def in_language(self, word: Word) -> bool:
        """True iff the word labels a path: a word of the presented shift
        when the graph is essential; the empty word when it is nonempty."""
        states = frozenset(self.vertices)
        for s in word:
            states = self._step(states, s)
            if not states:
                return False
        return bool(self.vertices)

    def words_of_length(self, n: int) -> list[Word]:
        """Labels of the length-n paths in lexicographic order: the last
        level of `word_levels`."""
        words = [] if n or self.is_empty else [()]
        for words in self.word_levels(n):
            pass
        return words

    def word_levels(self, n_max: int):
        """The labels of the paths of each length 1..n_max, as lists in
        lexicographic order (B_n when the graph is essential; then no level is
        shorter than the one before), each subset's steps taken once.  A level
        of more than `shifts.DEFAULT_ENUMERATION_CAP` words raises
        `EnumerationCapError` with its word count."""
        symbols = sorted(self._successors)
        moves = cache(lambda states: [(s, nxt) for s in symbols
                                      if (nxt := self._step(states, s))])
        level = [((), frozenset(self.vertices))]
        for _ in range(n_max):
            level = [(word + (s,), nxt) for word, states in level
                     for s, nxt in moves(states)]
            shifts._check_cap(len(level), shifts.DEFAULT_ENUMERATION_CAP)
            yield [word for word, _ in level]


def image_presentation(code: SlidingBlockCode) -> SoficPresentation:
    """Label every domain edge with its image symbol; presents the image shift."""
    if not code.is_one_block:
        raise ValueError("image presentation requires a one-block code")
    edges = tuple(LabeledEdge(e.source, e.target, code.label(e.id), e.id)
                  for e in code.domain.edges)
    return SoficPresentation(code.domain.vertices, edges)


def _subset_name(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def _subset_table(presentation: SoficPresentation):
    """The subset automaton of the essential part of a presentation, with
    every subset the closure reaches: the subsets in closure order (subset 0
    is the full vertex set), the sorted symbols, and delta[i][j], the index
    of subset i stepped by symbol j, or -1, as the closure walk numbers it."""
    p = presentation.essential()
    if p.is_empty:
        return [], [], []
    delta = []
    subsets = list(_subset_closure(p.vertices, p._successors, rows=delta))
    return subsets, sorted(p._successors), delta


def determinize(presentation: SoficPresentation) -> SoficPresentation:
    """Right-resolving presentation of the same language via the subset
    construction on reachable nonempty subsets of the essential part, trimmed
    to its essential part."""
    subsets, symbols, delta = _subset_table(presentation)
    name = [_subset_name(states) for states in subsets]
    return SoficPresentation(tuple(name), tuple(
        LabeledEdge(name[i], name[t], s, f"{name[i]}.{s}")
        for i, row in enumerate(delta) for s, t in zip(symbols, row)
        if t >= 0)).essential()


def _follower_classes(delta):
    """Moore refinement of a deterministic table with an implicit sink for
    the -1 steps: the class of each state, classes numbered in the order of
    their first member.  Signatures are zipped from the table's columns."""
    columns = list(zip(*delta))
    # block_of ends in the sink's class -1, which a -1 step reads
    block_of, count = [0] * len(delta) + [-1], 1
    while True:
        signatures = {}
        new = [signatures.setdefault(signature, len(signatures))
               for signature in zip(block_of[:-1], *[
                   map(block_of.__getitem__, col) for col in columns])]
        if len(signatures) == count:
            return new
        block_of, count = new + [-1], len(signatures)


def _presents_whole(delta, part):
    """Exact test that every word read from state 0 of a table is read
    inside `part`, a set of states that no step leaves."""
    columns = list(enumerate(zip(*delta)))
    # intersecting a step with a set of states drops its -1
    part = frozenset(part)

    def step(pair):
        at, sub = pair
        # no step leaves `part`: from `at` in `sub`, it reads what `at` reads
        if at in sub:
            return
        for j, col in columns:
            if col[at] >= 0:
                yield j, (col[at], frozenset(map(col.__getitem__, sub)) & part)

    return _pair_walk([(0, part)], step, lambda pair: not pair[1]) is None


def minimize_fischer(presentation: SoficPresentation):
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Returns the presentation together with its cover code (the one-block
    labeling code from the presentation's edge shift onto the shift), which
    has degree one.  The follower sets of synchronizing words are closed
    under every step and reachable from every state (Lind & Marcus §3.3), so
    for an irreducible shift they are the one terminal component of the
    merged deterministic graph, and it presents the whole shift.  Its states
    are named q0, q1, ... in block order, which depends on the language
    alone (see the module docstring).  Raises ReducibleShiftError when that
    graph has more than one terminal component, or one that does not read
    every word the full vertex set reads.
    """
    subsets, symbols, delta = _subset_table(presentation)
    if not subsets:
        raise EmptyShiftError("requires a nonempty sofic shift")
    block_of = _follower_classes(delta)
    # a member of each class, in class order: the members of a class step
    # into the same classes
    member = dict(zip(block_of, range(len(delta))))
    merged = [[block_of[t] if t >= 0 else -1 for t in delta[i]]
              for i in member.values()]
    components = map(set, _strong_components([[t for t in row if t >= 0]
                                              for row in merged]))
    terminal = [part for part in components
                if all(t < 0 or t in part for b in part for t in merged[b])]
    # class 0 holds subset 0, the full vertex set, which reads every word
    if len(terminal) != 1 or not _presents_whole(merged, terminal[0]):
        raise ReducibleShiftError("requires irreducible sofic shift")
    part = sorted(terminal[0])
    q = {b: f"q{k}" for k, b in enumerate(part)}
    fischer = SoficPresentation(tuple(q.values()), tuple(
        LabeledEdge(q[b], q[t], s, f"{q[b]}.{s}")
        for b in part for s, t in zip(symbols, merged[b]) if t >= 0))
    return fischer, fischer.labeling_code()


def is_irreducible_sofic(presentation: SoficPresentation) -> bool:
    """Irreducibility of the presented language, decided on the minimized
    deterministic graph's SCC structure."""
    try:
        minimize_fischer(presentation)
        return True
    except ReducibleShiftError:
        return False
