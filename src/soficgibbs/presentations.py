"""Sofic shifts as labeled directed graphs.

A :class:`SoficPresentation` is an edge shift whose edges carry symbols from
a label alphabet; the presented sofic shift is the set of bi-infinite label
sequences along paths.  Determinization uses the subset construction
restricted to reachable nonempty subsets, and the minimal right-resolving
presentation of an irreducible sofic shift is obtained by merging states with
equal follower sets (partition refinement) and extracting the strongly
connected component that still presents the whole language.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .codes import SlidingBlockCode
from .errors import (EmptyShiftError, EnumerationCapError,
                     ReducibleShiftError)
from .shifts import Alphabet, Edge, EdgeShift, Word, DEFAULT_ENUMERATION_CAP

DEFAULT_STATE_CAP = 10_000


@dataclass(frozen=True)
class LabeledEdge:
    source: str
    target: str
    label: str
    id: str


@dataclass(frozen=True)
class SoficPresentation:
    vertices: tuple[str, ...]
    edges: tuple[LabeledEdge, ...]
    minimal: bool = False

    def __post_init__(self):
        vertices = tuple(sorted(str(v) for v in self.vertices))
        edges = tuple(sorted(self.edges, key=lambda e: e.id))
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge id")
        vset = set(vertices)
        for e in edges:
            if e.source not in vset or e.target not in vset:
                raise ValueError(f"edge {e.id!r} has undeclared endpoint")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def label_alphabet(self) -> Alphabet:
        return Alphabet(tuple(sorted({e.label for e in self.edges})))

    @cached_property
    def _out(self) -> Mapping[str, tuple[LabeledEdge, ...]]:
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
        return {v: tuple(es) for v, es in out.items()}

    def out_edges(self, v: str) -> tuple[LabeledEdge, ...]:
        return self._out[v]

    @cached_property
    def is_deterministic(self) -> bool:
        """Right-resolving: per-vertex out-labels pairwise distinct."""
        for v in self.vertices:
            labels = [e.label for e in self._out[v]]
            if len(labels) != len(set(labels)):
                return False
        return True

    def underlying_edge_shift(self) -> EdgeShift:
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

    def essential(self) -> "SoficPresentation":
        core = self.underlying_edge_shift().essential()
        keep = set(e.id for e in core.edges)
        return SoficPresentation(core.vertices,
                                 tuple(e for e in self.edges if e.id in keep))

    # -- language queries ---------------------------------------------------

    def _step(self, states, symbol):
        return frozenset(e.target for v in states for e in self._out[v] if e.label == symbol)

    def in_language(self, word: Word) -> bool:
        states = frozenset(self.vertices)
        for s in word:
            states = self._step(states, s)
            if not states:
                return False
        return bool(self.vertices)

    def words_of_length(self, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Word]:
        """B_n of the presented shift, sorted lexicographically."""
        if self.is_empty:
            return []
        if n == 0:
            return [()]
        symbols = tuple(self.label_alphabet)
        out = []
        stack = [((), frozenset(self.vertices))]
        while stack:
            word, states = stack.pop()
            if len(word) == n:
                out.append(word)
                if len(out) > cap:
                    raise EnumerationCapError(len(out), cap)
                continue
            for s in reversed(symbols):
                nxt = self._step(states, s)
                if nxt:
                    stack.append((word + (s,), nxt))
        return sorted(out)


def image_presentation(domain: EdgeShift, code: SlidingBlockCode) -> SoficPresentation:
    """Label every domain edge with its image symbol; presents the image shift."""
    if not code.is_one_block:
        raise ValueError("image presentation requires a one-block code")
    edges = tuple(LabeledEdge(e.source, e.target, code.label(e.id), e.id)
                  for e in domain.edges)
    return SoficPresentation(domain.vertices, edges)


def identity_presentation(shift: EdgeShift) -> SoficPresentation:
    """Each edge labeled by its own id."""
    return image_presentation(shift, SlidingBlockCode.identity(shift))


def _subset_name(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def determinize(presentation: SoficPresentation,
                state_cap: int = DEFAULT_STATE_CAP) -> SoficPresentation:
    """Right-resolving presentation of the same language via the subset
    construction on reachable nonempty subsets, trimmed to its essential part."""
    p = presentation.essential()
    if p.is_empty:
        return p
    symbols = tuple(p.label_alphabet)
    start = frozenset(p.vertices)
    reached = {start}
    order = [start]
    transitions = {}
    todo = [start]
    while todo:
        states = todo.pop()
        for s in symbols:
            nxt = p._step(states, s)
            if not nxt:
                continue
            transitions[(states, s)] = nxt
            if nxt not in reached:
                reached.add(nxt)
                order.append(nxt)
                todo.append(nxt)
                if len(reached) > state_cap:
                    raise EnumerationCapError(len(reached), state_cap)
    edges = tuple(
        LabeledEdge(_subset_name(src), _subset_name(tgt), s, f"{_subset_name(src)}.{s}")
        for (src, s), tgt in transitions.items())
    det = SoficPresentation(tuple(_subset_name(x) for x in order), edges)
    return det.essential()


def _follower_partition(presentation: SoficPresentation):
    """Moore refinement of the deterministic graph with an implicit sink for
    missing transitions; returns the map state -> class representative."""
    symbols = tuple(presentation.label_alphabet)
    delta = {}
    for v in presentation.vertices:
        for e in presentation.out_edges(v):
            delta[(v, e.label)] = e.target
    block_of = {v: 0 for v in presentation.vertices}
    while True:
        signatures = {}
        for v in presentation.vertices:
            sig = (block_of[v],) + tuple(
                block_of.get(delta.get((v, s)), -1) for s in symbols)
            signatures.setdefault(sig, []).append(v)
        new_block_of = {}
        for i, (_, members) in enumerate(sorted(signatures.items(),
                                                key=lambda kv: kv[1][0])):
            for v in members:
                new_block_of[v] = i
        if len(set(new_block_of.values())) == len(set(block_of.values())):
            return new_block_of
        block_of = new_block_of


def _merge_followers(presentation: SoficPresentation) -> SoficPresentation:
    block_of = _follower_partition(presentation)
    reps = {}
    for v in sorted(presentation.vertices):
        reps.setdefault(block_of[v], v)
    name = {b: _subset_name([v for v in presentation.vertices if block_of[v] == b])
            for b in reps}
    seen = set()
    edges = []
    for e in presentation.edges:
        src, tgt = name[block_of[e.source]], name[block_of[e.target]]
        key = (src, e.label)
        if key in seen:
            continue
        seen.add(key)
        edges.append(LabeledEdge(src, tgt, e.label, f"{src}.{e.label}"))
    merged = SoficPresentation(tuple(sorted(set(name.values()))), tuple(edges))
    return merged.essential()


def _language_contained(whole: SoficPresentation, part: SoficPresentation) -> bool:
    """Exact test that every word readable in `whole` is readable in `part`."""
    start = (frozenset(whole.vertices), frozenset(part.vertices))
    symbols = sorted({e.label for e in whole.edges} | {e.label for e in part.edges})
    seen = {start}
    todo = [start]
    while todo:
        sw, sp = todo.pop()
        for s in symbols:
            nw = whole._step(sw, s)
            if not nw:
                continue
            np_ = part._step(sp, s)
            if not np_:
                return False
            nxt = (nw, np_)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def _rename_canonical(presentation: SoficPresentation) -> SoficPresentation:
    names = {v: f"q{i}" for i, v in enumerate(presentation.vertices)}
    edges = tuple(LabeledEdge(names[e.source], names[e.target], e.label,
                              f"{names[e.source]}.{e.label}")
                  for e in presentation.edges)
    return SoficPresentation(tuple(names.values()), edges, minimal=True)


def minimize_fischer(presentation: SoficPresentation,
                     state_cap: int = DEFAULT_STATE_CAP):
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Returns the presentation together with its cover code (the one-block
    labeling code from the presentation's edge shift onto the shift), which
    has degree one.  Raises ReducibleShiftError when no strongly connected
    component of the merged deterministic graph presents the full language.
    """
    det = determinize(presentation, state_cap)
    if det.is_empty:
        raise EmptyShiftError("requires a nonempty sofic shift")
    merged = _merge_followers(det)
    graph = merged.underlying_edge_shift()
    candidates = []
    for comp in graph.strongly_connected_components():
        keep = set(comp)
        edges = tuple(e for e in merged.edges if e.source in keep and e.target in keep)
        if not edges:
            continue
        sub = SoficPresentation(tuple(comp), edges)
        if _language_contained(merged, sub):
            candidates.append(sub)
    if not candidates:
        raise ReducibleShiftError("requires irreducible sofic shift")
    candidates.sort(key=lambda s: (len(s.vertices), s.vertices))
    fischer = _rename_canonical(candidates[0])
    return fischer, fischer.labeling_code()


def is_irreducible_sofic(presentation: SoficPresentation) -> bool:
    """Irreducibility of the presented language, decided on the minimized
    deterministic graph's SCC structure."""
    try:
        minimize_fischer(presentation)
        return True
    except ReducibleShiftError:
        return False
