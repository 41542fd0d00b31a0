"""Shift spaces presented by finite directed graphs.

The private graph core `_Graph` holds what edge shifts and sofic
presentations share: constructor checks, emptiness, out-edge index and
essential part.  An :class:`EdgeShift` is a graph whose bi-infinite edge
paths are the points of a shift of finite type; the symbols of the shift
are the edge ids.  Its invariants (irreducibility, period, cyclically
moving vertex classes) and the exact language live here: words are counted
by n sweeps of a Python-int vector over the edge list (the count is the sum
of the entries of the n-th adjacency power, in O(n E) exact steps),
enumerated in lexicographic order by one walk from the edges, and a table
keyed by words is checked to cover the language without enumerating, by a
set test at window 1 and a count of its keys that are paths above it.
Irreducibility is one Kosaraju walk, for `thermo` too.  Shifts whose edges
are paths of another graph have one builder, `_path_shift`, which forms and
checks composite ids.

All values are immutable after construction and every operation is a pure
function of its inputs, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (EmptyShiftError, EnumerationCapError, ReducibleShiftError,
                     SoficGibbsError)

Word = tuple[str, ...]

# Most words (or context classes) one enumeration may list; read when called.
DEFAULT_ENUMERATION_CAP = 500_000

# Separator used when composite ids are formed from paths of edges.
PATH_SEP = "~"


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of distinct symbol tokens."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._symbol_set

    @cached_property
    def _symbol_set(self):
        return frozenset(self.symbols)

    @cached_property
    def _single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    def word(self, text: str) -> Word:
        """Parse a word literal.

        One-character alphabets read plain strings ("010"); otherwise tokens
        are '.'-separated ("e1.e2").  The empty string is the empty word.
        """
        if text == "":
            return ()
        if "." in text or not self._single_char:
            parts = tuple(text.split("."))
        else:
            parts = tuple(text)
        for s in parts:
            if s not in self:
                raise ValueError(f"symbol {s!r} not in alphabet")
        return parts

    def format(self, word: Iterable[str]) -> str:
        word = tuple(word)
        if self._single_char:
            return "".join(word)
        return ".".join(word)


def format_word(word: Iterable[str]) -> str:
    """Join a word for display: plain when all tokens are single characters."""
    word = tuple(str(s) for s in word)
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return ".".join(word)


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    id: str


@dataclass(frozen=True)
class _Graph:
    """A finite directed multigraph, vertices sorted and edges (anything with
    `source`, `target` and `id`) sorted by id, so that every enumeration in
    the library is deterministic.  The empty graph is a legal value."""

    vertices: tuple[str, ...]
    edges: tuple

    def __post_init__(self):
        vertices = tuple(sorted(str(v) for v in self.vertices))
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex")
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
    def _out(self) -> Mapping[str, tuple]:
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
        return {v: tuple(es) for v, es in out.items()}

    def essential(self):
        """The graph of the same type on the vertices of bi-infinite paths."""
        alive = _essential_states(self.vertices,
                                  [(e.source, e.target) for e in self.edges])
        keep = set(alive)
        return type(self)(tuple(alive), tuple(
            e for e in self.edges if e.source in keep and e.target in keep))


@dataclass(frozen=True)
class EdgeShift(_Graph):
    """A graph whose bi-infinite edge paths are the points of an SFT; the
    empty graph presents the empty shift."""

    # -- basic structure ---------------------------------------------------

    @cached_property
    def vertex_index(self) -> Mapping[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_by_id(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The source and the target vertex index of each edge, in edge
        order, for `adjacency` and the whole-array sums of `thermo`."""
        idx = self.vertex_index
        return (np.array([idx[e.source] for e in self.edges], dtype=np.intp),
                np.array([idx[e.target] for e in self.edges], dtype=np.intp))

    @cached_property
    def _in(self) -> Mapping[str, tuple[Edge, ...]]:
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.target].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._in[v]

    def alphabet(self) -> Alphabet:
        """The symbol alphabet of the shift: the edge ids."""
        if not self.edges:
            raise EmptyShiftError("a graph without edges has no alphabet")
        return Alphabet(tuple(e.id for e in self.edges))

    def adjacency(self) -> np.ndarray:
        """Vertex-indexed matrix of edge multiplicities."""
        n = len(self.vertices)
        src, tgt = self._ends
        return np.bincount(src * n + tgt, minlength=n * n).reshape(n, n)

    # -- essentiality ------------------------------------------------------

    def is_essential(self) -> bool:
        return all(self._out[v] and self._in[v] for v in self.vertices)

    # -- connectivity and period -------------------------------------------

    def strongly_connected_components(self) -> tuple[tuple[str, ...], ...]:
        """Kosaraju SCCs, deterministic order."""
        index = self.vertex_index
        succ = [[index[e.target] for e in self._out[v]] for v in self.vertices]
        return tuple(tuple(self.vertices[i] for i in comp)
                     for comp in _strong_components(succ))

    def is_irreducible(self) -> bool:
        """True iff the graph is a single strongly connected component."""
        if self.is_empty:
            return False
        return len(self.strongly_connected_components()) == 1 and bool(self.edges)

    # -- language ----------------------------------------------------------

    def count_words(self, n: int) -> int:
        """Exact number of length-n words over the edge alphabet."""
        if self.is_empty:
            return 0
        if n == 0:
            return 1
        idx = self.vertex_index
        arcs = [(idx[e.source], idx[e.target]) for e in self.edges]
        ending_at = [1] * len(self.vertices)
        for _ in range(n):
            nxt = [0] * len(ending_at)
            for s, t in arcs:
                nxt[t] += ending_at[s]
            ending_at = nxt
        return sum(ending_at)

    def words_of_length(self, n: int) -> list[Word]:
        """All length-n edge-id words, in lexicographic order as walked."""
        if self.is_empty:
            return []
        if n == 0:
            return [()]
        count = self.count_words(n)
        if count > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(count, DEFAULT_ENUMERATION_CAP)
        return [path for path, _, _ in _paths_of_length(self, n)]

    def in_language(self, word: Word) -> bool:
        """True iff the word is an edge path (all words of an essential graph
        extend to bi-infinite paths); the empty word is in the language of
        every nonempty graph."""
        if not word:
            return not self.is_empty
        return self.path_endpoints(word) is not None

    def path_endpoints(self, word: Word):
        """(source, target) of the path spelled by the word, or None."""
        return _path_endpoints(self.edge_by_id, word)


def _path_endpoints(edge_by_id, word):
    """(source, target) of the path spelled by the word, read through the
    map from each edge id to its edge, or None."""
    at = None
    for eid in word:
        e = edge_by_id.get(eid)
        if e is None or at is not None and e.source != at:
            return None
        at = e.target
    return (edge_by_id[word[0]].source, at) if word else None


def _essential_states(states, arcs):
    """The states on bi-infinite paths of the graph of (source, target)
    arcs, in the given order: what is left once every state without an in-
    or an out-arc is removed, again and again."""
    outs, ins = {v: [] for v in states}, {v: [] for v in states}
    for a, b in arcs:
        outs[a].append(b)
        ins[b].append(a)
    out_deg = {v: len(bs) for v, bs in outs.items()}
    in_deg = {v: len(as_) for v, as_ in ins.items()}
    dead = {v for v in states if not out_deg[v] or not in_deg[v]}
    todo = list(dead)
    while todo:
        v = todo.pop()
        for degree, ends in ((in_deg, outs[v]), (out_deg, ins[v])):
            for w in ends:
                degree[w] -= 1
                if not degree[w] and w not in dead:
                    dead.add(w)
                    todo.append(w)
    return [v for v in states if v not in dead]


def _strong_components(succ):
    """Kosaraju's strongly connected components of the graph on 0..n-1 with
    successor lists succ, each sorted, in the reverse finishing order of a
    depth-first walk rooted at each index in turn."""
    n = len(succ)
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for t in it:
                if not seen[t]:
                    seen[t] = True
                    stack.append((t, iter(succ[t])))
                    break
            else:
                order.append(v)
                stack.pop()
    pred = [[] for _ in range(n)]
    for v, ts in enumerate(succ):
        for t in ts:
            pred[t].append(v)
    placed = [False] * n
    comps = []
    for root in reversed(order):
        if placed[root]:
            continue
        placed[root] = True
        comp, todo = [], [root]
        while todo:
            v = todo.pop()
            comp.append(v)
            for u in pred[v]:
                if not placed[u]:
                    placed[u] = True
                    todo.append(u)
        comps.append(sorted(comp))
    return comps


def missing_word(language, keys, n: int) -> Word | None:
    """The first length-n word of a language, in lexicographic order, that is
    not among `keys`; None when every word is a key.

    `language` is anything with `words_of_length`.  On an EdgeShift this is
    a set test at window 1, the 1-tuple of each edge id a key, and counting
    above: the keys that are paths, each walked through the map from edge id
    to edge, number `count_words(n)` exactly when every word is a key, the
    keys being distinct.  The language is enumerated only when it fails.
    """
    if isinstance(language, EdgeShift) and (
            all(map(keys.__contains__, zip(language.edge_by_id))) if n == 1
            else language.count_words(n) == sum(
                1 for w in keys
                if len(w) == n and _path_endpoints(language.edge_by_id, w))):
        return None
    return next((w for w in language.words_of_length(n) if w not in keys), None)


@dataclass(frozen=True)
class CyclicStructure:
    """Period p of an irreducible graph with its cyclically moving classes."""

    shift: EdgeShift
    period: int
    class_of: Mapping[str, int]

    def __post_init__(self):
        p = self.period
        for e in self.shift.edges:
            if (self.class_of[e.source] + 1) % p != self.class_of[e.target]:
                raise ValueError("classes do not advance cyclically along edges")

    def class_vertices(self, k: int) -> tuple[str, ...]:
        return tuple(v for v in self.shift.vertices if self.class_of[v] == k % self.period)


def cyclic_structure(shift: EdgeShift) -> CyclicStructure:
    """Period (gcd of cycle lengths via BFS level coloring) and vertex classes."""
    if not shift.is_irreducible():
        raise ReducibleShiftError("requires irreducible shift")
    root = shift.vertices[0]
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for e in shift.out_edges(v):
                if e.target not in level:
                    level[e.target] = level[v] + 1
                    nxt.append(e.target)
        frontier = nxt
    g = 0
    for e in shift.edges:
        g = math.gcd(g, level[e.source] + 1 - level[e.target])
    class_of = {v: level[v] % g for v in shift.vertices}
    return CyclicStructure(shift, g, class_of)


def component_periods(shift: EdgeShift) -> dict[tuple[str, ...], int]:
    """Periods of the essential strongly connected components.

    Reducible shifts have no global period; this reports one per component
    (components without edges are skipped).
    """
    periods = {}
    for comp in shift.strongly_connected_components():
        keep = set(comp)
        edges = tuple(e for e in shift.edges
                      if e.source in keep and e.target in keep)
        if not edges:
            continue
        sub = EdgeShift(comp, edges)
        periods[comp] = cyclic_structure(sub).period
    return periods


def sft_from_forbidden_words(alphabet: Alphabet, forbidden: Iterable[Word],
                             window: int) -> EdgeShift:
    """Essential edge shift of the SFT over `alphabet` avoiding the given words.

    Vertices are the clean words of length window-1; an edge joins u to v when
    they overlap progressively and the combined window of length `window`
    avoids every forbidden word.  The result may be empty.
    """
    shift, _ = _forbidden_graph(alphabet, forbidden, window)
    return shift


def _forbidden_graph(alphabet, forbidden, window):
    if window < 2:
        raise ValueError("window must be at least 2")
    forbidden = {tuple(w) for w in forbidden}
    for w in forbidden:
        if len(w) > window:
            raise ValueError(f"forbidden word {format_word(w)!r} longer than window {window}")
        for s in w:
            if s not in alphabet:
                raise ValueError(f"forbidden word symbol {s!r} not in alphabet")

    def clean(word):
        for f in forbidden:
            L = len(f)
            if L == 0:
                return False
            if any(word[i:i + L] == f for i in range(len(word) - L + 1)):
                return False
        return True

    count = len(alphabet) ** (window - 1)
    if count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(count, DEFAULT_ENUMERATION_CAP)
    prefixes = [()]
    for _ in range(window - 1):
        prefixes = [p + (s,) for p in prefixes for s in alphabet if clean(p + (s,))]
    vertices = [alphabet.format(p) for p in prefixes]
    edges = []
    labels = {}
    for u in prefixes:
        for s in alphabet:
            full = u + (s,)
            if not clean(full):
                continue
            eid = alphabet.format(full)
            edges.append(Edge(alphabet.format(u), alphabet.format(full[1:]), eid))
            labels[eid] = s
    shift = EdgeShift(tuple(vertices), tuple(edges)).essential()
    labels = {eid: labels[eid] for eid in (e.id for e in shift.edges)}
    return shift, labels


def _paths_of_length(shift, p):
    """Yield (edge-id path, source, target) for every path of length p >= 1,
    in lexicographic order: a depth-first walk from the edges in id order."""
    stack = [((e.id,), e.source, e.target) for e in reversed(shift.edges)]
    while stack:
        path, src, at = stack.pop()
        if len(path) == p:
            yield path, src, at
            continue
        for e in reversed(shift.out_edges(at)):
            stack.append((path + (e.id,), src, e.target))


def _path_shift(vertices, walk):
    """The edge shift whose vertices and edges are paths of another graph,
    each a tuple of ids named once by its PATH_SEP join, here and nowhere
    else (a 1-tuple keeps its name); `walk` lists (path, source, target) per
    edge.  Returns the shift and the map from each edge id to its path; two
    paths with one name raise SoficGibbsError."""
    paths = _named([path for path, _, _ in walk])
    names = {path: name for name, path in _named(vertices).items()}
    edges = [Edge(names[source], names[target], eid)
             for eid, (_, source, target) in zip(paths, walk)]
    return EdgeShift(tuple(names.values()), tuple(edges)), paths


def _named(paths):
    """The map from the PATH_SEP join of each path to the path."""
    names = [PATH_SEP.join(path) for path in paths]
    named = dict(zip(names, paths))
    if len(named) < len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise SoficGibbsError(f"two paths have the composite id {twice!r}")
    return named


def cyclic_class_shift(structure: CyclicStructure, class_index: int = 0):
    """Restriction of the p-th higher power shift to one cyclic class.

    Returns the restricted EdgeShift together with the map from composite edge
    ids to the underlying edge-id paths.
    """
    keep = set(structure.class_vertices(class_index))
    walk = _paths_of_length(structure.shift, structure.period)
    return _path_shift([(v,) for v in keep],
                       [(path, (s,), (t,)) for path, s, t in walk if s in keep])
