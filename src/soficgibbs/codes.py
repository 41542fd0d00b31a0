"""Sliding block codes and factor-code analysis.

Codes are normalized to one-block form before analysis; `higher_block_shift`,
built by `shifts._path_shift`, returns the recoded shift, the conjugacy back
and the map from each recoded edge id to its path.  The label subset
automaton of a labeled graph (Lind & Marcus, §3.3 and §9.1) lives here too:
successor sets, a subset step, and a breadth-first walk that yields one level
at a time, numbering each subset by its closure position; exhausted, it is
the closure, and its rows of step numbers are the subset table that
`presentations` reads.  `SUBSET_STATE_CAP` bounds the subsets one walk
builds, however far it is taken; a walk past it is refused with the number
of subsets it built.  Degree and magic word come from one search
over (forward subset, backward subset, symbol) triples of the automaton: a
triple's multiplicity is the popcount of the AND of two bit masks over the
symbol's edges in sorted-id order, and the least (multiplicity, word length,
word) wins.  Triples are scanned by word length L = 1, 2, ..., front depth
ascending within a length, so the first of equal keys is the first in the
order fronts, backs, symbols; each level of either walk is built when first
read.  The scan stops after the first length whose best multiplicity is 1,
since no multiplicity is lower and every longer word loses on length: a
degree-1 code whose full closure is past the cap, but whose magic word is
shallow, gets an answer.  Codes of higher degree build both closures.
One breadth-first walk over pairs of states, `_pair_walk`, finds shortest
witness words for the diamond test of `is_finite_to_one` (vertex pairs) and
the containment test of `presentations` (pairs of index subsets).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from . import shifts
from .errors import (EmptyShiftError, NotFiniteToOneError,
                     NotInLanguageError, ReducibleShiftError)
from .shifts import (Alphabet, EdgeShift, Word, _path_shift, _paths_of_length,
                     missing_word)

# Most subsets one walk of the label subset automaton may build.
SUBSET_STATE_CAP = 10_000


@dataclass(frozen=True)
class SlidingBlockCode:
    """A block map from an edge shift into a codomain alphabet.

    The table sends every domain word of length memory+anticipation+1 to a
    codomain symbol; applying the code to a word of length n yields a word of
    length n - memory - anticipation.  Keys outside the domain language are
    accepted; the table is checked to cover the language by a set test at
    window 1, counting above, without enumerating it.
    """

    domain: EdgeShift
    codomain: Alphabet
    memory: int
    anticipation: int
    table: Mapping[Word, str]

    def __post_init__(self):
        if self.memory < 0 or self.anticipation < 0:
            raise ValueError("memory and anticipation must be nonnegative")
        table = {tuple(k): str(v) for k, v in self.table.items()}
        object.__setattr__(self, "table", table)
        n, symbols = self.block_size, set(self.codomain)
        for w, s in table.items():
            if len(w) != n:
                raise ValueError(f"table key {w!r} does not have length {n}")
            if s not in symbols:
                raise ValueError(f"table value {s!r} not in codomain alphabet")
        missing = missing_word(self.domain, table, n)
        if missing is not None:
            raise ValueError(f"table missing domain word {missing!r}")

    @property
    def block_size(self) -> int:
        return self.memory + self.anticipation + 1

    @property
    def is_one_block(self) -> bool:
        return self.block_size == 1

    @classmethod
    def one_block(cls, domain: EdgeShift, symbol_map: Mapping[str, str],
                  codomain: Alphabet | None = None) -> "SlidingBlockCode":
        if codomain is None:
            if not symbol_map:
                raise EmptyShiftError("a code without symbols has no codomain")
            codomain = Alphabet(tuple(sorted(set(symbol_map.values()))))
        table = {(eid,): sym for eid, sym in symbol_map.items()}
        return cls(domain, codomain, 0, 0, table)

    @classmethod
    def identity(cls, domain: EdgeShift) -> "SlidingBlockCode":
        return cls.one_block(domain, {e.id: e.id for e in domain.edges})

    def label(self, edge_id: str) -> str:
        """Image symbol of a single domain symbol (one-block codes)."""
        return self.table[(edge_id,)]

    @cached_property
    def _label_edges(self):
        """The domain edges of each label, in edge order (one-block codes)."""
        by_label = {}
        for e in self.domain.edges:
            by_label.setdefault(self.label(e.id), []).append(e)
        return by_label

    def apply_to_word(self, word: Word) -> Word:
        n = self.block_size
        word = tuple(word)
        if len(word) < n:
            raise NotInLanguageError(
                f"word of length {len(word)} shorter than block size {n}")
        if not self.domain.in_language(word):
            raise NotInLanguageError(f"{word!r} is not in the domain language")
        return tuple(self.table[word[i:i + n]] for i in range(len(word) - n + 1))


def higher_block_shift(shift: EdgeShift, n: int):
    """The n-th higher block recoding of an edge shift.

    Returns the recoded shift (vertices the paths of length n-1, edges the
    paths of length n), the one-block conjugacy back to the original, which
    reads off the first edge of each path, and the map from each recoded
    edge id to its path, in lexicographic order; at n = 1 the shift is its
    own recoding.  Without an edge there is no alphabet to decode onto, so
    it raises EmptyShiftError.
    """
    if n < 1:
        raise ValueError("block length must be positive")
    if n == 1:
        return (shift, SlidingBlockCode.identity(shift),
                {e.id: (e.id,) for e in shift.edges})
    # one walk: each path of length n-1 is a vertex, extended by one edge
    ends = list(_paths_of_length(shift, n - 1))
    recoded, paths = _path_shift(
        [path for path, _, _ in ends],
        [(path + (e.id,), path, path[1:] + (e.id,))
         for path, _, at in ends for e in shift.out_edges(at)])
    decode = SlidingBlockCode.one_block(
        recoded, {eid: path[0] for eid, path in paths.items()}, shift.alphabet())
    return recoded, decode, paths


def higher_block_encoder(shift: EdgeShift, n: int) -> SlidingBlockCode:
    """The block map from the original shift onto its n-th higher block shift."""
    recoded, _, paths = higher_block_shift(shift, n)
    table = {path: eid for eid, path in paths.items()}
    return SlidingBlockCode(shift, recoded.alphabet(), 0, n - 1, table)


def recode_to_one_block(code: SlidingBlockCode):
    """Conjugate the domain so the code maps symbols to symbols.

    Returns the higher-block domain and the equivalent one-block code; the
    composite of the block encoder with the returned code agrees with the
    original code on every word.
    """
    if code.is_one_block:
        return code.domain, code
    recoded, _, paths = higher_block_shift(code.domain, code.block_size)
    symbol_map = {eid: code.table[path] for eid, path in paths.items()}
    one_block = SlidingBlockCode.one_block(recoded, symbol_map, code.codomain)
    return recoded, one_block


def compose_one_block(outer: SlidingBlockCode,
                      inner: SlidingBlockCode) -> SlidingBlockCode:
    """outer after inner, both one-block; inner must map into outer's domain."""
    if not (outer.is_one_block and inner.is_one_block):
        raise ValueError("composition requires one-block codes")
    symbol_map = {e.id: outer.label(inner.label(e.id))
                  for e in inner.domain.edges}
    return SlidingBlockCode.one_block(inner.domain, symbol_map, outer.codomain)


# -- analysis ----------------------------------------------------------------


def is_right_resolving(code: SlidingBlockCode) -> bool:
    """True iff out-edge labels are pairwise distinct at every domain vertex."""
    _require_one_block(code)
    return _right_resolving(_labeled_triples(code))


def is_finite_to_one(code: SlidingBlockCode) -> bool:
    """Diamond test on the label product graph.

    A diamond is a pair of distinct equal-length paths with the same start
    vertex, end vertex, and label word; for an irreducible domain its absence
    is equivalent to the code being finite-to-one.  A shortest diamond parts
    along two distinct edges with one source and one label: `_pair_walk`
    looks for the diagonal from the pairs of their targets.
    """
    _require_one_block(code)
    shift = code.domain
    if not shift.is_irreducible():
        raise ReducibleShiftError("finite-to-one test requires an irreducible domain")
    # out[v][label]: the out-edges of v with that label; a right-resolving
    # code has no start pair
    out = {v: {} for v in shift.vertices}
    for e in shift.edges:
        out[e.source].setdefault(code.label(e.id), []).append(e)
    start = [(e.target, f.target) for at in out.values() for es in at.values()
             for e in es for f in es if e.id != f.id]

    def step(pair):
        at = out[pair[1]]
        return ((s, (e.target, f.target)) for s, es in out[pair[0]].items()
                for e in es for f in at.get(s, ()))

    return _pair_walk(start, step, lambda pair: pair[0] == pair[1]) is None


def _pair_walk(start, step, stop):
    """Breadth-first walk over pairs of states from the pairs in `start`:
    the first pair that `stop` accepts with a shortest word read to it, or
    None.  `step(pair)` yields (symbol, next pair); in symbol order, the word
    is the shortlex-least when each word leads to at most one pair."""
    came = dict.fromkeys(start, ())
    todo = list(came)
    for pair in todo:
        word = came[pair]
        if stop(pair):
            return pair, word
        for s, nxt in step(pair):
            if nxt not in came:
                came[nxt] = word + (s,)
                todo.append(nxt)
    return None


def _require_one_block(code):
    if not code.is_one_block:
        raise ValueError("operation requires a one-block code; recode first")


def _labeled_triples(code):
    return [(e.source, code.label(e.id), e.target) for e in code.domain.edges]


def preimage_words(code: SlidingBlockCode, word: Word) -> list[Word]:
    """Brute enumeration of the preimage paths of an image word, in
    lexicographic order; a level that passes
    `shifts.DEFAULT_ENUMERATION_CAP` paths raises `EnumerationCapError` with
    the paths of it built by then."""
    _require_one_block(code)
    paths = [((), None)]
    for s in word:
        paths = _extend_preimages(code, paths, s, lambda path, e: path + (e.id,))
    return [path for path, _ in paths]


def _extend_preimages(code, paths, symbol, extend):
    """The next level of (value, end vertex) preimage paths, the end None for
    the empty path: each path, by each edge labeled `symbol` from its end in
    edge order, gives (extend(value, edge), edge target), up to the cap."""
    edges = code._label_edges.get(symbol, ())
    nxt = []
    for value, at in paths:
        nxt += [(extend(value, e), e.target) for e in edges
                if at is None or e.source == at]
        shifts._check_cap(len(nxt), shifts.DEFAULT_ENUMERATION_CAP)
    return nxt


@dataclass(frozen=True)
class MagicWord:
    word: Word
    coordinate: int
    preimage_symbols: tuple[str, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.preimage_symbols)


def _right_resolving(triples) -> bool:
    """True iff no two (source, label, target) triples share source and label."""
    keys = [(a, s) for a, s, _ in triples]
    return len(keys) == len(set(keys))


def _successor_sets(triples, forward=True):
    """Per label, the targets (sources when not `forward`) of each vertex
    with an edge of that label, among (source, label, target) triples."""
    succ = {}
    for a, s, b in triples:
        if not forward:
            a, b = b, a
        succ.setdefault(s, {}).setdefault(a, set()).add(b)
    return succ


def _subset_step(succ, states, symbol):
    at = succ.get(symbol, {})
    return frozenset().union(*[at[v] for v in states if v in at])


def _subset_levels(vertices, succ, forward=True, rows=None):
    """Breadth-first levels of the nonempty subsets reachable from the full
    vertex set: each level maps its new subsets, in closure order, to their
    shortest witness words (the first in label order), read backward when
    not `forward`.  A level is built only when it is asked for.  A subset is
    numbered, when first met, by its closure position; `rows`, when given,
    gets one row per subset walked past: its step by each sorted label, by
    number, or -1 when empty.  Raises EnumerationCapError, with the number
    of subsets built, once that is more than SUBSET_STATE_CAP."""
    symbols = sorted(succ)
    level = {frozenset(vertices): ()}
    index = dict.fromkeys(level, 0)
    while level:
        yield level
        nxt_level = {}
        for cur, word in level.items():
            row = []
            for s in symbols:
                nxt = _subset_step(succ, cur, s)
                if nxt and nxt not in index:
                    index[nxt] = len(index)
                    nxt_level[nxt] = word + (s,) if forward else (s,) + word
                    shifts._check_cap(len(index), SUBSET_STATE_CAP)
                row.append(index[nxt] if nxt else -1)
            if rows is not None:
                rows.append(row)
        level = nxt_level


def _subset_closure(vertices, succ, forward=True, rows=None):
    """All of `_subset_levels` in one dict, in closure order."""
    reached = {}
    for level in _subset_levels(vertices, succ, forward, rows):
        reached.update(level)
    return reached


def degree(code: SlidingBlockCode) -> int:
    """Number of preimages of every doubly transitive image point.

    Defined for finite-to-one codes on irreducible domains: the minimum over
    image words and coordinates of the number of distinct domain symbols
    there among preimage paths (Lind & Marcus, §9.1).  That number depends
    only on the forward-reachable subset from the prefix, the
    backward-reachable subset from the suffix, and the symbol, and every such
    triple is realized, so the mask search over triples is exact.
    """
    return find_magic_word(code).multiplicity


def find_magic_word(code: SlidingBlockCode) -> MagicWord:
    """A shortest image word and coordinate achieving d*(w) = degree: its
    preimage symbols at the coordinate number the degree."""
    _require_one_block(code)
    if not is_finite_to_one(code):
        raise NotFiniteToOneError("degree undefined (infinite)")
    by_label = code._label_edges
    symbols = sorted(by_label)
    edges_of = [by_label[s] for s in symbols]  # each in id order
    triples = _labeled_triples(code)

    def masks(forward, end):
        # bit i of a vertex in column j: the i-th edge of symbol j in
        # sorted-id order has the vertex as its `end`; a column's masks are
        # disjoint, so a subset's union of them is their sum
        columns = [dict.fromkeys(code.domain.vertices, 0) for _ in symbols]
        for column, edges in zip(columns, edges_of):
            for i, e in enumerate(edges):
                column[getattr(e, end)] |= 1 << i
        succ = _successor_sets(triples, forward)
        for level in _subset_levels(code.domain.vertices, succ, forward):
            yield [(word, [sum(map(col.__getitem__, subset)) for col in columns])
                   for subset, word in level.items()]

    fronts, backs = ([], masks(True, "source")), ([], masks(False, "target"))

    def level(side, depth):
        # levels are asked for in depth order, each built on first demand
        got, more = side
        if depth == len(got):
            got.extend(itertools.islice(more, 1))
        return got[depth] if depth < len(got) else None

    # Triples are scanned by word length, front depth ascending, so each
    # length keeps the order fronts, backs, symbols of the full closures.
    # A triple whose multiplicity or word length already loses to the best
    # key is skipped before its word is built.  No multiplicity is below 1,
    # so a length that reaches 1 is the last.  Otherwise the scan ends once
    # both walks are exhausted, on the first length longer than every word
    # of a front, a symbol and a back: while a walk may still grow, the
    # levels held number more than the length.
    best = best_len = math.inf
    best_key = (math.inf,)
    for length in itertools.count(1):
        for a in range(length):
            front = level(fronts, a)
            back = front and level(backs, length - 1 - a)
            if not back:
                continue
            for prefix, front_row in front:
                for suffix, back_row in back:
                    for j, hit in enumerate(map(int.__and__, front_row, back_row)):
                        if not hit:
                            continue
                        m = hit.bit_count()
                        if m > best or m == best and length > best_len:
                            continue
                        word = prefix + (symbols[j],) + suffix
                        key = (m, length, word)
                        if key < best_key:
                            best, best_len, best_key = m, length, key
                            best_at = (word, a, j, hit)
        if best == 1 or length >= len(fronts[0]) + len(backs[0]):
            break
    word, coordinate, j, hit = best_at
    hits = tuple(e.id for i, e in enumerate(edges_of[j]) if hit >> i & 1)
    return MagicWord(word, coordinate, hits)


@dataclass(frozen=True)
class CodeAnalysis:
    """Summary of a one-block factor code: resolving/finite-to-one flags,
    degree (None when infinite), magic word, almost invertibility."""

    right_resolving: bool
    finite_to_one: bool
    degree: int | None
    magic_word: MagicWord | None
    almost_invertible: bool


def analyze_code(code: SlidingBlockCode) -> CodeAnalysis:
    """One finite-to-one test and one degree search: the degree is the
    multiplicity of the magic word."""
    rr = is_right_resolving(code)
    try:
        magic = find_magic_word(code)
    except NotFiniteToOneError:
        return CodeAnalysis(rr, False, None, None, False)
    d = magic.multiplicity
    return CodeAnalysis(rr, True, d, magic, d == 1)

