"""Sliding block codes and factor-code analysis.

Codes are normalized to one-block form before analysis; the conjugacy used in
the recoding is retained so that results transport back.  Degree is computed
by minimizing, over image words and coordinates, the number of distinct
domain symbols occurring among preimage paths, with a subset-construction
bound as the stabilization horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import (EnumerationCapError, NotFiniteToOneError,
                     NotInLanguageError, ReducibleShiftError)
from .shifts import (PATH_SEP, Alphabet, Edge, EdgeShift, Word,
                     _paths_of_length)

DEFAULT_WORD_SEARCH_CAP = 500_000


@dataclass(frozen=True)
class SlidingBlockCode:
    """A block map from an edge shift into a codomain alphabet.

    The table sends every domain word of length memory+anticipation+1 to a
    codomain symbol; applying the code to a word of length n yields a word of
    length n - memory - anticipation.
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
        n = self.block_size
        for w, s in table.items():
            if len(w) != n:
                raise ValueError(f"table key {w!r} does not have length {n}")
            if s not in self.codomain:
                raise ValueError(f"table value {s!r} not in codomain alphabet")
        for w in self.domain.words_of_length(n):
            if w not in table:
                raise ValueError(f"table missing domain word {w!r}")

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
            codomain = Alphabet(tuple(sorted(set(symbol_map.values()))))
        table = {(eid,): sym for eid, sym in symbol_map.items()}
        return cls(domain, codomain, 0, 0, table)

    @classmethod
    def identity(cls, domain: EdgeShift) -> "SlidingBlockCode":
        return cls.one_block(domain, {e.id: e.id for e in domain.edges})

    def label(self, edge_id: str) -> str:
        """Image symbol of a single domain symbol (one-block codes)."""
        return self.table[(edge_id,)]

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
    paths of length n) and the one-block conjugacy back to the original,
    which reads off the first edge of each composite symbol.
    """
    if n < 1:
        raise ValueError("block length must be positive")
    if n == 1:
        return shift, SlidingBlockCode.identity(shift)
    vertices = [PATH_SEP.join(path) for path, _, _ in _paths_of_length(shift, n - 1)]
    if not vertices:
        empty = EdgeShift((), ())
        return empty, SlidingBlockCode.identity(empty)
    edges = []
    decode_map = {}
    for path, _, _ in _paths_of_length(shift, n):
        eid = PATH_SEP.join(path)
        edges.append(Edge(PATH_SEP.join(path[:-1]), PATH_SEP.join(path[1:]), eid))
        decode_map[eid] = path[0]
    recoded = EdgeShift(tuple(vertices), tuple(edges))
    decode = SlidingBlockCode.one_block(recoded, decode_map, shift.alphabet())
    return recoded, decode


def higher_block_encoder(shift: EdgeShift, n: int) -> SlidingBlockCode:
    """The block map from the original shift onto its n-th higher block shift."""
    recoded, _ = higher_block_shift(shift, n)
    if n == 1:
        return SlidingBlockCode.identity(shift)
    table = {path: PATH_SEP.join(path) for path, _, _ in _paths_of_length(shift, n)}
    return SlidingBlockCode(shift, recoded.alphabet(), 0, n - 1, table)


def recode_to_one_block(code: SlidingBlockCode):
    """Conjugate the domain so the code maps symbols to symbols.

    Returns the higher-block domain and the equivalent one-block code; the
    composite of the block encoder with the returned code agrees with the
    original code on every word.
    """
    if code.is_one_block:
        return code.domain, code
    n = code.block_size
    recoded, _ = higher_block_shift(code.domain, n)
    symbol_map = {PATH_SEP.join(path): code.table[path]
                  for path, _, _ in _paths_of_length(code.domain, n)}
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
    for v in code.domain.vertices:
        labels = [code.label(e.id) for e in code.domain.out_edges(v)]
        if len(labels) != len(set(labels)):
            return False
    return True


def is_finite_to_one(code: SlidingBlockCode) -> bool:
    """Diamond test on the label product graph.

    A diamond is a pair of distinct equal-length paths with the same start
    vertex, end vertex, and label word; for an irreducible domain its absence
    is equivalent to the code being finite-to-one.  We search the pair graph
    for a walk from a diagonal pair to a diagonal pair that uses at least one
    step carrying two distinct edges.
    """
    _require_one_block(code)
    shift = code.domain
    if not shift.is_irreducible():
        raise ReducibleShiftError("finite-to-one test requires an irreducible domain")
    # states (u, v, strict_seen); edges pair equal-labeled domain edges
    start = [(v, v, False) for v in shift.vertices]
    seen = set(start)
    todo = list(start)
    while todo:
        u, v, strict = todo.pop()
        for e in shift.out_edges(u):
            for f in shift.out_edges(v):
                if code.label(e.id) != code.label(f.id):
                    continue
                nxt = (e.target, f.target, strict or e.id != f.id)
                if nxt[2] and nxt[0] == nxt[1]:
                    return False  # diamond closed on the diagonal
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return True


def _require_one_block(code):
    if not code.is_one_block:
        raise ValueError("operation requires a one-block code; recode first")


def _label_edges(code):
    by_label = {}
    for e in code.domain.edges:
        by_label.setdefault(code.label(e.id), []).append(e)
    return by_label


def coordinate_edge_sets(code: SlidingBlockCode, word: Word) -> list[set[str]] | None:
    """For each coordinate of an image word, the set of domain symbols that
    occur there among preimage paths; None when the word has no preimage."""
    _require_one_block(code)
    by_label = _label_edges(code)
    n = len(word)
    all_v = set(code.domain.vertices)
    fwd = [all_v]
    for s in word:
        cur = fwd[-1]
        fwd.append({e.target for e in by_label.get(s, ()) if e.source in cur})
    bwd = [all_v]
    for s in reversed(word):
        cur = bwd[-1]
        bwd.append({e.source for e in by_label.get(s, ()) if e.target in cur})
    bwd.reverse()
    sets = []
    for i, s in enumerate(word):
        at = {e.id for e in by_label.get(s, ())
              if e.source in fwd[i] and e.target in bwd[i + 1]}
        if not at:
            return None
        sets.append(at)
    return sets


def preimage_words(code: SlidingBlockCode, word: Word) -> list[Word]:
    """Brute enumeration of the preimage paths of an image word."""
    _require_one_block(code)
    by_label = _label_edges(code)
    paths = [()]
    at = {(): None}
    for s in word:
        nxt = []
        nxt_at = {}
        for p in paths:
            v = at[p]
            for e in by_label.get(s, ()):
                if v is None or e.source == v:
                    q = p + (e.id,)
                    nxt.append(q)
                    nxt_at[q] = e.target
        paths, at = nxt, nxt_at
    return sorted(paths)


def d_star(code: SlidingBlockCode, word: Word):
    """(min coordinate multiplicity, coordinate, symbols there) for an image word."""
    sets = coordinate_edge_sets(code, word)
    if sets is None:
        raise NotInLanguageError(f"{word!r} has no preimage path")
    best = min(range(len(sets)), key=lambda i: (len(sets[i]), i))
    return len(sets[best]), best, tuple(sorted(sets[best]))


@dataclass(frozen=True)
class MagicWord:
    word: Word
    coordinate: int
    preimage_symbols: tuple[str, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.preimage_symbols)


def _reachable_subsets(code, forward, cap):
    """Subsets of vertices reachable in the label subset automaton from the
    full vertex set, each with a shortest witness word (deterministic
    tie-break)."""
    by_label = _label_edges(code)
    symbols = sorted(by_label)
    full = frozenset(code.domain.vertices)
    seen = {full: ()}
    queue = [full]
    while queue:
        nxt_queue = []
        for cur in queue:
            for s in symbols:
                if forward:
                    nxt = frozenset(e.target for e in by_label[s] if e.source in cur)
                else:
                    nxt = frozenset(e.source for e in by_label[s] if e.target in cur)
                if nxt and nxt not in seen:
                    seen[nxt] = seen[cur] + (s,) if forward else (s,) + seen[cur]
                    nxt_queue.append(nxt)
                    if len(seen) > cap:
                        raise EnumerationCapError(len(seen), cap)
        queue = nxt_queue
    return seen


def degree(code: SlidingBlockCode, cap: int = DEFAULT_WORD_SEARCH_CAP) -> int:
    """Number of preimages of every doubly transitive image point.

    Defined for finite-to-one codes on irreducible domains; computed as the
    stabilized minimum over image words and coordinates of the number of
    distinct domain symbols occurring there among preimage paths.  The
    minimum is exact: the multiplicity at a coordinate depends only on the
    forward-reachable subset from the prefix, the backward-reachable subset
    from the suffix, and the symbol, and every such triple is realized.
    """
    return _degree_search(code, cap)[0]


def find_magic_word(code: SlidingBlockCode, cap: int = DEFAULT_WORD_SEARCH_CAP) -> MagicWord:
    """A shortest image word and coordinate achieving d*(w) = degree."""
    _, magic = _degree_search(code, cap)
    return magic


def _degree_search(code, cap):
    _require_one_block(code)
    if not is_finite_to_one(code):
        raise NotFiniteToOneError("degree undefined (infinite)")
    by_label = _label_edges(code)
    fwd = _reachable_subsets(code, True, cap)
    bwd = _reachable_subsets(code, False, cap)
    best = None
    best_key = None
    best_witness = None
    for front, prefix in fwd.items():
        for back, suffix in bwd.items():
            for s in sorted(by_label):
                hits = tuple(sorted(e.id for e in by_label[s]
                                    if e.source in front and e.target in back))
                if not hits:
                    continue
                word = prefix + (s,) + suffix
                key = (len(hits), len(word), word)
                if best is None or key < best_key:
                    best = len(hits)
                    best_key = key
                    best_witness = MagicWord(word, len(prefix), hits)
    return best, best_witness


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
    d = magic.multiplicity if magic else None
    return CodeAnalysis(rr, True, d, magic, d == 1)


def pullback_potential(code: SlidingBlockCode, potential):
    """Compose a locally constant potential on the image with the code.

    The result reads domain words of the same window length; its summable
    variation norm never exceeds that of the original potential.
    """
    from .thermo import LocallyConstantPotential

    _require_one_block(code)
    k = potential.k
    table = {}
    for w in code.domain.words_of_length(k):
        image = tuple(code.label(s) for s in w)
        table[w] = potential.value(image)
    return LocallyConstantPotential(code.domain, k, table)
