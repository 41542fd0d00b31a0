"""Line-based description files for shifts, codes, and potentials.

Grammar (one declaration per line, '#' starts a comment, blank lines are
ignored; section headers may carry inline attributes):

    [alphabet] 0 1
    [shift] kind=edge vertices=A B
    edge e1: A -> A label 0
    edge e2: A -> B label 1
    edge e3: B -> A label 0
    [code] memory=0 anticipation=1
    map e1 e2 -> 1
    [potential] range=1
    f(0) = 0.0
    f(1) = log(2)

Shift kinds: `edge` (an edge shift, labels optional and defaulting to the
edge id), `labeled` (a sofic presentation, labels required), and `forbidden`
(`[shift] kind=forbidden window=2` followed by `forbid 11` lines; the shift
is built over the alphabet with the last-symbol read-off labeling).  Reals
are decimal literals or `log(<rational>)`, so exact pressures are
expressible.  Parsing then serializing yields a canonical form that
round-trips byte-identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .codes import SlidingBlockCode
from .errors import SpecFileError
from .presentations import SoficPresentation, image_presentation
from .shifts import Alphabet, Edge, EdgeShift, Word, _forbidden_graph
from .thermo import LocallyConstantPotential

_EDGE_RE = re.compile(
    r"^edge\s+(?P<id>\S+)\s*:\s*(?P<src>\S+)\s*->\s*(?P<tgt>\S+)"
    r"(?:\s+label\s+(?P<label>\S+))?$")
_MAP_RE = re.compile(r"^map\s+(?P<word>.+?)\s*->\s*(?P<sym>\S+)$")
_POT_RE = re.compile(r"^f\(\s*(?P<word>[^)]*)\s*\)\s*=\s*(?P<value>.+)$")
_LOG_RE = re.compile(r"^(?P<sign>-)?log\(\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True)
class EdgeDecl:
    id: str
    source: str
    target: str
    label: str | None


@dataclass(frozen=True)
class PotentialEntry:
    word_text: str
    raw_value: str
    value: float


@dataclass(frozen=True)
class CodeEntry:
    word: Word
    symbol: str


@dataclass(frozen=True)
class ShiftSpecFile:
    """Parsed sections of a description file; any subset may be present."""

    alphabet: tuple[str, ...] | None = None
    kind: str | None = None
    vertices: tuple[str, ...] = ()
    edges: tuple[EdgeDecl, ...] = ()
    forbidden: tuple[str, ...] = ()
    window: int | None = None
    code_memory: int | None = None
    code_anticipation: int | None = None
    code_entries: tuple[CodeEntry, ...] = ()
    potential_range: int | None = None
    potential_entries: tuple[PotentialEntry, ...] = ()


def parse_real(text: str, line: int | None = None) -> float:
    text = text.strip()
    m = _LOG_RE.match(text)
    if m:
        num = int(m.group("num"))
        den = int(m.group("den") or 1)
        if num == 0 or den == 0:
            raise SpecFileError("log of zero or division by zero", line)
        value = math.log(Fraction(num, den))
        return -value if m.group("sign") else value
    if _FLOAT_RE.match(text):
        value = float(text)
        if not math.isfinite(value):
            raise SpecFileError(f"real literal {text!r} is not finite", line)
        return value
    raise SpecFileError(f"malformed real literal {text!r}", line)


def _parse_attrs(tokens, lineno, allowed):
    attrs = {}
    current = None
    for tok in tokens:
        if "=" in tok:
            key, _, val = tok.partition("=")
            if key not in allowed:
                raise SpecFileError(f"unknown attribute {key!r}", lineno)
            attrs[key] = [val] if val else []
            current = key
        elif current is not None:
            attrs[current].append(tok)
        else:
            raise SpecFileError(f"stray token {tok!r}", lineno)
    return attrs


def parse_spec(text: str) -> ShiftSpecFile:
    alphabet = None
    kind = None
    vertices: list[str] = []
    edges: list[EdgeDecl] = []
    forbidden: list[str] = []
    window = None
    code_memory = None
    code_anticipation = None
    code_entries: list[CodeEntry] = []
    potential_range = None
    potential_entries: list[PotentialEntry] = []

    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise SpecFileError("unterminated section header", lineno, 1)
            section = line[1:close]
            rest = line[close + 1:].split()
            if section == "alphabet":
                if not rest:
                    raise SpecFileError("empty [alphabet] section", lineno)
                alphabet = tuple(rest)
            elif section == "shift":
                attrs = _parse_attrs(rest, lineno, {"kind", "vertices", "window"})
                if "kind" in attrs:
                    if len(attrs["kind"]) != 1:
                        raise SpecFileError("kind takes one value", lineno)
                    kind = attrs["kind"][0]
                    if kind not in ("edge", "labeled", "forbidden"):
                        raise SpecFileError(f"unknown shift kind {kind!r}", lineno)
                if "vertices" in attrs:
                    vertices = list(attrs["vertices"])
                if "window" in attrs:
                    try:
                        window = int(attrs["window"][0])
                    except (ValueError, IndexError):
                        raise SpecFileError("window must be an integer", lineno)
            elif section == "code":
                attrs = _parse_attrs(rest, lineno, {"memory", "anticipation"})
                try:
                    code_memory = int(attrs.get("memory", ["0"])[0])
                    code_anticipation = int(attrs.get("anticipation", ["0"])[0])
                except ValueError:
                    raise SpecFileError("memory/anticipation must be integers", lineno)
            elif section == "potential":
                attrs = _parse_attrs(rest, lineno, {"range"})
                try:
                    potential_range = int(attrs.get("range", ["1"])[0])
                except ValueError:
                    raise SpecFileError("range must be an integer", lineno)
            else:
                raise SpecFileError(f"unknown section [{section}]", lineno, 1)
            continue
        if section == "shift":
            m = _EDGE_RE.match(line)
            if m and kind in ("edge", "labeled", None):
                decl = EdgeDecl(m.group("id"), m.group("src"),
                                m.group("tgt"), m.group("label"))
                if any(e.id == decl.id for e in edges):
                    raise SpecFileError(f"duplicate edge id {decl.id!r}",
                                        lineno, raw.find(decl.id) + 1)
                for endpoint in (decl.source, decl.target):
                    if endpoint not in vertices:
                        raise SpecFileError(
                            f"edge {decl.id!r}: undeclared vertex {endpoint!r}",
                            lineno, raw.find(endpoint) + 1)
                edges.append(decl)
                continue
            if line.startswith("forbid"):
                parts = line.split()
                if len(parts) != 2:
                    raise SpecFileError("expected: forbid <word>", lineno)
                forbidden.append(parts[1])
                continue
            raise SpecFileError(f"malformed shift declaration {line!r}", lineno)
        if section == "code":
            m = _MAP_RE.match(line)
            if not m:
                raise SpecFileError(f"malformed code declaration {line!r}", lineno)
            code_entries.append(CodeEntry(tuple(m.group("word").split()),
                                          m.group("sym")))
            continue
        if section == "potential":
            m = _POT_RE.match(line)
            if not m:
                raise SpecFileError(f"malformed potential declaration {line!r}", lineno)
            raw_value = m.group("value").strip()
            value = parse_real(raw_value, lineno)
            potential_entries.append(PotentialEntry(m.group("word"), raw_value, value))
            continue
        raise SpecFileError(f"declaration outside any section: {line!r}", lineno, 1)

    return ShiftSpecFile(
        alphabet=alphabet, kind=kind, vertices=tuple(vertices),
        edges=tuple(sorted(edges, key=lambda e: e.id)),
        forbidden=tuple(sorted(forbidden)), window=window,
        code_memory=code_memory, code_anticipation=code_anticipation,
        code_entries=tuple(sorted(code_entries, key=lambda c: c.word)),
        potential_range=potential_range,
        potential_entries=tuple(sorted(potential_entries,
                                       key=lambda p: p.word_text)),
    )


def serialize(spec: ShiftSpecFile) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t) and the
    serialization of a parsed canonical form is byte-identical."""
    lines = []
    if spec.alphabet is not None:
        lines.append("[alphabet] " + " ".join(spec.alphabet))
    if spec.kind is not None:
        head = f"[shift] kind={spec.kind}"
        if spec.vertices:
            head += " vertices=" + " ".join(spec.vertices)
        if spec.window is not None:
            head += f" window={spec.window}"
        lines.append(head)
        for e in spec.edges:
            decl = f"edge {e.id}: {e.source} -> {e.target}"
            if e.label is not None:
                decl += f" label {e.label}"
            lines.append(decl)
        for w in spec.forbidden:
            lines.append(f"forbid {w}")
    if spec.code_memory is not None:
        lines.append(f"[code] memory={spec.code_memory} "
                     f"anticipation={spec.code_anticipation}")
        for entry in spec.code_entries:
            lines.append(f"map {' '.join(entry.word)} -> {entry.symbol}")
    if spec.potential_range is not None:
        lines.append(f"[potential] range={spec.potential_range}")
        for entry in spec.potential_entries:
            lines.append(f"f({entry.word_text}) = {entry.raw_value}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LoadedSystem:
    """A shift file materialized: the edge shift, its labeling, and the
    presented sofic shift."""

    kind: str
    edge_shift: EdgeShift
    labeling: SlidingBlockCode
    presentation: SoficPresentation


def build_system(spec: ShiftSpecFile) -> LoadedSystem:
    """The shift the file declares; a file that names a vertex, symbol or
    edge twice raises SpecFileError."""
    if spec.kind is None:
        raise SpecFileError("missing [shift] section")
    try:
        labeling = _build_labeling(spec)
    except ValueError as exc:
        raise SpecFileError(str(exc))
    return LoadedSystem(spec.kind, labeling.domain, labeling,
                        image_presentation(labeling))


def _build_labeling(spec: ShiftSpecFile) -> SlidingBlockCode:
    if spec.kind == "forbidden":
        if spec.alphabet is None:
            raise SpecFileError("forbidden-words shift requires [alphabet]")
        if spec.window is None:
            raise SpecFileError("forbidden-words shift requires window=<n>")
        alphabet = Alphabet(spec.alphabet)
        words = tuple(alphabet.word(w) for w in spec.forbidden)
        shift, labels = _forbidden_graph(alphabet, words, spec.window)
        return SlidingBlockCode.one_block(shift, labels, alphabet)
    if spec.kind == "labeled" and any(e.label is None for e in spec.edges):
        missing = next(e for e in spec.edges if e.label is None)
        raise SpecFileError(f"edge {missing.id!r} needs a label")
    shift = EdgeShift(spec.vertices,
                      tuple(Edge(e.source, e.target, e.id) for e in spec.edges))
    labels = {e.id: e.label if e.label is not None else e.id
              for e in spec.edges}
    alphabet = Alphabet(spec.alphabet) if spec.alphabet else None
    codomain = alphabet if alphabet and all(
        l in alphabet for l in labels.values()) else None
    return SlidingBlockCode.one_block(shift, labels, codomain)


def build_potential(spec: ShiftSpecFile, presentation: SoficPresentation):
    """Potential over the label alphabet of a presented shift."""
    if spec.potential_range is None:
        raise SpecFileError("missing [potential] section")
    alphabet = presentation.label_alphabet
    table = {}
    for entry in spec.potential_entries:
        try:
            word = alphabet.word(entry.word_text)
        except ValueError as exc:
            raise SpecFileError(f"potential word {entry.word_text!r}: {exc}")
        if len(word) != spec.potential_range:
            raise SpecFileError(
                f"potential word {entry.word_text!r} does not have length "
                f"{spec.potential_range}")
        table[word] = entry.value
    try:
        return LocallyConstantPotential(presentation, spec.potential_range, table)
    except ValueError as exc:
        raise SpecFileError(str(exc))


def build_code(spec: ShiftSpecFile, system: LoadedSystem) -> SlidingBlockCode:
    """The block code declared in the file, over the edge shift's symbols."""
    if spec.code_memory is None:
        raise SpecFileError("missing [code] section")
    table = {entry.word: entry.symbol for entry in spec.code_entries}
    codomain = Alphabet(tuple(sorted(set(table.values()))))
    try:
        return SlidingBlockCode(system.edge_shift, codomain, spec.code_memory,
                                spec.code_anticipation, table)
    except ValueError as exc:
        raise SpecFileError(str(exc))
