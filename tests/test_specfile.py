import itertools
import math
import time

import pytest

import soficgibbs as sg
from soficgibbs.specfile import (build_code, build_potential, build_system,
                                 parse_spec, parse_real, serialize)

GOLDEN_MEAN = """\
# golden mean shift
[alphabet] 0 1
[shift] kind=edge vertices=A B
edge e1: A -> A label 0
edge e2: A -> B label 1
edge e3: B -> A label 0
[potential] range=1
f(0) = 0.0
f(1) = log(2)
"""

FORBIDDEN = """\
[alphabet] 0 1
[shift] kind=forbidden window=2
forbid 11
"""

XOR = """\
[alphabet] 0 1
[shift] kind=edge vertices=0 1
edge 00: 0 -> 0 label 0
edge 01: 0 -> 1 label 0
edge 10: 1 -> 0 label 1
edge 11: 1 -> 1 label 1
[code] memory=0 anticipation=0
map 00 -> 0
map 01 -> 1
map 10 -> 1
map 11 -> 0
"""


class TestParse:
    def test_golden_mean_file(self):
        spec = parse_spec(GOLDEN_MEAN)
        assert spec.alphabet == ("0", "1")
        assert spec.kind == "edge"
        assert len(spec.edges) == 3
        system = build_system(spec)
        assert len(system.edge_shift.vertices) == 2
        assert len(system.edge_shift.edges) == 3

    def test_potential_with_log_literal(self):
        spec = parse_spec(GOLDEN_MEAN)
        system = build_system(spec)
        f = build_potential(spec, system.presentation, system.labeling.codomain)
        assert f.value(("1",)) == pytest.approx(math.log(2), abs=0)
        assert f.value(("0",)) == 0.0

    def test_forbidden_kind(self):
        system = build_system(parse_spec(FORBIDDEN))
        assert system.edge_shift.adjacency().tolist() == [[1, 1], [1, 0]]

    def test_code_section(self):
        spec = parse_spec(XOR)
        system = build_system(spec)
        code = build_code(spec, system)
        assert code.is_one_block
        assert sg.degree(code) == 2

    def test_code_section_without_map_line(self):
        spec = parse_spec(XOR.split("map", 1)[0])
        with pytest.raises(sg.SpecFileError, match="has no map line"):
            build_code(spec, build_system(spec))

    def test_undeclared_vertex_reports_error(self):
        bad = "[shift] kind=edge vertices=A\nedge e1: A -> B\n"
        with pytest.raises(sg.SpecFileError, match="undeclared vertex"):
            build_system(parse_spec(bad))

    def test_duplicate_edge_id(self):
        bad = ("[shift] kind=edge vertices=A\n"
               "edge e1: A -> A\nedge e1: A -> A\n")
        with pytest.raises(sg.SpecFileError, match="duplicate edge id"):
            parse_spec(bad)

    def test_empty_file_missing_shift(self):
        with pytest.raises(sg.SpecFileError, match="missing"):
            build_system(parse_spec(""))

    def test_unknown_section_has_line_number(self):
        with pytest.raises(sg.SpecFileError, match="line 2"):
            parse_spec("# fine\n[nonsense]\n")

    def test_malformed_real(self):
        with pytest.raises(sg.SpecFileError, match="malformed real"):
            parse_spec("[potential] range=1\nf(0) = abc\n")

    def test_non_finite_real_names_its_line(self):
        with pytest.raises(sg.SpecFileError, match="line 3: .*not finite"):
            parse_spec("[potential] range=1\nf(0) = 0\nf(1) = 1e400\n")

    @pytest.mark.parametrize("text", [
        "[shift] kind=edge vertices=A A\nedge e1: A -> A\n",
        "[alphabet] 0 0\n[shift] kind=forbidden window=2\nforbid 00\n",
    ])
    def test_construction_errors_are_spec_errors(self, text):
        with pytest.raises(sg.SpecFileError):
            build_system(parse_spec(text))

    def test_malformed_edge_line(self):
        with pytest.raises(sg.SpecFileError, match="line 2"):
            parse_spec("[shift] kind=edge vertices=A\nedge oops\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# header\n\n[alphabet] 0 1  # trailing\n"
        assert parse_spec(text).alphabet == ("0", "1")

    def test_range_7_potential_parses_in_linear_time(self):
        # 16 384 potential lines; a check of each word against every earlier
        # one took half a minute
        lines = ["[alphabet] 0 1 2 3", "[shift] kind=forbidden window=2",
                 "[potential] range=7"]
        lines += [f"f({''.join(w)}) = 0.5"
                  for w in itertools.product("0123", repeat=7)]
        start = time.perf_counter()
        spec = parse_spec("\n".join(lines))
        assert time.perf_counter() - start < 2
        assert len(spec.potential_entries) == 4 ** 7
        lines.append("f(0123012) = 1")
        with pytest.raises(sg.SpecFileError) as info:
            parse_spec("\n".join(lines))
        assert info.value.line == len(lines)
        assert str(info.value) == (f"line {len(lines)}: duplicate potential "
                                   "word '0123012'")

    def test_large_alphabet_labels_parse_in_linear_time(self):
        # 30 000 labels on 30 000 edges; a scan of the alphabet for each
        # label took seconds
        symbols = [f"s{i}" for i in range(30_000)]
        lines = ["[alphabet] " + " ".join(symbols),
                 "[shift] kind=labeled vertices=A"]
        lines += [f"edge e{i}: A -> A label {s}" for i, s in enumerate(symbols)]
        start = time.perf_counter()
        spec = parse_spec("\n".join(lines))
        assert time.perf_counter() - start < 2
        assert len(spec.edges) == len(symbols)
        lines.append("edge f: A -> A label t")
        with pytest.raises(sg.SpecFileError) as info:
            parse_spec("\n".join(lines))
        assert str(info.value) == (f"line {len(lines)}: label 't' is not in "
                                   "[alphabet]")


class TestReals:
    @pytest.mark.parametrize("text,value", [
        ("0.5", 0.5),
        ("-2", -2.0),
        ("1e-3", 1e-3),
        ("log(2)", math.log(2)),
        ("log(1/3)", math.log(1) - math.log(3)),
        ("-log(2)", -math.log(2)),
    ])
    def test_literals(self, text, value):
        assert parse_real(text) == pytest.approx(value, abs=1e-15)

    def test_log_of_zero_rejected(self):
        with pytest.raises(sg.SpecFileError):
            parse_real("log(0)")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [GOLDEN_MEAN, FORBIDDEN, XOR])
    def test_parse_serialize_parse(self, text):
        first = parse_spec(text)
        canon = serialize(first)
        second = parse_spec(canon)
        assert first == second
        assert serialize(second) == canon

    def test_canonical_ordering(self):
        scrambled = ("[shift] kind=edge vertices=A\n"
                     "edge z: A -> A label 1\n"
                     "edge a: A -> A label 0\n")
        spec = parse_spec(scrambled)
        assert [e.id for e in spec.edges] == ["a", "z"]
        assert serialize(spec).index("edge a") < serialize(spec).index("edge z")
