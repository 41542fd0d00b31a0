"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "soficgibbs"

# import headers and docstring quotes repeat by nature
_HEADER = re.compile(r'(from \S+ )?import |"""$')


def test_no_four_line_window_repeats():
    # every window of four consecutive non-blank lines, stripped, that is
    # not all header lines, appears once in the package
    first, repeats = {}, []
    for path in sorted(SRC.rglob("*.py")):
        lines = [(n, line.strip()) for n, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1) if line.strip()]
        for i in range(len(lines) - 3):
            window = tuple(line for _, line in lines[i:i + 4])
            if all(map(_HEADER.match, window)):
                continue
            where = f"{path.relative_to(SRC)}:{lines[i][0]}"
            if window in first:
                repeats.append(f"{where} repeats {first[window]}")
            else:
                first[window] = where
    assert repeats == []


def test_every_private_module_name_is_read_in_the_package():
    # a module-level private name that only its definition mentions lives
    # for the tests alone
    defined, read = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node] if isinstance(node, (ast.FunctionDef,
                                                        ast.ClassDef))
                       else [])
            for target in targets:
                name = getattr(target, "id", getattr(target, "name", None))
                if name and name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in read) == []
