"""The benchmark's tracer patches a function in its module's namespace and a
method in `vars(cls)` of its own class, so every name its tables list must be
defined there: a method inherited from a base class would be wrapped under
the base's name, and a hot accessor listed as unwrapped would get a span."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TABLES = ("UNWRAPPED", "COUNT_ONLY", "CALLS", "HOOKS", "INCLUSIVE")


def _tables():
    """Each table's span names, set members or dict keys, read from the
    source without running it."""
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in TABLES):
            value = node.value
            items = value.keys if isinstance(value, ast.Dict) else value.elts
            tables[node.targets[0].id] = [item.value for item in items]
    return tables


def test_every_table_is_read():
    tables = _tables()
    assert sorted(tables) == sorted(TABLES)
    assert all(tables.values())


@pytest.mark.parametrize("name", sorted(set().union(*_tables().values())))
def test_traced_name_is_defined_where_it_is_patched(name):
    layer, *path = name.split(".")
    module = importlib.import_module(f"soficgibbs.{layer}")
    if len(path) == 1:
        fn = vars(module).get(path[0])
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    else:
        cls_name, attr = path
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == module.__name__
        assert inspect.isfunction(vars(cls).get(attr))
