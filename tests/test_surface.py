"""The package's option surface does not grow unnoticed.

ROADMAP aim 2 adds a parameter only when a second real caller needs a
second value. This counts every parameter with a default value (positional
or keyword-only) of every function, method and lambda in
src/detclust/*.py, and every field with a default value of every
@dataclass record there, so moving a keyword into a record is counted too.
A change that adds one raises MAX_DEFAULTED and says why in CHANGES.md; a
change that removes some lowers it.
"""

import ast
from pathlib import Path

import detclust

SRC = Path(__file__).resolve().parent.parent / "src" / "detclust"
MAX_DEFAULTED = 53  # 40 function parameters + 13 record fields


def _is_dataclass(decorator):
    name = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(name, ast.Name) and name.id == "dataclass"


def defaulted_parameters(source):
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            n += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            n += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
            )
    return n


def test_defaulted_parameter_count_is_capped():
    total = sum(
        defaulted_parameters(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    )
    assert 0 < total <= MAX_DEFAULTED  # 0 would mean the counter saw nothing


def test_every_export_resolves_once():
    # `from detclust import *` fails on an __all__ name the package lacks
    names = detclust.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(detclust, n)] == []
