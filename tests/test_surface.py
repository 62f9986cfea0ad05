"""The package's option surface does not grow unnoticed.

ROADMAP aim 2 adds a parameter only when a second real caller needs a
second value. This counts every parameter with a default value (positional
or keyword-only) of every function, method and lambda in
src/detclust/*.py. A change that adds one raises MAX_DEFAULTED and says
why in CHANGES.md; a change that removes some lowers it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detclust"
MAX_DEFAULTED = 62


def defaulted_parameters(source):
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            n += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return n


def test_defaulted_parameter_count_is_capped():
    total = sum(
        defaulted_parameters(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    )
    assert 0 < total <= MAX_DEFAULTED  # 0 would mean the counter saw nothing
