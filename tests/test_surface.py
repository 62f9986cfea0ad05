"""The package's option surface does not grow unnoticed.

ROADMAP aim 2 adds a parameter only when a second real caller needs a
second value. This counts every parameter with a default value (positional
or keyword-only) of every function, method and lambda in
src/detclust/*.py, and every field with a default value of every
@dataclass record there, so moving a keyword into a record is counted too.
A change that adds one raises MAX_DEFAULTED and says why in CHANGES.md; a
change that removes some lowers it. Nor does the package keep code that
nothing reaches: every public top-level function and class is exported
or named by other code in src/detclust, and every exported name is read
by the package itself, a demo or the acceptance tests, not by unit
tests alone.
"""

import ast
from collections import Counter
from pathlib import Path

import detclust

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detclust"
MAX_DEFAULTED = 31  # 23 function parameters + 8 record fields


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


def _names(node):
    """Every name the code under node reads, imports or looks up as an
    attribute (docstrings and comments do not count)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def orphans(sources):
    """Public top-level functions and classes of the {module: source} map
    that no code outside their own body names and __all__ does not list."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    exported = set(detclust.__all__)
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if named[name] - _names(node)[name] == 0:
                found.append(f"{mod}.{name}")
    return found


def test_no_public_name_is_an_orphan():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []


def test_orphan_guard_sees_an_unreached_function():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef lonely():\n    return lonely()\n",
        "b": "from .a import used\n\nX = used()\n",
    }
    assert orphans(sources) == ["a.lonely"]


def unread_exports(sources, readers):
    """The detclust.__all__ names that no code reads: sources maps the
    package's modules but __init__ to their source, where reads inside the
    name's own top-level definition do not count; readers are the sources
    of the other callers that count (demos, acceptance tests)."""
    read = Counter()
    for src in readers:
        read.update(_names(ast.parse(src)))
    for src in sources.values():
        tree = ast.parse(src)
        read.update(_names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read.subtract({node.name: _names(node)[node.name]})
    return [name for name in detclust.__all__ if read[name] <= 0]


def test_every_export_has_a_reader_besides_unit_tests():
    sources = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    readers = [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    ]
    assert unread_exports(sources, readers) == []
