"""Every top-level function and class, and every method that is not a dunder,
defined under src/bold2img is referenced by name somewhere in src/ or tests/
outside its own definition.

A reference is a name read (`f(...)`) or an attribute (`obj.f`); imports and
`__all__` strings do not count, so a re-export alone does not keep a
definition alive.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bold2img"


def references(node: ast.AST) -> Counter:
    """How often each name is read as a name or an attribute inside `node`."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def definitions(tree: ast.Module) -> list:
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def unreferenced(defining: dict[str, str], others: list[str]) -> list[str]:
    """`name (file:line)` for each definition in the `defining` sources
    ({label: source}) that no source, `others` included, references outside
    the definition itself."""
    trees = {label: ast.parse(src) for label, src in defining.items()}
    total = sum((references(t) for t in trees.values()), Counter())
    total += sum((references(ast.parse(src)) for src in others), Counter())
    return [
        f"{d.name} ({label}:{d.lineno})"
        for label, tree in trees.items()
        for d in definitions(tree)
        if total[d.name] - references(d)[d.name] <= 0
    ]


def test_detector():
    defining = {
        "m.py": (
            "import os\n"
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def method(self): return self\n"
            "    def dead(self): pass\n"
            "__all__ = ['dead']\n"
        )
    }
    assert unreferenced(defining, ["from m import C, used\nused()\nC().method()\n"]) == [
        "recursive (m.py:3)",
        "dead (m.py:7)",
    ]


def test_every_definition_in_src_is_referenced():
    src = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    tests = [p.read_text() for p in sorted((ROOT / "tests").rglob("*.py"))]
    assert src
    assert unreferenced(src, tests) == []
