"""Every top-level function, class and assigned name, and every method, that is
not a dunder, defined under src/bold2img is referenced by name somewhere in src/ or tests/
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(node: ast.stmt) -> list[str]:
    """The names a module-level assignment binds (`X = ...`, `X: T = ...`, `a, b = ...`)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    names = []
    for t in targets:
        elts = t.elts if isinstance(t, ast.Tuple) else [t]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each top-level function, class and assigned name, and
    of the methods of those classes; dunders left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m) for m in node.body if isinstance(m, ast.FunctionDef) and not _dunder(m.name)]
        out += [(name, node) for name in _assigned(node) if not _dunder(name)]
    return out


def unreferenced(defining: dict[str, str], others: list[str]) -> list[str]:
    """`name (file:line)` for each definition in the `defining` sources
    ({label: source}) that no source, `others` included, references outside
    the definition itself."""
    trees = {label: ast.parse(src) for label, src in defining.items()}
    total = sum((references(t) for t in trees.values()), Counter())
    total += sum((references(ast.parse(src)) for src in others), Counter())
    return [
        f"{name} ({label}:{d.lineno})"
        for label, tree in trees.items()
        for name, d in definitions(tree)
        if total[name] - references(d)[name] <= 0
    ]


def test_detector():
    defining = {
        "m.py": (
            "import os\n"
            "LIMIT, _SPARE = 3, 4\n"
            "def used(): return LIMIT\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def method(self): return self\n"
            "    def dead(self): pass\n"
            "__all__ = ['dead', 'UNREAD']\n"
            "UNREAD: int = 5\n"
        )
    }
    assert unreferenced(defining, ["from m import C, used\nused()\nC().method()\n"]) == [
        "_SPARE (m.py:2)",
        "recursive (m.py:4)",
        "dead (m.py:8)",
        "UNREAD (m.py:10)",
    ]


def test_every_definition_in_src_is_referenced():
    src = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    tests = [p.read_text() for p in sorted((ROOT / "tests").rglob("*.py"))]
    assert src
    assert unreferenced(src, tests) == []
