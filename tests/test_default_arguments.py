"""Every default argument of a function or method defined under src/bold2img
is passed by some call in src/ or tests/. A default that no call passes is a
constant with a second name: it belongs in the body or in a module constant.

Calls are matched by name, as in `test_unreferenced_definitions.py`: `f(...)`
and `obj.f(...)` both call every function or method named `f`, and
`C(...)` calls `C.__init__`. An argument counts as passed when a call gives
it by position or by keyword; a call with `*args` or `**kwargs` passes
everything. A method's `self` or `cls` is not counted as a position.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bold2img"


def _functions(tree: ast.Module):
    """(callable name, node, leading positions bound by the call) of every
    function and method, nested ones included; a class's `__init__` is
    called by the class's name."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    methods.add(m)
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in m.decorator_list)
                    yield (node.name if m.name == "__init__" else m.name), m, 0 if static else 1
        elif isinstance(node, ast.FunctionDef) and node not in methods:
            yield node.name, node, 0


def _defaulted(fn: ast.FunctionDef, bound: int) -> list[tuple[str, int | None]]:
    """(name, position after the bound ones, or None if keyword-only) of each
    argument with a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls(trees: list[ast.Module]) -> dict[str, list[ast.Call]]:
    found = defaultdict(list)
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name:
                    found[name].append(n)
    return found


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (position is not None and position < len(call.args))


def unpassed_defaults(defining: dict[str, str], others: list[str]) -> list[str]:
    """`function.argument (file:line)` for each default argument in the
    `defining` sources ({label: source}) that no call in any source passes."""
    trees = {label: ast.parse(src) for label, src in defining.items()}
    calls = _calls(list(trees.values()) + [ast.parse(src) for src in others])
    out = []
    for label, tree in trees.items():
        for callable_name, fn, bound in _functions(tree):
            for arg, position in _defaulted(fn, bound):
                if not any(_passes(c, arg, position) for c in calls[callable_name]):
                    out.append(f"{fn.name}.{arg} ({label}:{fn.lineno})")
    return out


def test_detector():
    defining = {
        "m.py": (
            "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
            "def g(x=0): pass\n"
            "def h(x=0): pass\n"
            "class C:\n"
            "    def __init__(self, n=1, m=2): pass\n"
            "    def run(self, k=5, j=6): pass\n"
            "    @staticmethod\n"
            "    def s(q=7): pass\n"
            "def outer():\n"
            "    def inner(w=8): pass\n"
            "    return inner()\n"
        )
    }
    uses = (
        "f(0, 1, d=2)\n"
        "g(*xs)\n"
        "obj.h(**kw)\n"
        "C(3).run(j=1)\n"
        "C.s(1)\n"
    )
    assert unpassed_defaults(defining, [uses]) == [
        "f.c (m.py:1)",
        "f.e (m.py:1)",
        "__init__.m (m.py:5)",
        "run.k (m.py:6)",
        "inner.w (m.py:10)",
    ]


def test_every_default_argument_in_src_is_passed():
    src = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    tests = [p.read_text() for p in sorted((ROOT / "tests").rglob("*.py"))]
    assert src
    assert unpassed_defaults(src, tests) == []
