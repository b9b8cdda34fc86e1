"""Every name a module under src/bold2img imports is used in that module.

Package `__init__.py` files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bold2img"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_detector():
    src = "from __future__ import annotations\nimport os.path\nimport json\nfrom a import b as c, d\nos.path.join(d)\n"
    assert unused_imports(src) == ["line 3: json", "line 4: c"]


def test_no_unused_imports_in_src():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = {str(p.relative_to(SRC)): unused_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}
