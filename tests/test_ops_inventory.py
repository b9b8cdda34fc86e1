"""The substrate holds what the models run: every public function of
`substrate/ops.py` is called as `ops.<name>` by a model module, or by an op
that a model module calls. A call only from tests does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bold2img"
MODEL_MODULES = ("diffgen/unet.py", "diffgen/lora.py", "diffgen/loss.py", "brainmod.py", "trainer.py", "evalkit/metrics.py")
# ops kept for a caller outside src/, with the file that calls it: the
# benchmark's tracer test builds its traced loss with ops.mean
CALLED_OUTSIDE_SRC = {"mean": ROOT / "perfbench" / "tests" / "test_perfbench.py"}


def _ops_calls(tree: ast.AST) -> set[str]:
    return {
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "ops"
    }


def _name_calls(tree: ast.AST) -> set[str]:
    return {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_every_public_op_is_run_by_a_model():
    public = {
        n.name: n
        for n in ast.parse((SRC / "substrate" / "ops.py").read_text()).body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    }
    run = set().union(*(_ops_calls(ast.parse((SRC / m).read_text())) for m in MODEL_MODULES))
    assert run <= set(public), sorted(run - set(public))
    frontier = set(run)
    while frontier:  # ops that a run op calls by name, e.g. attention's softmax
        frontier = {c for name in frontier for c in _name_calls(public[name]) if c in public} - run
        run |= frontier
    kept = {name for name, path in CALLED_OUTSIDE_SRC.items() if f"ops.{name}(" in path.read_text()}
    assert kept == set(CALLED_OUTSIDE_SRC), "an outside caller is gone; drop its op"
    assert sorted(set(public) - run - kept) == []
