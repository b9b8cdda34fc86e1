"""Every function the benchmark's span tracer wraps still exists where it patches it.

`perfbench/tracer.py` replaces module globals by name, and wraps a few
methods in wrappers that pass on a fixed argument list; a refactor that drops
or renames one of them, or changes such a method's arguments, breaks only
traced benchmark runs, so check the names and the arities here against the
package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from bold2img.substrate import ops

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_function_site_resolves():
    sites = _tracer_module().FUNCTION_SITES
    assert sites
    missing = [
        (mod_name, attr)
        for mod_name, attr, _ in sites
        if not callable(vars(importlib.import_module(mod_name)).get(attr))
    ]
    assert missing == []


def test_every_fixed_argument_method_hook_takes_self_alone():
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        hooked = {
            f"{owner.__name__}.{attr}": (getattr(owner, attr), original)
            for owner, attr, original in tracer._patches
            if isinstance(owner, type)
        }
    finally:
        tracer.uninstall()
    variadic = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    fixed = {
        name: [p.name for p in inspect.signature(original).parameters.values()]
        for name, (wrapper, original) in hooked.items()
        if not any(p.kind in variadic for p in inspect.signature(wrapper, follow_wrapped=False).parameters.values())
    }
    assert fixed == {"PreprocCache.build": ["self"], "ParamStore.zero_grads": ["self"]}


def test_conv2d_positional_parameters_are_the_ones_the_tracer_reads():
    # `op_kind` reads the stride from args[3], `_conv_counts` reads x and w
    # from args[0] and args[1]; the prologue's and epilogue's inputs come by
    # keyword only
    params = inspect.signature(ops.conv2d).parameters.values()
    kinds = {p.name: p.kind for p in params}
    assert [n for n, k in kinds.items() if k is inspect.Parameter.POSITIONAL_OR_KEYWORD] == ["x", "w", "b", "stride"]
    assert [n for n, k in kinds.items() if k is inspect.Parameter.KEYWORD_ONLY] == ["norm", "shift", "residual"]
    assert len(kinds) == 7
