"""Every function the benchmark's span tracer wraps still exists where it patches it.

`perfbench/tracer.py` replaces module globals by name; a refactor that drops
or renames one of them breaks only traced benchmark runs, so check the names
here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

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
