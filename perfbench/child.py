"""Runs one timed job of the benchmark in a fresh process.

    python3 perfbench/child.py SPEC.json

SPEC names the package source directory, the job (a list of CLI argument
lists, dispatched in order through ``bold2img.cli.dispatch``), whether to
trace, and where to write the result. The result records the job's wall time
and exit codes, the process's peak resident memory, the time from spawn to
ready, and with tracing on, the per-call span summary. The time the parent
spawned this process arrives in SPEC as a ``time.monotonic()`` reading, which
is comparable across processes on one machine.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this process since exec.

    ``ru_maxrss`` also counts the parent's peak when the parent spawned this
    process by vfork, so the kernel's VmHWM is preferred where it exists.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from bold2img.cli import dispatch

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    codes = []
    t0 = time.perf_counter()
    try:
        for argv in spec["job"]:
            codes.append(dispatch(argv))
            if codes[-1] != 0:
                break
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()

    result = {
        "codes": codes,
        "wall_s": wall,
        "startup_s": ready - spec["spawn_t"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = summarize(tracer.spans, tracer.counters, spec["workers"])
        if spec.get("spans"):
            with open(spec["spans"], "w") as f:
                for s in tracer.spans:
                    f.write(json.dumps(s) + "\n")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
