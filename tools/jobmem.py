"""Job-wide memory of a command and the processes it forks.

    python3 tools/jobmem.py COMMAND [ARG ...]

Runs COMMAND and, until it exits, sums the proportional set size (PSS,
`/proc/<pid>/smaps_rollup`) of its process and of every process descended
from it, such as forked lanes, sleeping SAMPLE_S between samples (a sample
scans /proc, so samples come a few ms apart). PSS splits each shared page
between the processes that map it, so copy-on-write pages count once. The
last line printed is one JSON record:
- `job_peak_pss_mb`: the largest sampled sum. Sampling can miss a short peak,
  so this is a lower bound.
- `caller_vmhwm_mb`: the command's own peak resident set (`VmHWM`) as last
  read, what a metric of the calling process alone reports.
- `caller_peak_pss_mb`, `samples` and the command's `exit` code.
Linux only, standard library only; the exit status is the command's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SAMPLE_S = 0.002


def _field_kb(path: str, name: str) -> int:
    """The `name:` line of a /proc file in kB; 0 once the process is gone."""
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(name):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def descendants(root: int) -> list[int]:
    """root and every live process descended from it."""
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    parent[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (FileNotFoundError, ProcessLookupError, IndexError):
                continue
    found, frontier = [root], [root]
    while frontier:
        frontier = [pid for pid, ppid in parent.items() if ppid in frontier]
        found += frontier
    return found


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    proc = subprocess.Popen(argv)
    job_peak = caller_peak = vmhwm = samples = 0
    while proc.poll() is None:
        caller = _field_kb(f"/proc/{proc.pid}/smaps_rollup", "Pss:")
        job = caller + sum(_field_kb(f"/proc/{pid}/smaps_rollup", "Pss:") for pid in descendants(proc.pid)[1:])
        vmhwm = max(vmhwm, _field_kb(f"/proc/{proc.pid}/status", "VmHWM:"))
        job_peak, caller_peak, samples = max(job_peak, job), max(caller_peak, caller), samples + 1
        time.sleep(SAMPLE_S)
    record = {"job_peak_pss_mb": job_peak / 1024, "caller_vmhwm_mb": vmhwm / 1024,
              "caller_peak_pss_mb": caller_peak / 1024, "samples": samples, "exit": proc.returncode}
    print(json.dumps(record), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
