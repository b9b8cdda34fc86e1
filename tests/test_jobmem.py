"""tools/jobmem.py counts the memory of forked children, not the caller's alone."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the caller forks a child that writes 50 MB, holds it for 0.3 s and exits
FORKS_50_MB = """
import os, time
pid = os.fork()
if pid == 0:
    block = bytearray(b"\\x01") * (50 << 20)
    time.sleep(0.3)
    os._exit(0)
os.waitpid(pid, 0)
"""


@pytest.mark.skipif(not Path("/proc/self/smaps_rollup").exists(), reason="needs Linux /proc/<pid>/smaps_rollup")
def test_job_peak_counts_a_forked_child():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "jobmem.py"), sys.executable, "-c", FORKS_50_MB],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    record = json.loads(out.strip().splitlines()[-1])
    assert record["exit"] == 0 and record["samples"] > 10
    # PSS against PSS: VmHWM counts in full the library pages other processes share
    assert record["job_peak_pss_mb"] >= record["caller_peak_pss_mb"] + 50, record
    assert record["job_peak_pss_mb"] > record["caller_vmhwm_mb"], record
