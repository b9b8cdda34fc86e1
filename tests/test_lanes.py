"""Forked lanes: the requests they serve, the rows they fill, their BLAS threads, and their end."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from bold2img import lanes
from bold2img.lanes import Lanes, blas_threads, fill_rows, shared_zeros

SRC = Path(__file__).resolve().parents[1] / "src"
needs_blas_threads = pytest.mark.skipif(not blas_threads(), reason="numpy's BLAS thread count cannot be set")


def _no_lane_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows(lo, hi):
    """Each row holds its index, the pid that filled it and that pid's BLAS threads."""
    return np.array([[i, os.getpid(), blas_threads()] for i in range(lo, hi)], np.int64)


@needs_blas_threads
@pytest.mark.parametrize("lanes_asked", [1, 2, 3, 8])
def test_span_i_fills_its_rows_on_lane_i_mod_l(lanes_asked):
    threads = blas_threads()
    spans = [(0, 3), (3, 6), (6, 9), (9, 10)]
    out = fill_rows((10, 3), np.int64, spans, _rows, lanes_asked)
    _no_lane_left()
    assert blas_threads() == threads
    assert out[:, 0].tolist() == list(range(10))
    n = min(lanes_asked, len(spans))
    pids = [int(out[lo, 1]) for lo, _ in spans]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == n and pids == [pids[i % n] for i in range(len(spans))]
    if n > 1:
        assert set(out[:, 2].tolist()) == {max(1, threads // n)}


@needs_blas_threads
def test_lanes_forked_once_serve_every_request():
    threads = blas_threads()
    served = shared_zeros([((4, 3), np.int64)])[0]  # the pid that served request r on lane l

    def serve(lane, request, where):
        served[request, lane] = os.getpid()

    with Lanes(3, serve) as lanes_:
        for request in range(4):
            lanes_.post(request)
            serve(0, request, [""])
            lanes_.collect()
            assert (served[request] != 0).all()  # every lane answered before `collect` returned
    _no_lane_left()
    assert blas_threads() == threads
    assert set(served[:, 0].tolist()) == {os.getpid()}
    forked = [set(served[:, lane].tolist()) for lane in (1, 2)]
    assert [len(pids) for pids in forked] == [1, 1] and len(forked[0] | forked[1] | {os.getpid()}) == 3


@needs_blas_threads
def test_a_lane_killed_between_requests_is_named_at_the_next_collect():
    threads = blas_threads()
    pids = shared_zeros([((2,), np.int64)])[0]

    def serve(lane, request, where):
        pids[lane] = os.getpid()

    with pytest.raises(lanes.LaneError, match=r"^lane 1 was killed by signal 9$"):
        with Lanes(2, serve) as lanes_:
            lanes_.post(0)
            lanes_.collect()
            os.kill(int(pids[1]), signal.SIGKILL)
            os.waitid(os.P_PID, int(pids[1]), os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
            lanes_.post(1)  # into a pipe nobody reads
            lanes_.collect()
    _no_lane_left()
    assert blas_threads() == threads


def test_no_fork_where_blas_threads_cannot_be_set(monkeypatch):
    monkeypatch.setattr(lanes, "_blas_thread_calls", lambda: None)
    out = fill_rows((4, 3), np.int64, [(0, 2), (2, 4)], _rows, 2)
    assert set(out[:, 1].tolist()) == {os.getpid()}


@needs_blas_threads
def test_a_failed_lane_names_its_span_and_the_parent_finishes_its_own():
    threads = blas_threads()
    done = []

    def fill(lo, hi):
        if lo == 9:  # lane 1's second span
            raise ValueError("boom")
        done.append(lo)
        return _rows(lo, hi)

    with pytest.raises(RuntimeError, match=r"lane 1 failed at rows 9:10: ValueError: boom"):
        fill_rows((10, 3), np.int64, [(0, 3), (3, 6), (6, 9), (9, 10)], fill, 2)
    _no_lane_left()
    assert blas_threads() == threads
    assert done == [0, 6]  # lane 0's spans; lane 1's appends stay in its own process


@needs_blas_threads
def test_the_callers_own_failure_kills_and_reaps_its_lanes():
    threads = blas_threads()

    def fill(lo, hi):
        if lo == 0:
            raise KeyError("own")
        time.sleep(30)  # a lane still working when the caller fails
        return _rows(lo, hi)

    t0 = time.monotonic()
    with pytest.raises(KeyError, match="own"):
        fill_rows((6, 3), np.int64, [(0, 3), (3, 6)], fill, 2)
    assert time.monotonic() - t0 < 20
    _no_lane_left()
    assert blas_threads() == threads


def _state(pid: int) -> str:
    """A process's state letter; 'gone' once it no longer exists."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "gone"


@needs_blas_threads
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_lanes_die_with_a_killed_parent():
    script = textwrap.dedent(
        f"""
        import os, sys, time
        sys.path.insert(0, {str(SRC)!r})
        import numpy as np
        from bold2img.lanes import fill_rows

        def fill(lo, hi):
            if lo:
                os.write(1, b"%d\\n" % os.getpid())  # one write: the two lanes' lines cannot interleave
            time.sleep(60)
            return np.zeros((hi - lo, 1))

        fill_rows((3, 1), np.float64, [(0, 1), (1, 2), (2, 3)], fill, 3)
        """
    )
    # its own process group, so that the clean-up below reaches every lane whatever fails
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        lane_pids = [int(parent.stdout.readline()) for _ in range(2)]
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 10
        while any(_state(p) not in ("gone", "Z") for p in lane_pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [_state(p) in ("gone", "Z") for p in lane_pids] == [True, True]
    finally:
        try:
            os.killpg(parent.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        parent.wait()
        parent.stdout.close()
