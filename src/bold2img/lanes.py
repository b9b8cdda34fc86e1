"""Forked lanes: rows of one array computed by processes with one BLAS thread each.

About half of a guided U-Net forward is single-threaded numpy (norms, adds,
copies), so one process on two BLAS threads leaves a core idle much of the
time, while two single-thread processes keep both busy. `fill_rows` splits
fixed spans of rows over such lanes. The calling process is lane 0; it forks
the others, and every lane writes its rows into one shared anonymous mapping.
Lanes never run multi-threaded BLAS: two processes on two BLAS threads each
oversubscribe the cores and run several times slower than one.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import mmap
import os
import signal
import sys
import traceback

import numpy as np

# (getter, setter) of the thread count, by the names numpy's bundled OpenBLAS exports
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_PR_SET_PDEATHSIG = 1
_ERROR_BYTES = 4096  # the most of a lane's error message that reaches the parent, in one atomic pipe write


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        handle = ctypes.CDLL(lib)
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS; 0 when it cannot be read."""
    calls = _blas_thread_calls()
    return int(calls[0]()) if calls else 0


@functools.cache
def _prctl():
    """libc's prctl, taking an option and one argument, or None where there is none (not Linux)."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    return prctl


def fill_rows(shape: tuple, dtype, spans: list[tuple[int, int]], fill, lanes: int) -> np.ndarray:
    """An array of `shape` whose rows lo:hi are `fill(lo, hi)`, for each (lo, hi) in `spans`.

    Span i runs on lane i mod L, where L = min(`lanes`, len(spans)). Lane 0
    is the calling process, which forks lanes 1..L-1; while they run, every
    lane's BLAS has max(1, threads // L) of the caller's threads, and the
    caller gets its own count back afterwards. With L = 1, or where numpy's
    BLAS thread count cannot be set, every span runs here, unforked.

    When a forked lane fails, this raises a RuntimeError naming the lane,
    the span it failed on and its error; when the caller's own spans raise,
    the lanes are killed and the error propagates. Either way every lane is
    reaped before this returns, and a lane is killed if the caller dies. The
    lanes are forked, so no other thread of the caller may be running Python
    code or holding a lock that `fill` needs.
    """
    calls = _blas_thread_calls()
    n_lanes = min(lanes, len(spans)) if calls else 1
    if n_lanes <= 1:
        out = np.empty(shape, dtype)
        for lo, hi in spans:
            out[lo:hi] = fill(lo, hi)
        return out

    get_threads, set_threads = calls
    threads = get_threads()
    lane_threads = max(1, threads // n_lanes)
    out = np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize), dtype).reshape(shape)
    prctl = _prctl()
    sys.stdout.flush()
    sys.stderr.flush()
    set_threads(lane_threads)
    forked = []  # (lane, its spans, pid, read end of its error pipe)
    try:
        for lane in range(1, n_lanes):
            own = spans[lane::n_lanes]
            forked.append((lane, own, *_fork_lane(out, own, fill, prctl, set_threads, lane_threads)))
        for lo, hi in spans[::n_lanes]:
            out[lo:hi] = fill(lo, hi)
    except BaseException:
        for _, _, pid, _ in forked:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failures = [_reap(*f) for f in forked]
        set_threads(threads)
    failures = [f for f in failures if f]
    if failures:
        raise RuntimeError("; ".join(failures))
    return out.copy()


def _fork_lane(out: np.ndarray, spans, fill, prctl, set_threads, threads: int) -> tuple[int, int]:
    """Fork one lane that fills `spans` of `out`; returns its pid and the read end of its error pipe.

    The lane leaves only through `os._exit`, so it runs none of the parent's
    exit handlers: 0 once every span is written, 1 after it has printed its
    error to stderr and sent it, with the failing span, through the pipe.
    """
    parent = os.getpid()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    code, span = 1, None
    try:
        os.close(read_end)
        if prctl is not None:
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent died before the death signal was armed
            raise RuntimeError("parent exited before the lane started")
        set_threads(threads)
        for span in spans:
            out[span[0] : span[1]] = fill(*span)
        code = 0
    except BaseException as e:
        traceback.print_exc()
        where = f"rows {span[0]}:{span[1]}" if span else "start-up"
        os.write(write_end, f"{where}: {type(e).__name__}: {e}".encode()[:_ERROR_BYTES])
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _reap(lane: int, spans, pid: int, read_end: int) -> str:
    """Wait for one lane; its failure as a message, or '' when it succeeded."""
    _, status = os.waitpid(pid, 0)
    message = os.read(read_end, _ERROR_BYTES).decode(errors="replace")
    os.close(read_end)
    if status == 0:
        return ""
    if os.WIFSIGNALED(status):
        rows = ", ".join(f"{lo}:{hi}" for lo, hi in spans)
        return f"lane {lane} (rows {rows}) was killed by signal {os.WTERMSIG(status)}"
    return f"lane {lane} failed at {message or 'an unknown point'}"
