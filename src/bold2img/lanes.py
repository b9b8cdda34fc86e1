"""Forked lanes: work split over processes with one BLAS thread each.

About half of a training step or of a guided U-Net forward is
single-threaded numpy (norms, adds, copies), so one process on two BLAS
threads leaves a core idle much of the time, while two single-thread
processes keep both busy. `Lanes` forks such processes once and hands them
numbered requests: `on_lanes` deals independent items over them (the
stimuli and runs of `gen-data`, the runs `preprocess` rewrites), `fill_rows`
splits fixed spans of rows over them, and the training loop gives each lane
shards of every step's batch. The calling process is lane 0; it forks the
others, which hand results back through shared anonymous mappings
(`shared_zeros`) or files. Lanes never run multi-threaded BLAS: two
processes on two BLAS threads each oversubscribe the cores and run
several times slower than one.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import mmap
import os
import signal
import struct
import sys
import traceback
from dataclasses import dataclass

import numpy as np

# (getter, setter) of the thread count, by the names numpy's bundled OpenBLAS exports
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_PR_SET_PDEATHSIG = 1
_ERROR_BYTES = 4096  # the most of a lane's error message that reaches the parent, in one atomic pipe write
_REQUEST = struct.Struct("<q")
_ALIGN = 64  # byte alignment of each array in a shared mapping


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


def lane_count(asked: int) -> int:
    """`asked`, or 1 (nothing forked) where numpy's BLAS thread count cannot be set."""
    return asked if _blas_thread_calls() else 1


@functools.cache
def _prctl():
    """libc's prctl, taking an option and one argument, or None where there is none (not Linux)."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    return prctl


def shared_zeros(specs: list[tuple[tuple, np.dtype]]) -> list[np.ndarray]:
    """Zeroed arrays of the (shape, dtype) pairs in `specs`, laid out in one shared
    anonymous mapping: what one process writes there, every lane forked from it
    (before or after the write) reads."""
    nbytes = [int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in specs]
    offsets = np.cumsum([0, *(-(-n // _ALIGN) * _ALIGN for n in nbytes)])
    buf = mmap.mmap(-1, max(1, int(offsets[-1])))
    return [
        np.frombuffer(buf, dtype, int(np.prod(shape)), int(offset)).reshape(shape)
        for (shape, dtype), offset in zip(specs, offsets)
    ]


class LaneError(RuntimeError):
    """Forked lanes failed. `kinds` holds the type name of each failed lane's
    error, or '' for a lane that a signal killed."""

    def __init__(self, failures: list[tuple[str, str]]):
        super().__init__("; ".join(message for _, message in failures))
        self.kinds = [kind for kind, _ in failures]


@dataclass
class _Lane:
    lane: int
    pid: int
    requests: int  # write end of the pipe the lane reads requests from
    replies: int  # read end of the pipe the lane answers each request on
    errors: int  # read end of the pipe the lane sends its error through


class Lanes:
    """Lanes 1..n-1 of the calling process (lane 0), forked on entry and
    reaped on exit of a `with` block.

    Each forked lane runs `serve(lane, request, where)` for every request
    the caller `post`s, and `collect` waits until all have done so. `where`
    is a one-item list whose text the lane sets to say what it is working
    on; a failure is named by it. While the lanes live, every lane, the
    caller included, has max(1, threads // n) of the caller's BLAS threads.
    Leaving the block ends the lanes after their last request, or kills them
    if the block raised; either way every lane is reaped and the caller's
    thread count restored, and a lane is killed if the caller dies. With
    n = 1 nothing is forked. The lanes are forked, so no other thread of the
    caller may be running Python code or holding a lock that `serve` needs.
    """

    def __init__(self, n: int, serve):
        self.n, self._serve = n, serve
        self._forked: list[_Lane] = []
        self._threads = 0

    def __enter__(self) -> "Lanes":
        if self.n <= 1:
            return self
        get_threads, set_threads = _blas_thread_calls()
        self._threads = get_threads()
        lane_threads = max(1, self._threads // self.n)
        set_threads(lane_threads)
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            for lane in range(1, self.n):
                self._forked.append(self._fork(lane, lane_threads))
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def post(self, request: int):
        """Start every forked lane on `request`."""
        for lane in self._forked:
            try:
                os.write(lane.requests, _REQUEST.pack(request))
            except BrokenPipeError:
                pass  # the lane has ended: `collect` reaps it and names its failure

    def collect(self):
        """Wait until every forked lane has served the last request; a lane
        that ended instead is reaped, and a LaneError names each such lane."""
        failed = [lane for lane in self._forked if not os.read(lane.replies, 1)]
        if failed:
            self._forked = [lane for lane in self._forked if lane not in failed]
            raise LaneError([_reap(lane) for lane in failed])

    def __exit__(self, exc_type, exc, tb):
        if self.n <= 1:
            return False
        try:
            for lane in self._forked:
                if exc_type is not None:
                    os.kill(lane.pid, signal.SIGKILL)
                os.close(lane.requests)  # an idle lane reads the end of its requests and exits
            failures = [f for f in (_reap(lane) for lane in self._forked) if f[1]]
        finally:
            self._forked = []
            _blas_thread_calls()[1](self._threads)
        if failures and exc_type is None:
            raise LaneError(failures)
        return False

    def _fork(self, lane: int, threads: int) -> _Lane:
        """Fork lane `lane`. It leaves only through `os._exit`, so it runs none
        of the parent's exit handlers: 0 once its requests end, 1 after it has
        printed its error to stderr and sent it through its error pipe."""
        parent = os.getpid()
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        errors_r, errors_w = os.pipe()
        pid = os.fork()
        if pid:
            for fd in (requests_r, replies_w, errors_w):
                os.close(fd)
            return _Lane(lane, pid, requests_w, replies_r, errors_r)
        code, where = 1, ["start-up"]
        try:
            # the caller's ends of this lane's pipes and of every earlier lane's: held here, they
            # would hide the end of another lane's requests
            for other in [*self._forked, _Lane(lane, 0, requests_w, replies_r, errors_r)]:
                for fd in (other.requests, other.replies, other.errors):
                    os.close(fd)
            prctl = _prctl()
            if prctl is not None:
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:  # the parent died before the death signal was armed
                raise RuntimeError("parent exited before the lane started")
            _blas_thread_calls()[1](threads)
            while request := os.read(requests_r, _REQUEST.size):
                self._serve(lane, _REQUEST.unpack(request)[0], where)
                os.write(replies_w, b"\1")
            code = 0
        except BaseException as e:
            traceback.print_exc()
            kind = type(e).__name__
            os.write(errors_w, f"{kind}\n{where[0]}: {kind}: {e}".encode()[:_ERROR_BYTES])
        finally:
            try:
                sys.stderr.flush()
            finally:
                os._exit(code)


def _reap(lane: _Lane) -> tuple[str, str]:
    """Wait for one lane: the type name of its error and its failure as a
    message, both '' when it succeeded."""
    _, status = os.waitpid(lane.pid, 0)
    kind, _, message = os.read(lane.errors, _ERROR_BYTES).decode(errors="replace").partition("\n")
    for fd in (lane.replies, lane.errors):
        os.close(fd)
    if status == 0:
        return "", ""
    if os.WIFSIGNALED(status):
        return "", f"lane {lane.lane} was killed by signal {os.WTERMSIG(status)}"
    return kind, f"lane {lane.lane} failed at {message or 'an unknown point'}"


def on_lanes(items: list, work, lanes: int, name) -> None:
    """`work(item)` for each of `items`, item i on lane i mod L, where
    L = min(`lanes`, len(`items`)) (`Lanes`; with L <= 1, or where numpy's
    BLAS thread count cannot be set, every item runs here, unforked).

    What a forked lane's work leaves in its own memory is lost with the lane:
    work hands results back by writing files or shared mappings
    (`shared_zeros`). `name(item)` says what an item is. When a forked lane
    fails, this raises a LaneError naming the lane, the item it failed on and
    its error; when the caller's own item raises, the lanes are killed and
    the error propagates with a note (`__notes__`) naming the item.
    """
    n = lane_count(max(1, min(lanes, len(items))))

    def serve(lane, _, where):
        for item in items[lane::n]:
            where[0] = name(item)
            work(item)

    where = [""]
    with Lanes(n, serve) as forked:
        forked.post(0)
        try:
            serve(0, 0, where)
        except BaseException as e:
            e.__notes__ = [*getattr(e, "__notes__", ()), f"lane 0 failed at {where[0]}"]  # add_note, 3.11+
            raise
        forked.collect()


def fill_rows(shape: tuple, dtype, spans: list[tuple[int, int]], fill, lanes: int) -> np.ndarray:
    """An array of `shape` whose rows lo:hi are `fill(lo, hi)`, for each (lo, hi) in `spans`.

    Span i runs on lane i mod L, where L = min(`lanes`, len(spans))
    (`on_lanes`). When a forked lane fails, this raises a RuntimeError
    naming the lane, the span it failed on and its error; when the caller's
    own spans raise, the lanes are killed and the error propagates.
    """
    out = shared_zeros([(shape, dtype)])[0]

    def fill_span(span):
        out[span[0] : span[1]] = fill(*span)

    on_lanes(spans, fill_span, lanes, lambda span: "rows %d:%d" % span)
    return out.copy()
