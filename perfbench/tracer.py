"""Span tracer installed from outside the program, around the layers' public functions.

Every wrapper is patched where its caller looks the function up (a module
global or a class attribute) and removed again by ``Tracer.uninstall``. Spans
are kept in memory as ``[name, start, end, parent, op, thread]`` lists; a
span's parent is the innermost open span of the same thread, and ``op`` is
the id of the nearest enclosing operation span (a training step, a DDIM batch
of trials, or one simulated run).

``substrate.ops`` calls become ``substrate.<kind>.fwd`` spans, where kind is
``conv2d_s1``, ``conv2d_s2``, ``group_norm``, ``linear``, ``attention``,
``silu`` or ``other``. An op called from inside another op (the matmuls and
softmax inside ``attention``) is folded into the outer op. Each graph node an
op creates gets its backward closure wrapped, giving ``substrate.<kind>.bwd``
spans under ``substrate.backward``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, THREAD = range(6)

# spans that start a new operation id for everything nested inside them
OP_SPANS = ("trainer.step", "diffgen.ddim", "synthcortex.simulate")

# (module, attribute, span name): plain function wrappers, patched at every
# module that looks the function up as a global
FUNCTION_SITES = (
    ("bold2img.trainer", "adamw_step", "substrate.adamw"),
    ("bold2img.trainer", "save_checkpoint", "substrate.checkpoint.save"),
    ("bold2img.trainer", "load_train_state", "substrate.checkpoint.load"),
    ("bold2img.evalkit.evaluate", "load_train_state", "substrate.checkpoint.load"),
    ("bold2img.cli", "load_train_state", "substrate.checkpoint.load"),
    ("bold2img.trainer", "brain_forward_batch", "brainmod.fwd"),
    ("bold2img.diffgen.loss", "unet_forward", "diffgen.unet_fwd"),
    ("bold2img.trainer", "unet_forward", "diffgen.unet_fwd"),
    ("bold2img.trainer", "ddim_sample", "diffgen.ddim"),
    ("bold2img.cli", "pretrain_generator", "trainer.run"),
    ("bold2img.cli", "train_single_stage", "trainer.run"),
    ("bold2img.trainer", "extract_epochs", "prep.extract"),
    ("bold2img.evalkit.evaluate", "extract_epochs", "prep.extract"),
    ("bold2img.cli", "extract_epochs", "prep.extract"),
    ("bold2img.prep", "extract_epochs", "prep.extract"),
    ("bold2img.evalkit.evaluate", "score_trials", "evalkit.score"),
    ("bold2img.evalkit.evaluate", "infer", "evalkit.infer"),
    ("bold2img.synthcortex.dataset", "render_scene", "synthcortex.render"),
    ("bold2img.synthcortex.dataset", "simulate_run", "synthcortex.simulate"),
    ("bold2img.synthcortex.dataset", "write_tensor", "synthcortex.write"),
)

OP_KINDS = ("conv2d_s1", "conv2d_s2", "group_norm", "linear", "attention", "silu", "other")
_NAMED_KINDS = ("group_norm", "linear", "attention", "silu")


def _nbytes_of_store(store) -> int:
    return int(sum(store[n].data.nbytes for n in store.names()))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._next_op = 0
        self._tensor_cls = None

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> int:
        st = self._stack()
        parent = st[-1] if st else -1
        with self._lock:
            if name in OP_SPANS:
                op = self._next_op
                self._next_op += 1
            else:
                op = self.spans[parent][OP] if parent >= 0 else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, op, threading.get_ident()])
        st.append(idx)
        return idx

    def end(self, idx: int):
        """Close span `idx` and any span still open inside it."""
        now = time.perf_counter()
        st = self._stack()
        while st:
            top = st.pop()
            self.spans[top][END] = now
            if top == idx:
                return

    def open_span(self, name: str) -> int | None:
        """Index of the innermost open span called `name` in this thread."""
        for idx in reversed(self._stack()):
            if self.spans[idx][NAME] == name:
                return idx
        return None

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(args, kwargs, result)` updates counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap every traced layer function of the imported bold2img package."""
        ops = importlib.import_module("bold2img.substrate.ops")
        tensor_mod = importlib.import_module("bold2img.substrate.tensor")
        params_mod = importlib.import_module("bold2img.substrate.params")
        prep = importlib.import_module("bold2img.prep")
        self._tensor_cls = tensor_mod.Tensor

        for name, fn in sorted(vars(ops).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != ops.__name__:
                continue
            self.patch(ops, name, self._op_wrapper(name, fn))

        self.patch(tensor_mod.Tensor, "backward", self.wrap("substrate.backward", tensor_mod.Tensor.backward))
        self.patch(params_mod.ParamStore, "zero_grads", self._step_start(params_mod.ParamStore.zero_grads))
        self.patch(prep.PreprocCache, "build", self._cache_build(prep.PreprocCache.build))

        after = {
            "substrate.adamw": self._after_adamw,
            "substrate.checkpoint.save": self._after_save,
            "substrate.checkpoint.load": self._after_load,
            "brainmod.fwd": self._count("brainmod.calls"),
            "diffgen.unet_fwd": self._count("diffgen.unet_calls"),
            "synthcortex.write": self._after_write,
        }
        for mod_name, attr, span in FUNCTION_SITES:
            mod = importlib.import_module(mod_name)
            self.patch(mod, attr, self.wrap(span, getattr(mod, attr), after.get(span)))

    # -- ops -------------------------------------------------------------------

    @staticmethod
    def op_kind(name: str, args, kwargs) -> str:
        if name == "conv2d":
            stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
            return f"conv2d_s{stride}"
        return name if name in _NAMED_KINDS else "other"

    def _op_wrapper(self, name: str, fn):
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            counters["substrate.op_calls"] += 1
            outer = getattr(local, "op_kind", None)
            if outer is not None:  # nested inside another op: folded into it
                out = fn(*args, **kwargs)
                tracer._hook_backward(out, outer, None)
                return out
            kind = tracer.op_kind(name, args, kwargs)
            local.op_kind = kind
            idx = tracer.begin(f"substrate.{kind}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                local.op_kind = None
            conv_bwd = tracer._conv_counts(args, out) if name == "conv2d" else None
            tracer._hook_backward(out, kind, conv_bwd)
            return out

        return traced

    def _conv_counts(self, args, out):
        """Computed FLOPs and compulsory bytes of one conv call; returns the
        backward work still to come as (wgrad_flop, dgrad_flop, bytes)."""
        x, w = args[0], args[1]
        b, oh, ow, _ = out.shape
        flop = 2.0 * b * oh * ow * math.prod(w.shape)
        nbytes = out.data.dtype.itemsize * (math.prod(x.shape) + math.prod(w.shape) + out.data.size)
        self.counters["substrate.conv2d.flop"] += flop
        self.counters["substrate.conv2d.bytes"] += nbytes
        if out._backward_fn is None:
            return None
        w_grad = bool(getattr(w, "requires_grad", False))
        x_grad = bool(getattr(x, "requires_grad", False))
        return flop * w_grad, flop * x_grad, nbytes * (w_grad + x_grad)

    def _hook_backward(self, out, kind: str, conv_bwd):
        if not isinstance(out, self._tensor_cls) or out._backward_fn is None:
            return
        self.counters["substrate.graph_nodes"] += 1
        fn = out._backward_fn
        tracer = self
        name = f"substrate.{kind}.bwd"

        def traced_backward(g):
            idx = tracer.begin(name)
            try:
                fn(g)
            finally:
                tracer.end(idx)
            if conv_bwd is not None:
                wgrad, dgrad, nbytes = conv_bwd
                tracer.counters["substrate.conv2d.wgrad_flop"] += wgrad
                tracer.counters["substrate.conv2d.flop"] += wgrad + dgrad
                tracer.counters["substrate.conv2d.bytes"] += nbytes

        out._backward_fn = traced_backward

    # -- layer hooks -------------------------------------------------------------

    def _step_start(self, fn):
        """ParamStore.zero_grads opens each training step; adamw_step closes it."""
        tracer = self

        @functools.wraps(fn)
        def traced(store):
            open_idx = tracer.open_span("trainer.step")
            if open_idx is not None:
                tracer.end(open_idx)
            tracer.begin("trainer.step")
            return fn(store)

        return traced

    def _after_adamw(self, args, kwargs, result):
        grads = args[1] if len(args) > 1 else kwargs["grads"]
        self.counters["substrate.adamw_params"] += sum(g.size for g in grads.values())
        idx = self.open_span("trainer.step")
        if idx is not None:
            self.end(idx)

    def _after_save(self, args, kwargs, result):
        params = args[1] if len(args) > 1 else kwargs["params"]
        self.counters["substrate.checkpoint.bytes"] += _nbytes_of_store(params)

    def _after_load(self, args, kwargs, result):
        store, opt = result[0], result[1]
        moments = sum(a.nbytes for a in opt.m.values()) + sum(a.nbytes for a in opt.v.values())
        self.counters["substrate.checkpoint.bytes"] += _nbytes_of_store(store) + moments

    def _after_write(self, args, kwargs, result):
        arr = args[1] if len(args) > 1 else kwargs["arr"]
        self.counters["synthcortex.write_bytes"] += arr.nbytes

    def _count(self, counter: str):
        def after(args, kwargs, result):
            self.counters[counter] += 1

        return after

    def _cache_build(self, fn):
        """PreprocCache.build: counts runs indexed and runs already on disk."""
        tracer = self

        @functools.wraps(fn)
        def traced(cache):
            before = set(os.listdir(cache.dir)) if cache.dir.is_dir() else set()
            idx = tracer.begin("prep.build")
            try:
                result = fn(cache)
            finally:
                tracer.end(idx)
            runs = json.loads((cache.dir / "index.json").read_text())["runs"]
            tracer.counters["prep.runs_indexed"] += len(runs)
            tracer.counters["prep.runs_reused"] += sum(1 for f in runs.values() if f in before)
            return result

        return traced


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][START], start), min(spans[c][END], end)) for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, end - start - covered))
    return out


def summarize(spans: list[list], counters: dict[str, float], workers: int) -> dict:
    """Per-call aggregate: self seconds per span name, step durations,
    simulate-pool occupancy and the raw counters."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        self_s[s[NAME]] += t
    steps = [s[END] - s[START] for s in spans if s[NAME] == "trainer.step"]
    sims = [s for s in spans if s[NAME] == "synthcortex.simulate"]
    pool = {"busy_s": 0.0, "window_s": 0.0, "workers": workers}
    if sims:
        pool["busy_s"] = sum(s[END] - s[START] for s in sims)
        pool["window_s"] = max(s[END] for s in sims) - min(s[START] for s in sims)
    return {
        "self_s": dict(self_s),
        "step_s": steps,
        "pool": pool,
        "counters": dict(counters),
    }
