"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into every node that requires them. Compute dtype
follows the inputs: float32 for training, float64 for gradient checks.

The reverse pass frees what it has used: once a node's backward has run, the
node drops its edges, its closure and its gradient, so each activation and
activation gradient is released after its last consumer. Callers read the
gradients of leaves (parameters and inputs) only; the root keeps its ones.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / sampling)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        if isinstance(data, np.generic):
            data = np.asarray(data)  # numpy scalar: keep its dtype
        elif not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False):
        """Add a gradient contribution: store the first (copied unless fresh),
        add later ones in place.

        `fresh=True` promises g is a newly allocated array no one else holds,
        so it can be stored (and later updated) without a defensive copy.
        """
        if self.grad is None:
            self.grad = g if fresh else np.array(g)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # Pop each node as it runs so that, once its edges, closure and
        # gradient are dropped, nothing here keeps its arrays alive.
        while topo:
            node = topo.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                if node is not self:
                    node.grad = None
            node._parents = ()
            node._backward_fn = None

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Create an op output; drops the graph when grads are off or unneeded."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=tuple(parents), backward_fn=backward_fn)
    return Tensor(data)
