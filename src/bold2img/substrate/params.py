"""Named parameter store; a tensor trains when its ``requires_grad`` is set."""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import Tensor


class ParamStore:
    """Maps unique names to parameter tensors.

    Frozen (non-trainable) entries are guaranteed bit-identical across
    optimizer steps; ``hash_of`` exposes that as a checkable digest.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.ascontiguousarray(data), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def trainable_names(self) -> list[str]:
        return [n for n in self.names() if self._params[n].requires_grad]

    def set_trainable_by(self, predicate):
        """Train the entries whose name satisfies `predicate`; freeze the rest."""
        for n, t in self._params.items():
            t.requires_grad = bool(predicate(n))

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None

    def astype(self, dtype) -> "ParamStore":
        """Copy of the store in another dtype (float64 for gradient checks)."""
        out = ParamStore()
        for n in self.names():
            out.add(n, self._params[n].data.astype(dtype)).requires_grad = self._params[n].requires_grad
        return out

    def hash_of(self, names=None) -> str:
        h = hashlib.sha256()
        for n in sorted(names) if names is not None else self.names():
            h.update(n.encode())
            h.update(self._params[n].data.tobytes())
        return h.hexdigest()
