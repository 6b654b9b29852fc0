"""Adam with decoupled weight decay.

Decay is applied directly to the parameter (p -= lr * wd * p), not mixed
into the gradient, so the adaptive scaling never touches it. With zero
gradients and zero state the only change per step is that shrink.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """params is an iterable of (name, Tensor) pairs, e.g. model.named_params()."""

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = items = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in items}
        self._v = {name: np.zeros_like(p.data) for name, p in items}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                g = 0.0
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update

    def state_arrays(self) -> dict:
        """Flat view of optimizer state for checkpointing."""
        out = {"t": np.array([self.t], dtype=np.int64)}
        for name in self._m:
            out[f"m.{name}"] = self._m[name]
            out[f"v.{name}"] = self._v[name]
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        self.t = int(arrays["t"][0])
        for name in self._m:
            self._m[name][...] = arrays[f"m.{name}"]
            self._v[name][...] = arrays[f"v.{name}"]
