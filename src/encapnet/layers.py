"""Parameterised building blocks: conv layers, batch norm + ReLU, linear.

A Layer owns named parameter Tensors and non-trainable numpy buffers, and
exposes them with dotted prefixes so optimisers and checkpoints see one flat
namespace. Initialisation draws from seeded_rng streams keyed by the layer
name, so a (seed, name) pair always yields the same weights.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


def gaussian_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Zero-mean Gaussian with std sqrt(2/fan_in)."""
    std = np.sqrt(2.0 / fan_in)
    return rng.standard_normal(shape) * std


class Layer:
    """Base: children registered via attributes listed in _children."""

    _children: tuple = ()

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self.training = True

    def add_param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True, op=f"param:{name}")
        self._params[name] = t
        return t

    def add_buffer(self, name: str, data: np.ndarray) -> np.ndarray:
        self._buffers[name] = data
        return data

    def children(self):
        def walk(label, obj, depth):
            if isinstance(obj, Layer):
                yield label, obj
            elif isinstance(obj, (list, tuple)):
                sep = "" if depth == 0 else "_"
                for i, c in enumerate(obj):
                    yield from walk(f"{label}{sep}{i}", c, depth + 1)
        for name in self._children:
            yield from walk(name, getattr(self, name, None), 0)

    def named_params(self, prefix: str = ""):
        for name, t in self._params.items():
            yield prefix + name, t
        for cname, child in self.children():
            yield from child.named_params(prefix + cname + ".")

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for cname, child in self.children():
            yield from child.named_buffers(prefix + cname + ".")

    def set_mode(self, training: bool) -> None:
        self.training = training
        for _, child in self.children():
            child.set_mode(training)


class Conv2d(Layer):
    """Grouped convolution, no bias (batch norm always follows here)."""

    def __init__(self, cin: int, cout: int, kernel: int, stride: int = 1,
                 padding: int = 0, groups: int = 1, rng: np.random.Generator | None = None):
        super().__init__()
        if cin % groups or cout % groups:
            raise ConfigError(f"conv channels ({cin}->{cout}) not divisible by groups={groups}")
        self.stride, self.padding, self.groups = stride, padding, groups
        rng = rng or np.random.default_rng(0)
        fan_in = (cin // groups) * kernel * kernel
        self.weight = self.add_param(
            "weight", gaussian_init(rng, (cout, cin // groups, kernel, kernel), fan_in))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.stride, self.padding, self.groups)


class BatchNorm2d(Layer):
    """Per-channel batch norm over (B,H,W) that ends in ReLU, one batch_norm_relu
    node (every conv stage here is conv -> BN -> ReLU); eps 1e-5, momentum 0.1.

    Its input is always the fresh output of the conv before it (CapConv's
    gated sum, Generator's transposed conv), which nothing else reads, so
    under no_grad the result is written over it.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.eps, self.momentum = eps, momentum
        self.gamma = self.add_param("gamma", np.ones(channels))
        self.beta = self.add_param("beta", np.zeros(channels))
        self.add_buffer("running_mean", np.zeros(channels))
        self.add_buffer("running_var", np.ones(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_norm_relu(x, self.gamma, self.beta, self._buffers["running_mean"],
                                 self._buffers["running_var"], self.training,
                                 self.eps, self.momentum, overwrite=True)


class Linear(Layer):
    """Plain fully connected map (B, n_in) -> (B, n_out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        self.weight = self.add_param("weight", gaussian_init(rng, (n_in, n_out), n_in))
        self.bias = self.add_param("bias", np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight) + self.bias
