"""Parameterised building blocks: conv layers and batch norm.

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
    return (rng.standard_normal(shape) * std).astype(T.get_default_dtype())


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

    def set_buffer(self, dotted: str, value: np.ndarray) -> None:
        head, _, rest = dotted.partition(".")
        if not rest:
            if head not in self._buffers:
                raise KeyError(dotted)
            self._buffers[head][...] = value
            return
        for cname, child in self.children():
            if cname == head:
                child.set_buffer(rest, value)
                return
        raise KeyError(dotted)

    def set_mode(self, training: bool) -> None:
        self.training = training
        for _, child in self.children():
            child.set_mode(training)

    def param_count(self) -> int:
        return sum(t.data.size for _, t in self.named_params())


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


class ConvTranspose2d(Layer):
    """Grouped transposed convolution (adjoint of Conv2d's map)."""

    def __init__(self, cin: int, cout: int, kernel: int, stride: int = 1,
                 padding: int = 0, output_padding: int = 0, groups: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if cin % groups or cout % groups:
            raise ConfigError(f"deconv channels ({cin}->{cout}) not divisible by groups={groups}")
        self.stride, self.padding, self.output_padding = stride, padding, output_padding
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        fan_in = (cin // groups) * kernel * kernel
        # weight layout matches conv2d with roles swapped: (cin, cout/groups, k, k)
        self.weight = self.add_param(
            "weight", gaussian_init(rng, (cin, cout // groups, kernel, kernel), fan_in))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv_transpose2d(x, self.weight, self.stride, self.padding,
                                  self.output_padding, self.groups)


class BatchNorm2d(Layer):
    """Per-channel batch norm over (B,H,W); eps 1e-5, running-stat momentum 0.1."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.eps, self.momentum = eps, momentum
        dt = T.get_default_dtype()
        self.gamma = self.add_param("gamma", np.ones(channels, dtype=dt))
        self.beta = self.add_param("beta", np.zeros(channels, dtype=dt))
        self.add_buffer("running_mean", np.zeros(channels, dtype=dt))
        self.add_buffer("running_var", np.ones(channels, dtype=dt))

    def __call__(self, x: Tensor) -> Tensor:
        if self.training:
            return T.batch_norm(x, self.gamma, self.beta, self.eps,
                                self._buffers["running_mean"],
                                self._buffers["running_var"], self.momentum)
        shape = (1, x.shape[1], 1, 1)
        mu = T.constant(self._buffers["running_mean"].reshape(shape))
        var = T.constant(self._buffers["running_var"].reshape(shape))
        xhat = (x - mu) / T.sqrt(var + self.eps)
        return xhat * self.gamma.reshape(shape) + self.beta.reshape(shape)


class Linear(Layer):
    """Plain fully connected map (B, n_in) -> (B, n_out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        self.weight = self.add_param("weight", gaussian_init(rng, (n_in, n_out), n_in))
        self.bias = self.add_param("bias", np.zeros(n_out, dtype=T.get_default_dtype())) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = T.matmul(x, self.weight)
        if self.bias is not None:
            y = y + self.bias
        return y
