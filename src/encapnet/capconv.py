"""One-pass approximate routing: the master/aide capsule convolution.

Instead of iterating coefficients, each higher capsule is built from two
candidate votes in a single pass: the master branch convolves only its own
input capsule channel (grouped conv), the aide branch convolves every other
channel (full conv whose same-index kernel weights are structurally masked to
zero). A 1x1 grouped conv reads both votes of each capsule jointly and
produces its two sigmoid coefficients; the gated sum goes through BN, ReLU
and squash. No routing loop exists anywhere in the op graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .capsules import grid_squash
from .errors import ConfigError, ShapeError
from .layers import BatchNorm2d, Conv2d, Layer
from .tensor import Tensor, seeded_rng


@dataclass
class CapConvSpec:
    """Geometry of one capsule convolution.

    caps is both the input and output capsule-channel count; the master branch
    is grouped by it, so the layer cannot change it. kernel is 3 for the
    spatial Type I layer and 1 for the depth-building Type II layer, padded
    by (kernel - 1) // 2; the aide kernel is always 1.
    """

    caps: int
    dim_in: int
    dim_out: int
    kernel: int = 3
    stride: int = 1

    def __post_init__(self):
        if self.caps < 1 or self.dim_in < 1 or self.dim_out < 1:
            raise ConfigError("capsule counts and dims must be positive")
        if self.caps < 2:
            raise ConfigError("the masked aide needs at least 2 capsule channels")


def _aide_mask(caps: int, dim_out: int, dim_in: int) -> np.ndarray:
    """Zero out each output capsule's view of its same-index input capsule."""
    mask = np.ones((caps * dim_out, caps * dim_in, 1, 1))
    for c in range(caps):
        mask[c * dim_out:(c + 1) * dim_out, c * dim_in:(c + 1) * dim_in] = 0.0
    return mask


class CapConv(Layer):
    """Master/aide capsule conv layer; see module docstring.

    The gate is grouped by capsule: it maps each capsule's stacked master and
    aide votes (2 * dim_out channels) to that capsule's two coefficients. Its
    weight is the `gate` Conv2d's, applied by tensor.gate_logits, so the stack
    is never held. A training forward keeps the votes v1 and v2, the gate
    logits and coefficients, and two stage-sized arrays: the BN-ReLU of the
    gated sum and its squash. The gated sum (tensor.gated_sum) and the masked
    aide weight are released once read; the backward rebuilds them. Under
    no_grad the votes are dropped once summed and BN writes over the sum.
    """

    _children = ("master", "aide", "gate", "bn")

    def __init__(self, spec: CapConvSpec, seed: int = 0, name: str = "capconv"):
        super().__init__()
        self.spec = spec
        c, d1, d2 = spec.caps, spec.dim_in, spec.dim_out
        self.master = Conv2d(c * d1, c * d2, spec.kernel, spec.stride,
                             (spec.kernel - 1) // 2, groups=c,
                             rng=seeded_rng(seed, name, "master"))
        # aide: kernel 1, stride matched to the master so shapes agree
        self.aide = Conv2d(c * d1, c * d2, 1, spec.stride, 0, groups=1,
                           rng=seeded_rng(seed, name, "aide"))
        self._mask = T.constant(_aide_mask(c, d2, d1))
        self.gate = Conv2d(c * 2 * d2, c * 2, 1, 1, 0, groups=c,
                           rng=seeded_rng(seed, name, "gate"))
        self.bn = BatchNorm2d(c * d2)

    def _aide_votes(self, x: Tensor) -> Tensor:
        w = self.aide.weight * self._mask
        v2 = T.conv2d(x, w, self.aide.stride, self.aide.padding, self.aide.groups)
        w.release(T.mul)  # only the conv's backward reads it again
        return v2

    def __call__(self, x: Tensor) -> Tensor:
        spec = self.spec
        c, d1, d2 = spec.caps, spec.dim_in, spec.dim_out
        if x.shape[1] != c * d1:
            raise ShapeError(f"expected {c * d1} channels, got {x.shape[1]}")
        v1 = self.master(x)
        v2 = self._aide_votes(x)  # gate_logits rejects a shape other than v1's
        m = T.sigmoid(T.gate_logits(v1, v2, self.gate.weight, c))  # (B, 2*caps, H, W)
        s = T.gated_sum(v1, v2, m)
        del v1, v2, m  # under no_grad nothing else holds them
        y = self.bn(s)
        s.release(T.gated_sum)  # only BN's backward reads it again
        return grid_squash(y, c, d2)


@dataclass
class ModuleTrace:
    """Live tensors a feedback unit can regularise against."""

    input: Tensor
    type1_out: Tensor
    output: Tensor


class EncapModule(Layer):
    """One Type I capsule conv plus n_type2 Type II convs, each with a skip.

    Type I moves spatial size / capsule dim; its skip is a strided 1x1 grouped
    projection added to its output. Type II layers keep shape; their skip is a
    plain residual add. Depth counts every capsule conv plus the Type I layer:
    n_type2 + 1.
    """

    _children = ("type1", "type1_skip", "type2")

    def __init__(self, caps: int, dim_in: int, dim_out: int, n_type2: int = 0,
                 stride: int = 1, seed: int = 0, name: str = "module"):
        super().__init__()
        if n_type2 < 0:
            raise ConfigError("n_type2 must be >= 0")
        self.type1 = CapConv(CapConvSpec(caps, dim_in, dim_out, 3, stride),
                             seed=seed, name=f"{name}.type1")
        self.type1_skip = Conv2d(caps * dim_in, caps * dim_out, 1, stride, 0,
                                 groups=caps, rng=seeded_rng(seed, name, "type1_skip"))
        self.type2 = [
            CapConv(CapConvSpec(caps, dim_out, dim_out, 1, 1),
                    seed=seed, name=f"{name}.type2_{i}")
            for i in range(n_type2)
        ]

    @property
    def depth(self) -> int:
        return len(self.type2) + 1

    def __call__(self, x: Tensor) -> tuple[Tensor, ModuleTrace]:
        y = self.type1(x)
        skip = self.type1_skip(x)
        y = type1_out = y + skip
        conv = self.type1_skip  # the add's backward reads only skip's shape
        skip.release(partial(T.conv2d, stride=conv.stride, padding=conv.padding,
                             groups=conv.groups))
        for layer in self.type2:
            y = layer(y) + y
        return y, ModuleTrace(input=x, type1_out=type1_out, output=y)

