"""Model assembly: stem, capsule families, and a plain-conv baseline.

Three families share one stem and one classification head contract: the
forward pass returns class capsules (B, n_classes, dim) plus a per-module
list of feedback penalties (empty unless the family has feedback units and
the caller asked for them).

  encapnet        stem -> capsule-conv modules (+ feedback units) -> capsule FC
  capnet_dynamic  stem -> routed capsule layer -> routed class layer
  vanilla_cnn     stem -> plain convs mirroring the module blob shapes -> FC

Depth counts every conv / capsule-conv / FC stage once:
stem depth + sum over modules of (n_type2 + 1) + 1 for the head.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor, seeded_rng
from .errors import ConfigError
from .layers import Layer, Conv2d, BatchNorm2d, Linear
from .capsules import CapFC, grid_to_capsules, squash
from .capconv import EncapModule
from .routing import CapNetLayer
from .sinkhorn import FeedbackUnit, OTConfig

FAMILIES = ("encapnet", "capnet_dynamic", "vanilla_cnn")
OT_KINDS = ("main", "skip")


@dataclass(frozen=True)
class StemSpec:
    """Plain conv front end: conv(k, stride, pad k//2) + BN + ReLU per entry."""

    channels: tuple = (16, 32, 32, 64)
    strides: tuple = (1, 2, 1, 2)
    kernel: int = 3

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        if len(self.channels) != len(self.strides) or not self.channels:
            raise ConfigError("stem channels/strides must be equal-length and non-empty")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ConfigError("stem kernel must be odd")
        if any(c < 1 for c in self.channels) or any(s < 1 for s in self.strides):
            raise ConfigError("stem channels/strides must be positive")

    @property
    def depth(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class ModuleSpec:
    """One capsule-conv module: Type I (k3, stride) plus n_type2 Type II (k1)."""

    dim_in: int
    dim_out: int
    stride: int = 1
    n_type2: int = 0
    ot: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ot", tuple(self.ot))
        for kind in self.ot:
            if kind not in OT_KINDS:
                raise ConfigError(f"unknown feedback kind {kind!r}; expected one of {OT_KINDS}")
        if len(set(self.ot)) != len(self.ot):
            raise ConfigError("duplicate feedback kinds on one module")
        if "skip" in self.ot and self.n_type2 == 0:
            # with no Type II layers the Type I output IS the module output;
            # a skip-anchored unit would compare a blob with itself
            raise ConfigError("feedback kind 'skip' needs n_type2 >= 1")


@dataclass(frozen=True)
class NetworkConfig:
    family: str = "encapnet"
    n_classes: int = 10
    in_channels: int = 1
    image_size: int = 28
    stem: StemSpec = field(default_factory=StemSpec)
    caps_channels: int = 8
    class_caps_dim: int = 16
    modules: tuple = ()
    hidden_caps: int = 4
    hidden_dim: int = 16
    routing_iters: int = 3
    ot: OTConfig = field(default_factory=OTConfig)

    def __post_init__(self):
        object.__setattr__(self, "modules", tuple(self.modules))
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        if self.image_size < 1 or self.in_channels < 1:
            raise ConfigError("bad input geometry")
        if self.family in ("encapnet", "vanilla_cnn"):
            if not self.modules:
                raise ConfigError(f"{self.family} needs at least one module spec")
            if self.stem.channels[-1] != self.caps_channels * self.modules[0].dim_in:
                raise ConfigError(
                    f"stem output {self.stem.channels[-1]} != "
                    f"{self.caps_channels} capsules x dim {self.modules[0].dim_in}")
            for a, b in zip(self.modules, self.modules[1:]):
                if a.dim_out != b.dim_in:
                    raise ConfigError(
                        f"module chain mismatch: dim_out {a.dim_out} -> dim_in {b.dim_in}")
            if self.family == "encapnet" and self.modules[-1].dim_out != self.class_caps_dim:
                raise ConfigError(
                    f"class_caps_dim {self.class_caps_dim} != last module dim "
                    f"{self.modules[-1].dim_out}")
        else:
            if self.stem.channels[-1] % self.caps_channels:
                raise ConfigError(
                    f"stem output {self.stem.channels[-1]} not divisible into "
                    f"{self.caps_channels} capsules")

    def stem_hw(self) -> int:
        h = self.image_size
        for s in self.stem.strides:
            h = T.conv_out_size(h, self.stem.kernel, s, self.stem.kernel // 2)
        return h

    def module_hws(self):
        """Spatial size after the stem and after each module's Type I conv."""
        h = self.stem_hw()
        out = [h]
        for m in self.modules:
            h = T.conv_out_size(h, 3, m.stride, 1)
            out.append(h)
        return out


class Stem(Layer):
    _children = ("convs", "bns")

    def __init__(self, spec: StemSpec, in_channels: int, seed: int = 0, name: str = "stem"):
        super().__init__()
        self.spec = spec
        pad = spec.kernel // 2
        self.convs, self.bns = [], []
        cin = in_channels
        for i, (cout, s) in enumerate(zip(spec.channels, spec.strides)):
            rng = seeded_rng(seed, name, f"conv{i}")
            self.convs.append(Conv2d(cin, cout, spec.kernel, s, pad, rng=rng))
            self.bns.append(BatchNorm2d(cout))
            cin = cout

    def __call__(self, x: Tensor) -> Tensor:
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns)):
            y = conv(x)
            if i:  # an inner BN-ReLU output: only y's backward reads it, rebuilt
                x.release()
            x = bn(y)
        return x


class EncapNet(Layer):
    """Capsule-conv network with optional feedback-agreement units.

    forward(x, with_feedback=True) additionally evaluates every configured
    feedback unit; the second return value is a list with one sub-list of
    penalty scalars per module (empty sub-list when the module has none or
    with_feedback is off).
    """

    _children = ("stem", "modules", "capfc", "feedback")

    def __init__(self, cfg: NetworkConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        c = cfg.caps_channels
        self.stem = Stem(cfg.stem, cfg.in_channels, seed=seed)
        self.modules, self.feedback, self._ot_kinds = [], [], []
        hws = cfg.module_hws()
        for i, ms in enumerate(cfg.modules):
            self.modules.append(EncapModule(
                c, ms.dim_in, ms.dim_out, ms.n_type2, ms.stride,
                seed=seed, name=f"m{i + 1}"))
            units, kinds = [], []
            for kind in ms.ot:
                if kind == "main":
                    unit = FeedbackUnit(c, ms.dim_out, c, ms.dim_in, ms.stride,
                                        cfg.ot, seed=seed, name=f"m{i + 1}.ot_main")
                else:
                    unit = FeedbackUnit(c, ms.dim_out, c, ms.dim_out, 1,
                                        cfg.ot, seed=seed, name=f"m{i + 1}.ot_skip")
                units.append(unit)
                kinds.append(kind)
            self.feedback.append(units)
            self._ot_kinds.append(kinds)
        h_last = hws[-1]
        self._capfc_in = c * h_last * h_last
        self._caps_last = c
        self.capfc = CapFC(self._capfc_in, cfg.n_classes, cfg.class_caps_dim,
                           rng=seeded_rng(seed, "capfc"))

    @property
    def depth(self) -> int:
        return self.cfg.stem.depth + sum(m.depth for m in self.modules) + 1

    def __call__(self, x: Tensor, with_feedback: bool = False):
        h = self.stem(x)
        ot_values = []
        for kinds, units, mod in zip(self._ot_kinds, self.feedback, self.modules):
            h, trace = mod(h)
            vals = []
            if with_feedback:
                for kind, unit in zip(kinds, units):
                    u = trace.input if kind == "main" else trace.type1_out
                    vals.append(unit.divergence(trace.output, u))
            ot_values.append(vals)
        caps = grid_to_capsules(h, self._caps_last, self.cfg.class_caps_dim)
        return self.capfc(caps), ot_values


class CapNet(Layer):
    """Stem followed by two dynamically routed capsule layers; the second is
    the class layer."""

    _children = ("stem", "hidden_layer", "class_layer")

    def __init__(self, cfg: NetworkConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.stem = Stem(cfg.stem, cfg.in_channels, seed=seed)
        h = cfg.stem_hw()
        caps_in = cfg.caps_channels
        dim_in = cfg.stem.channels[-1] // caps_in
        self.hidden_layer = CapNetLayer(
            caps_in, dim_in, cfg.hidden_caps, cfg.hidden_dim, (h, h),
            cfg.routing_iters, rng=seeded_rng(seed, "caplayer", "hidden"))
        self.class_layer = CapNetLayer(
            cfg.hidden_caps, cfg.hidden_dim, cfg.n_classes, cfg.class_caps_dim, (1, 1),
            cfg.routing_iters, rng=seeded_rng(seed, "caplayer", "class"))

    @property
    def depth(self) -> int:
        return self.cfg.stem.depth + 2

    def __call__(self, x: Tensor, with_feedback: bool = False):
        h = self.stem(x)
        h = self.hidden_layer(h)
        h = self.class_layer(h)
        caps = grid_to_capsules(h, self.cfg.n_classes, self.cfg.class_caps_dim)
        return caps, []


class VanillaCNN(Layer):
    """Plain convs shaped to match the capsule network blob for blob.

    Each module spec becomes one k3 conv (the Type I twin) plus n_type2 k1
    convs, all with BN + ReLU. The head is global average pooling and an FC
    whose outputs are treated as 1-dim class capsules so the margin loss and
    argmax-length prediction apply unchanged.
    """

    _children = ("stem", "convs", "bns", "fc")

    def __init__(self, cfg: NetworkConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        c = cfg.caps_channels
        self.stem = Stem(cfg.stem, cfg.in_channels, seed=seed)
        self.convs, self.bns = [], []
        cin = cfg.stem.channels[-1]
        for i, ms in enumerate(cfg.modules):
            cout = c * ms.dim_out
            rng = seeded_rng(seed, f"cnn_m{i + 1}", "k3")
            self.convs.append(Conv2d(cin, cout, 3, ms.stride, 1, rng=rng))
            self.bns.append(BatchNorm2d(cout))
            for j in range(ms.n_type2):
                rng = seeded_rng(seed, f"cnn_m{i + 1}", f"k1_{j}")
                self.convs.append(Conv2d(cout, cout, 1, 1, 0, rng=rng))
                self.bns.append(BatchNorm2d(cout))
            cin = cout
        self.fc = Linear(cin, cfg.n_classes, rng=seeded_rng(seed, "cnn_fc"))

    @property
    def depth(self) -> int:
        return self.cfg.stem.depth + len(self.convs) + 1

    def __call__(self, x: Tensor, with_feedback: bool = False):
        h = self.stem(x)
        for conv, bn in zip(self.convs, self.bns):
            h = bn(conv(h))
        pooled = T.tmean(h, axis=(2, 3))
        logits = self.fc(pooled)
        caps = logits.reshape((logits.shape[0], self.cfg.n_classes, 1))
        return squash(caps, axis=-1), []


def build_network(cfg: NetworkConfig, seed: int = 0) -> Layer:
    if cfg.family == "encapnet":
        return EncapNet(cfg, seed=seed)
    if cfg.family == "capnet_dynamic":
        return CapNet(cfg, seed=seed)
    if cfg.family == "vanilla_cnn":
        return VanillaCNN(cfg, seed=seed)
    raise ConfigError(f"unknown family {cfg.family!r}")


def parameter_table(model: Layer):
    """Per-parameter rows (name, shape, count) and the grand total."""
    rows = [(name, tuple(p.data.shape), int(p.data.size))
            for name, p in model.named_params()]
    return rows, sum(r[2] for r in rows)
