"""Feedback-agreement regularisation through entropic optimal transport.

A generator deconvolves a higher capsule blob back to the lower one's shape;
a small extractor maps both real and generated blobs to feature vectors; the
debiased Sinkhorn divergence between the two feature sets is the agreement
penalty. Iterations run in the log domain. By default the coupling is treated
as a constant during backprop (the gradient w.r.t. the cost matrix is the
coupling itself); switching stop_gradient off differentiates through all L
iterations instead.

Conventions: cost matrices are (Bx, By) with rows indexed by the generated
set; marginals are uniform, 1/m per atom, so total transported mass is 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .capsules import grid_squash
from .errors import ConfigError, ShapeError
from .layers import BatchNorm2d, Conv2d, Layer, gaussian_init
from .tensor import Tensor, as_tensor, seeded_rng

COST_KINDS = ("cosine", "l2")


@dataclass
class OTConfig:
    eps: float = 0.1
    iters: int = 10
    cost: str = "cosine"
    debiased: bool = True
    stop_gradient: bool = True
    regularizer: str = "ot"  # ot | kl

    def __post_init__(self):
        if self.cost not in COST_KINDS:
            raise ConfigError(f"unknown cost {self.cost!r}")
        if self.regularizer not in ("ot", "kl"):
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")
        if self.eps <= 0 or self.iters < 1:
            raise ConfigError("eps must be positive and iters >= 1")


def cost_matrix(x: Tensor, y: Tensor, kind: str = "cosine") -> Tensor:
    """Pairwise ground cost between feature rows: (Bx,F),(By,F) -> (Bx,By)."""
    x, y = as_tensor(x), as_tensor(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature sets disagree: {x.shape} vs {y.shape}")
    if kind == "cosine":
        xn = x / T.sqrt(T.tsum(x * x, axis=1, keepdims=True) + 1e-12)
        yn = y / T.sqrt(T.tsum(y * y, axis=1, keepdims=True) + 1e-12)
        return 1.0 - T.matmul(xn, T.transpose(yn))
    if kind == "l2":
        xx = T.tsum(x * x, axis=1, keepdims=True)
        yy = T.reshape(T.tsum(y * y, axis=1), (1, y.shape[0]))
        return xx + yy - 2.0 * T.matmul(x, T.transpose(y))
    raise ConfigError(f"unknown cost {kind!r}")


@dataclass
class Coupling:
    P: np.ndarray      # (B2, B1) transport plan, total mass 1


def _lse(z: np.ndarray, axis: int) -> np.ndarray:
    m = z.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def sinkhorn_iterates(Q: np.ndarray, eps: float, iters: int) -> Coupling:
    """L rounds of scaling updates against uniform marginals, log domain.

    Each round refreshes the column scaling from the current row scaling and
    then the row scaling from it, so rounds end on the row side; the returned
    plan applies the column scaling consistent with the final row scaling,
    which pins the column marginal exactly and leaves the row marginal one
    half-step stale.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2:
        raise ShapeError(f"cost matrix must be 2-D, got {Q.shape}")
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    b2, b1 = Q.shape
    logK = -Q / eps
    lb = np.full(b2, -np.log(b2))
    for _ in range(iters):
        la = -np.log(b1) - _lse(logK + lb[:, None], axis=0)
        lb = -np.log(b2) - _lse(logK + la[None, :], axis=1)
    la = -np.log(b1) - _lse(logK + lb[:, None], axis=0)
    logP = lb[:, None] + logK + la[None, :]
    return Coupling(P=np.exp(logP))


def _sinkhorn_log_tensors(Q: Tensor, eps: float, iters: int) -> Tensor:
    """Differentiable twin of sinkhorn_iterates; returns log P on the tape."""
    b2, b1 = Q.shape
    logK = Q * (-1.0 / eps)
    lb = T.constant(np.full((b2, 1), -np.log(b2)))
    la = None
    for _ in range(iters + 1):
        la = (-np.log(b1)) - T.logsumexp(logK + lb, axis=0, keepdims=True)
        if _ == iters:
            break
        lb = (-np.log(b2)) - T.logsumexp(logK + la, axis=1, keepdims=True)
    return lb + logK + la


def ot_loss(Q, eps: float = 0.1, iters: int = 10, stop_gradient: bool = True) -> Tensor:
    """<Q, P> after L Sinkhorn rounds; gradient w.r.t. Q is P when stopped."""
    Q = as_tensor(Q)
    if stop_gradient:
        coupling = sinkhorn_iterates(Q.data, eps, iters)
        return T.tsum(Q * T.constant(coupling.P.astype(Q.dtype)))
    logP = _sinkhorn_log_tensors(Q, eps, iters)
    return T.tsum(Q * T.exp(logP))


def sinkhorn_divergence(x_feats, y_feats, cfg: OTConfig) -> Tensor:
    """Debiased agreement: 2 W(x,y) - W(x,x) - W(y,y); identical sets give 0."""
    x, y = as_tensor(x_feats), as_tensor(y_feats)
    w_xy = ot_loss(cost_matrix(x, y, cfg.cost), cfg.eps, cfg.iters, cfg.stop_gradient)
    if not cfg.debiased:
        return w_xy
    w_xx = ot_loss(cost_matrix(x, x, cfg.cost), cfg.eps, cfg.iters, cfg.stop_gradient)
    w_yy = ot_loss(cost_matrix(y, y, cfg.cost), cfg.eps, cfg.iters, cfg.stop_gradient)
    return 2.0 * w_xy - w_xx - w_yy


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Mean over rows of sum p*log(p/q); q floored at 1e-12, 0*log0 = 0."""
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise ShapeError(f"distribution shapes disagree: {p.shape} vs {q.shape}")
    terms = p * (T.log(T.maximum(p, 1e-12)) - T.log(T.maximum(q, 1e-12)))
    return T.tmean(T.tsum(terms, axis=-1))


def kl_loss(x_feats, y_feats) -> Tensor:
    """KL between softmaxed feature rows; the cheap non-OT alternative."""
    x, y = as_tensor(x_feats), as_tensor(y_feats)
    return kl_divergence(T.softmax(x, axis=-1), T.softmax(y, axis=-1))


def brute_force_ot(Q: np.ndarray) -> float:
    """Exact OT with uniform marginals by permutation enumeration (n <= 6).

    Extreme points of the doubly stochastic polytope are permutation matrices,
    so the optimum is the best permutation scaled by 1/n.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ShapeError(f"brute force needs a square cost matrix, got {Q.shape}")
    n = Q.shape[0]
    if n > 6:
        raise ConfigError(f"brute force capped at n=6, got {n}")
    best = np.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        cost = Q[np.asarray(perm), rows].sum() / n
        best = min(best, cost)
    return float(best)


class Generator(Layer):
    """Deconv capsule block: higher blob -> lower blob's geometry.

    Grouping equals the input capsule dimension. Output padding is solved at
    call time from the target's spatial size; an unreachable size is a
    configuration error, as is any channel mismatch.
    """

    _children = ("bn",)

    def __init__(self, caps_in: int, dim_in: int, caps_out: int, dim_out: int,
                 stride: int = 1, seed: int = 0, name: str = "generator"):
        super().__init__()
        cin, cout = caps_in * dim_in, caps_out * dim_out
        groups = dim_in
        if cin % groups or cout % groups:
            raise ConfigError(
                f"generator channels ({cin}->{cout}) not divisible by grouping {groups}")
        self.caps_out, self.dim_out = caps_out, dim_out
        self.stride, self.groups = stride, groups
        rng = seeded_rng(seed, name, "deconv")
        fan_in = (cin // groups) * 9
        self.weight = self.add_param(
            "weight", gaussian_init(rng, (cin, cout // groups, 3, 3), fan_in))
        self.bn = BatchNorm2d(cout)

    def __call__(self, v: Tensor, target_hw) -> Tensor:
        h, w = v.shape[2], v.shape[3]
        th, tw = target_hw
        opad_h = th - ((h - 1) * self.stride - 2 + 3)
        opad_w = tw - ((w - 1) * self.stride - 2 + 3)
        if opad_h != opad_w or not 0 <= opad_h < max(self.stride, 1):
            raise ConfigError(
                f"generator stride {self.stride} cannot map {(h, w)} onto {(th, tw)}")
        y = T.conv_transpose2d(v, self.weight, self.stride, 1, opad_h, self.groups)
        y = T.relu(self.bn(y))
        return grid_squash(y, self.caps_out, self.dim_out)


class Extractor(Layer):
    """Two strided conv+BN+ReLU stages squeezing a blob to a feature vector."""

    _children = ("conv1", "bn1", "conv2", "bn2")

    def __init__(self, cin: int, seed: int = 0, name: str = "extractor"):
        super().__init__()
        if cin < 4:
            raise ConfigError(f"extractor needs >= 4 input channels, got {cin}")
        mid = cin // 4
        self.conv1 = Conv2d(cin, mid, 3, 2, 1, rng=seeded_rng(seed, name, "conv1"))
        self.bn1 = BatchNorm2d(mid)
        self.conv2 = Conv2d(mid, 1, 3, 2, 1, rng=seeded_rng(seed, name, "conv2"))
        self.bn2 = BatchNorm2d(1)

    def __call__(self, u: Tensor) -> Tensor:
        y = T.relu(self.bn1(self.conv1(u)))
        y = T.relu(self.bn2(self.conv2(y)))
        return T.reshape(y, (y.shape[0], -1))


class FeedbackUnit(Layer):
    """Generator plus a shared extractor; yields one agreement penalty.

    The extractor is applied to both the generated and the real blob; the
    penalty is the debiased Sinkhorn divergence (or the KL alternative)
    between the two feature sets. The whole unit exists only for training.
    """

    _children = ("generator", "extractor")

    def __init__(self, caps_v: int, dim_v: int, caps_u: int, dim_u: int,
                 stride: int, cfg: OTConfig, seed: int = 0, name: str = "ot"):
        super().__init__()
        self.cfg = cfg
        self.generator = Generator(caps_v, dim_v, caps_u, dim_u, stride,
                                   seed=seed, name=f"{name}.gen")
        self.extractor = Extractor(caps_u * dim_u, seed=seed, name=f"{name}.ext")

    def divergence(self, v: Tensor, u: Tensor) -> Tensor:
        u_hat = self.generator(v, (u.shape[2], u.shape[3]))
        if u_hat.shape != u.shape:
            raise ConfigError(f"generated {u_hat.shape} != target {u.shape}")
        fx = self.extractor(u_hat)
        fy = self.extractor(u)
        if self.cfg.regularizer == "kl":
            return kl_loss(fx, fy)
        return sinkhorn_divergence(fx, fy, self.cfg)
