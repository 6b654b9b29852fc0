"""Feedback-agreement regularisation through entropic optimal transport.

A generator deconvolves a higher capsule blob back to the lower one's shape;
a small extractor maps both real and generated blobs to feature vectors; the
debiased Sinkhorn divergence 2 W(x,y) - W(x,x) - W(y,y) between the two
feature sets is the agreement penalty.

Each W is <Q, P>: the cosine cost Q against the plan P that L log-domain
scaling rounds reach (Cuturi 2013), which sinkhorn_plan solves in plain numpy
over a (..., B2, B1) cost whose leading axes are independent problems.
sinkhorn_divergence is one tape node: one sinkhorn_plan call, at the fixed
EPS and ITERS, solves its three costs as a (3, B, B) stack, and its backward
holds P fixed, so the gradient of W with respect to Q is the plan itself.

Conventions: cost matrices are (Bx, By) with rows indexed by the generated
set; marginals are uniform, 1/m per atom, so total transported mass is 1.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import tensor as T
from .capsules import grid_squash
from .errors import ConfigError, ShapeError
from .layers import BatchNorm2d, Conv2d, Layer, gaussian_init
from .tensor import Tensor, as_tensor, seeded_rng

# Entropic regularisation and scaling rounds of the feedback penalty.
EPS = 0.1
ITERS = 10


def _unit_rows(f) -> tuple[np.ndarray, np.ndarray]:
    """f's rows divided by their lengths r, and r (floored at 1e-6)."""
    r = np.sqrt((f * f).sum(axis=-1, keepdims=True) + 1e-12)
    return f / r, r


def cosine_cost(x, y) -> np.ndarray:
    """Cosine ground cost 1 - cos(x_i, y_j): (..., Bx, F), (..., By, F) -> (..., Bx, By)."""
    return 1.0 - _unit_rows(x)[0] @ np.swapaxes(_unit_rows(y)[0], -1, -2)


def _log_scaling(bias: float, a: np.ndarray, axis: int) -> np.ndarray:
    """bias - log(sum(exp(a))) over axis, kept as a length-1 axis."""
    m = a.max(axis=axis, keepdims=True)
    return bias - (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)))


def sinkhorn_plan(Q, eps: float, iters: int) -> np.ndarray:
    """The plan after L scaling rounds against uniform marginals, as an array.

    Q is (..., B2, B1); leading axes index independent problems. Each round
    refreshes the column scaling from the current row scaling and then the row
    scaling from it, so rounds end on the row side; the closing column update
    pins the column marginal exactly and leaves the row marginal one half-step
    stale.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim < 2:
        raise ShapeError(f"cost matrix must be at least 2-D, got {Q.shape}")
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    b2, b1 = Q.shape[-2:]
    la0, lb0 = -np.log(b1), -np.log(b2)
    logK = Q * (-1.0 / eps)
    lb = np.full((b2, 1), lb0)
    for _ in range(iters):
        la = _log_scaling(la0, logK + lb, -2)
        lb = _log_scaling(lb0, logK + la, -1)
    la = _log_scaling(la0, logK + lb, -2)
    return np.exp(lb + logK + la)


def sinkhorn_divergence(x_feats, y_feats) -> Tensor:
    """Debiased agreement 2 W(x,y) - W(x,x) - W(y,y) as one tape node; 0 on identical sets.

    The three costs are solved as one (3, B, B) stack, so the sets share a
    shape. The backward holds the plans fixed: with G_k = g w_k P_k, the cost
    1 - u_k v_k^T sends -G_k v_k to the unit rows u_k and -G_k^T u_k to v_k,
    and the row normalisation, recomputed from the inputs, maps d to (d - n (n.d)) / r.
    """
    x, y = as_tensor(x_feats), as_tensor(y_feats)
    if x.ndim != 2 or x.shape != y.shape:
        raise ShapeError(f"debiased divergence needs equal (B, F) sets: {x.shape} vs {y.shape}")
    Q = cosine_cost(np.stack([x.data, x.data, y.data]), np.stack([y.data, x.data, y.data]))
    P = sinkhorn_plan(Q, EPS, ITERS)
    w = np.array([2.0, -1.0, -1.0])
    out = ((Q * P).sum(axis=(-2, -1)) * w).sum()

    def back(g):
        G = (g * w)[:, None, None] * P
        (xn, rx), (yn, ry) = _unit_rows(x.value()), _unit_rows(y.value())
        dx = -(G[0] @ yn + (G[1] + G[1].T) @ xn)
        dy = -(G[0].T @ xn + (G[2] + G[2].T) @ yn)
        for f, n, r, d in ((x, xn, rx, dx), (y, yn, ry, dy)):
            f._accumulate((d - n * (n * d).sum(axis=1, keepdims=True)) / r)

    return T._make(out, (x, y), back, "sinkhorn_divergence")


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
        y = self.bn(y)
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
        y = self.bn1(self.conv1(u))
        y = self.bn2(self.conv2(y))
        return T.reshape(y, (y.shape[0], -1))


class FeedbackUnit(Layer):
    """Generator plus a shared extractor; yields one agreement penalty.

    The extractor is applied to both the generated and the real blob; the
    penalty is the debiased Sinkhorn divergence between the two feature sets.
    The whole unit exists only for training.
    """

    _children = ("generator", "extractor")

    def __init__(self, caps_v: int, dim_v: int, caps_u: int, dim_u: int,
                 stride: int, seed: int = 0, name: str = "ot"):
        super().__init__()
        self.generator = Generator(caps_v, dim_v, caps_u, dim_u, stride,
                                   seed=seed, name=f"{name}.gen")
        self.extractor = Extractor(caps_u * dim_u, seed=seed, name=f"{name}.ext")

    def divergence(self, v: Tensor, u: Tensor) -> Tensor:
        u_hat = self.generator(v, (u.shape[2], u.shape[3]))
        if u_hat.shape != u.shape:
            raise ConfigError(f"generated {u_hat.shape} != target {u.shape}")
        fx = self.extractor(u_hat)
        fy = self.extractor(u)
        return sinkhorn_divergence(fx, fy)
