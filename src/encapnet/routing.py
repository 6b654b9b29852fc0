"""Iterative routing baselines: dynamic (agreement) and EM (Gaussian cluster).

Every lower capsule i votes a d2-vector for every higher capsule j, its pose
times a transform that all spatial locations of its capsule channel share
(CapsuleMapping). EM routing consumes the votes (B, n1, n2, d2) and is
unrolled. Dynamic routing is one tape node on the poses and transforms that
never builds the votes; its backward sweeps every iteration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .capsules import capsule_norms, grid_to_capsules
from .errors import ConfigError, ShapeError
from .layers import Layer, gaussian_init
from .tensor import Tensor


class CapsuleMapping(Layer):
    """Poses, per-channel transforms and their product, the votes.

    Input (B, caps_in*dim_in, H, W) -> votes (B, n1, n2, dim_out) with
    n1 = caps_in*H*W: the poses (B, caps_in, H*W, dim_in), a view of the
    input, times the transforms (caps_in, dim_in, n_out, dim_out), a view of
    the weight, whose product reshapes to the votes without a copy. The
    weight keeps the layout of a grouped 1x1 conv,
    (caps_in*n_out*dim_out, dim_in, 1, 1): that extent is exactly why
    iterative capsule layers get huge.
    """

    def __init__(self, caps_in: int, dim_in: int, n_out: int, dim_out: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.caps_in, self.dim_in = caps_in, dim_in
        self.n_out, self.dim_out = n_out, dim_out
        rng = rng or np.random.default_rng(0)
        cout = caps_in * n_out * dim_out
        self.weight = self.add_param(
            "weight", gaussian_init(rng, (cout, dim_in, 1, 1), dim_in))

    def poses(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        g, d = self.caps_in, self.dim_in
        if c != g * d:
            raise ShapeError(f"expected {g * d} channels, got {c}")
        return T.transpose(T.reshape(x, (b, g, d, h * w)), (0, 1, 3, 2))

    def transforms(self) -> Tensor:
        shape = (self.caps_in, self.n_out, self.dim_out, self.dim_in)
        return T.transpose(T.reshape(self.weight, shape), (0, 3, 1, 2))

    def __call__(self, x: Tensor) -> Tensor:
        g, d, n2 = self.caps_in, self.dim_in, self.n_out
        votes = T.matmul(self.poses(x), T.reshape(self.transforms(), (g, d, -1)))
        return T.reshape(votes, (x.shape[0], -1, n2, self.dim_out))


def dynamic_routing(poses: Tensor, transforms: Tensor, iters: int = 3):
    """Agreement routing on the votes poses @ transforms, which it never
    builds (tensor.route_by_agreement): (v, constant coefficients)."""
    b, g, p, _ = poses.shape
    coeff = np.empty((b, g * p, transforms.shape[2]))
    return T.route_by_agreement(poses, transforms, iters, coeff), T.constant(coeff)


EM_VAR_FLOOR = 1e-6
_EM_WEIGHT_FLOOR = 1e-12


def em_routing(votes: Tensor, activations: Tensor, iters: int = 3,
               var_floor: float = EM_VAR_FLOOR):
    """Gaussian-cluster routing. Returns (mu, a_out, coefficients).

    votes: (B, n1, n2, d2); activations: (B, n1) in [0,1]. Each higher capsule
    is a diagonal Gaussian cluster over the votes pointing at it. The M step
    re-estimates (mu, var) and an activation from the weighted description
    cost; the cost is standardised across the n2 clusters (zero mean, unit
    variance) before the sigmoid so the scale stays workable at any width.
    The E step reassigns coefficients by posterior responsibility, normalised
    over clusters for each lower capsule.
    """
    if iters < 1:
        raise ConfigError("routing needs at least one iteration")
    b, n1, n2, d2 = votes.shape
    if activations.shape != (b, n1):
        raise ShapeError(f"activations shape {activations.shape} != ({b}, {n1})")
    coeff = T.constant(np.full((b, n1, n2), 1.0 / n2, dtype=votes.dtype))
    mu = a_out = None
    for r in range(iters):
        # M step: the tiny additive floor keeps the weighted means defined
        # when every input activation is zero (degrades to uniform weights)
        w = coeff * T.reshape(activations, (b, n1, 1)) + _EM_WEIGHT_FLOOR
        wsum = T.tsum(w, axis=1)                                  # (B, n2)
        w4 = T.reshape(w, (b, n1, n2, 1))
        mu = T.tsum(w4 * votes, axis=1) / T.reshape(wsum, (b, n2, 1))
        diff = votes - T.reshape(mu, (b, 1, n2, d2))
        var = T.tsum(w4 * diff * diff, axis=1) / T.reshape(wsum, (b, n2, 1))
        var = T.maximum(var, var_floor)
        cost = T.tsum(0.5 * T.log(var), axis=2) * wsum            # (B, n2)
        z = -cost
        zc = z - T.tmean(z, axis=1, keepdims=True)
        std = T.sqrt(T.tmean(zc * zc, axis=1, keepdims=True) + 1e-16)
        a_out = T.sigmoid(zc / (std + 1e-8))
        if r < iters - 1:
            # E step in the log domain; responsibilities normalise over j
            logp = T.tsum(
                -0.5 * (diff * diff / T.reshape(var, (b, 1, n2, d2))
                        + T.log(2.0 * np.pi * T.reshape(var, (b, 1, n2, d2)))),
                axis=-1)                                          # (B, n1, n2)
            coeff = T.softmax(logp + T.reshape(T.log(a_out + 1e-12), (b, 1, n2)), axis=2)
    return mu, a_out, coeff


# Bytes of votes one block of images maps; larger batches are mapped in blocks,
# whose votes reuse heap memory (glibc maps 32 MiB and up afresh).
VOTE_BLOCK_BYTES = 1 << 23


class CapNetLayer(Layer):
    """Map + route + reshape back to a spatial blob.

    Higher capsules are laid out as caps_out channels on an out_hw grid, so
    n2 = caps_out * out_h * out_w. With out_hw (1,1) and caps_out = n_classes
    this is the terminal class-capsule layer. Dynamic routing takes the whole
    batch and builds no votes; EM routing and the keep_stats record map images
    in blocks whose votes fit in VOTE_BLOCK_BYTES.
    """

    _children = ("mapping",)

    def __init__(self, caps_in: int, dim_in: int, in_hw, caps_out: int, dim_out: int,
                 out_hw, routing: str = "dynamic", iters: int = 3,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if routing not in ("dynamic", "em"):
            raise ConfigError(f"unknown routing {routing!r}")
        self.caps_in, self.dim_in = caps_in, dim_in
        self.caps_out, self.dim_out = caps_out, dim_out
        self.in_hw, self.out_hw = tuple(in_hw), tuple(out_hw)
        self.routing, self.iters = routing, iters
        self.n2 = caps_out * self.out_hw[0] * self.out_hw[1]
        self.mapping = CapsuleMapping(caps_in, dim_in, self.n2, dim_out, rng)
        self.keep_stats = False
        self.last_votes: np.ndarray | None = None
        self.last_output: np.ndarray | None = None

    def __call__(self, x: Tensor) -> Tensor:
        b, _, h, w = x.shape
        step = max(1, VOTE_BLOCK_BYTES // (8 * self.caps_in * h * w * self.n2 * self.dim_out))
        vs, kept = [], []
        if self.routing == "dynamic":
            m = self.mapping
            vs.append(dynamic_routing(m.poses(x), m.transforms(), self.iters)[0])
        # only EM routing and the keep_stats record read votes
        for lo in range(0, b if self.routing == "em" or self.keep_stats else 0, step):
            xb = x if step >= b else T.slice_axis(x, 0, lo, lo + step)
            votes = self.mapping(xb)
            if self.routing == "em":
                a_in = capsule_norms(grid_to_capsules(xb, self.caps_in, self.dim_in))
                vs.append(em_routing(votes, a_in, self.iters)[0])
            kept += [votes.data] if self.keep_stats else []
        v = vs[0] if len(vs) == 1 else T.concat(vs, axis=0)
        if self.keep_stats:
            self.last_votes = np.concatenate(kept)
            self.last_output = v.data.copy()
        h2, w2 = self.out_hw
        out = T.reshape(v, (b, self.caps_out, h2, w2, self.dim_out))
        out = T.transpose(out, (0, 1, 4, 2, 3))
        return T.reshape(out, (b, self.caps_out * self.dim_out, h2, w2))


@dataclass
class RoutingHistogram:
    edges: np.ndarray        # 21 edges over [-1, 1]
    percent: np.ndarray      # 20 bins, sums to 100
    mean_length: np.ndarray  # mean |vote| per bin, 0 where empty

    @property
    def polarized_mass(self) -> float:
        """Percent of pairs with |cos| above 0.5 (the outer bins both sides)."""
        mask = (self.edges[1:] <= -0.5) | (self.edges[:-1] >= 0.5)
        return float(self.percent[mask].sum())


def routing_histogram(votes: np.ndarray, v: np.ndarray, bins: int = 20) -> RoutingHistogram:
    """Distribution of cos(vote_ij, v_j) over all (sample, i, j) triples."""
    votes = np.asarray(votes, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    dots = (votes * v[:, None]).sum(axis=-1)
    vn = np.sqrt((votes * votes).sum(axis=-1))
    on = np.sqrt((v * v).sum(axis=-1))[:, None]
    cos = dots / np.maximum(vn * on, 1e-12)
    cos = np.clip(cos, -1.0, 1.0).reshape(-1)
    lengths = vn.reshape(-1)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, cos, side="right") - 1, 0, bins - 1)
    count = np.bincount(idx, minlength=bins).astype(np.float64)
    lsum = np.bincount(idx, weights=lengths, minlength=bins)
    percent = 100.0 * count / cos.size
    mean_length = np.divide(lsum, count, out=np.zeros(bins), where=count > 0)
    return RoutingHistogram(edges=edges, percent=percent, mean_length=mean_length)


def write_histogram_csv(path: str, hist: RoutingHistogram) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_low", "bin_high", "percent", "mean_length"])
        for i in range(len(hist.percent)):
            w.writerow([f"{hist.edges[i]:.10g}", f"{hist.edges[i + 1]:.10g}",
                        f"{hist.percent[i]:.12g}", f"{hist.mean_length[i]:.12g}"])
