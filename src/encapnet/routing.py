"""The iterative routing baseline: dynamic routing by agreement.

Every lower capsule i votes a d2-vector for every higher capsule j, its pose
times a transform that all spatial locations of its capsule channel share
(CapsuleMapping). Dynamic routing is one tape node on the poses and
transforms that never builds the votes and returns only the routed capsules:
its first pass is the closed-form mean pose, later passes normalise the
softmax on the small pooled poses, and its backward sweeps every iteration.
The vote-agreement histogram is computed from the same poses and transforms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .layers import Layer, gaussian_init
from .tensor import Tensor


class CapsuleMapping(Layer):
    """Poses and per-channel transforms, whose product is the votes.

    Input (B, caps_in*dim_in, H, W): the poses (B, caps_in, H*W, dim_in), a
    view of the input, times the transforms (caps_in, dim_in, n_out, dim_out),
    a view of the weight, are the votes (B, n1, n_out, dim_out) with
    n1 = caps_in*H*W, which nothing forms. The weight keeps the layout of a
    grouped 1x1 conv,
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


def dynamic_routing(poses: Tensor, transforms: Tensor, iters: int = 3) -> Tensor:
    """The routed capsules v (B, n2, d2) of agreement routing on the votes
    poses @ transforms, which it never builds (tensor.route_by_agreement)."""
    return T.route_by_agreement(poses, transforms, iters)


class CapNetLayer(Layer):
    """Map + dynamic routing + reshape back to a spatial blob.

    Higher capsules are laid out as caps_out channels on an out_hw grid, so
    n2 = caps_out * out_h * out_w. With out_hw (1,1) and caps_out = n_classes
    this is the terminal class-capsule layer. Routing takes the whole batch
    and builds no votes.
    """

    _children = ("mapping",)

    def __init__(self, caps_in: int, dim_in: int, caps_out: int, dim_out: int,
                 out_hw, iters: int = 3, rng: np.random.Generator | None = None):
        super().__init__()
        self.caps_out, self.dim_out, self.out_hw, self.iters = caps_out, dim_out, out_hw, iters
        n2 = caps_out * out_hw[0] * out_hw[1]
        self.mapping = CapsuleMapping(caps_in, dim_in, n2, dim_out, rng)

    def route(self, x: Tensor) -> Tensor:
        """The routed higher capsules v (B, n2, dim_out)."""
        m = self.mapping
        return dynamic_routing(m.poses(x), m.transforms(), self.iters)

    def agreement(self, x: Tensor):
        """cos(u_ij, v_j) and |u_ij|, each (B, n1, n2), for the votes u this
        layer routes on x; neither forms the votes (vote_agreement)."""
        m = self.mapping
        return vote_agreement(m.poses(x).data, m.transforms().data, self.route(x).data)

    def __call__(self, x: Tensor) -> Tensor:
        b = x.shape[0]
        h2, w2 = self.out_hw
        out = T.reshape(self.route(x), (b, self.caps_out, h2, w2, self.dim_out))
        out = T.transpose(out, (0, 1, 4, 2, 3))
        return T.reshape(out, (b, self.caps_out * self.dim_out, h2, w2))


def vote_agreement(poses: np.ndarray, transforms: np.ndarray, v: np.ndarray):
    """cos(u_ij, v_j) and |u_ij|, each (B, g*p, n2), of the votes
    u = poses @ transforms, from poses (B, g, p, k), transforms (g, k, n2, d2)
    and outputs v (B, n2, d2) without forming the votes.

    u_ij . v_j contracts the poses with W_j v_j, as the routing logit update
    does; |u_ij|^2 = p^T (W_j W_j^T) p contracts them twice with the
    (g, n2, k, k) Gram tensor of the transforms.
    """
    b, g, p, _ = poses.shape
    dots = poses @ np.einsum("gkjd,bjd->bgkj", transforms, v)
    gram = np.einsum("gkjd,gljd->gjkl", transforms, transforms)
    sq = np.einsum("bgpk,gjkl,bgpl->bgpj", poses, gram, poses)
    lengths = np.sqrt(np.maximum(sq, 0.0)).reshape(b, g * p, -1)
    on = np.sqrt((v * v).sum(axis=-1))[:, None]
    cos = dots.reshape(lengths.shape) / np.maximum(lengths * on, 1e-12)
    return np.clip(cos, -1.0, 1.0), lengths


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


def histogram_sums(cos: np.ndarray, lengths: np.ndarray, bins: int = 20) -> np.ndarray:
    """(2, bins): count and summed |vote_ij| per bin of cos(vote_ij, v_j) over
    one batch's (sample, i, j) triples (vote_agreement gives both); batches'
    sums add up to their concatenation's, so a pass holds one batch."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, cos.reshape(-1), side="right") - 1, 0, bins - 1)
    return np.stack([np.bincount(idx, minlength=bins).astype(np.float64),
                     np.bincount(idx, weights=lengths.reshape(-1), minlength=bins)])


def routing_histogram(sums: np.ndarray) -> RoutingHistogram:
    """Percent of triples and mean |vote_ij| per bin from summed histogram_sums."""
    count, lsum = sums
    mean_length = np.divide(lsum, count, out=np.zeros(count.size), where=count > 0)
    return RoutingHistogram(edges=np.linspace(-1.0, 1.0, count.size + 1),
                            percent=100.0 * count / count.sum(), mean_length=mean_length)


def write_histogram_csv(path: str, hist: RoutingHistogram) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_low", "bin_high", "percent", "mean_length"])
        for i in range(len(hist.percent)):
            w.writerow([f"{hist.edges[i]:.10g}", f"{hist.edges[i + 1]:.10g}",
                        f"{hist.percent[i]:.12g}", f"{hist.mean_length[i]:.12g}"])
