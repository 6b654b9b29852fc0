"""Capsule primitives.

A capsule is a vector activation: its direction encodes the instantiation and
its length (kept in [0,1) by squash) the existence probability. Spatial layers
carry capsules channel-major inside ordinary (B, C*d, H, W) blobs: C capsule
channels, each a contiguous block of d scalar channels.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .layers import Layer, gaussian_init
from .tensor import SQUASH_EPS, Tensor


def squash(s: Tensor, axis: int = -1) -> Tensor:
    """v = (|s|^2 / (1+|s|^2)) * s/|s| along axis, as one node (tensor.squash)
    that keeps only s and v."""
    return T.squash(s, axis)


def grid_squash(x: Tensor, caps: int, dim: int) -> Tensor:
    """Squash each capsule's d-vector inside a channel-major blob."""
    b, c, h, w = x.shape
    if c != caps * dim:
        raise ShapeError(f"channels {c} != caps {caps} * dim {dim}")
    v = T.reshape(x, (b, caps, dim, h, w))
    v = squash(v, axis=2)
    return T.reshape(v, (b, c, h, w))


def grid_to_capsules(x: Tensor, caps: int, dim: int) -> Tensor:
    """(B, caps*dim, H, W) -> (B, caps*H*W, dim); every location is a capsule."""
    b, c, h, w = x.shape
    if c != caps * dim:
        raise ShapeError(f"channels {c} != caps {caps} * dim {dim}")
    v = T.reshape(x, (b, caps, dim, h, w))
    v = T.transpose(v, (0, 1, 3, 4, 2))
    return T.reshape(v, (b, caps * h * w, dim))


def capsule_norms(v: Tensor, eps: float = SQUASH_EPS) -> Tensor:
    """Lengths along the last axis: (B, n, d) -> (B, n)."""
    nsq = T.tsum(v * v, axis=-1, keepdims=False)
    return T.sqrt(nsq + eps)


def margin_loss(v: Tensor, labels: np.ndarray, m_plus: float = 0.9,
                m_minus: float = 0.1, lam: float = 0.5) -> Tensor:
    """Mean over the batch of the per-class hinge on capsule lengths.

    v: (B, n_classes, d) class capsules; labels: int array (B,).
    """
    b, k, _ = v.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} != ({b},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"label out of range [0, {k})")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    t = T.constant(onehot)
    norms = capsule_norms(v)
    present = T.relu(m_plus - norms)
    absent = T.relu(norms - m_minus)
    per_class = t * present * present + lam * (1.0 - t) * absent * absent
    return T.tmean(T.tsum(per_class, axis=1))


def predict(v: Tensor) -> np.ndarray:
    """Class = argmax capsule length; ties resolve to the lowest index."""
    lengths = np.sqrt((v.data * v.data).sum(axis=-1))
    return lengths.argmax(axis=1)


class CapFC(Layer):
    """Per-dimension fully connected capsule layer.

    Each of the d capsule dimensions owns an (n_in, n_out) matrix; dimension k
    of every output capsule mixes only dimension k of the inputs. Output is
    squashed so lengths read as probabilities.
    """

    def __init__(self, n_in: int, n_out: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.n_in, self.n_out, self.dim = n_in, n_out, dim
        rng = rng or np.random.default_rng(0)
        self.weight = self.add_param("weight", gaussian_init(rng, (dim, n_in, n_out), n_in))

    def __call__(self, x: Tensor) -> Tensor:
        b, n, d = x.shape
        if n != self.n_in or d != self.dim:
            raise ShapeError(f"capfc expects (B, {self.n_in}, {self.dim}), got {x.shape}")
        xt = T.transpose(x, (2, 0, 1))          # (d, B, n_in)
        y = T.matmul(xt, self.weight)           # (d, B, n_out)
        y = T.transpose(y, (1, 2, 0))           # (B, n_out, d)
        return squash(y, axis=-1)
