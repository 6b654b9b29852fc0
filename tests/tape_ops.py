"""Tape ops that only tests build graphs from: references for the fused
kernels and inputs for the engine's own checks. No library code needs them,
so they live here, built on the engine's private node constructor."""

import numpy as np

from encapnet import tensor as T


def exp(a):
    a = T.as_tensor(a)
    out_data = np.exp(a.data)

    def back(g):
        a._accumulate(g * out_data)

    return T._make(out_data, (a,), back, "exp")


def concat(tensors, axis: int):
    tensors = [T.as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def back(g):
        start = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + n)
            t._accumulate(g[tuple(idx)])
            start += n

    return T._make(out_data, tuple(tensors), back, "concat")


def softmax(a, axis):
    """Softmax from tape ops, so the reference routing stays differentiable;
    the max shift is a constant, which the softmax does not see."""
    e = exp(a - T.constant(a.data.max(axis=axis, keepdims=True)))
    return e / T.tsum(e, axis=axis, keepdims=True)
