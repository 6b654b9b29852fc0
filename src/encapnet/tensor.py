"""Reverse-mode autodiff on numpy arrays.

A Tensor wraps an ndarray; every op records its inputs and a backward rule on
the produced node, so the op graph doubles as the tape. backward() on a scalar
loss topologically orders that graph and visits each node exactly once in
reverse, accumulating gradients into .grad. Calling backward() again without
zeroing keeps accumulating; that is the documented behaviour, not an error.

Inside `with no_grad():` ops still compute their outputs but record nothing:
the nodes they build have no parents, no backward rule and requires_grad
False, so no input or intermediate buffer is kept alive for a backward pass.
Evaluation and finite-difference forwards run this way. Backward rules skip
the gradient of any input that does not require one.

Float64 is the default dtype; set_default_dtype(np.float32) switches the whole
stack for cheap training runs.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DomainError, ShapeError

_default_dtype = np.float64
_grad_enabled = True


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}")
    _default_dtype = dtype.type


def get_default_dtype():
    return _default_dtype


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """Independent counter-based stream for (seed, *tags).

    Philox keyed through a SeedSequence whose spawn key is derived from the
    tags, so the same path always yields the same stream and distinct paths
    never collide.
    """
    key = tuple(zlib.crc32(str(t).encode("utf-8")) for t in tags)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backward=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_default_dtype) if not isinstance(data, np.ndarray) \
            else data
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = backward

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, op="detach")

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g (same shape, or broadcastable to it) into .grad.

        The first touch stores a copy: one g may be handed to two parents
        (add), so storing it as-is would alias their grads. The copy takes
        the memory layout of .data, not of g, which may be a transposed view.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # -- graph walk ---------------------------------------------------------

    def _topo(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable .grad.

        self must be scalar. Grads add onto whatever is already stored, so
        zero them between steps.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        order = self._topo()
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if len(axes) != 1 else axes[0])


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=_default_dtype))


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=_default_dtype), requires_grad=False, op="const")


class no_grad:
    """Context manager: ops inside it build no tape (see the module docstring).

    Nests, and restores the previous setting on exit, also after an exception.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _make(data, parents, backward, op):
    if not _grad_enabled:
        return Tensor(data, op=op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, op=op,
                  parents=parents, backward=backward if req else None)


# -- elementwise -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def back(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), back, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def back(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), back, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def back(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), back, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def back(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), back, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def back(g):
        a._accumulate(-g)

    return _make(-a.data, (a,), back, "neg")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0)

    def back(g):
        a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), back, "relu")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # split by sign to keep exp() off large positives
    out_data = np.where(a.data >= 0,
                        1.0 / (1.0 + np.exp(-np.abs(a.data))),
                        np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def back(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), back, "sigmoid")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def back(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), back, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise DomainError("log of a negative value")
    with np.errstate(divide="ignore"):
        out_data = np.log(a.data)

    def back(g):
        a._accumulate(g / a.data)

    return _make(out_data, (a,), back, "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise DomainError("sqrt of a negative value")
    out_data = np.sqrt(a.data)

    def back(g):
        a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), back, "sqrt")


def maximum(a, floor: float) -> Tensor:
    """Elementwise max(a, floor) for a scalar floor."""
    a = as_tensor(a)
    out_data = np.maximum(a.data, floor)

    def back(g):
        a._accumulate(g * (a.data > floor))

    return _make(out_data, (a,), back, "maximum")


# -- reductions / shape ------------------------------------------------------

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), back, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    return mul(tsum(a, axis, keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def back(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), back, "reshape")


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None or (isinstance(axes, tuple) and len(axes) == 0):
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def back(g):
        a._accumulate(g.transpose(inv))

    return _make(out_data, (a,), back, "transpose")


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def back(g):
        start = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + n)
            t._accumulate(g[tuple(idx)])
            start += n

    return _make(out_data, tuple(tensors), back, "concat")


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out_data = a.data[idx]

    def back(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full)

    return _make(out_data, (a,), back, "slice")


# -- linear algebra ------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul needs ndim >= 2 on both operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner mismatch: {a.data.shape} x {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def back(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.data.shape))
        b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), back, "matmul")


def softmax(a, axis: int) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return _make(out_data, (a,), back, "softmax")


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_keep = m + np.log(s)
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    soft = e / s

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(g * soft)

    return _make(out_data, (a,), back, "logsumexp")


# -- normalisation ---------------------------------------------------------------

def batch_norm(x, gamma, beta, eps: float = 1e-5, running_mean=None,
               running_var=None, momentum: float = 0.1) -> Tensor:
    """Training-mode batch norm of (B,C,H,W) over (B,H,W), as one node.

    y = (x - mean) / sqrt(var + eps) * gamma + beta with the biased batch
    variance. Given running_mean / running_var arrays, updates them in place,
    r <- (1 - momentum) r + momentum * stat, with the unbiased variance.
    The backward rule is the closed form
    dx = gamma / std * (g - mean(g) - xhat * mean(g * xhat)).
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects a 4-D input, got {x.data.shape}")
    c = x.data.shape[1]
    n = x.data.size // c
    axes, shape = (0, 2, 3), (1, c, 1, 1)
    mean = x.data.sum(axis=axes, keepdims=True) * (1.0 / n)
    centered = x.data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + eps)
    xhat = centered / std
    out = xhat * gamma.data.reshape(shape) + beta.data.reshape(shape)
    if running_mean is not None:
        running_mean *= 1 - momentum
        running_mean += momentum * mean.reshape(c)
    if running_var is not None:
        running_var *= 1 - momentum
        running_var += momentum * (var.reshape(c) * (n / max(n - 1, 1)))

    def back(g):
        gsum = g.sum(axis=axes)
        gxsum = (g * xhat).sum(axis=axes)
        beta._accumulate(gsum)
        gamma._accumulate(gxsum)
        if x.requires_grad:
            scale = gamma.data.reshape(shape) / std
            x._accumulate(scale * (g - (gsum / n).reshape(shape)
                                   - xhat * (gxsum / n).reshape(shape)))

    return _make(out, (x, gamma, beta), back, "batch_norm")


# -- convolution ----------------------------------------------------------------

def conv_out_size(n: int, k: int, stride: int, pad: int) -> int:
    """floor((n + 2*pad - k)/stride) + 1; rejects empty outputs."""
    out = (n + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"conv output collapses: n={n} k={k} stride={stride} pad={pad}")
    return out


def _phase_shape(k: int, stride: int, ho: int, wo: int):
    """(rows, width) of a phase image for an (ho, wo) output.

    The width wo + (k-1)//stride is also the row width of the lowered output;
    one spare row keeps the last tap's run inside the image.
    """
    q = (k - 1) // stride
    return ho + q + 1, wo + q


def _is_pointwise(k: int, stride: int, pad: int) -> bool:
    return k == 1 and stride == 1 and pad == 0


def _tap_offsets(k: int, stride: int, wq: int):
    """(tap row, tap col, phase row, phase col, flat offset) of every tap."""
    return [(ki, kj, ki % stride, kj % stride, (ki // stride) * wq + kj // stride)
            for ki in range(k) for kj in range(k)]


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(B,C,H,W) -> columns (B, C*k*k, Ho*Wq), Ho, Wo, Wq.

    The zero-padded input is split into stride x stride phase images of
    width Wq = Wo + (k-1)//stride (x[pi::s, pj::s] for phase (pi, pj)), each
    flattened. In a flattened phase image the patch rows of one tap for all
    Ho output rows are one contiguous run of Ho*Wq values, so each tap is a
    single copy. Column j >= Wo of each output row is junk that callers crop.
    A 1x1, stride-1, unpadded conv uses x itself as its columns.
    """
    b, c, h, w = x.shape
    ho = conv_out_size(h, k, stride, pad)
    wo = conv_out_size(w, k, stride, pad)
    if _is_pointwise(k, stride, pad):
        return x.reshape(b, c, h * w), ho, wo, wo
    s = stride
    hq, wq = _phase_shape(k, s, ho, wo)
    # rows and columns past s*hq, s*wq are never under any tap
    hh, ww = min(h, s * hq - pad), min(w, s * wq - pad)
    xp = np.zeros((b, c, s * hq, s * wq), dtype=x.dtype)
    xp[:, :, pad:pad + hh, pad:pad + ww] = x[:, :, :hh, :ww]
    n = min(s, k)
    phases = np.ascontiguousarray(
        xp.reshape(b, c, hq, s, wq, s)[:, :, :, :n, :, :n].transpose(3, 5, 0, 1, 2, 4)
    ).reshape(n, n, b, c, hq * wq)
    span = ho * wq
    cols = np.empty((b, c, k, k, span), dtype=x.dtype)
    for ki, kj, pi, pj, off in _tap_offsets(k, s, wq):
        cols[:, :, ki, kj] = phases[pi, pj, :, :, off:off + span]
    return cols.reshape(b, c * k * k, span), ho, wo, wq


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int,
            ho: int, wo: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add columns back onto (B,C,H,W).

    Junk columns must hold zeros; they land on real pixels of the phase
    images and add nothing there.
    """
    b, c, h, w = x_shape
    if _is_pointwise(k, stride, pad):
        return cols.reshape(x_shape)
    s, n = stride, min(stride, k)
    hq, wq = _phase_shape(k, s, ho, wo)
    span = ho * wq
    cols = cols.reshape(b, c, k, k, span)
    phases = np.zeros((n, n, b, c, hq * wq), dtype=cols.dtype)
    for ki, kj, pi, pj, off in _tap_offsets(k, s, wq):
        phases[pi, pj, :, :, off:off + span] += cols[:, :, ki, kj]
    phases = phases.reshape(n, n, b, c, hq, wq)
    if s == 1:
        xp = phases[0, 0]
    else:
        xp = np.zeros((b, c, s * hq, s * wq), dtype=cols.dtype)
        xp.reshape(b, c, hq, s, wq, s)[:, :, :, :n, :, :n] = phases.transpose(2, 3, 4, 0, 5, 1)
    hh, ww = min(h, s * hq - pad), min(w, s * wq - pad)
    if (hh, ww) == (h, w):
        return xp[:, :, pad:pad + h, pad:pad + w]
    x = np.zeros(x_shape, dtype=cols.dtype)
    x[:, :, :hh, :ww] = xp[:, :, pad:pad + hh, pad:pad + ww]
    return x


def _widen(y: np.ndarray, wq: int) -> np.ndarray:
    """(B,C,H,W) -> (B,C,H*wq) with zero junk columns W..wq-1."""
    b, c, h, w = y.shape
    if wq == w:
        return y.reshape(b, c, h * w)
    out = np.zeros((b, c, h, wq), dtype=y.dtype)
    out[..., :w] = y
    return out.reshape(b, c, h * wq)


def _crop(y: np.ndarray, ho: int, wq: int, wo: int) -> np.ndarray:
    """(B,C,ho*wq) lowered output -> contiguous (B,C,ho,wo)."""
    b, c = y.shape[:2]
    y = y.reshape(b, c, ho, wq)
    return y if wq == wo else np.ascontiguousarray(y[..., :wo])


def _check_conv_channels(cin, cout, groups, w_shape):
    if cin % groups or cout % groups:
        raise ShapeError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
    if w_shape[1] != cin // groups:
        raise ShapeError(f"weight expects {w_shape[1]} channels/group, input has {cin // groups}")


def conv2d(x, w, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2-D cross-correlation. x: (B,Cin,H,W), w: (Cout,Cin/g,k,k).

    One im2col for all groups (channel-major, so group g's columns are the
    g-th block of rows) and one batched matmul (G,Cout/g,K) @ (B,G,K,L).
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight")
    b, cin, _, _ = x.data.shape
    cout, _, k, k2 = w.data.shape
    if k != k2:
        raise ShapeError("only square kernels supported")
    _check_conv_channels(cin, cout, groups, w.data.shape)
    cols, ho, wo, wq = _im2col(x.data, k, stride, padding)
    cols = cols.reshape(b, groups, -1, ho * wq)
    wmat = w.data.reshape(groups, cout // groups, -1)
    out = _crop(np.matmul(wmat, cols).reshape(b, cout, -1), ho, wq, wo)

    def back(g):
        gy = _widen(g, wq).reshape(b, groups, cout // groups, ho * wq)
        if w.requires_grad:
            gw = np.matmul(gy, cols.swapaxes(-1, -2)).sum(axis=0)
            w._accumulate(gw.reshape(w.data.shape))
        if x.requires_grad:
            gcols = np.matmul(wmat.swapaxes(-1, -2), gy)
            x._accumulate(_col2im(gcols, x.data.shape, k, stride, padding, ho, wo))

    return _make(out, (x, w), back, "conv2d")


def conv_transpose2d(x, w, stride: int = 1, padding: int = 0,
                     output_padding: int = 0, groups: int = 1) -> Tensor:
    """Exact adjoint of conv2d in its first argument, sharing the weight layout.

    x: (B, Cout, Hi, Wi) with Cout = w.shape[0]; returns (B, Cin, Ho, Wo) where
    Ho = (Hi-1)*stride - 2*padding + k + output_padding. For every v and z:
    <conv2d(z, w), v> == <z, conv_transpose2d(v, w)> with matching geometry.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv_transpose2d expects 4-D input and weight")
    if not 0 <= output_padding < stride:
        raise ShapeError(f"output_padding must lie in [0, stride), got {output_padding}")
    b, cfrom, hi, wi = x.data.shape
    cout, cin_g, k, _ = w.data.shape
    if cfrom != cout:
        raise ShapeError(f"input channels {cfrom} != weight out-channels {cout}")
    if cout % groups:
        raise ShapeError(f"channels {cout} not divisible by groups={groups}")
    ho = (hi - 1) * stride - 2 * padding + k + output_padding
    wo = (wi - 1) * stride - 2 * padding + k + output_padding
    if ho < 1 or wo < 1:
        raise ShapeError("conv_transpose2d output collapses")
    out_shape = (b, cin_g * groups, ho, wo)
    # x sits where conv2d's output would: same lowered row width
    _, wq = _phase_shape(k, stride, hi, wi)
    xw = _widen(x.data, wq).reshape(b, groups, cout // groups, hi * wq)
    wmat = w.data.reshape(groups, cout // groups, -1)
    out = _col2im(np.matmul(wmat.swapaxes(-1, -2), xw), out_shape, k, stride,
                  padding, hi, wi)

    def back(g):
        gcols, _, _, _ = _im2col(g, k, stride, padding)
        gcols = gcols.reshape(b, groups, -1, hi * wq)
        if w.requires_grad:
            gw = np.matmul(xw, gcols.swapaxes(-1, -2)).sum(axis=0)
            w._accumulate(gw.reshape(w.data.shape))
        if x.requires_grad:
            gx = np.matmul(wmat, gcols).reshape(b, cout, -1)
            x._accumulate(_crop(gx, hi, wq, wi))

    return _make(out, (x, w), back, "conv_transpose2d")


# -- diagnostics ------------------------------------------------------------------

def find_first_nonfinite(root: Tensor) -> str | None:
    """Name of the earliest op in forward order whose output is non-finite."""
    for node in root._topo():
        if not np.all(np.isfinite(node.data)):
            return node.op
    return None
