"""Reverse-mode autodiff on numpy arrays.

A Tensor wraps an ndarray; every op records its inputs and a backward rule on
the produced node, so the op graph doubles as the tape. backward() on a scalar
loss topologically orders that graph and visits each node exactly once in
reverse, accumulating gradients into .grad. Once a node's rule has run, the
walk releases it: its .grad, parents and rule are dropped, so the tape is freed
as it is walked and only leaf grads outlive backward(); they keep accumulating
until zeroed. Walking a released node again raises GraphReleased.

What a node holds: its rule keeps the node's inputs alive, and an array beyond
them only where recomputing it costs more than a cheap pass over those.
conv2d and conv_transpose2d keep x and w; both run on one blocked lowering
and one blocked scatter, so no call holds a whole batch's columns.
batch_norm_relu recomputes x-hat from x, squash |s|^2 and its scale from s,
and gate_logits its stacked input from v1 and v2, each with the forward's
own ops, so bit for bit.

A node's own output stays in .data until its layer calls release(), once
only backward rules read it. The layer hands release() the op that made the
node, which value() re-runs on the node's inputs under no_grad, so the
rebuilt array is the forward's bit for bit. A training batch_norm_relu
node, whose batch statistics no op call reproduces, carries its own
rebuild, so release() needs no op there. Rules read inputs through value(),
which rebuilds a released array, or only the images a slice names, so
conv2d's backward lowers a released BN-ReLU output block by block. A rule
that needs only an input's shape records it in the forward.

Inside `with no_grad():` ops still compute their outputs but record nothing:
the nodes they build have no parents, no backward rule and requires_grad
False, so no input or intermediate buffer is kept alive for a backward pass.
Evaluation and finite-difference forwards run this way. Backward rules skip
the gradient of any input that does not require one.

Every Tensor holds float64: the constructor converts lists, scalars and
float32 or integer arrays, and stores float64 arrays without a copy. The
finite-difference gradient checks and the bitwise stop-gradient tests rely
on that precision.

On glibc, importing this module fixes malloc's mmap and trim thresholds
(_hold_heap), so that memory a step frees is reused by the next one.
"""

from __future__ import annotations

import ctypes
import os
import zlib

import numpy as np

from .errors import ConfigError, DomainError, GraphReleased, ShapeError

_grad_enabled = True
SQUASH_EPS = 1e-8
# Bytes of im2col columns in one conv2d block of images, so they stay in cache.
COLS_BLOCK_BYTES = 1 << 19
# Stands in for the rule of a node that backward() has run and released.
_RELEASED = object()


def _hold_heap() -> None:
    """Fix glibc's malloc thresholds: blocks under 32 MiB come from the heap,
    and the heap is not trimmed. By default both follow the largest block
    freed so far, so a process reused the tape a training step frees, or
    faulted megabytes of it back in every step, by the luck of its first frees.
    """
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its default ceiling
            mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
    except (AttributeError, OSError, ValueError):  # not glibc
        pass


_hold_heap()


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
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward",
                 "_rebuild", "_shape")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backward=None, rebuild=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = backward
        self._rebuild = rebuild

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self):
        return self._shape if self.data is None else self.data.shape

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def dtype(self):
        return np.dtype(np.float64)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, grad={self.requires_grad})"

    def release(self, op=None) -> None:
        """Drop the array of a node that only backward rules read later.

        value() then rebuilds it by re-running op, the op that made the node,
        on its inputs under no_grad, or else by the node's own rebuild. A
        no-op on leaves, no_grad outputs, walked nodes and nodes with neither.
        """
        if not callable(self._backward) or self.data is None:
            return
        if op is not None:
            parents = self._parents

            def redo(blk):
                with no_grad():
                    return op(*parents).data[blk]

            self._rebuild = redo
        if self._rebuild is not None:
            self._shape, self.data = self.data.shape, None

    def value(self, blk=...) -> np.ndarray:
        """The array, or the images blk of it; a released node rebuilds them."""
        return self._rebuild(blk) if self.data is None else self.data[blk]

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g, of .data's shape, into .grad.

        A rule's gradient is dead once the rule returns, since the walk then
        releases its node, so a first touch stores g as is. A read-only g (a
        broadcast view, a numpy scalar) is copied into the memory layout of
        .data, and add copies what it hands its second operand when the first
        stored that same buffer.
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += g
        elif g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.empty(self.shape) if self.data is None else np.empty_like(self.data)
            self.grad[...] = g

    # -- graph walk ---------------------------------------------------------

    def _topo(self):
        """Nodes reachable from self, parents first; raises on a released one."""
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _RELEASED:
                raise GraphReleased(
                    f"a {node.op!r} node was released by an earlier backward(); "
                    "run the forward again to build a new graph")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable .grad.

        self must be scalar. Leaf grads add onto whatever is already stored,
        so zero them between steps. Each node with a rule is released as soon
        as its rule has run, so the graph can be walked once: a second call,
        or a walk through any node of a walked graph, raises GraphReleased
        before any .grad changes. Nodes without a rule are never touched.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        order = self._topo()
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _RELEASED
                node._rebuild = None

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
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x, op="const")


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


def _make(data, parents, backward, op, rebuild=None):
    if not _grad_enabled:
        return Tensor(data, op=op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, op=op, parents=parents,
                  backward=backward if req else None, rebuild=rebuild if req else None)


# -- elementwise -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def back(g):  # reads only the shapes of a and b, which a release keeps
        a._accumulate(_unbroadcast(g, a.shape))
        gb = _unbroadcast(g, b.shape)
        b._accumulate(gb.copy() if gb is a.grad else gb)

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
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

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


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_keep = m + np.log(s)
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(g * (e / s))

    return _make(out_data, (a,), back, "logsumexp")


# -- normalisation ---------------------------------------------------------------

def _bn_relu_tail(d, std, gamma, beta) -> np.ndarray:
    """The training forward after d = x - mean, in place: relu(d / std * gamma + beta)."""
    d /= std[:, None]
    d *= gamma[:, None]
    d += beta[:, None]
    return np.maximum(d, 0, out=d)


def batch_norm_relu(x, gamma, beta, running_mean, running_var, training: bool,
                    eps: float = 1e-5, momentum: float = 0.1,
                    overwrite: bool = False) -> Tensor:
    """relu(xhat * gamma + beta), xhat = (x - mean) / sqrt(var + eps) per channel
    of (B,C,H,W), as one node. Training takes the biased batch statistics over
    (B,H,W) and updates the running ones in place, r <- (1 - momentum) r +
    momentum * stat, with the unbiased variance; eval folds the running ones
    into out = x * scale + shift. Backward masks g by out > 0, then takes the
    closed form dx = gamma / std * (g - mean(g) - xhat * mean(g * xhat)) in
    training and dx = g * scale in eval.

    The node keeps x and per-channel statistics, not its output: the
    backward recomputes xhat from x with the forward's own ops, so it is
    bitwise the forward's, and takes the mask from the forward's last sum,
    fl(u + t) > 0 as u > -t, with u = fl(xhat * gamma), t = beta in training
    and u = fl(x * scale), t = shift in eval. A training node rebuilds its
    output the same way, so its caller may release it. overwrite says x's
    array is the caller's own temporary; when no tape is recorded (no_grad)
    the result is then written over it.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm_relu expects a 4-D input, got {x.data.shape}")
    b, c, h, w = x.data.shape
    n = b * h * w
    x3 = x.data.reshape(b, c, h * w)
    out = x3 if overwrite and not _grad_enabled else None
    if training:
        mean = x3.sum(axis=(0, 2)) * (1.0 / n)
        out = np.subtract(x3, mean[:, None], out=out)
        var = (out * out).sum(axis=(0, 2)) * (1.0 / n)
        std = np.sqrt(var + eps)
        _bn_relu_tail(out, std, gamma.data, beta.data)
        running_mean[...] = (1 - momentum) * running_mean + momentum * mean
        running_var[...] = (1 - momentum) * running_var + momentum * (var * (n / max(n - 1, 1)))
    else:
        mean = running_mean.copy()
        std = np.sqrt(running_var + eps)
        scale = gamma.data / std
        out = np.multiply(x3, scale[:, None], out=out)
        out += (beta.data - mean * scale)[:, None]
        np.maximum(out, 0, out=out)

    def rebuild(blk):
        xb = x.value(blk)
        d = np.subtract(xb.reshape(len(xb), c, h * w), mean[:, None])
        return _bn_relu_tail(d, std, gamma.data, beta.data).reshape(xb.shape)

    def back(g):
        xhat = x.value().reshape(b, c, h * w) - mean[:, None]
        xhat /= std[:, None]
        if training:  # t: the product the forward added beta to
            t = np.multiply(xhat, gamma.data[:, None])
            gm = g.reshape(b, c, h * w) * (t > -beta.data[:, None])
        else:  # the eval forward's x * scale, and its shift
            sc = gamma.data / std
            t = np.multiply(x.value().reshape(b, c, h * w), sc[:, None])
            gm = g.reshape(b, c, h * w) * (t > -(beta.data - mean * sc)[:, None])
        gsum = gm.sum(axis=(0, 2))
        np.multiply(gm, xhat, out=t)
        gxsum = t.sum(axis=(0, 2))
        beta._accumulate(gsum)
        gamma._accumulate(gxsum)
        if x.requires_grad:
            if training:
                gm -= (gsum / n)[:, None]
                gm -= np.multiply(xhat, (gxsum / n)[:, None], out=t)
            gm *= (gamma.data / std)[:, None]
            x._accumulate(gm.reshape(b, c, h, w))

    return _make(out.reshape(b, c, h, w), (x, gamma, beta), back, "batch_norm_relu",
                 rebuild if training else None)


# -- capsule kernels ------------------------------------------------------------

def _squash_scale(s: np.ndarray, axis: int):
    """(n, k): n = |s|^2 along axis (kept), k = n / (1+n) / sqrt(n+eps)."""
    n = (s * s).sum(axis=axis, keepdims=True)
    return n, n / (1.0 + n) / np.sqrt(n + SQUASH_EPS)


def _squash_grad(s, n, k, g, axis: int) -> np.ndarray:
    """Gradient of s * k(|s|^2) along axis: k g + 2 k'(n) (s.g) s."""
    dk = ((1.0 / (1.0 + n) - n / (2.0 * (n + SQUASH_EPS)))
          / ((1.0 + n) * np.sqrt(n + SQUASH_EPS)))
    return k * g + 2.0 * dk * (s * g).sum(axis=axis, keepdims=True) * s


def squash(s, axis: int = -1) -> Tensor:
    """v = (|s|^2 / (1+|s|^2)) * s/|s| along axis, eps-guarded at the origin.

    The node keeps s and v: the backward recomputes n and k from s.
    """
    s = as_tensor(s)
    _, k = _squash_scale(s.data, axis)

    def back(g):
        s._accumulate(_squash_grad(s.data, *_squash_scale(s.data, axis), g, axis))

    return _make(s.data * k, (s,), back, "squash")


def _image_blocks(b: int, image_bytes: int) -> list:
    """Slices of a batch of b into blocks of images whose image_bytes each
    fit in COLS_BLOCK_BYTES; a block holds at least one image."""
    step = max(1, COLS_BLOCK_BYTES // image_bytes)
    return [slice(lo, lo + step) for lo in range(0, b, step)]


def gate_logits(v1, v2, w, groups: int) -> Tensor:
    """Grouped 1x1 conv w over each group's v1 channels stacked on its v2 ones.

    v1, v2: (B, G*d, H, W); w: (G*o, 2*d, 1, 1). Equal, bit for bit, to
    conv2d(x, w, groups=G) on the blob x whose group g is [v1_g; v2_g]. The
    node keeps v1 and v2, not x: forward and backward build x in blocks of
    images of at most COLS_BLOCK_BYTES, one matmul per block.
    """
    v1, v2, w = as_tensor(v1), as_tensor(v2), as_tensor(w)
    if v1.data.shape != v2.data.shape:
        raise ShapeError(f"stacked inputs disagree: {v1.data.shape} vs {v2.data.shape}")
    b, cd, h, wd = v1.data.shape
    d = cd // groups
    if cd % groups or w.data.shape[0] % groups or w.data.shape[1:] != (2 * d, 1, 1):
        raise ShapeError(f"weight {w.data.shape} is no 1x1 kernel over {groups} groups "
                         f"of stacked {v1.data.shape} inputs")
    wmat = w.data.reshape(groups, -1, 2 * d)
    blocks = _image_blocks(b, 8 * 2 * cd * h * wd)

    def per_group(a, blk):  # (n, G*d, H, W) block -> (n, G, d, H*W) view
        return a[blk].reshape(-1, groups, d, h * wd)

    def stacked(blk):
        return np.concatenate([per_group(v1.data, blk), per_group(v2.data, blk)], axis=2)

    out = np.empty((b, groups, wmat.shape[1], h * wd))
    for blk in blocks:
        np.matmul(wmat, stacked(blk), out=out[blk])

    def back(g):
        gy = g.reshape(out.shape)
        gw, g1, g2 = np.zeros(wmat.shape), np.empty(v1.data.shape), np.empty(v2.data.shape)
        for blk in blocks:
            x = stacked(blk)
            if w.requires_grad:
                for gwi in np.matmul(gy[blk], x.swapaxes(-1, -2)):
                    gw += gwi
            np.matmul(wmat.swapaxes(-1, -2), gy[blk], out=x)
            per_group(g1, blk)[...] = x[:, :, :d]
            per_group(g2, blk)[...] = x[:, :, d:]
        w._accumulate(gw.reshape(w.data.shape))
        v1._accumulate(g1)
        v2._accumulate(g2)

    return _make(out.reshape(b, -1, h, wd), (v1, v2, w), back, "gate_logits")


def gated_sum(v1, v2, m) -> Tensor:
    """s = m1 * v1 + m2 * v2 per capsule, as one node.

    v1, v2: (B, G*d, H, W), G capsules of d channels each; m: (B, 2*G, H, W)
    holds capsule g's coefficients m1, m2 at channels 2g and 2g+1. The node
    keeps only its inputs and s; backward: gv1 = m1 g, gv2 = m2 g and
    gm1 = sum over the d channels of g v1 (gm2 likewise with v2).
    """
    v1, v2, m = as_tensor(v1), as_tensor(v2), as_tensor(m)
    if v1.data.shape != v2.data.shape:
        raise ShapeError(f"gated inputs disagree: {v1.data.shape} vs {v2.data.shape}")
    b, cd, h, w = v1.data.shape
    caps = m.data.shape[1] // 2
    if caps < 1 or m.data.shape != (b, 2 * caps, h, w) or cd % caps:
        raise ShapeError(f"coefficients {m.data.shape} do not gate votes {v1.data.shape}")
    shape = (b, caps, cd // caps, h, w)
    mm = m.data.reshape(b, caps, 2, h, w)
    m1, m2 = mm[:, :, 0:1], mm[:, :, 1:2]
    out = np.empty(shape)
    for blk in _image_blocks(b, 8 * cd * h * w):  # the m2 v2 temporary is one block
        np.multiply(m1[blk], v1.data[blk].reshape(-1, *shape[1:]), out=out[blk])
        out[blk] += m2[blk] * v2.data[blk].reshape(-1, *shape[1:])

    def back(g):
        g = g.reshape(shape)
        if m.requires_grad:
            gm = np.empty(mm.shape)
            gm[:, :, 0] = (g * v1.data.reshape(shape)).sum(axis=2)
            gm[:, :, 1] = (g * v2.data.reshape(shape)).sum(axis=2)
            m._accumulate(gm.reshape(m.data.shape))
        v1._accumulate((g * m1).reshape(v1.data.shape))
        v2._accumulate((g * m2).reshape(v2.data.shape))

    return _make(out.reshape(v1.data.shape), (v1, v2, m), back, "gated_sum")


def route_by_agreement(poses, transforms, iters: int) -> Tensor:
    """Dynamic routing to v (B, n2, d2) as one node, on votes it never forms.

    poses (B, g, p, k) and transforms (g, k, n2, d2) imply the votes
    u[b, i, j] = poses[b, g, p] @ transforms[g, :, j] of the n1 = g*p lower
    capsules i = (g, p). Per iteration c = softmax over n1 of the logits,
    v = squash(sum_i c_i u_i) and, but on the last, logits += u_i . v. Both
    sums contract through the poses P and the transforms W instead:
    Q = c^T P batched over (b, g), then s = Q W batched over j; the logits are
    P A with A = sum of W v over the iterations so far. The first iteration's
    coefficients are exactly 1/n1, so its Q is each channel's mean pose for
    every j. Later ones keep e = exp(logits - column max) unnormalised and
    divide Q by the column sums z instead of the coefficients.

    The backward sweeps the iterations in reverse, with 1/z folded into the
    small gQ/z: the poses gradient gains e (gQ/z)^T and gl A^T (the first
    iteration: sum_j gQ_j / n1 at every p), the transforms gradient Q^T gs and
    ga^T v, where gl = e (P gQ/z - Q.gQ/z) is the logits gradient and ga sums
    P^T gl over the later iterations.
    """
    poses, transforms = as_tensor(poses), as_tensor(transforms)
    if iters < 1:
        raise ConfigError("routing needs at least one iteration")
    b, g, p, k = poses.data.shape
    if transforms.data.shape[:2] != (g, k):
        raise ShapeError(f"transforms {transforms.data.shape} do not map poses {poses.data.shape}")
    n2, d2 = transforms.data.shape[2:]
    n1, P = g * p, poses.data
    W = np.ascontiguousarray(transforms.data.transpose(2, 0, 1, 3)).reshape(n2, g * k, d2)

    def per_image(a):  # (n2, B, g*k) -> (B, g, k, n2) view
        return a.reshape(n2, b, g, k).transpose(1, 2, 3, 0)

    e = z = A = None
    saved = []
    for r in range(iters):
        if r == 0:  # c = 1/n1 exactly: Q_j is the mean pose, the same for every j
            q = P.sum(axis=2).reshape(b, g * k) / n1
        else:
            if e is None or _grad_enabled:
                e = np.empty((b, g, p, n2))
            np.matmul(P, per_image(A), out=e)
            flat = e.reshape(b, n1, n2)
            flat -= flat.max(axis=1, keepdims=True)
            np.exp(flat, out=flat)
            z = flat.sum(axis=1)
            q = np.empty((n2, b, g * k))
            np.matmul(e.swapaxes(-1, -2), P, out=per_image(q).swapaxes(-1, -2))
            q /= z.T[:, :, None]
        s = np.matmul(q, W)
        n, scale = _squash_scale(s, -1)
        v = s * scale
        saved += [(e, z, q, s, n, scale, v, A)] if _grad_enabled else []
        if r < iters - 1:
            a = np.matmul(v, W.swapaxes(-1, -2))
            A = a if A is None else A + a

    def back(g_out):
        gv, ga = g_out.transpose(1, 0, 2), None
        gp, gw = np.zeros_like(P), np.zeros_like(W)
        for e, z, q, s, n, scale, v, A in reversed(saved):
            if ga is not None:  # later iterations read v through their logits
                gv = np.matmul(ga, W)
                gw += np.matmul(ga.swapaxes(-1, -2), v)
            gs = _squash_grad(s, n, scale, gv, -1)
            gq = np.matmul(gs, W.swapaxes(-1, -2))
            gw += np.matmul(q.swapaxes(-1, -2), gs)
            if e is None:  # the first iteration: constant coefficients 1/n1
                gp += (gq.sum(axis=0) / n1).reshape(b, g, 1, k)
                continue
            gq /= z.T[:, :, None]  # gQ/z from here on
            gp += np.matmul(e, per_image(gq).swapaxes(-1, -2))
            # softmax backward; sum_i c_i (P_i . gQ_j) contracts to Q_j . gQ_j
            gl = np.matmul(P, per_image(gq))
            gl -= (q * gq).sum(axis=-1).T.reshape(b, 1, 1, n2)
            gl *= e
            gp += np.matmul(gl, per_image(A).swapaxes(-1, -2))
            gA = np.empty((n2, b, g * k))
            np.matmul(P.swapaxes(-1, -2), gl, out=per_image(gA))
            ga = gA if ga is None else ga + gA
        poses._accumulate(gp)
        transforms._accumulate(gw.reshape(n2, g, k, d2).transpose(1, 2, 0, 3))

    return _make(np.ascontiguousarray(v.transpose(1, 0, 2)), (poses, transforms), back,
                 "route_by_agreement")


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


def _tap_offsets(k: int, stride: int, wq: int):
    """(tap row, tap col, phase row, phase col, flat offset) of every tap."""
    return [(ki, kj, ki % stride, kj % stride, (ki // stride) * wq + kj // stride)
            for ki in range(k) for kj in range(k)]


def _phases(k: int, stride: int, pad: int, hq: int, wq: int, h: int, w: int):
    """(input index, phase index) of each phase image (pi, pj), which holds
    xp[pi::s, pj::s] of the zero-padded input xp; the pair selects x's part."""
    def axis(p, q, n):  # (input slice, phase slice) along an axis of length n
        a0 = max(0, -((p - pad) // stride))
        r0 = a0 * stride + p - pad
        count = max(0, min(q - a0, -((r0 - n) // stride)))
        return slice(r0, r0 + count * stride, stride), slice(a0, a0 + count)

    n = min(stride, k)
    return [((..., xr, xc), (pi, pj, ..., ar, ac))
            for pi, (xr, ar) in enumerate(axis(p, hq, h) for p in range(n))
            for pj, (xc, ac) in enumerate(axis(p, wq, w) for p in range(n))]


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """(B,C,H,W) -> columns (B, C*k*k, Ho*Wq); conv2d passes a block of images.

    The zero-padded input is split into stride x stride phase images of
    width Wq = Wo + (k-1)//stride (x[pi::s, pj::s] for phase (pi, pj)), each
    filled by one copy from a strided slice of x and flattened. In a
    flattened phase image the patch rows of one tap for all Ho output rows
    are one contiguous run of Ho*Wq values, so each tap is a single copy.
    Column j >= Wo of each output row is junk that callers crop. A 1x1
    unpadded conv takes x[:, :, ::s, ::s], x itself at stride 1, as columns.
    """
    b, c, h, w = x.shape
    ho, wo = conv_out_size(h, k, stride, pad), conv_out_size(w, k, stride, pad)
    if k == 1 and pad == 0:
        return x[:, :, ::stride, ::stride].reshape(b, c, ho * wo)
    s, n = stride, min(stride, k)
    hq, wq = _phase_shape(k, s, ho, wo)
    phases = np.zeros((n, n, b, c, hq, wq), dtype=x.dtype)
    for xi, qi in _phases(k, s, pad, hq, wq, h, w):
        phases[qi] = x[xi]
    phases = phases.reshape(n, n, b, c, hq * wq)
    span = ho * wq
    cols = np.empty((b, c, k, k, span), dtype=x.dtype)
    for ki, kj, pi, pj, off in _tap_offsets(k, s, wq):
        cols[:, :, ki, kj] = phases[pi, pj, :, :, off:off + span]
    return cols.reshape(b, c * k * k, span)


def _col2im(cols: np.ndarray, out: np.ndarray, k: int, stride: int, pad: int,
            ho: int, wo: int) -> None:
    """Adjoint of _im2col: scatter-add columns onto the (B,C,H,W) out.

    Junk columns must hold zeros; they land on real pixels of the phase
    images and add nothing there. Each phase image is copied into a strided
    slice of out, and pixels under no tap are zeroed.
    """
    b, c, h, w = out.shape
    s, n = stride, min(stride, k)
    hq, wq = _phase_shape(k, s, ho, wo)
    span = ho * wq
    cols = cols.reshape(b, c, k, k, span)
    phases = np.zeros((n, n, b, c, hq * wq), dtype=cols.dtype)
    for ki, kj, pi, pj, off in _tap_offsets(k, s, wq):
        phases[pi, pj, :, :, off:off + span] += cols[:, :, ki, kj]
    phases = phases.reshape(n, n, b, c, hq, wq)
    index = _phases(k, s, pad, hq, wq, h, w)
    if sum(phases[qi].size for _, qi in index) < out.size:  # pixels under no tap
        out.fill(0.0)
    for xi, qi in index:
        out[xi] = phases[qi]


def _widen(y: np.ndarray, wq: int) -> np.ndarray:
    """(B,C,H,W) -> (B,C,H*wq) with zero junk columns W..wq-1."""
    b, c, h, w = y.shape
    if wq == w:
        return y.reshape(b, c, h * w)
    out = np.zeros((b, c, h, wq), dtype=y.dtype)
    out[..., :w] = y
    return out.reshape(b, c, h * wq)


def _conv_geometry(x_shape, k: int, stride: int, pad: int, forward: bool = False):
    """(Ho, Wo, Wq, blocks) of conv2d on an x_shape input. blocks slice the
    batch into blocks of images whose columns fit in COLS_BLOCK_BYTES; a 1x1
    unpadded conv's columns are x itself (one block) or, strided, a copy that
    a forward takes per image, so an eval forward holds one image's more."""
    b, c, h, w = x_shape
    ho, wo = conv_out_size(h, k, stride, pad), conv_out_size(w, k, stride, pad)
    _, wq = _phase_shape(k, stride, ho, wo)
    if k == 1 and pad == 0 and (stride == 1 or forward):
        blocks = [slice(0, b)] if stride == 1 else [slice(i, i + 1) for i in range(b)]
    else:
        blocks = _image_blocks(b, 8 * c * k * k * ho * wq)
    return ho, wo, wq, blocks


def _lowered(x, wmat, k: int, stride: int, pad: int, out=None, dy=None, gw=None) -> None:
    """conv2d of x by the weight wmat (G, Cout/G, Cin/G*k*k), lowering each
    block of images once: writes the output into out (C order) and/or adds
    into gw the weight gradient for the output gradient dy, image by image.
    x is an array or a Tensor, whose value() gives each block."""
    ho, wo, wq, blocks = _conv_geometry(x.shape, k, stride, pad, forward=gw is None)
    groups, per_group, kk = wmat.shape
    for blk in blocks:
        xb = x.value(blk) if isinstance(x, Tensor) else x[blk]
        cols = _im2col(xb, k, stride, pad).reshape(-1, groups, kk, ho * wq)
        if out is not None and wq == wo:  # no junk columns: the product is the output
            np.matmul(wmat, cols, out=out[blk].reshape(-1, groups, per_group, ho * wo))
        elif out is not None:
            out[blk] = np.matmul(wmat, cols).reshape(-1, groups * per_group, ho, wq)[..., :wo]
        if gw is not None:
            gy = _widen(dy[blk], wq).reshape(-1, groups, per_group, ho * wq)
            for gwi in np.matmul(gy, cols.swapaxes(-1, -2)):
                gw += gwi
        del cols  # so that the next block's columns reuse its memory, still in cache


def _input_grad(dy, wmat, k: int, stride: int, pad: int, gx) -> None:
    """Writes into gx (C order) the input gradient of conv2d by wmat, as in
    _lowered, for the output gradient dy; _col2im scatters each block."""
    ho, wo, wq, blocks = _conv_geometry(gx.shape, k, stride, pad)
    groups, per_group, kk = wmat.shape
    for blk in blocks:
        gy = _widen(dy[blk], wq).reshape(-1, groups, per_group, ho * wq)
        if k == 1 and stride == 1 and pad == 0:  # the product is the gradient
            np.matmul(wmat.swapaxes(-1, -2), gy, out=gx[blk].reshape(-1, groups, kk, ho * wo))
        else:
            _col2im(np.matmul(wmat.swapaxes(-1, -2), gy), gx[blk], k, stride, pad, ho, wo)


def conv2d(x, w, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2-D cross-correlation. x: (B,Cin,H,W), w: (Cout,Cin/g,k,k).

    Lowered in blocks of images whose columns fit in COLS_BLOCK_BYTES: one
    im2col per block for all groups (channel-major, so group g's columns are
    the g-th block of rows) and one batched matmul (G,Cout/g,K) @ (b,G,K,L).
    The node keeps only x and w, and its rule reads them through value().
    Its backward lowers each block again for the weight gradient, then
    scatters the input gradient block by block.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight")
    b, cin, h, wd = x.data.shape
    cout, _, k, k2 = w.data.shape
    if k != k2:
        raise ShapeError("only square kernels supported")
    if cin % groups or cout % groups:
        raise ShapeError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
    if w.data.shape[1] != cin // groups:
        raise ShapeError(f"weight expects {w.data.shape[1]} channels/group, "
                         f"input has {cin // groups}")
    ho, wo = conv_out_size(h, k, stride, padding), conv_out_size(wd, k, stride, padding)
    out = np.empty((b, cout, ho, wo))
    _lowered(x.data, w.data.reshape(groups, cout // groups, -1), k, stride, padding, out=out)

    def back(g):
        wmat = w.value().reshape(groups, cout // groups, -1)
        if w.requires_grad:
            gw = np.zeros(wmat.shape)
            _lowered(x, wmat, k, stride, padding, dy=g, gw=gw)
            w._accumulate(gw.reshape(w.shape))
        if x.requires_grad:
            gx = np.empty(x.shape)
            _input_grad(g, wmat, k, stride, padding, gx)
            x._accumulate(gx)

    return _make(out, (x, w), back, "conv2d")


def conv_transpose2d(x, w, stride: int = 1, padding: int = 0,
                     output_padding: int = 0, groups: int = 1) -> Tensor:
    """Exact adjoint of conv2d in its first argument, sharing the weight layout.

    x: (B, Cout, Hi, Wi) with Cout = w.shape[0]; returns (B, Cin, Ho, Wo) where
    Ho = (Hi-1)*stride - 2*padding + k + output_padding. For every v and z:
    <conv2d(z, w), v> == <z, conv_transpose2d(v, w)> with matching geometry.
    The forward is conv2d's input gradient for the output gradient x; the
    backward lowers each block of g once for both gx = conv2d(g, w) and the
    weight gradient. The node keeps only x and w.
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
    wmat = w.data.reshape(groups, cout // groups, -1)
    out = np.empty((b, cin_g * groups, ho, wo))
    _input_grad(x.data, wmat, k, stride, padding, out)

    def back(g):
        gw = np.zeros(wmat.shape) if w.requires_grad else None
        gx = np.empty(x.data.shape) if x.requires_grad else None
        _lowered(g, wmat, k, stride, padding, out=gx, dy=x.data, gw=gw)
        if gw is not None:
            w._accumulate(gw.reshape(w.data.shape))
        if gx is not None:
            x._accumulate(gx)

    return _make(out, (x, w), back, "conv_transpose2d")


# -- diagnostics ------------------------------------------------------------------

def find_first_nonfinite(root: Tensor) -> str | None:
    """Name of the earliest op in forward order whose output is non-finite.

    Raises GraphReleased on a graph that backward() has walked.
    """
    for node in root._topo():
        if not np.all(np.isfinite(node.value())):
            return node.op
    return None
