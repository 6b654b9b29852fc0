"""Central-difference gradient checking.

Perturbs every coordinate of the checked arrays in place by +-h and compares
the symmetric difference quotient against the backward pass. The perturbed
forwards run under tensor.no_grad, so they build no tape. Checks run in
float64; callers keep instances small so full sweeps stay cheap.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4
# scale floor for the relative error: below this magnitude a gradient is
# indistinguishable from central-difference cancellation noise (~|f|*eps/h)
DEFAULT_SCALE_FLOOR = 1e-5


def fd_gradients(f, arrays, h: float = DEFAULT_H):
    """Finite-difference grads of scalar f() w.r.t. each array, in place.

    f runs under no_grad: its value is all that is read.
    """
    grads = []
    with T.no_grad():
        for arr in arrays:
            g = np.zeros_like(arr)
            flat, gf = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = f()
                flat[i] = orig - h
                fm = f()
                flat[i] = orig
                gf[i] = (fp - fm) / (2.0 * h)
            grads.append(g)
    return grads


def rel_error(a: np.ndarray, b: np.ndarray, scale_floor: float = 1e-12) -> float:
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), scale_floor)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def check_grads(build_loss, tensors: list[Tensor], h: float = DEFAULT_H,
                scale_floor: float = DEFAULT_SCALE_FLOOR) -> list[float]:
    """Max relative error per tensor between backward and central differences.

    build_loss() must rebuild the scalar loss from the tensors' current data.
    """
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    fd = fd_gradients(lambda: build_loss().item(), [t.data for t in tensors], h)
    return [rel_error(a, f, scale_floor) for a, f in zip(analytic, fd)]
