"""Named central-difference checks for every differentiable stage.

Each case builds a small float64 problem, computes reverse-mode gradients
for a scalar objective, and compares them against central differences.
The Sinkhorn penalty's value is <Q, P> and its node's backward holds the
plans P fixed, so while a check runs, frozen_plans solves each plan once at
the unperturbed point and hands the same plans, in call order, to every
perturbed forward: the differences then see the objective that backprop
differentiates.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from itertools import cycle

import numpy as np

from . import sinkhorn
from . import tensor as T
from .tensor import Tensor, seeded_rng
from .capsules import CapFC, margin_loss, squash
from .capconv import CapConv, CapConvSpec
from .gradcheck import DEFAULT_H, DEFAULT_TOL, check_grads
from .network import ModuleSpec, NetworkConfig, StemSpec, build_network
from .routing import CapNetLayer
from .sinkhorn import Extractor, Generator, sinkhorn_divergence


def _sq_sum(t: Tensor) -> Tensor:
    return T.tsum(t * t)


def _case_squash():
    rng = seeded_rng(11, "squash")
    x = Tensor(rng.normal(size=(2, 5, 4)))
    return lambda: _sq_sum(squash(x, axis=-1)), [("x", x)]


def _case_capfc():
    rng = seeded_rng(11, "capfc")
    fc = CapFC(6, 3, 4, rng=seeded_rng(12, "capfc_w"))
    x = Tensor(rng.normal(size=(2, 6, 4)))
    return lambda: _sq_sum(fc(x)), [("x", x), ("weight", fc.weight)]


def _case_margin():
    rng = seeded_rng(11, "margin")
    x = Tensor(rng.normal(size=(3, 5, 4)) * 0.6)
    labels = np.array([0, 3, 2])
    return lambda: margin_loss(squash(x, axis=-1), labels), [("x", x)]


def _case_capconv():
    spec = CapConvSpec(caps=2, dim_in=2, dim_out=3, kernel=3, stride=2)
    block = CapConv(spec, seed=21)
    rng = seeded_rng(11, "capconv")
    x = Tensor(rng.normal(size=(2, 4, 5, 5)))
    tensors = [("x", x)] + list(block.named_params())
    return lambda: _sq_sum(block(x)), tensors


def _case_capsule_gate():
    """The CapConv gate alone: gate_logits, sigmoid and gated_sum."""
    rng = seeded_rng(11, "gate")
    v1, v2 = (Tensor(rng.normal(size=(2, 6, 3, 3))) for _ in range(2))
    w = Tensor(rng.normal(size=(4, 6, 1, 1)))

    def build():
        m = T.sigmoid(T.gate_logits(v1, v2, w, 2))
        return _sq_sum(T.gated_sum(v1, v2, m))

    return build, [("v1", v1), ("v2", v2), ("w", w)]


def _case_dynamic_routing(iters):
    """iters = 1 checks the closed-form first pass alone; 3 the logits too."""
    layer = CapNetLayer(caps_in=2, dim_in=2, caps_out=3, dim_out=3, out_hw=(1, 1),
                        iters=iters, rng=seeded_rng(31, "dynamic"))
    rng = seeded_rng(11, "dynamic")
    x = Tensor(rng.normal(size=(2, 4, 2, 2)))
    tensors = [("x", x)] + list(layer.named_params())
    return lambda: _sq_sum(layer(x)), tensors


def _case_generator():
    gen = Generator(caps_in=2, dim_in=2, caps_out=2, dim_out=2, stride=2, seed=41)
    rng = seeded_rng(11, "generator")
    x = Tensor(rng.normal(size=(2, 4, 3, 3)))
    tensors = [("x", x)] + list(gen.named_params())
    return lambda: _sq_sum(gen(x, (6, 6))), tensors


def _case_extractor():
    ext = Extractor(8, seed=42)
    rng = seeded_rng(11, "extractor")
    x = Tensor(rng.normal(size=(2, 8, 8, 8)))
    tensors = [("x", x)] + list(ext.named_params())
    return lambda: _sq_sum(ext(x)), tensors


def _case_sinkhorn_divergence():
    rng = seeded_rng(11, "divergence")
    x, y = (Tensor(rng.normal(size=(8, 4))) for _ in range(2))
    return lambda: sinkhorn_divergence(x, y), [("x", x), ("y", y)]


def toy_network():
    """Two modules, both feedback kinds, every mechanism in one graph."""
    cfg = NetworkConfig(
        family="encapnet", n_classes=3, image_size=12,
        stem=StemSpec((8,), (1,)), caps_channels=4,
        modules=(ModuleSpec(4, stride=2, n_type2=1, ot=("main", "skip")),
                 ModuleSpec(4, stride=2, n_type2=0, ot=("main",))),
    )
    return build_network(cfg, seed=51)


def _case_toy_net():
    net = toy_network()
    rng = seeded_rng(11, "toy")
    x = Tensor(rng.normal(size=(2, 1, 12, 12)))
    labels = np.array([0, 2])

    def build():
        caps, ots = net(x, with_feedback=True)
        loss = margin_loss(caps, labels)
        for unit_vals in ots:
            for val in unit_vals:
                loss = loss + 10.0 * val
        return loss

    tensors = [("x", x)] + list(net.named_params())
    return build, tensors


@contextmanager
def frozen_plans(build):
    """Within the block, sinkhorn_plan returns build()'s plans in call order.

    build() runs once on entry, at the unperturbed point, to solve them.
    """
    solve, plans = sinkhorn.sinkhorn_plan, []

    def record(Q, eps, iters):
        plans.append(solve(Q, eps, iters))
        return plans[-1]

    sinkhorn.sinkhorn_plan = record
    try:
        with T.no_grad():
            build()
        replay = cycle(plans)
        sinkhorn.sinkhorn_plan = lambda Q, eps, iters: next(replay)
        yield
    finally:
        sinkhorn.sinkhorn_plan = solve


def _check(case, h):
    build, tensors = case()
    with frozen_plans(build):
        errs = check_grads(build, [t for _, t in tensors], h=h)
    worst = max(errs)
    name = tensors[int(np.argmax(errs))][0]
    return worst, f"worst tensor {name!r}"


CASES = {
    "squash": _case_squash,
    "capfc": _case_capfc,
    "margin_loss": _case_margin,
    "capconv_bn_relu_squash": _case_capconv,
    "capsule_gate": _case_capsule_gate,
    "dynamic_routing_r1": partial(_case_dynamic_routing, 1),
    "dynamic_routing_r3": partial(_case_dynamic_routing, 3),
    "generator": _case_generator,
    "extractor": _case_extractor,
    "sinkhorn_divergence": _case_sinkhorn_divergence,
    "toy_net_total_loss": _case_toy_net,
}

GROUPS = {
    "core": ("squash", "capfc", "margin_loss"),
    "routing": ("dynamic_routing_r1", "dynamic_routing_r3"),
    "capconv": ("capsule_gate", "capconv_bn_relu_squash"),
    "feedback": ("generator", "extractor", "sinkhorn_divergence"),
    "net": ("toy_net_total_loss",),
}
GROUPS["all"] = (GROUPS["core"] + GROUPS["capconv"] + GROUPS["routing"]
                 + GROUPS["feedback"] + GROUPS["net"])


def run_suite(names=None, h: float = DEFAULT_H, tol: float = DEFAULT_TOL):
    """[(case, max rel err, tol, passed, note)] for the requested cases."""
    if names is None:
        names = GROUPS["all"]
    out = []
    for name in names:
        if name not in CASES:
            raise KeyError(f"unknown gradcheck case {name!r}")
        err, note = _check(CASES[name], h)
        out.append((name, float(err), tol, bool(err < tol), note))
    return out
