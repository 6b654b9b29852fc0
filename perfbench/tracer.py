"""In-memory span tracer that instruments encapnet from the outside.

Every encapnet module calls tensor ops through the module object
(`from . import tensor as T`, then `T.conv2d(...)`), and methods are looked up
on the class at call time, so replacing a module attribute or a class
attribute catches every call without touching the library source. Functions
imported by name (`from .capsules import squash`) are replaced in every
encapnet module that holds them.

A span is (id, name, start_ns, end_ns, parent id, step id). The step id is
the index of the enclosing root span, which the benchmark opens around one
unit of work (a train step, an evaluate pass, a gradient-check sweep).
Backward time per op kind comes from wrapping the backward rule stored on
the node each traced op returns. Spans stay in flat arrays until dump().
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public functions of encapnet.tensor that build no graph node.
NON_OPS = frozenset({"set_default_dtype", "get_default_dtype", "seeded_rng",
                     "as_tensor", "constant", "conv_out_size",
                     "find_first_nonfinite"})

# (module, dotted attribute) entry points of the other layers.
ENTRY_POINTS = (
    ("network", "Stem.__call__"),
    ("network", "EncapNet.__call__"),
    ("network", "CapNet.__call__"),
    ("layers", "Conv2d.__call__"),
    ("layers", "BatchNorm2d.__call__"),
    ("capconv", "CapConv.__call__"),
    ("capconv", "EncapModule.__call__"),
    ("capsules", "squash"),
    ("capsules", "grid_squash"),
    ("capsules", "grid_to_capsules"),
    ("capsules", "margin_loss"),
    ("capsules", "predict"),
    ("capsules", "CapFC.__call__"),
    ("sinkhorn", "FeedbackUnit.divergence"),
    ("sinkhorn", "Generator.__call__"),
    ("sinkhorn", "Extractor.__call__"),
    ("sinkhorn", "sinkhorn_divergence"),
    ("sinkhorn", "cost_matrix"),
    ("sinkhorn", "ot_loss"),
    ("sinkhorn", "sinkhorn_iterates"),
    ("routing", "CapNetLayer.__call__"),
    ("routing", "CapsuleMapping.__call__"),
    ("routing", "dynamic_routing"),
    ("routing", "em_routing"),
    ("optim", "Adam.step"),
    ("optim", "Adam.zero_grad"),
    ("training", "evaluate"),
    ("gradcheck", "check_grads"),
    ("gradcheck", "fd_gradients"),
    ("tensor", "Tensor.backward"),
)

COLUMNS = ("id", "name", "start", "end", "parent", "step")

PACKAGE = "encapnet"


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per closed span, flattened: see COLUMNS
        self.rows = array("q")
        # graph nodes built and their output bytes, per step id
        self.step_nodes, self.step_bytes = array("q"), array("q")
        self._stack: list[int] = []
        self._next = 0
        self.n_steps = 0
        self._step = -1     # step id of the open root span, -1 outside roots
        self._last_node = None
        self._undo: list = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _record(self, sid, nid, t0, t1, parent, step=None):
        self.rows.extend((sid, nid, t0, t1, parent, self._step if step is None else step))

    def _wrap(self, fn, name: str, op: bool = False):
        """fn with a span named `name` around each call.

        For an op, the node it returns is counted and its backward rule is
        wrapped in a span named `name.bwd`.
        """
        bwd_nid = self._intern(f"{name}.bwd") if op else -1
        return functools.update_wrapper(self._spanned(fn, self._intern(name), bwd_nid), fn)

    def _spanned(self, fn, nid: int, bwd_nid: int = -1):
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, nid, t0, t1, parent)
            if bwd_nid >= 0:
                self._count_node(out, bwd_nid)
            return out

        return traced

    def _count_node(self, out, bwd_nid: int) -> None:
        # a composite op (tmean) returns the node its inner op built, which
        # was already counted and given a traced backward
        if out is self._last_node or not hasattr(out, "_backward"):
            return
        self._last_node = out
        if self._step >= 0:
            self.step_nodes[self._step] += 1
            self.step_bytes[self._step] += out.data.nbytes
        if out._backward is not None:
            out._backward = self._spanned(out._backward, bwd_nid)

    @contextmanager
    def root(self, name: str):
        """Open a root span: one unit of work with its own step id."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        step = self._step = self.n_steps
        self.n_steps += 1
        self.step_nodes.append(0)
        self.step_bytes.append(0)
        nid = self._intern(name)
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._step = -1
            self._record(sid, nid, t0, t1, -1, step)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every traced entry point; uninstall() restores them."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        tensor_mod = sys.modules[f"{PACKAGE}.tensor"]
        targets = []
        for attr, value in sorted(vars(tensor_mod).items()):
            if (callable(value) and not isinstance(value, type)
                    and not attr.startswith("_") and attr not in NON_OPS
                    and getattr(value, "__module__", None) == tensor_mod.__name__):
                targets.append((tensor_mod, attr, True))
        for mod_name, dotted in ENTRY_POINTS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner = mod
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                # a renamed or deleted entry point reads as zero time
                self.missing.append(f"{mod_name}.{dotted}")
            else:
                targets.append((mod, dotted, False))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod, dotted, op in targets:
            short = mod.__name__.rsplit(".", 1)[-1]
            if "." in dotted:
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                own = meth in vars(cls)
                orig = getattr(cls, meth)
                label = f"{short}.{cls_name}" if meth == "__call__" else f"{short}.{dotted}"
                setattr(cls, meth, self._wrap(orig, label))
                self._undo.append((cls, meth, orig if own else None))
                continue
            orig = getattr(mod, dotted)
            wrapped = self._wrap(orig, f"{short}.{dotted}", op)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()
        self._last_node = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def table(self) -> dict:
        """Span columns as numpy arrays ordered by span id, with self time.

        self_ns is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        rows = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, len(COLUMNS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        cols = {k: rows[:, i] for i, k in enumerate(COLUMNS)}
        if not np.array_equal(cols["id"], np.arange(cols["id"].size)):
            raise RuntimeError("span ids are not contiguous; a span was left open")
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        cols["dur_ns"] = dur
        cols["self_ns"] = dur - child.astype(np.int64)
        return cols

    def dump(self, path) -> None:
        """Write the spans and per-step counts as numpy arrays (.npz)."""
        cols = self.table()
        small = {k: cols[k].astype(np.int32) for k in ("id", "name", "parent", "step")}
        np.savez(path, names=np.array(self.names), step_nodes=np.asarray(self.step_nodes),
                 step_bytes=np.asarray(self.step_bytes), start_ns=cols["start"],
                 end_ns=cols["end"], self_ns=cols["self_ns"], **small)
