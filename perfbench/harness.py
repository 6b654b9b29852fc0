"""Workloads, output checks and metrics of the encapnet benchmark.

Load shape: one process, BLAS pinned to one thread by run.py, float64, and a
closed loop in which each unit of work starts after the previous one returns.
Every workload runs three phases:

  fd     gradcheck.check_grads sweeps over a fixed, named set of whole
         parameter tensors (every coordinate, central differences), on a
         model that keeps its initial weights;
  train  training steps: forward, loss, backward, Adam;
  eval   training.evaluate passes over the held-out synthetic set, on the
         model being trained.

The phases alternate in ROUNDS rounds, so that each metric samples the whole
run rather than one stretch of it: the speed of a shared machine drifts.

Inputs come from data.synth_generate with the workload seed; the library
receives only the generated arrays. With trace on, the same phases run under
tracer.Tracer and the per-layer metrics are read from the spans.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from encapnet import capsules, configfile, data, gradcheck, network, optim, training
from encapnet.tensor import Tensor

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

ROUNDS = 10
# p90 needs at least ten samples beyond it
MIN_TRAIN_STEPS = 111
WARMUP_STEPS = 2
# A central difference that straddles a ReLU kink disagrees with the exact
# gradient at the default step and agrees once the step is below the
# distance to the kink; a wrong gradient disagrees at both. Failing tensors
# are checked again at this step, which is still far above the rounding noise
# of a float64 loss.
RETRY_H = gradcheck.DEFAULT_H / 1000
# share of a traced run's train time spent untraced, for trace.overhead_ms
UNTRACED_TRAIN_SHARE = 0.3

# ops whose summed self time is tensor.elementwise.* (tensor.py, add..slice_axis)
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "neg", "relu", "sigmoid", "exp", "log",
                   "sqrt", "maximum", "tsum", "tmean", "reshape", "transpose", "concat",
                   "slice_axis")
MODEL_CALLS = ("network.EncapNet", "network.CapNet")


@dataclass(frozen=True)
class Workload:
    """One benchmark input set; sizes are images unless stated."""

    config: str                 # INI for the model, optimizer and image shape
    batch: int
    eval_batch: int
    n_train: int
    n_test: int
    fd_tensors: tuple           # parameter names swept by check_grads
    shares: tuple               # (fd, train, eval) shares of --seconds
    min_train_steps: int = MIN_TRAIN_STEPS


WORKLOADS = {
    # the paper's path: one v3 module, Sinkhorn feedback on, conv-bound
    "synth_train": Workload(
        config="configs/synth_quick.ini", batch=32, eval_batch=128,
        n_train=640, n_test=160,
        fd_tensors=("stem.convs0.weight", "modules0.type1.bn.gamma"),
        shares=(0.20, 0.50, 0.30)),
    # iterative routing baseline; batch 8 keeps 111 steps inside the run
    "routing_train": Workload(
        config="configs/mnist_capnet6_dynamic.ini", batch=8, eval_batch=32,
        n_train=640, n_test=64,
        fd_tensors=("stem.bns3.gamma",),
        shares=(0.15, 0.55, 0.30)),
}

# Same code paths at sizes that finish in seconds; the tests put these in
# place of WORKLOADS.
TINY = {
    "synth_train": replace(WORKLOADS["synth_train"], batch=4, eval_batch=10,
                           n_train=40, n_test=20, min_train_steps=21),
    "routing_train": replace(WORKLOADS["routing_train"], batch=4, eval_batch=8,
                             n_train=40, n_test=16, min_train_steps=21),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_step_ms.p50": "ms",
    "train_step_ms.p90": "ms",
    "train_images_per_s": "1/s",
    "eval_images_per_s": "1/s",
    "fd_forwards_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "network.forward_ms": "ms",
    "tensor.backward_ms": "ms",
    "optim.step_ms": "ms",
    "tensor.conv2d.fwd_ms": "ms",
    "tensor.conv2d.bwd_ms": "ms",
    "tensor.conv2d.calls_per_step": "count",
    "tensor.conv_transpose2d.fwd_ms": "ms",
    "tensor.conv_transpose2d.bwd_ms": "ms",
    "tensor.elementwise.fwd_ms": "ms",
    "tensor.elementwise.bwd_ms": "ms",
    "tensor.backward.walk_ms": "ms",
    "tensor.nodes_per_step": "count",
    "tensor.node_mb_per_step": "MB",
    "capconv.capconv_ms": "ms",
    "sinkhorn.feedback_ms": "ms",
    "sinkhorn.ot_loss_ms": "ms",
    "sinkhorn.solves_per_step": "count",
    "routing.dynamic_ms": "ms",
    "training.evaluate_ms": "ms",
    "trace.overhead_ms": "ms",
}


# -- set-up ------------------------------------------------------------------

@dataclass
class State:
    model: object               # trained and evaluated
    fd_model: object            # gradient-checked at its initial weights
    opt: optim.Adam
    lam: float
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    fd_x: Tensor
    fd_y: np.ndarray


def setup(w: Workload, seed: int) -> State:
    """Data generation, model builds and optimizer, up to the first step."""
    rc = configfile.load_config(str(ROOT / w.config))
    net, tcfg = rc.net, rc.train
    train_x, train_y = data.synth_generate(w.n_train, net.n_classes, net.image_size,
                                           seed=seed)
    test_x, test_y = data.synth_generate(w.n_test, net.n_classes, net.image_size,
                                         seed=seed + 1)
    fd_x, fd_y = next(data.batches(train_x, train_y, 2, seed=seed))
    model = network.build_network(net, seed=tcfg.seed)
    opt = optim.Adam(list(model.named_params()), lr=tcfg.lr, beta1=tcfg.beta1,
                     beta2=tcfg.beta2, eps=tcfg.adam_eps,
                     weight_decay=tcfg.weight_decay)
    return State(model, network.build_network(net, seed=tcfg.seed), opt, tcfg.lam,
                 train_x, train_y, test_x, test_y,
                 Tensor(np.ascontiguousarray(fd_x, dtype=np.float64)), fd_y)


# -- phases ------------------------------------------------------------------

@dataclass
class Record:
    """What the phases measured and which operations failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    forward_ms: list = field(default_factory=list)
    backward_ms: list = field(default_factory=list)
    optim_ms: list = field(default_factory=list)
    untraced_step_ms: list = field(default_factory=list)   # traced runs only
    margins: list = field(default_factory=list)
    train_images: int = 0
    train_wall_s: float = 0.0
    eval_rates: list = field(default_factory=list)     # images/s per pass
    fd_forwards: int = 0
    fd_rates: list = field(default_factory=list)       # forwards/s per sweep
    fd_errors: dict = field(default_factory=dict)
    phase_wall_s: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _root(tracer, name):
    return tracer.root(name) if tracer is not None else nullcontext()


def _loss(model, lam: float, x: Tensor, y: np.ndarray, with_feedback: bool):
    caps, ots = model(x, with_feedback=with_feedback)
    margin = capsules.margin_loss(caps, y)
    loss = margin
    for unit_vals in ots:
        for val in unit_vals:
            loss = loss + lam * val
    return loss, margin


def fd_phase(w: Workload, state: State, seconds: float, rec: Record,
             tracer=None) -> None:
    """Whole check_grads sweeps until the phase's time is spent.

    The checked model keeps its initial weights, where every BN shift is
    zero; trained weights put ReLU inputs within h of zero more often, and
    a central difference across that kink is not a gradient error.
    """
    params = dict(state.fd_model.named_params())
    tensors = [params[name] for name in w.fd_tensors]
    calls = checks = 0

    def build():
        nonlocal calls
        calls += 1
        return _loss(state.fd_model, state.lam, state.fd_x, state.fd_y, False)[0]

    def check(ts, h=gradcheck.DEFAULT_H):
        nonlocal checks
        checks += 1
        return gradcheck.check_grads(build, ts, h=h)

    state.fd_model.set_mode(True)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        calls = checks = 0
        rec.attempted += len(tensors)
        t0 = time.perf_counter()
        try:
            with _root(tracer, "bench.fd_sweep"):
                errs = [err if err < gradcheck.DEFAULT_TOL else check([t], RETRY_H)[0]
                        for t, err in zip(tensors, check(tensors))]
        except Exception as e:  # noqa: BLE001 - counted, reported, run fails
            rec.fail(f"fd sweep raised {type(e).__name__}: {e}")
            break
        # each check_grads call runs one forward for the analytic gradient;
        # the other forwards are differences
        rec.fd_rates.append((calls - checks) / (time.perf_counter() - t0))
        rec.fd_forwards += calls - checks
        for name, err in zip(w.fd_tensors, errs):
            rec.fd_errors[name] = max(err, rec.fd_errors.get(name, 0.0))
            if not err < gradcheck.DEFAULT_TOL:
                rec.fail(f"gradcheck {name}: rel err {err:.3e} >= {gradcheck.DEFAULT_TOL}")
        if _spent(deadline, time.perf_counter() - t0):
            break
    _add_wall(rec, "fd", start)


def _spent(deadline: float, unit_s: float) -> bool:
    """True once less than half of another unit of work fits before deadline."""
    return time.perf_counter() + unit_s / 2 >= deadline


def _add_wall(rec: Record, phase: str, start: float) -> None:
    rec.phase_wall_s[phase] = rec.phase_wall_s.get(phase, 0.0) + (
        time.perf_counter() - start)


def _train_batches(w: Workload, state: State, seed: int):
    epoch = 0
    while True:
        yield from data.batches(state.train_x, state.train_y, w.batch, seed=seed,
                                epoch=epoch)
        epoch += 1


def train_phase(w: Workload, state: State, stream, seconds: float, rec: Record,
                tracer=None, warmup: int = 0, min_steps: int = 0,
                phase: str = "train"):
    """Closed-loop training steps until the phase's time is spent and at
    least min_steps steps were timed; the first `warmup` steps are not.

    Returns the timed steps as (step, forward, backward, optimizer) ms, the
    images they trained and the wall time of their loop.
    """
    model, opt = state.model, state.opt
    model.set_mode(True)
    use_feedback = state.lam > 0
    steps, images = [], 0
    start = loop_start = time.perf_counter()
    deadline = start + seconds
    while True:
        xb, yb = next(stream)
        x = Tensor(np.ascontiguousarray(xb, dtype=np.float64))
        rec.attempted += 1
        try:
            with _root(tracer, "bench.train_step"):
                t0 = time.perf_counter()
                loss, margin = _loss(model, state.lam, x, yb, use_feedback)
                t1 = time.perf_counter()
                opt.zero_grad()
                loss.backward()
                t2 = time.perf_counter()
                opt.step()
                t3 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - counted, reported, run fails
            rec.fail(f"train step raised {type(e).__name__}: {e}")
            break
        if not np.isfinite(loss.data).all():
            rec.fail(f"non-finite training loss at step {len(rec.margins)}")
        rec.margins.append(float(margin.data))
        if warmup:
            warmup -= 1
            loop_start = time.perf_counter()
            continue
        steps.append((1e3 * (t3 - t0), 1e3 * (t1 - t0), 1e3 * (t2 - t1), 1e3 * (t3 - t2)))
        images += xb.shape[0]
        if len(steps) >= min_steps and _spent(deadline, (t3 - t0)):
            break
    _add_wall(rec, phase, start)
    return steps, images, time.perf_counter() - loop_start


def eval_phase(w: Workload, state: State, seconds: float, rec: Record,
               tracer=None, warmup: int = 1) -> None:
    """Whole training.evaluate passes until the phase's time is spent; the
    first `warmup` passes are not timed."""
    n_test = state.test_x.shape[0]
    batches_per_pass = math.ceil(n_test / w.eval_batch)
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        rec.attempted += batches_per_pass
        t0 = time.perf_counter()
        try:
            with _root(tracer, "bench.eval_pass"):
                err, _, margin = training.evaluate(state.model, state.test_x,
                                                   state.test_y, w.eval_batch)
        except Exception as e:  # noqa: BLE001 - counted, reported, run fails
            rec.fail(f"evaluate raised {type(e).__name__}: {e}")
            break
        if passes >= warmup:
            rec.eval_rates.append(n_test / (time.perf_counter() - t0))
        passes += 1
        if not (0.0 <= err <= 1.0 and math.isfinite(margin)):
            rec.fail(f"evaluate returned error {err}, margin {margin}")
        if passes > warmup and _spent(deadline, time.perf_counter() - t0):
            break
    _add_wall(rec, "eval", start)


def timed_setup(w: Workload, seed: int, setup_s: list) -> State:
    t0 = time.perf_counter()
    state = setup(w, seed)
    setup_s.append(time.perf_counter() - t0)
    return state


def run_rounds(w: Workload, state: State, stream, seconds: float, rec: Record,
               tracer=None, seed: int = 0) -> None:
    """The three phases, alternating over ROUNDS rounds.

    Each round first repeats the set-up and discards it, so that setup_s
    samples the whole run too.

    With a tracer, each round also trains untraced for a share of its train
    time, beside the traced steps, for trace.overhead_ms. Which of the two
    runs first alternates, so that neither always starts with the caches
    the gradient checks left behind.
    """
    fd_s, train_s, eval_s = (seconds * share / ROUNDS for share in w.shares)
    min_steps = math.ceil(w.min_train_steps / ROUNDS)
    traced = tracer.installed if tracer is not None else nullcontext
    traced_train_s = train_s * (1 - UNTRACED_TRAIN_SHARE) if tracer is not None else train_s
    for r in range(ROUNDS):
        timed_setup(w, seed, rec.setup_s)
        warmup = WARMUP_STEPS if r == 0 else 0
        with traced():
            fd_phase(w, state, fd_s, rec, tracer)
        if tracer is None:
            order = (True,)
        else:
            order = (False, True) if r % 2 == 0 else (True, False)
        for is_traced in order:
            if is_traced:
                with traced():
                    steps, images, wall = train_phase(w, state, stream, traced_train_s,
                                                      rec, tracer, warmup, min_steps)
            else:
                untraced, _, _ = train_phase(
                    w, state, stream, train_s * UNTRACED_TRAIN_SHARE, rec, warmup=warmup,
                    min_steps=1, phase="train_untraced")
                rec.untraced_step_ms += [step[0] for step in untraced]
            warmup = 0
        with traced():
            eval_phase(w, state, eval_s, rec, tracer, warmup=int(r == 0))
        for column, values in zip((rec.step_ms, rec.forward_ms, rec.backward_ms,
                                   rec.optim_ms), zip(*steps)):
            column.extend(values)
        rec.train_images += images
        rec.train_wall_s += wall


def final_checks(rec: Record) -> None:
    if rec.margins:
        tail = statistics.fmean(rec.margins[-5:])
        if not tail < rec.margins[0]:
            rec.fail(f"margin loss did not drop: first step {rec.margins[0]:.4f}, "
                     f"mean of last 5 steps {tail:.4f}")
    if not rec.margins:
        rec.fail("no training step completed")


# -- metrics -----------------------------------------------------------------

# A phase cut short by a failure reads 0; the run is then marked incorrect.

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _pct(xs, q):
    return float(np.percentile(xs, q)) if xs else 0.0


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def end_to_end_metrics(rec: Record) -> dict:
    return {
        "setup_s": statistics.median(rec.setup_s),
        "train_step_ms.p50": _pct(rec.step_ms, 50),
        "train_step_ms.p90": _pct(rec.step_ms, 90),
        "train_images_per_s": _rate(rec.train_images, rec.train_wall_s),
        "eval_images_per_s": _median(rec.eval_rates),
        "fd_forwards_per_s": _median(rec.fd_rates),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(w: Workload, tracer: Tracer, rec: Record) -> dict:
    """Span totals over the timed train steps, per step.

    Counts per step are exact. Times are inclusive, except the elementwise
    sums and the backward walk, which are self times. training.evaluate_ms
    is per evaluate batch instead.
    """
    cols = tracer.table()
    ids = {name: i for i, name in enumerate(tracer.names)}
    name, step = cols["name"], cols["step"]
    roots = (cols["parent"] < 0) & (step >= 0)
    root_name = np.full(tracer.n_steps, -1)
    root_name[step[roots]] = name[roots]
    span_root = np.where(step >= 0, root_name[step], -1)

    def under(root):
        return span_root == ids.get(root, -2)

    primary, units = under("bench.train_step"), max(len(rec.step_ms), 1)

    def total(kind, names, mask=primary):
        wanted = [ids[n] for n in names if n in ids]
        return cols[kind][mask & np.isin(name, wanted)].sum() / 1e6

    def per_unit(kind, *names):
        return total(kind, names) / units

    def count(span):
        return int((primary & (name == ids.get(span, -2))).sum()) / units

    primary_steps = step[primary & roots]
    ew = [f"tensor.{op}" for op in ELEMENTWISE_OPS]
    in_eval = under("bench.eval_pass")
    eval_batches = int((in_eval & roots).sum()) * math.ceil(w.n_test / w.eval_batch)
    return {
        "network.forward_ms": per_unit("dur_ns", *MODEL_CALLS),
        "tensor.backward_ms": per_unit("dur_ns", "tensor.Tensor.backward"),
        "optim.step_ms": per_unit("dur_ns", "optim.Adam.step"),
        "tensor.conv2d.fwd_ms": per_unit("dur_ns", "tensor.conv2d"),
        "tensor.conv2d.bwd_ms": per_unit("dur_ns", "tensor.conv2d.bwd"),
        "tensor.conv2d.calls_per_step": count("tensor.conv2d"),
        "tensor.conv_transpose2d.fwd_ms": per_unit("dur_ns", "tensor.conv_transpose2d"),
        "tensor.conv_transpose2d.bwd_ms": per_unit("dur_ns", "tensor.conv_transpose2d.bwd"),
        "tensor.elementwise.fwd_ms": per_unit("self_ns", *ew),
        "tensor.elementwise.bwd_ms": per_unit("self_ns", *[f"{n}.bwd" for n in ew]),
        "tensor.backward.walk_ms": per_unit("self_ns", "tensor.Tensor.backward"),
        "tensor.nodes_per_step": np.asarray(tracer.step_nodes)[primary_steps].sum() / units,
        "tensor.node_mb_per_step": (np.asarray(tracer.step_bytes)[primary_steps].sum()
                                    / 1e6 / units),
        "capconv.capconv_ms": per_unit("dur_ns", "capconv.CapConv"),
        "sinkhorn.feedback_ms": per_unit("dur_ns", "sinkhorn.FeedbackUnit.divergence"),
        "sinkhorn.ot_loss_ms": per_unit("dur_ns", "sinkhorn.ot_loss"),
        "sinkhorn.solves_per_step": count("sinkhorn.ot_loss"),
        "routing.dynamic_ms": per_unit("dur_ns", "routing.dynamic_routing"),
        "training.evaluate_ms": (total("dur_ns", ["training.evaluate"], in_eval)
                                 / max(eval_batches, 1)),
        "trace.overhead_ms": _pct(rec.step_ms, 50) - _pct(rec.untraced_step_ms, 50),
    }


def trace_coverage(tracer: Tracer, rec: Record) -> dict:
    """Summed self time of all spans over the traced phases' wall time."""
    cols = tracer.table()
    self_s = cols["self_ns"][cols["step"] >= 0].sum() / 1e9
    wall = sum(rec.phase_wall_s.get(phase, 0.0) for phase in ("fd", "train", "eval"))
    return {"self_s": self_s, "wall_s": wall, "share": _rate(self_s, wall),
            "min_self_ns": int(cols["self_ns"].min())}


# -- environment ---------------------------------------------------------------

def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _git_sha(root: Path) -> str:
    """HEAD commit read from .git; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, thread_vars) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "nproc": os.cpu_count(),
        "dtype": "float64",
        "seed": seed,
        "git_sha": _git_sha(ROOT),
    }


# -- one run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, thread_vars=(),
        out_dir: Path | None = None) -> dict:
    """Run one workload; returns the result line, its details and the tracer.

    With out_dir set, the details (and with trace, the spans) are written there.
    """
    w = WORKLOADS[workload]
    rec = Record()
    state = timed_setup(w, seed, rec.setup_s)
    stream = _train_batches(w, state, seed)
    tracer = Tracer() if trace else None
    run_rounds(w, state, stream, seconds, rec, tracer, seed)
    final_checks(rec)

    if trace:
        metrics = per_layer_metrics(w, tracer, rec)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(rec)
        units = END_TO_END_UNITS
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    detail = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "environment": environment(seed, thread_vars),
        "failures": rec.failures,
        "failed_frac": len(rec.failures) / max(rec.attempted, 1),
        "setup_s": rec.setup_s,
        "train_steps_timed": len(rec.step_ms),
        "fd_forwards": rec.fd_forwards,
        "fd_max_rel_error": rec.fd_errors,
        "phase_wall_s": rec.phase_wall_s,
    }
    if trace:
        detail["trace_coverage"] = trace_coverage(tracer, rec)
        detail["missing_entry_points"] = tracer.missing
    else:
        detail["call_boundary_ms"] = {"network.forward_ms": _median(rec.forward_ms),
                                      "tensor.backward_ms": _median(rec.backward_ms),
                                      "optim.step_ms": _median(rec.optim_ms)}
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps({"result": result, "detail": detail}, indent=1))
        if trace:
            # one file per workload, not per seed: a traced run holds ~1M spans
            tracer.dump(out_dir / f"{workload}-spans.npz")
    return {"result": result, "detail": detail, "tracer": tracer}
