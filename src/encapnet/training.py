"""Training driver: margin loss plus weighted feedback penalties.

The minimized objective is margin + lambda * sum over every feedback unit.
Metrics go to a CSV with one train row and one eval row per epoch; feedback
columns stay blank for modules that contribute nothing so downstream
tooling can tell "off" from "zero". The best-eval-error checkpoint and the
final checkpoint are both kept.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor, find_first_nonfinite
from .errors import ConfigError, TrainingDiverged
from .capsules import margin_loss, predict
from .checkpoint import save_checkpoint
from .data import batches
from .layers import Layer
from .optim import Adam

# Images per evaluation block (see evaluate).
EVAL_BLOCK = 32

# The learning rate is multiplied by this at each schedule milestone.
LR_DROP = 0.1


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    schedule: tuple = (200, 300, 400)
    max_epochs: int = 600
    batch_size: int = 128
    lam: float = 10.0
    weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    augment: bool = False
    seed: int = 0
    eval_batch: int = 256
    early_stop_error: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple(int(s) for s in self.schedule))
        if self.lr < 0 or self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("bad training hyperparameters")
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.eval_batch < 1:
            raise ConfigError(f"eval_batch must be >= 1, got {self.eval_batch}")
        if list(self.schedule) != sorted(self.schedule):
            raise ConfigError("lr schedule must be non-decreasing")


def scale_config(cfg: TrainConfig, scale: float) -> TrainConfig:
    """Shrink epoch counts for desk runs, keeping schedule proportions."""
    if scale <= 0:
        raise ConfigError("scale must be positive")
    if scale == 1.0:
        return cfg
    return replace(
        cfg,
        max_epochs=max(1, round(cfg.max_epochs * scale)),
        schedule=tuple(max(1, round(s * scale)) for s in cfg.schedule),
    )


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    drops = sum(1 for s in cfg.schedule if epoch >= s)
    return cfg.lr * (LR_DROP ** drops)


class MetricsWriter:
    """CSV rows: epoch, split, loss, margin, error, ot_m1..ot_m{n_modules}, lr, wallclock."""

    def __init__(self, path: str, n_modules: int):
        self.path = path
        self.n_ot = n_modules
        self._f = open(path, "w", encoding="utf-8")
        cols = ["epoch", "split", "loss", "margin", "error"]
        cols += [f"ot_m{i + 1}" for i in range(self.n_ot)]
        cols += ["lr", "wallclock"]
        self._f.write(",".join(cols) + "\n")
        self._f.flush()

    def row(self, epoch: int, split: str, loss: float, margin: float,
            error: float, ot, lr: float, wallclock: float) -> None:
        vals = [str(epoch), split, repr(float(loss)), repr(float(margin)),
                repr(float(error))]
        for i in range(self.n_ot):
            v = ot[i] if i < len(ot) else None
            vals.append("" if v is None else repr(float(v)))
        vals.append(repr(float(lr)))
        vals.append(f"{wallclock:.3f}")
        self._f.write(",".join(vals) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


def _check_finite(loss: Tensor, epoch: int, batch_idx: int) -> None:
    if np.isfinite(loss.data).all():
        return
    culprit = find_first_nonfinite(loss)
    where = f"op {culprit!r}" if culprit else "an unidentified op"
    raise TrainingDiverged(
        f"non-finite loss at epoch {epoch}, batch {batch_idx}; first produced by {where}")


def _check_params_finite(params, epoch: int, batch_idx: int) -> None:
    for name, p in params:
        if not np.isfinite(p.data).all():
            raise TrainingDiverged(
                f"non-finite parameter {name!r} after optimizer step "
                f"(epoch {epoch}, batch {batch_idx})")


def evaluate(model: Layer, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 256):
    """(error, accuracy, mean margin loss) on a fixed, unshuffled pass.

    Runs under no_grad: nothing here is differentiated. Each batch runs
    through the model in blocks of EVAL_BLOCK images, which hold less;
    predict and the margin take the whole batch's capsules. Every block
    starts on a multiple of 16 images and, unless the batch is smaller,
    holds at least 16: with numpy's OpenBLAS 0.3.31 (Haswell kernels) the
    capsules then equal the unsplit batch's bit for bit, while a block of
    one image takes BLAS's matrix-vector path and moves them by ~1e-15.
    Other BLAS builds were not checked.
    """
    model.set_mode(False)
    n = images.shape[0]
    wrong = 0
    margin_sum = 0.0
    with T.no_grad():
        for xb, yb in batches(images, labels, batch_size, shuffle=False, augment=False):
            starts = list(range(0, len(xb), EVAL_BLOCK))
            if len(starts) > 1 and len(xb) - starts[-1] < 16:
                starts[-1] -= 16  # a short tail joins half of the block before it
            blocks = np.split(xb, starts[1:])
            caps = Tensor(np.concatenate([model(Tensor(x))[0].data for x in blocks]))
            wrong += int((predict(caps) != yb).sum())
            margin_sum += float(margin_loss(caps, yb).data) * xb.shape[0]
    error = wrong / n
    return error, 1.0 - error, margin_sum / n


@dataclass
class TrainResult:
    epochs_run: int = 0
    best_error: float = 1.0
    best_epoch: int = -1
    final_error: float = 1.0
    metrics_path: str = ""
    best_checkpoint: str = ""
    final_checkpoint: str = ""
    stopped_early: bool = False


def train_model(model: Layer, data, tcfg: TrainConfig, config_text: str = "",
                out_dir: str = ".", log=None) -> TrainResult:
    """Run the full loop; returns paths to metrics and checkpoints.

    data is (train_x, train_y, test_x, test_y) with images (N, H, W).
    """
    if tcfg.lam > 0 and not any(getattr(model, "feedback", ())):
        raise ConfigError(f"lam = {tcfg.lam:g} weights the feedback penalty, but the "
                          f"{model.cfg.family} model has no feedback unit; set lam = 0")
    train_x, train_y, test_x, test_y = data
    os.makedirs(out_dir, exist_ok=True)
    n_modules = len(getattr(model, "modules", ()))
    metrics = MetricsWriter(os.path.join(out_dir, "metrics.csv"), n_modules)
    result = TrainResult(metrics_path=metrics.path)
    result.best_checkpoint = os.path.join(out_dir, "best.encp")
    result.final_checkpoint = os.path.join(out_dir, "final.encp")

    params = list(model.named_params())
    opt = Adam(params, lr=tcfg.lr, beta1=tcfg.beta1, beta2=tcfg.beta2,
               eps=tcfg.adam_eps, weight_decay=tcfg.weight_decay)
    use_feedback = tcfg.lam > 0
    t0 = time.perf_counter()

    try:
        for epoch in range(tcfg.max_epochs):
            opt.lr = lr_at(epoch, tcfg)
            model.set_mode(True)
            n_seen = 0
            wrong = 0
            loss_sum = 0.0
            margin_sum = 0.0
            ot_sums = [0.0] * n_modules
            ot_seen = [False] * n_modules
            for bi, (xb, yb) in enumerate(batches(
                    train_x, train_y, tcfg.batch_size, seed=tcfg.seed,
                    epoch=epoch, shuffle=True, augment=tcfg.augment)):
                caps, ots = model(Tensor(xb), with_feedback=use_feedback)
                margin = margin_loss(caps, yb)
                loss = margin
                for mi, unit_vals in enumerate(ots):
                    for val in unit_vals:
                        loss = loss + tcfg.lam * val
                        ot_sums[mi] += float(val.data) * xb.shape[0]
                        ot_seen[mi] = True
                _check_finite(loss, epoch, bi)
                opt.zero_grad()
                loss.backward()
                opt.step()
                _check_params_finite(params, epoch, bi)
                b = xb.shape[0]
                n_seen += b
                wrong += int((predict(caps) != yb).sum())
                loss_sum += float(loss.data) * b
                margin_sum += float(margin.data) * b

            train_err = wrong / n_seen
            ot_means = [ot_sums[i] / n_seen if ot_seen[i] else None
                        for i in range(n_modules)]
            metrics.row(epoch, "train", loss_sum / n_seen, margin_sum / n_seen,
                        train_err, ot_means, opt.lr, time.perf_counter() - t0)

            err, _, eval_margin = evaluate(model, test_x, test_y, tcfg.eval_batch)
            metrics.row(epoch, "eval", eval_margin, eval_margin, err, [],
                        opt.lr, time.perf_counter() - t0)
            if log:
                log(f"epoch {epoch}: train loss {loss_sum / n_seen:.4f} "
                    f"train err {train_err:.4f} eval err {err:.4f}")

            result.epochs_run = epoch + 1
            result.final_error = err
            if err < result.best_error:
                result.best_error = err
                result.best_epoch = epoch
                save_checkpoint(result.best_checkpoint, model, config_text,
                                meta={"epoch": epoch, "eval_error": repr(err)})
            if tcfg.early_stop_error > 0 and err <= tcfg.early_stop_error:
                result.stopped_early = True
                break
        # only a loop that ended or stopped early saves: a diverged or
        # interrupted run must not overwrite the last good final.encp
        save_checkpoint(result.final_checkpoint, model, config_text,
                        meta={"epoch": result.epochs_run - 1,
                              "eval_error": repr(result.final_error)})
    finally:
        metrics.close()
    if result.best_epoch < 0:
        result.best_checkpoint = result.final_checkpoint
        result.best_error = result.final_error
    return result
