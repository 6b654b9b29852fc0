"""Training loop plumbing: schedules, metrics, guards, determinism, memory."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet import training
from encapnet.capsules import margin_loss, predict
from encapnet.configfile import load_config
from encapnet.data import batches, synth_generate
from encapnet.errors import ConfigError, GraphReleased, TrainingDiverged
from encapnet.network import ModuleSpec, NetworkConfig, StemSpec, build_network
from encapnet.optim import Adam
from encapnet.sinkhorn import OTConfig
from encapnet.training import (MetricsWriter, TrainConfig, evaluate, lr_at,
                               scale_config, train_model)
from encapnet.tensor import Tensor, seeded_rng
from metrics_csv import read_metrics

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def tiny_setup(lam=0.0, **train_kw):
    cfg = NetworkConfig(
        family="encapnet", n_classes=4, image_size=12,
        stem=StemSpec(channels=(8,), strides=(1,)), caps_channels=4,
        class_caps_dim=4,
        modules=(ModuleSpec(2, 4, stride=2, n_type2=0, ot=("main",)),),
        ot=OTConfig(eps=0.1, iters=3))
    net = build_network(cfg, seed=0)
    data = synth_generate(32, n_classes=4, image_size=12, seed=0)
    test = synth_generate(16, n_classes=4, image_size=12, seed=1)
    base = dict(lr=1e-3, schedule=(50,), max_epochs=2, batch_size=8,
                lam=lam, weight_decay=0.0, seed=0)
    base.update(train_kw)
    return net, (data[0], data[1], test[0], test[1]), TrainConfig(**base)


class TestSchedule:
    def test_lr_at_steps_down(self):
        cfg = TrainConfig(lr=1.0, schedule=(2, 5), decay=0.1)
        assert lr_at(0, cfg) == 1.0
        assert lr_at(1, cfg) == 1.0
        assert lr_at(2, cfg) == pytest.approx(0.1)
        assert lr_at(4, cfg) == pytest.approx(0.1)
        assert lr_at(5, cfg) == pytest.approx(0.01)
        assert lr_at(99, cfg) == pytest.approx(0.01)

    def test_scale_config(self):
        cfg = TrainConfig(schedule=(200, 300, 400), max_epochs=600)
        small = scale_config(cfg, 0.05)
        assert small.max_epochs == 30
        assert small.schedule == (10, 15, 20)
        assert scale_config(cfg, 1.0) is cfg
        with pytest.raises(ConfigError):
            scale_config(cfg, 0.0)

    def test_unsorted_schedule_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(schedule=(10, 5))

    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigError, match="lam"):
            TrainConfig(lam=-1.0)

    def test_zero_eval_batch_rejected(self):
        with pytest.raises(ConfigError, match="eval_batch"):
            TrainConfig(eval_batch=0)


class TestMetrics:
    def test_blank_columns_survive_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.csv")
        w = MetricsWriter(path, n_modules=2)
        w.row(0, "train", 1.25, 1.0, 0.5, [0.125, None], 1e-3, 2.5)
        w.row(0, "eval", 0.5, 0.5, 0.25, [], 1e-3, 3.0)
        w.close()
        rows = read_metrics(path)
        assert rows[0]["ot_m1"] == 0.125 and rows[0]["ot_m2"] is None
        header = open(path).readline().strip().split(",")
        assert [c for c in header if c.startswith("ot_m")] == ["ot_m1", "ot_m2"]
        assert rows[1]["split"] == "eval" and rows[1]["error"] == 0.25

    def test_floats_written_with_repr(self, tmp_path):
        path = str(tmp_path / "m.csv")
        w = MetricsWriter(path, n_modules=1)
        val = 1.0 / 3.0
        w.row(0, "train", val, val, val, [val], val, 0.0)
        w.close()
        line = open(path).readlines()[1]
        assert repr(val) in line
        assert float(line.split(",")[2]) == val


class TestEvaluate:
    def test_perfect_model_reports_exact_ones(self):
        # a model that always nails the label yields accuracy exactly 1.0
        class Oracle:
            def set_mode(self, mode):
                pass

            def __call__(self, x, with_feedback=False):
                b = x.shape[0]
                caps = np.zeros((b, 4, 4))
                caps[np.arange(b), self._labels[:b], 0] = 0.5
                return Tensor(caps), []

        x, y = synth_generate(12, n_classes=4, image_size=8, seed=0)
        model = Oracle()
        model._labels = y
        err, acc, margin = evaluate(model, x, y, batch_size=12)
        assert err == 0.0 and acc == 1.0
        assert margin > 0  # 0.5-norm capsules still pay some hinge

    @pytest.mark.parametrize("config", ["synth_quick.ini", "mnist_capnet6_dynamic.ini",
                                        "mnist_cnn6.ini"])
    def test_blocked_capsules_equal_the_whole_batch(self, monkeypatch, config):
        # a batch of n runs as ceil(n / 32) blocks, all but the last of 16 or
        # 32 images; predict sees the capsules of the whole batch
        net = build_network(load_config(os.path.join(CONFIGS, config)).net, seed=0)
        images = seeded_rng(0, "blocks").normal(size=(128, 28, 28))
        labels = np.arange(128) % net.cfg.n_classes
        net.set_mode(False)
        seen, sizes = [], []
        monkeypatch.setattr(training, "predict",
                            lambda caps: seen.append(caps.data) or predict(caps))
        forward = type(net).__call__
        for n, blocks in [(128, [32] * 4), (64, [32, 32]), (48, [32, 16]), (40, [16, 24]),
                          (36, [16, 20]), (33, [16, 17])]:
            with T.no_grad():
                whole = forward(net, Tensor(images[:n, None]))[0].data
            seen.clear()
            sizes.clear()
            with monkeypatch.context() as m:
                m.setattr(type(net), "__call__",
                          lambda self, x: sizes.append(len(x.data)) or forward(self, x))
                evaluate(net, images[:n], labels[:n], n)
            assert sizes == blocks
            assert seen[0].tobytes() == whole.tobytes(), n


class TestTrainLoop:
    def test_runs_and_writes_metrics(self, tmp_path):
        net, data, tcfg = tiny_setup(lam=1.0)
        res = train_model(net, data, tcfg, out_dir=str(tmp_path))
        assert res.epochs_run == 2
        rows = read_metrics(res.metrics_path)
        assert len(rows) == 4  # train + eval per epoch
        train_rows = [r for r in rows if r["split"] == "train"]
        assert all(r["ot_m1"] is not None for r in train_rows)
        import os
        assert os.path.exists(res.final_checkpoint)
        assert os.path.exists(res.best_checkpoint)

    def test_lam_zero_leaves_ot_columns_blank(self, tmp_path):
        net, data, tcfg = tiny_setup(lam=0.0)
        res = train_model(net, data, tcfg, out_dir=str(tmp_path))
        rows = read_metrics(res.metrics_path)
        assert all(r["ot_m1"] is None for r in rows)

    def test_frozen_shuffle_and_lr_zero_repeat_rows(self, tmp_path):
        # lr=0 means no parameter moves; with the shuffle frozen every epoch
        # must reproduce the same train row (minus wallclock)
        net, data, tcfg = tiny_setup(lam=0.0, lr=0.0, max_epochs=3,
                                     reshuffle_each_epoch=False)
        res = train_model(net, data, tcfg, out_dir=str(tmp_path))
        rows = [r for r in read_metrics(res.metrics_path) if r["split"] == "train"]
        for key in ("loss", "margin", "error"):
            assert rows[0][key] == rows[1][key] == rows[2][key]

    def test_divergence_guard_names_culprit(self, tmp_path):
        # BN plus squash keep even absurd learning rates finite, so poison a
        # parameter to exercise the guard; the error must name the first op
        net, data, tcfg = tiny_setup(lam=0.0, max_epochs=2)
        net.stem.convs[0].weight.data[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="param:weight"):
            train_model(net, data, tcfg, out_dir=str(tmp_path))

    def test_diverged_run_keeps_last_good_final_checkpoint(self, tmp_path):
        net, data, tcfg = tiny_setup(lam=0.0, max_epochs=2)
        res = train_model(net, data, tcfg, out_dir=str(tmp_path))
        good = open(res.final_checkpoint, "rb").read()
        net, data, tcfg = tiny_setup(lam=0.0, max_epochs=2)
        net.stem.convs[0].weight.data[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train_model(net, data, tcfg, out_dir=str(tmp_path))
        assert open(res.final_checkpoint, "rb").read() == good

    @pytest.mark.parametrize("family,modules", [
        ("capnet_dynamic", None), ("vanilla_cnn", None),
        ("encapnet", (ModuleSpec(2, 4, stride=2, n_type2=0),))])
    def test_lam_without_feedback_unit_rejected(self, tmp_path, family, modules):
        # lam > 0 would weight a penalty the model never computes
        net, data, tcfg = tiny_setup(lam=1.0)
        cfg = replace(net.cfg, family=family, modules=modules or net.cfg.modules)
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=f"lam = 1 .*{family} model"):
            train_model(build_network(cfg, seed=0), data, tcfg, out_dir=str(out))
        assert not out.exists()

    def test_early_stop(self, tmp_path):
        net, data, tcfg = tiny_setup(lam=0.0, max_epochs=50,
                                     early_stop_error=1.0)
        res = train_model(net, data, tcfg, out_dir=str(tmp_path))
        assert res.stopped_early and res.epochs_run == 1

    def test_best_checkpoint_tracks_lowest_eval_error(self, tmp_path):
        net, data, tcfg = tiny_setup(lam=0.0, max_epochs=3, lr=2e-3)
        res = train_model(net, data, tcfg, out_dir=str(tmp_path))
        rows = [r for r in read_metrics(res.metrics_path) if r["split"] == "eval"]
        assert res.best_error == min(r["error"] for r in rows)
        from encapnet.checkpoint import load_checkpoint
        ck = load_checkpoint(res.best_checkpoint)
        assert int(ck.meta["epoch"]) == res.best_epoch


def test_training_step_holds_only_parameter_grads():
    # backward releases the tape as it walks it: after one step of the
    # synth_quick model with feedback on, its loss still bound as a training
    # loop keeps it, what stays allocated is the parameter gradients
    rc = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                  "synth_quick.ini"))
    model = build_network(rc.net, seed=0)
    params = list(model.named_params())
    opt = Adam(params, lr=rc.train.lr, weight_decay=rc.train.weight_decay)
    images, labels = next(batches(*synth_generate(16, rc.net.n_classes, rc.net.image_size),
                                  8, shuffle=False, augment=False))
    model.set_mode(True)
    param_bytes = sum(p.data.nbytes for _, p in params)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        caps, ots = model(Tensor(images), with_feedback=True)
        loss = margin_loss(caps, labels)
        for vals in ots:
            for val in vals:
                loss = loss + rc.train.lam * val
        nodes = [n for n in loss._topo() if n._backward is not None]
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert all(n._parents == () and n.grad is None for n in nodes)
        del nodes
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= param_bytes + (64 << 10), (held, param_bytes)

    # a new op on a released node: the walk raises before any grad changes
    grads = [p.grad.copy() for _, p in params]
    with pytest.raises(GraphReleased):
        (loss + margin_loss(caps, labels)).backward()
    for (name, p), g in zip(params, grads):
        assert np.array_equal(p.grad, g), name
