"""Network assembly, checkpoints, and the optimizer."""

import itertools
import os
import struct
import tracemalloc

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.capsules import margin_loss
from encapnet.checkpoint import load_checkpoint, restore_model, save_checkpoint
from encapnet.configfile import load_config
from encapnet.errors import ConfigError, DataFormatError
from encapnet.network import (FAMILIES, OT_KINDS, CapNet, EncapNet, ModuleSpec,
                              NetworkConfig, StemSpec, VanillaCNN, build_network,
                              parameter_table)
from encapnet.optim import Adam
from encapnet.tensor import Tensor, find_first_nonfinite, seeded_rng
from encapnet.training import evaluate

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def small_cfg(**kw):
    base = dict(
        family="encapnet", n_classes=4, image_size=12,
        stem=StemSpec(channels=(8,), strides=(1,)), caps_channels=4,
        modules=(ModuleSpec(4, stride=2, n_type2=1, ot=("main", "skip")),),
    )
    base.update(kw)
    return NetworkConfig(**base)


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            small_cfg(family="transformer")

    def test_stem_module_channel_mismatch(self):
        with pytest.raises(ConfigError):
            small_cfg(stem=StemSpec(channels=(9,), strides=(1,)))

    def test_skip_feedback_needs_type2(self):
        with pytest.raises(ConfigError):
            ModuleSpec(4, n_type2=0, ot=("skip",))

    def test_duplicate_feedback_kinds(self):
        with pytest.raises(ConfigError):
            ModuleSpec(4, n_type2=1, ot=("main", "main"))

    @pytest.mark.parametrize("kw", [dict(dim_out=0), dict(stride=0), dict(n_type2=-1)],
                             ids=["dim_out", "stride", "n_type2"])
    def test_module_geometry_validated(self, kw):
        with pytest.raises(ConfigError, match="module needs dim_out >= 1"):
            ModuleSpec(**{"dim_out": 4, **kw})

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_caps_channels_rejected(self, family):
        with pytest.raises(ConfigError, match="caps_channels must be >= 1, got 0"):
            small_cfg(family=family, caps_channels=0)

    @pytest.mark.parametrize("name", ["class_caps_dim", "hidden_caps", "hidden_dim",
                                      "routing_iters"])
    def test_zero_capnet_geometry_rejected(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got 0"):
            small_cfg(family="capnet_dynamic", **{name: 0})

    def test_module_dims_chain_from_the_stem(self):
        # the stem's 8 channels split into 4 capsules of dim 2
        cfg = small_cfg(modules=(ModuleSpec(4), ModuleSpec(6, n_type2=1), ModuleSpec(3)))
        assert cfg.stem_caps_dim == 2
        assert cfg.module_dims() == [(2, 4), (4, 6), (6, 3)]
        net = build_network(cfg, seed=0)
        assert [(m.type1.spec.dim_in, m.type1.spec.dim_out) for m in net.modules] == \
            cfg.module_dims()
        caps, _ = net(Tensor(np.zeros((1, 1, 12, 12))))
        assert caps.shape == (1, 4, 3)  # the class capsules keep the last dim

    def test_capnet_divisibility(self):
        with pytest.raises(ConfigError):
            NetworkConfig(family="capnet_dynamic",
                          stem=StemSpec(channels=(30,), strides=(1,)),
                          caps_channels=8)

    def test_stem_validation(self):
        with pytest.raises(ConfigError):
            StemSpec(channels=(8, 16), strides=(1,))


class TestAssembly:
    def test_encapnet_forward_and_depth(self):
        cfg = small_cfg()
        net = build_network(cfg, seed=0)
        assert isinstance(net, EncapNet)
        assert net.depth == 1 + (1 + 1) + 1  # stem + (type1 + one type2) + capfc
        x = Tensor(seeded_rng(0, "x").normal(size=(2, 1, 12, 12)))
        caps, ot_vals = net(x, with_feedback=True)
        assert caps.shape == (2, 4, 4)
        assert len(ot_vals) == 1 and len(ot_vals[0]) == 2
        for v in ot_vals[0]:
            assert v.shape == () and np.isfinite(float(v.data))

    def test_feedback_off_by_default(self):
        net = build_network(small_cfg(), seed=0)
        _, ot_vals = net(Tensor(np.zeros((1, 1, 12, 12))))
        assert ot_vals == [[]]

    def test_deep_config_builds_to_eighteen(self):
        mods = tuple(
            ModuleSpec(2 ** (i + 1), stride=(1 if i == 0 else 2), n_type2=3, ot=())
            for i in range(4)
        )
        cfg = NetworkConfig(
            family="encapnet", n_classes=10, image_size=32,
            stem=StemSpec(channels=(32,), strides=(1,)), caps_channels=32,
            modules=mods)
        net = build_network(cfg)
        assert net.depth == 1 + 4 * (3 + 1) + 1  # 18

    def test_capnet_shapes(self):
        cfg = NetworkConfig(
            family="capnet_dynamic", n_classes=5, image_size=12,
            stem=StemSpec(channels=(16,), strides=(2,)), caps_channels=4,
            hidden_caps=3, hidden_dim=4, class_caps_dim=4, routing_iters=2)
        net = build_network(cfg, seed=1)
        assert isinstance(net, CapNet) and net.depth == 3
        caps, ot_vals = net(Tensor(seeded_rng(0, "x").normal(size=(2, 1, 12, 12))))
        assert caps.shape == (2, 5, 4) and ot_vals == []

    def test_every_family_built_by_a_shipped_config(self):
        # every option has a caller: a family or feedback kind that no config
        # builds is dead code
        built, kinds = set(), set()
        for name in os.listdir(CONFIGS):
            rc = load_config(os.path.join(CONFIGS, name))
            built.add(build_network(rc.net, seed=0).cfg.family)
            kinds.update(k for m in rc.net.modules for k in m.ot)
        assert built == set(FAMILIES)
        assert kinds == set(OT_KINDS)

    def test_vanilla_cnn_mirrors_blob_shapes(self):
        cfg = small_cfg()
        enc = build_network(cfg, seed=0)
        cnn = build_network(
            NetworkConfig(**{**cfg.__dict__, "family": "vanilla_cnn"}), seed=0)
        assert isinstance(cnn, VanillaCNN)
        x = Tensor(seeded_rng(1, "x").normal(size=(2, 1, 12, 12)))
        enc.set_mode(False)
        cnn.set_mode(False)
        # blob shapes after the stem and after every module, walked in each net
        h = enc.stem(x)
        enc_shapes = [h.shape]
        for mod in enc.modules:
            h, _ = mod(h)
            enc_shapes.append(h.shape)
        h = cnn.stem(x)
        cnn_shapes = [h.shape]
        pairs = iter(zip(cnn.convs, cnn.bns))
        for ms in cfg.modules:
            for conv, bn in itertools.islice(pairs, ms.n_type2 + 1):
                h = bn(conv(h))
            cnn_shapes.append(h.shape)
        assert next(pairs, None) is None
        assert enc_shapes == cnn_shapes
        assert [s[2:] for s in enc_shapes] == [(hw, hw) for hw in cfg.module_hws()]
        caps, _ = cnn(x)
        assert caps.shape == (2, 4, 1)
        assert np.linalg.norm(caps.data, axis=-1).max() < 1.0

    def test_channel_partition_master_vs_aide(self):
        # for every built encapnet module the master branch is grouped by the
        # capsule count and the aide kernel's same-index blocks are masked
        net = build_network(small_cfg(), seed=0)
        for mod in net.modules:
            for layer in [mod.type1] + mod.type2:
                assert layer.master.groups == layer.spec.caps
                mask = layer._mask.data
                c, d2, d1 = layer.spec.caps, layer.spec.dim_out, layer.spec.dim_in
                for cap in range(c):
                    block = mask[cap * d2:(cap + 1) * d2, cap * d1:(cap + 1) * d1]
                    np.testing.assert_array_equal(block, 0.0)
                assert mask.sum() == mask.size - c * d2 * d1


def shipped_network(name):
    return build_network(load_config(os.path.join(CONFIGS, name)).net, seed=0)


def training_forward(net, b, backward=False):
    """(total loss, bytes the forward leaves allocated: its tape, peak bytes
    of the forward and, if asked, of the backward that follows it)."""
    rng = seeded_rng(b, "tape")
    x = Tensor(rng.normal(size=(b, 1, 28, 28)))
    labels = rng.integers(0, net.cfg.n_classes, size=b)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        caps, ots = net(x, with_feedback=True)
        loss = margin_loss(caps, labels)
        for val in itertools.chain(*ots):
            loss = loss + 10.0 * val
        held = tracemalloc.get_traced_memory()[0] - before
        if backward:
            loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return loss, held, peak


class TestMemory:
    def test_synth_quick_training_tape(self):
        # the batch-32 step synth_train runs, feedback on: 15.6 MB while the
        # tape kept the stem's inner BN-ReLU outputs, the gated sum and the
        # skip projection, which backward now rebuilds (10.8 MB)
        _, held, _ = training_forward(shipped_network("synth_quick.ini"), 32)
        assert held <= 11.5e6, held

    def test_synth_quick_training_step_peak(self):
        # the same step's forward and backward: 12.3 MB, 18.0 MB before the
        # releases and with 1 MiB column blocks
        _, _, peak = training_forward(shipped_network("synth_quick.ini"), 32, backward=True)
        assert peak <= 13.5e6, peak

    def test_synth_quick_eval_forward_peak(self):
        # the batch-128 evaluation synth_train runs: one buffer per stage
        net = shipped_network("synth_quick.ini")
        net.set_mode(False)
        x = Tensor(seeded_rng(0, "eval").normal(size=(128, 1, 28, 28)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                net(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 14e6, peak

    def test_synth_quick_evaluate_peak(self):
        # training.evaluate at synth_train's batch 128 runs the model on
        # blocks of 32 images: 4.4 MB, 13.6 MB for the whole batch at once
        net = shipped_network("synth_quick.ini")
        images = seeded_rng(0, "eval").normal(size=(160, 28, 28))
        labels = np.arange(160) % net.cfg.n_classes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate(net, images, labels, 128)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 6e6, peak

    def test_encapnet18_training_step(self):
        # the paper's 18-layer topology, which no benchmark workload runs;
        # its batch-2 tape measured 51.9 MB (69.3 MB while it kept each
        # masked aide weight, gated sum and skip projection), the ceiling is
        # 10% above it
        net = shipped_network("encapnet18.ini")
        loss, held, _ = training_forward(net, 2)
        assert held <= 1.1 * 51.9e6, held
        loss.backward()
        for name, p in net.named_params():
            assert p.grad is not None and np.isfinite(p.grad).all(), name


class TestRelease:
    """The layers release what only a backward rule reads: the stem's inner
    BN-ReLU outputs, CapConv's masked aide weight and gated sum, and the
    Type I skip projection."""

    CFG = dict(stem=StemSpec(channels=(8, 8), strides=(1, 1)))

    def _loss(self, net, with_feedback=True):
        rng = seeded_rng(0, "release-net")
        caps, ots = net(Tensor(rng.normal(size=(3, 1, 12, 12))), with_feedback=with_feedback)
        loss = margin_loss(caps, np.arange(3) % 4)
        for val in itertools.chain(*ots):
            loss = loss + 10.0 * val
        return loss

    def test_gradients_bitwise_equal_to_a_graph_without_releases(self, monkeypatch):
        def grads():
            net = build_network(small_cfg(**self.CFG), seed=0)
            loss = self._loss(net)
            released = [n.op for n in loss._topo() if n.data is None]
            loss.backward()
            return released, {name: p.grad for name, p in net.named_params()}

        released, got = grads()
        assert sorted(released) == ["batch_norm_relu", "conv2d", "gated_sum", "gated_sum",
                                    "mul", "mul"], released
        monkeypatch.setattr(Tensor, "release", lambda self, op=None: None)
        none_released, want = grads()
        assert none_released == []
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_culprit_found_in_a_released_output(self):
        # a finite but huge stem BN gamma overflows that BN-ReLU's output,
        # which the stem released once the next conv had read it
        for with_feedback in (False, True):
            net = build_network(small_cfg(**self.CFG), seed=0)
            net.stem.bns[0].gamma.data[0] = 1e308
            loss = self._loss(net, with_feedback=with_feedback)
            first = next(n for n in loss._topo() if n.op == "batch_norm_relu")
            assert first.data is None
            assert find_first_nonfinite(loss) == "batch_norm_relu", with_feedback
            assert not np.isfinite(first.value()).all()


class TestParameterTable:
    @pytest.mark.parametrize("name, total, depth", [
        ("encapnet18.ini", 2_811_688, 18),
        ("mnist_capnet6_dynamic.ini", 66_416, 6),
        ("mnist_cnn6.ini", 107_962, 6),
        ("mnist_encapnet6.ini", 128_738, 6),
        ("synth_quick.ini", 50_802, 6),
    ])
    def test_shipped_config_size_pinned(self, name, total, depth):
        # the module input dims and the encapnet head dim are derived from the
        # config; a wrong derivation changes these counts
        net = shipped_network(name)
        assert parameter_table(net)[1] == total
        assert net.depth == depth

    def test_counts_match_named_params(self):
        net = build_network(small_cfg(), seed=0)
        rows, total = parameter_table(net)
        assert total == sum(p.data.size for _, p in net.named_params())
        names = [r[0] for r in rows]
        assert len(names) == len(set(names))
        assert any(n.startswith("feedback") for n in names)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net, config_text="[net]\nfamily = encapnet\n",
                        meta={"epoch": "7"}, extra={"rng": np.arange(3)})
        ck = load_checkpoint(path)
        assert ck.config_text.startswith("[net]")
        assert ck.meta["epoch"] == "7"
        np.testing.assert_array_equal(ck.extra["rng"], np.arange(3))
        for name, p in net.named_params():
            np.testing.assert_array_equal(ck.params[name], p.data)
        for name, b in net.named_buffers():
            np.testing.assert_array_equal(ck.buffers[name], b)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        from encapnet import checkpoint

        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "best.encp")
        save_checkpoint(path, net, meta={"epoch": "1"})
        before = (tmp_path / "best.encp").read_bytes()
        real_write = checkpoint._write

        def write_half_then_raise(f, *args):
            real_write(f, *args)
            f.truncate(len(before) // 2)
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "_write", write_half_then_raise)
        for _, p in net.named_params():
            p.data += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net, meta={"epoch": "2"})
        assert (tmp_path / "best.encp").read_bytes() == before
        assert load_checkpoint(path).meta["epoch"] == "1"
        assert [f.name for f in tmp_path.iterdir()] == ["best.encp"]

    def test_restore_replaces_values(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net)
        saved = {n: p.data.copy() for n, p in net.named_params()}
        for _, p in net.named_params():
            p.data += 1.0
        restore_model(net, load_checkpoint(path))
        for name, p in net.named_params():
            np.testing.assert_array_equal(p.data, saved[name])

    def test_restore_writes_buffers_in_place(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        rng = seeded_rng(4, "stats")
        buffers = dict(net.named_buffers())
        assert buffers
        for b in buffers.values():
            b[...] = rng.uniform(0.5, 2.0, size=b.shape)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net)
        saved = {n: b.copy() for n, b in buffers.items()}
        for b in buffers.values():
            b += 1.0
        restore_model(net, load_checkpoint(path))
        for name, b in net.named_buffers():
            assert b is buffers[name]
            np.testing.assert_array_equal(b, saved[name])

    def test_restore_rejects_shape_mismatch_without_mutation(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        name = next(iter(ck.params))
        ck.params[name] = np.zeros((1, 1))
        before = {n: p.data.copy() for n, p in net.named_params()}
        with pytest.raises(DataFormatError):
            restore_model(net, ck)
        for n, p in net.named_params():
            np.testing.assert_array_equal(p.data, before[n])

    def test_restore_rejects_missing_buffer_without_mutation(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        for arr in [*ck.params.values(), *ck.buffers.values()]:
            arr += 1.0
        name = "stem.bns0.running_mean"
        del ck.buffers[name]
        before = {n: p.data.copy() for n, p in net.named_params()}
        before_bufs = {n: b.copy() for n, b in net.named_buffers()}
        with pytest.raises(DataFormatError, match=name):
            restore_model(net, ck)
        for n, p in net.named_params():
            np.testing.assert_array_equal(p.data, before[n])
        for n, b in net.named_buffers():
            np.testing.assert_array_equal(b, before_bufs[n])

    def test_corruption_detected(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net)
        blob = bytearray(open(path, "rb").read())
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "missing.encp"))
        bad_magic = tmp_path / "bad_magic.encp"
        bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
        with pytest.raises(DataFormatError):
            load_checkpoint(str(bad_magic))
        truncated = tmp_path / "truncated.encp"
        truncated.write_bytes(bytes(blob[:len(blob) // 2]))
        with pytest.raises(DataFormatError):
            load_checkpoint(str(truncated))
        trailing = tmp_path / "trailing.encp"
        trailing.write_bytes(bytes(blob) + b"\x00")
        with pytest.raises(DataFormatError):
            load_checkpoint(str(trailing))
        # the first manifest entry's kind byte follows the two empty text
        # blocks, the entry count and the entry's length-prefixed name
        name_len = struct.unpack_from("<H", blob, 20)[0]
        bad_kind = bytearray(blob)
        bad_kind[22 + name_len] = 7
        kind_path = tmp_path / "bad_kind.encp"
        kind_path.write_bytes(bytes(bad_kind))
        name = bytes(blob[22:22 + name_len]).decode()
        with pytest.raises(DataFormatError, match=f"{name}.*kind 7"):
            load_checkpoint(str(kind_path))

    def test_float32_array_fails_to_save(self, tmp_path):
        net = build_network(small_cfg(), seed=3)
        path = tmp_path / "model.encp"
        with pytest.raises(DataFormatError, match="float32"):
            save_checkpoint(str(path), net, extra={"x": np.zeros(2, np.float32)})
        assert list(tmp_path.iterdir()) == []

    def test_dtype_code_zero_fails_to_load(self, tmp_path):
        # code 0 was float32, which no checkpoint writes; the first entry's
        # dtype byte follows its kind byte (see test_corruption_detected)
        net = build_network(small_cfg(), seed=3)
        path = str(tmp_path / "model.encp")
        save_checkpoint(path, net)
        blob = bytearray(open(path, "rb").read())
        name_len = struct.unpack_from("<H", blob, 20)[0]
        assert blob[23 + name_len] == 1
        blob[23 + name_len] = 0
        bad = tmp_path / "code0.encp"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="unknown dtype code 0"):
            load_checkpoint(str(bad))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with O(1) gradients the bias-corrected first step is lr * sign(g)
        p = Tensor(np.zeros(4), requires_grad=True, op="param:p")
        p.grad = np.array([1.0, -2.0, 3.0, -0.5])
        opt = Adam([("p", p)], lr=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, -0.01 * np.sign([1.0, -2.0, 3.0, -0.5]),
                                   rtol=1e-6)

    def test_weight_decay_is_decoupled(self):
        # zero gradient: only the multiplicative shrink applies
        p = Tensor(np.full(3, 2.0), requires_grad=True, op="param:p")
        p.grad = np.zeros(3)
        opt = Adam([("p", p)], lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0 * (1 - 0.1 * 0.5), atol=1e-12)

    def test_none_gradient_treated_as_zero(self):
        p = Tensor(np.ones(2), requires_grad=True, op="param:p")
        p.grad = None
        opt = Adam([("p", p)], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_quadratic_converges(self):
        target = np.array([1.5, -2.0, 0.5])
        p = Tensor(np.zeros(3), requires_grad=True, op="param:p")
        opt = Adam([("p", p)], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            d = p - T.constant(target)
            loss = T.tsum(d * d)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_zero_grad_clears(self):
        p = Tensor(np.ones(2), requires_grad=True, op="param:p")
        p.grad = np.ones(2)
        Adam([("p", p)]).zero_grad()
        assert p.grad is None

    def test_state_roundtrip(self):
        p = Tensor(np.zeros(3), requires_grad=True, op="param:p")
        opt = Adam([("p", p)], lr=0.05)
        for i in range(3):
            p.grad = np.full(3, float(i + 1))
            opt.step()
        state = opt.state_arrays()
        p2 = Tensor(p.data.copy(), requires_grad=True, op="param:p")
        opt2 = Adam([("p", p2)], lr=0.05)
        opt2.load_state_arrays(state)
        p.grad = p2.grad = np.full(3, 0.7)
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, p2.data)
