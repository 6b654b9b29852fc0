"""Network assembly, checkpoints, and the optimizer."""

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.checkpoint import load_checkpoint, restore_model, save_checkpoint
from encapnet.errors import ConfigError, DataFormatError
from encapnet.network import (CapNet, EncapNet, ModuleSpec, NetworkConfig,
                              StemSpec, VanillaCNN, build_network,
                              parameter_table)
from encapnet.optim import Adam
from encapnet.sinkhorn import OTConfig
from encapnet.tensor import Tensor, seeded_rng


@pytest.fixture(autouse=True)
def _float64():
    prev = T.get_default_dtype()
    T.set_default_dtype(np.float64)
    yield
    T.set_default_dtype(prev)


def small_cfg(**kw):
    base = dict(
        family="encapnet", n_classes=4, in_channels=1, image_size=12,
        stem=StemSpec(channels=(8,), strides=(1,)), caps_channels=4,
        class_caps_dim=4,
        modules=(ModuleSpec(2, 4, stride=2, n_type2=1, ot=("main", "skip")),),
        ot=OTConfig(eps=0.1, iters=3),
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

    def test_module_chain_dim_mismatch(self):
        with pytest.raises(ConfigError):
            small_cfg(modules=(ModuleSpec(2, 4, ot=("main",)),
                               ModuleSpec(8, 4)))

    def test_class_dim_must_match_last_module(self):
        with pytest.raises(ConfigError):
            small_cfg(class_caps_dim=16)

    def test_skip_feedback_needs_type2(self):
        with pytest.raises(ConfigError):
            ModuleSpec(2, 4, n_type2=0, ot=("skip",))

    def test_duplicate_feedback_kinds(self):
        with pytest.raises(ConfigError):
            ModuleSpec(2, 4, n_type2=1, ot=("main", "main"))

    def test_capnet_divisibility(self):
        with pytest.raises(ConfigError):
            NetworkConfig(family="capnet_dynamic",
                          stem=StemSpec(channels=(30,), strides=(1,)),
                          caps_channels=8)

    def test_stem_validation(self):
        with pytest.raises(ConfigError):
            StemSpec(channels=(8, 16), strides=(1,))
        with pytest.raises(ConfigError):
            StemSpec(kernel=4)


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
            ModuleSpec(1 if i == 0 else 2 ** i, 2 ** (i + 1), stride=(1 if i == 0 else 2),
                       n_type2=3, ot=())
            for i in range(4)
        )
        cfg = NetworkConfig(
            family="encapnet", n_classes=10, image_size=32,
            stem=StemSpec(channels=(32,), strides=(1,)), caps_channels=32,
            class_caps_dim=16, modules=mods)
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

    def test_vanilla_cnn_mirrors_blob_shapes(self):
        cfg = small_cfg()
        enc = build_network(cfg, seed=0)
        cnn = build_network(
            NetworkConfig(**{**cfg.__dict__, "family": "vanilla_cnn"}), seed=0)
        assert isinstance(cnn, VanillaCNN)
        x = Tensor(seeded_rng(1, "x").normal(size=(2, 1, 12, 12)))
        enc.set_mode(False)
        cnn.set_mode(False)
        assert enc.blob_shapes(x) == cnn.blob_shapes(x)
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


class TestParameterTable:
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


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with O(1) gradients the bias-corrected first step is lr * sign(g)
        p = Tensor(np.zeros(4), requires_grad=True, op="param:p")
        p.grad = np.array([1.0, -2.0, 3.0, -0.5])
        opt = Adam({"p": p}, lr=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, -0.01 * np.sign([1.0, -2.0, 3.0, -0.5]),
                                   rtol=1e-6)

    def test_weight_decay_is_decoupled(self):
        # zero gradient: only the multiplicative shrink applies
        p = Tensor(np.full(3, 2.0), requires_grad=True, op="param:p")
        p.grad = np.zeros(3)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0 * (1 - 0.1 * 0.5), atol=1e-12)

    def test_none_gradient_treated_as_zero(self):
        p = Tensor(np.ones(2), requires_grad=True, op="param:p")
        p.grad = None
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_quadratic_converges(self):
        target = np.array([1.5, -2.0, 0.5])
        p = Tensor(np.zeros(3), requires_grad=True, op="param:p")
        opt = Adam({"p": p}, lr=0.05)
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
        Adam({"p": p}).zero_grad()
        assert p.grad is None

    def test_state_roundtrip(self):
        p = Tensor(np.zeros(3), requires_grad=True, op="param:p")
        opt = Adam({"p": p}, lr=0.05)
        for i in range(3):
            p.grad = np.full(3, float(i + 1))
            opt.step()
        state = opt.state_arrays()
        p2 = Tensor(p.data.copy(), requires_grad=True, op="param:p")
        opt2 = Adam({"p": p2}, lr=0.05)
        opt2.load_state_arrays(state)
        p.grad = p2.grad = np.full(3, 0.7)
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, p2.data)
