"""IDX files, synthetic bars, batch streams, and INI run configs."""

import numpy as np
import pytest

from encapnet.configfile import load_config, parse_config_text
from encapnet.data import (DataConfig, augment_crop, bar_image, batches,
                           load_dataset, load_idx, save_idx, synth_generate)
from encapnet.errors import ConfigError, DataFormatError
from encapnet.tensor import seeded_rng


class TestIdx:
    def test_images_roundtrip_lossless(self, tmp_path):
        raw = seeded_rng(0, "idx").integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
        path = str(tmp_path / "imgs")
        save_idx(path, raw)
        loaded = load_idx(path)
        assert loaded.dtype == np.float64
        # /255 on load, rint(*255) on save: every byte value survives
        save_idx(str(tmp_path / "again"), loaded)
        np.testing.assert_array_equal(load_idx(str(tmp_path / "again")), loaded)
        np.testing.assert_array_equal(np.rint(loaded * 255).astype(np.uint8), raw)

    def test_labels_roundtrip(self, tmp_path):
        y = np.array([0, 3, 9, 255], dtype=np.uint8)
        path = str(tmp_path / "labels")
        save_idx(path, y)
        loaded = load_idx(path)
        assert loaded.dtype == np.int64
        np.testing.assert_array_equal(loaded, y)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"\x00\x00\x99\x01" + b"\x00" * 16)
        with pytest.raises(DataFormatError):
            load_idx(str(p))

    def test_truncation_rejected(self, tmp_path):
        raw = np.zeros((3, 4, 4), dtype=np.uint8)
        path = str(tmp_path / "imgs")
        save_idx(path, raw)
        blob = open(path, "rb").read()
        cut = tmp_path / "cut"
        cut.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError):
            load_idx(str(cut))

    def test_float_out_of_range_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            save_idx(str(tmp_path / "x"), np.full((1, 2, 2), 1.5))

    def test_bad_rank_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            save_idx(str(tmp_path / "x"), np.zeros((2, 2), dtype=np.uint8))


def bar_image_loop(size, angle, center, half_len, half_width=1.5):
    """One bar on a full pixel grid, as synth_generate once drew each image."""
    cy, cx = center
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dx, dy = xs - cx, ys - cy
    along = dx * np.cos(angle) + dy * np.sin(angle)
    across = -dx * np.sin(angle) + dy * np.cos(angle)
    img = np.clip(1.0 - np.abs(across) / half_width, 0.0, 1.0)
    img *= np.clip(half_len + 1.0 - np.abs(along), 0.0, 1.0)
    return img


def synth_generate_loop(n, n_classes, image_size, noise=0.05, seed=0):
    """synth_generate's per-image loop: the reference for the chunked render."""
    rng = seeded_rng(seed, "synth")
    images = np.empty((n, image_size, image_size))
    c0 = (image_size - 1) / 2.0
    half_len = 0.35 * image_size
    max_rot = 0.5 * np.pi / n_classes * 0.8
    for i in range(n):
        angle = np.pi * (i % n_classes) / n_classes
        if i < n_classes:
            img = bar_image_loop(image_size, angle, (c0, c0), half_len)
        else:
            angle = angle + rng.uniform(-max_rot, max_rot)
            cy = c0 + rng.uniform(-2.0, 2.0)
            cx = c0 + rng.uniform(-2.0, 2.0)
            img = bar_image_loop(image_size, angle, (cy, cx), half_len)
            img = img + rng.normal(0.0, noise, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return images


class TestSynthetic:
    # (n, K, size): a workload's train and test sets, sizes that end inside
    # a render chunk, and canonical images that fill more than one chunk
    @pytest.mark.parametrize("n, n_classes, size", [
        (640, 10, 28), (160, 10, 28), (200, 4, 12), (64, 10, 28), (30, 10, 28), (45, 20, 9)])
    def test_chunked_render_bitwise_equals_per_image_loop(self, n, n_classes, size):
        for seed in (0, 7):
            x, y = synth_generate(n, n_classes, size, seed=seed)
            ref = synth_generate_loop(n, n_classes, size, seed=seed)
            assert x.tobytes() == ref.tobytes()
            np.testing.assert_array_equal(y, np.arange(n) % n_classes)

    def test_deterministic(self):
        a = synth_generate(40, seed=5)
        b = synth_generate(40, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = synth_generate(40, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_first_k_are_canonical_and_noise_free(self):
        x, y = synth_generate(30, n_classes=10, noise=0.5, seed=0)
        x2, _ = synth_generate(30, n_classes=10, noise=0.5, seed=99)
        np.testing.assert_array_equal(x[:10], x2[:10])
        assert list(y[:10]) == list(range(10))

    def test_classes_are_separated(self):
        # jitter and noise blur the classes but a trivial nearest-canonical
        # matcher still lands around 93% with 4 orientations, so anything
        # above 85% proves the classes carry signal without being degenerate
        x, y = synth_generate(200, n_classes=4, seed=1)
        canon = x[:4].reshape(4, -1)
        pred = np.argmax(x.reshape(len(x), -1) @ canon.T, axis=1)
        acc = float((pred == y).mean())
        assert 0.85 < acc < 1.0

    def test_range_and_shapes(self):
        x, y = synth_generate(25, n_classes=5, image_size=16, seed=2)
        assert x.shape == (25, 16, 16) and y.shape == (25,)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_rejects_tiny(self):
        with pytest.raises(ConfigError):
            synth_generate(3, n_classes=5)

    def test_bar_image_peak_at_center(self):
        img = bar_image(15, 0.0, (7, 7), 5.0)
        assert img[7, 7] == pytest.approx(1.0)
        assert img[0, 0] == 0.0


class TestLoadDataset:
    def test_synthetic_split_seeds_differ(self):
        dc = DataConfig(source="synthetic", n_train=30, n_test=20, seed=3)
        tx, ty, ex, ey = load_dataset(dc, 10, 28)
        assert tx.shape[0] == 30 and ex.shape[0] == 20
        assert not np.array_equal(tx[:20], ex)

    def test_limits_applied(self):
        dc = DataConfig(source="synthetic", n_train=30, n_test=20,
                        limit_train=12, limit_test=7)
        tx, ty, ex, ey = load_dataset(dc, 10, 28)
        assert tx.shape[0] == 12 and ex.shape[0] == 7

    def test_synthetic_set_rendered_at_the_network_geometry(self):
        dc = DataConfig(source="synthetic", n_train=12, n_test=6)
        tx, ty, ex, ey = load_dataset(dc, 3, 9)
        assert tx.shape == (12, 9, 9) and ex.shape == (6, 9, 9)
        np.testing.assert_array_equal(ty, np.arange(12) % 3)

    @staticmethod
    def _idx_set(tmp_path, size=28, top_label=9):
        dc = DataConfig(source="idx", dir=str(tmp_path))
        y = np.arange(10) % (top_label + 1)
        for images, labels in ((dc.train_images, dc.train_labels),
                               (dc.test_images, dc.test_labels)):
            save_idx(str(tmp_path / images), np.zeros((10, size, size), dtype=np.uint8))
            save_idx(str(tmp_path / labels), y)
        return dc

    def test_idx_set_matching_the_network_loads(self, tmp_path):
        tx, ty, ex, ey = load_dataset(self._idx_set(tmp_path), 10, 28)
        assert tx.shape == ex.shape == (10, 28, 28) and ty.max() == 9

    def test_idx_image_size_mismatch_names_both_sizes(self, tmp_path):
        # 12x12 images under a 28-pixel network fail at load, not in a conv
        with pytest.raises(DataFormatError, match=r"12x12.*image_size is 28"):
            load_dataset(self._idx_set(tmp_path, size=12), 10, 28)

    def test_idx_label_outside_the_classes_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"label 9 .*n_classes = 5"):
            load_dataset(self._idx_set(tmp_path), 5, 28)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            DataConfig(source="imagenet")


class TestBatches:
    def test_partial_final_batch_kept(self):
        x = np.zeros((10, 4, 4))
        y = np.arange(10)
        sizes = [b.shape[0] for b, _ in batches(x, y, 3, shuffle=False)]
        assert sizes == [3, 3, 3, 1]

    def test_epoch_order_deterministic(self):
        x = seeded_rng(0, "bx").normal(size=(20, 4, 4))
        y = np.arange(20)
        a = [lbl.tolist() for _, lbl in batches(x, y, 6, seed=1, epoch=2)]
        b = [lbl.tolist() for _, lbl in batches(x, y, 6, seed=1, epoch=2)]
        c = [lbl.tolist() for _, lbl in batches(x, y, 6, seed=1, epoch=3)]
        assert a == b and a != c

    def test_channel_axis_added(self):
        x = np.zeros((4, 5, 5))
        xb, _ = next(batches(x, np.zeros(4, dtype=int), 2, shuffle=False))
        assert xb.shape == (2, 1, 5, 5)

    def test_every_sample_seen_once(self):
        y = np.arange(17)
        seen = []
        for _, lbl in batches(np.zeros((17, 3, 3)), y, 5, seed=0, epoch=1):
            seen.extend(lbl.tolist())
        assert sorted(seen) == list(range(17))

    def test_augment_deterministic_and_bounded(self):
        x = seeded_rng(1, "ax").uniform(0, 1, size=(8, 6, 6))
        y = np.zeros(8, dtype=int)
        a = np.concatenate([b for b, _ in batches(x, y, 4, seed=2, epoch=0, augment=True)])
        b = np.concatenate([b for b, _ in batches(x, y, 4, seed=2, epoch=0, augment=True)])
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigError):
            list(batches(np.zeros((4, 3, 3)), np.zeros(4, dtype=int), 0))


class TestAugmentCrop:
    def test_shapes_and_content_preserved_shifted(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        out = augment_crop(x, seeded_rng(0, "c"), pad=1)
        assert out.shape == x.shape
        assert out.sum() == pytest.approx(1.0)
        ys, xs = np.argwhere(out[0] == 1.0)[0]
        assert abs(ys - 2) <= 1 and abs(xs - 2) <= 1


CONFIG_TEXT = """
[net]
family = encapnet
n_classes = 4
image_size = 12
caps_channels = 4

[stem]
channels = 8
strides = 1

[module1]
dim_out = 4
stride = 2
n_type2 = 1
ot = main, skip

[train]
lr = 0.002
schedule = 6, 9
max_epochs = 12
batch_size = 8
lam = 10.0

[data]
source = synthetic
n_train = 32
n_test = 16
"""

# CONFIG_TEXT cut down, for each family, to the keys that family reads
FAMILY_CONFIG_TEXT = {
    "encapnet": CONFIG_TEXT,
    "vanilla_cnn": CONFIG_TEXT.replace("family = encapnet", "family = vanilla_cnn")
                              .replace("ot = main, skip\n", ""),
    "capnet_dynamic": CONFIG_TEXT.replace("family = encapnet", "family = capnet_dynamic")
                                 .replace("[module1]\ndim_out = 4\nstride = 2\n"
                                          "n_type2 = 1\not = main, skip\n", ""),
}


def with_line(text, section, line):
    """text with line added to [section], appending the section if absent."""
    if f"[{section}]" in text:
        return text.replace(f"[{section}]", f"[{section}]\n{line}")
    return f"{text}\n[{section}]\n{line}\n"


# [ot] is gone: its eps and iters are fixed, so the whole section is rejected
OT_SECTION_ERROR = r"unknown section \[ot\]"


class TestConfigFile:
    def test_full_parse(self):
        rc = parse_config_text(CONFIG_TEXT)
        assert rc.net.family == "encapnet"
        assert rc.net.stem.channels == (8,)
        assert rc.net.modules[0].ot == ("main", "skip")
        assert rc.net.modules[0].n_type2 == 1
        assert rc.net.module_dims() == [(2, 4)]
        assert rc.train.schedule == (6, 9)
        assert rc.train.lam == 10.0
        assert rc.data.n_train == 32
        assert rc.text == CONFIG_TEXT

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(CONFIG_TEXT.replace("lr = 0.002", "lrr = 0.002"))

    def test_dtype_key_rejected(self):
        # models are float64 only; a config that still names a dtype fails
        bad = CONFIG_TEXT.replace("[train]", "[train]\ndtype = float32")
        with pytest.raises(ConfigError, match="dtype"):
            parse_config_text(bad)

    @pytest.mark.parametrize("section, line", [
        ("ot", "cost = cosine"),
        ("ot", "debiased = true"),
        ("net", "softmax_axis = inputs"),
        ("module1", "aide_all_channels = false"),
        ("module1", "interaction = v3"),
        ("module1", "skip = both"),
        ("ot", "regularizer = ot"),
    ])
    def test_fixed_choice_key_rejected(self, section, line):
        # the cosine cost, the debiased divergence, the softmax over lower
        # capsules, the masked aide, the joint master/aide gate, both skips
        # and the OT regularizer are fixed; naming their old key fails
        match = OT_SECTION_ERROR if section == "ot" else line.split(" = ")[0]
        with pytest.raises(ConfigError, match=match):
            parse_config_text(with_line(CONFIG_TEXT, section, line))

    @pytest.mark.parametrize("family, section, line", [
        ("encapnet", "net", "hidden_caps = 4"),
        ("encapnet", "net", "hidden_dim = 16"),
        ("encapnet", "net", "routing_iters = 3"),
        ("encapnet", "net", "class_caps_dim = 16"),
        ("vanilla_cnn", "net", "hidden_caps = 4"),
        ("vanilla_cnn", "net", "hidden_dim = 16"),
        ("vanilla_cnn", "net", "routing_iters = 3"),
        ("vanilla_cnn", "net", "class_caps_dim = 4"),
        ("vanilla_cnn", "module1", "ot = main"),
        ("vanilla_cnn", "ot", "eps = 0.1"),
        ("capnet_dynamic", "module1", "dim_out = 4"),
        ("capnet_dynamic", "ot", "eps = 0.1"),
    ])
    def test_key_the_family_does_not_read_rejected(self, family, section, line):
        text = FAMILY_CONFIG_TEXT[family]
        assert parse_config_text(text).net.family == family
        bad = with_line(text, section, line)
        if section == "ot":
            with pytest.raises(ConfigError, match=OT_SECTION_ERROR):
                parse_config_text(bad)
            return
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key) as err:
            parse_config_text(bad)
        assert family in str(err.value)

    @pytest.mark.parametrize("section, line", [
        ("net", "in_channels = 1"),
        ("train", "reshuffle_each_epoch = true"),
        ("data", "n_classes = 4"),
        ("data", "image_size = 12"),
        ("ot", "stop_gradient = true"),
        ("module1", "dim_in = 8"),
        ("stem", "kernel = 3"),
        ("train", "decay = 0.1"),
    ])
    def test_deleted_geometry_and_shuffle_keys_rejected(self, section, line):
        # [net] alone sets the input geometry, every epoch reshuffles, the
        # Sinkhorn plan is always held fixed in backprop, a module's input
        # dim is the previous output dim, stem convs are 3x3, and the lr
        # drops x0.1 at each milestone
        match = OT_SECTION_ERROR if section == "ot" else f"unknown key {line.split(' = ')[0]!r}"
        with pytest.raises(ConfigError, match=match):
            parse_config_text(with_line(CONFIG_TEXT, section, line))

    @pytest.mark.parametrize("name", ["trian", "ot"])
    def test_unknown_section_rejected(self, name):
        # a misspelt section would otherwise leave all its keys at defaults
        with pytest.raises(ConfigError, match=rf"unknown section \[{name}\]"):
            parse_config_text(with_line(CONFIG_TEXT, name, "lr = 5"))

    @pytest.mark.parametrize("source, line", [
        ("idx", "n_train = 32"),
        ("idx", "noise = 0.1"),
        ("idx", "seed = 1"),
        ("synthetic", "dir = data"),
        ("synthetic", "train_images = x"),
    ])
    def test_key_the_source_does_not_read_rejected(self, source, line):
        data = {"idx": "[data]\nsource = idx\ndir = data\n",
                "synthetic": "[data]\nsource = synthetic\nn_train = 32\n"}[source]
        text = CONFIG_TEXT[:CONFIG_TEXT.index("[data]")] + data
        assert parse_config_text(text).data.source == source
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"\[data\] {key} is not read by source = {source}"):
            parse_config_text(text + line + "\n")

    def test_module_gap_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(CONFIG_TEXT.replace("[module1]", "[module2]"))

    def test_loader_fixed_keys_rejected_in_file(self):
        bad = CONFIG_TEXT.replace("[net]", "[net]\nmodules = 1,2")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_missing_net_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[train]\nlr = 0.1\n")

    def test_bad_bool_rejected(self):
        bad = CONFIG_TEXT.replace("[train]", "[train]\naugment = maybe")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_module_without_dims_rejected(self):
        bad = "[net]\nfamily = encapnet\n[module1]\nstride = 2\n"
        with pytest.raises(ConfigError, match=r"\[module1\] needs dim_out"):
            parse_config_text(bad)

    @pytest.mark.parametrize("section, line, bad_line", [
        ("module1", "dim_out = 4", "dim_out = abc"),
        ("net", "n_classes = 4", "n_classes = ten"),
        ("train", "lr = 0.002", "lr = fast"),
        ("train", "schedule = 6, 9", "schedule = 6, nine"),
    ])
    def test_uncastable_value_rejected(self, section, line, bad_line):
        key, value = bad_line.split(" = ")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{value}'"):
            parse_config_text(CONFIG_TEXT.replace(line, bad_line, 1))

    def test_percent_sign_is_a_plain_character(self):
        text = CONFIG_TEXT.replace("source = synthetic\nn_train = 32\nn_test = 16\n",
                                   "source = idx\ndir = runs/100%\n")
        rc = parse_config_text(text)
        assert rc.data.dir == "runs/100%"

    def test_load_config_reads_file(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(CONFIG_TEXT)
        rc = load_config(str(p))
        assert rc.net.n_classes == 4

    def test_shipped_configs_parse_and_build(self):
        import glob
        import os
        from encapnet.network import build_network, parameter_table
        paths = sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), "..", "configs", "*.ini")))
        assert paths, "no shipped configs found"
        for p in paths:
            rc = load_config(p)
            net = build_network(rc.net, seed=0)
            assert parameter_table(net)[1] > 0
