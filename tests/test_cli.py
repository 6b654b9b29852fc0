"""End-to-end command line flows on tiny synthetic configs."""

import tracemalloc

import numpy as np
import pytest

from encapnet.cli import main
from metrics_csv import read_metrics

ENCAP_INI = """
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
n_type2 = 0
ot = main

[train]
lr = 0.002
schedule = 20
max_epochs = 2
batch_size = 8
lam = 1.0
weight_decay = 0.0

[data]
source = synthetic
n_train = 32
n_test = 16
"""

CAPNET_INI = """
[net]
family = capnet_dynamic
n_classes = 4
image_size = 12
caps_channels = 4
hidden_caps = 2
hidden_dim = 4
class_caps_dim = 4
routing_iters = 2

[stem]
channels = 16
strides = 2

[train]
lr = 0.002
schedule = 20
max_epochs = 1
batch_size = 8
lam = 0.0
weight_decay = 0.0

[data]
source = synthetic
n_train = 24
n_test = 12
"""


@pytest.fixture
def encap_ini(tmp_path):
    p = tmp_path / "encap.ini"
    p.write_text(ENCAP_INI)
    return str(p)


@pytest.fixture
def capnet_ini(tmp_path):
    p = tmp_path / "capnet.ini"
    p.write_text(CAPNET_INI)
    return str(p)


def test_param_count(encap_ini, capsys):
    assert main(["param-count", "--config", encap_ini, "--per-layer"]) == 0
    out = capsys.readouterr().out
    assert "parameters" in out
    assert "capfc.weight" in out


def test_train_then_eval(encap_ini, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", encap_ini, "--out-dir", out_dir,
                 "--quiet"]) == 0
    train_out = capsys.readouterr().out
    assert "best eval error" in train_out
    ckpt = f"{out_dir}/final.encp"
    assert main(["eval", "--checkpoint", ckpt, "--batch", "16"]) == 0
    eval_out = capsys.readouterr().out
    assert "error" in eval_out
    # the eval error printed must equal the final train-loop eval error
    rows = [r for r in read_metrics(f"{out_dir}/metrics.csv")
            if r["split"] == "eval"]
    printed = float([ln for ln in eval_out.splitlines() if "error" in ln][0]
                    .split("error")[1].split()[0])
    assert printed == pytest.approx(rows[-1]["error"], abs=1e-12)


def test_train_overrides(encap_ini, tmp_path, capsys):
    out_dir = str(tmp_path / "run2")
    assert main(["train", "--config", encap_ini, "--out-dir", out_dir,
                 "--max-epochs", "1", "--lam", "0", "--seed", "5",
                 "--quiet"]) == 0
    rows = read_metrics(f"{out_dir}/metrics.csv")
    assert max(int(r["epoch"]) for r in rows) == 0
    assert all(r["ot_m1"] is None for r in rows)


@pytest.mark.parametrize("ini, line, bad_line, message", [
    (ENCAP_INI, "dim_out = 4\n", "", "[module1] needs dim_out"),
    (ENCAP_INI, "dim_out = 4", "dim_out = abc", "[module1] dim_out = 'abc' is not a valid int"),
    (ENCAP_INI, "stride = 2", "stride = 0",
     "module needs dim_out >= 1, stride >= 1 and n_type2 >= 0, got 4, 0 and 0"),
    (CAPNET_INI, "caps_channels = 4", "caps_channels = 0", "caps_channels must be >= 1, got 0"),
], ids=["missing_dims", "bad_int", "zero_stride", "zero_caps_channels"])
def test_bad_config_exits_with_message(tmp_path, capsys, ini, line, bad_line, message):
    p = tmp_path / "bad.ini"
    p.write_text(ini.replace(line, bad_line, 1))
    assert main(["param-count", "--config", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_data_dir_under_synthetic_source_rejected(encap_ini, tmp_path, capsys):
    # the synthetic source reads no files, so a directory for them is an error
    out_dir = tmp_path / "run"
    assert main(["train", "--config", encap_ini, "--out-dir", str(out_dir),
                 "--quiet", "--data-dir", str(tmp_path / "nonexistent")]) == 2
    assert capsys.readouterr().err == "error: --data-dir is not read by source = synthetic\n"
    assert not out_dir.exists()


def test_gradcheck_core(capsys):
    assert main(["gradcheck", "--group", "core"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_ot_bench(capsys):
    assert main(["ot-bench", "--n", "3", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "worst" in out.lower()


def test_routing_hist(capnet_ini, tmp_path, capsys):
    out_dir = str(tmp_path / "caprun")
    assert main(["train", "--config", capnet_ini, "--out-dir", out_dir,
                 "--quiet"]) == 0
    capsys.readouterr()
    csv_path = str(tmp_path / "hist.csv")
    assert main(["routing-hist", "--checkpoint", f"{out_dir}/final.encp",
                 "--out", csv_path, "--limit", "12"]) == 0
    out = capsys.readouterr().out
    assert "mass" in out
    import csv as csvmod
    with open(csv_path, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert len(rows) == 21
    total = sum(float(r[2]) for r in rows[1:])
    assert total == pytest.approx(100.0, abs=1e-6)


def test_routing_hist_memory_does_not_grow_with_limit(tmp_path, capsys):
    # an untrained capnet checkpoint over 320 synthetic test images; the
    # hidden layer's (B, n1, n2) cosines and lengths are 0.66 MB a batch, so
    # holding every batch's until the end would double the peak from 160 to 320
    from encapnet.checkpoint import save_checkpoint
    from encapnet.configfile import parse_config_text
    from encapnet.network import build_network

    ini = CAPNET_INI.replace("n_test = 12", "n_test = 320")
    rc = parse_config_text(ini)
    ckpt = str(tmp_path / "capnet.encp")
    save_checkpoint(ckpt, build_network(rc.net, seed=rc.train.seed), config_text=ini)
    peaks = {}
    for limit in (160, 320):
        tracemalloc.start()
        try:
            assert main(["routing-hist", "--checkpoint", ckpt, "--layer", "hidden",
                         "--batch", "8", "--limit", str(limit),
                         "--out", str(tmp_path / f"h{limit}.csv")]) == 0
            peaks[limit] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"over {limit} examples" in capsys.readouterr().out
    assert peaks[320] < 1.1 * peaks[160], peaks


def test_routing_hist_rejects_encapnet(encap_ini, tmp_path, capsys):
    out_dir = str(tmp_path / "encrun")
    assert main(["train", "--config", encap_ini, "--out-dir", out_dir,
                 "--max-epochs", "1", "--quiet"]) == 0
    capsys.readouterr()
    rc = main(["routing-hist", "--checkpoint", f"{out_dir}/final.encp",
               "--out", str(tmp_path / "h.csv")])
    assert rc != 0


def test_train_rejects_lam_without_feedback_unit(capnet_ini, tmp_path, capsys):
    out_dir = tmp_path / "caprun"
    assert main(["train", "--config", capnet_ini, "--out-dir", str(out_dir),
                 "--lam", "10", "--quiet"]) == 2
    assert "capnet_dynamic model has no feedback unit" in capsys.readouterr().err
    assert not out_dir.exists()
