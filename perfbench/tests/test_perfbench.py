"""Tests of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import run
from conftest import BENCH, ROOT

WORKLOADS = run.WORKLOAD_NAMES
COUNTS = ("tensor.nodes_per_step", "tensor.node_mb_per_step",
          "tensor.conv2d.calls_per_step", "sinkhorn.solves_per_step")
# self times must account for this share of the traced phases' wall time;
# the rest is the harness fetching batches between steps
COVERAGE_TOLERANCE = 0.03


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(WORKLOADS) == set(harness.WORKLOADS) == set(harness.TINY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, monkeypatch, tmp_path,
                                            capsys):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (harness.run(workload, seed=7, seconds=0.5, trace=True)
                     ["result"]["metrics"]
                     for _ in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["tensor.nodes_per_step"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_traced_wall_time(workload):
    out = harness.run(workload, seed=3, seconds=1, trace=True)
    cols = out["tracer"].table()
    assert (cols["self_ns"] >= 0).all()
    in_steps = cols["step"] >= 0
    roots = in_steps & (cols["parent"] < 0)
    # nested spans partition each root exactly
    assert cols["self_ns"][in_steps].sum() == cols["dur_ns"][roots].sum()
    cover = out["detail"]["trace_coverage"]
    assert 1 - COVERAGE_TOLERANCE <= cover["share"] <= 1.0


def test_tracer_restores_the_library():
    from encapnet import capsules, network, tensor
    before = (tensor.conv2d, tensor.Tensor.backward, capsules.squash, network.squash,
              network.EncapNet.__call__)
    harness.run("synth_train", seed=1, seconds=0.2, trace=True)
    after = (tensor.conv2d, tensor.Tensor.backward, capsules.squash, network.squash,
             network.EncapNet.__call__)
    assert all(a is b for a, b in zip(before, after))


def test_failed_check_fails_the_run(monkeypatch):
    from encapnet import gradcheck
    monkeypatch.setattr(gradcheck, "DEFAULT_TOL", 0.0)
    out = harness.run("synth_train", seed=1, seconds=0.2, trace=False)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] >= 1
    assert any("gradcheck" in f for f in out["detail"]["failures"])


def test_exception_counts_as_failed_operation(monkeypatch):
    from encapnet import training

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(training, "evaluate", broken)
    out = harness.run("routing_train", seed=1, seconds=0.2, trace=False)
    # the eval phase of each round fails once and ends
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == harness.ROUNDS
    assert all("injected" in f for f in out["detail"]["failures"])


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
