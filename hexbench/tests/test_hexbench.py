"""The benchmark's own tests: tiny-shape smoke runs, the checker, the tracer.

Run from the repository root: ``python3 -m pytest hexbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import workloads
from hexcnn import grads, grid, matmul, nn, ops
from tracer import TARGETS

HEXBENCH = Path(__file__).resolve().parents[1]
ROOT = HEXBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "hexbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--tiny")
    res = last_json(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= harness.MIN_TIMED
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(v["value"]) for v in res["metrics"].values())


def test_same_seed_gives_same_digest():
    record = ROOT / "hexbench" / "results" / "wide-infer-seed9-trace0-tiny.json"
    digests = []
    for _ in range(2):
        last_json(bench("--workload", "wide-infer", "--seed", "9", "--seconds", "0.1", "--trace", "0", "--tiny"))
        digests.append(json.loads(record.read_text())["digest"])
    assert digests[0] == digests[1]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HEXBENCH, tmp_path / "hexbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench("--workload", "lenet-train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize(
    "workload, target",
    [("lenet-train", "train_step"), ("gather-train", "train_step"), ("wide-infer", "forward")],
)
def test_corrupted_output_counts_as_failed(monkeypatch, workload, target):
    run = harness.setup(workload, 2, tiny=True)
    assert run.failed == 0
    real = getattr(nn, target)

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        return out * (1 + 1e-6) if target == "train_step" else (out[0] * (1 + 1e-6), out[1])

    monkeypatch.setattr(nn, target, corrupted)
    assert run.pair() is None
    ms = run.phase(0.0)
    assert ms["native"] == ms["zeroout"] == ms["native.ref"] == []
    assert run.failed == run.attempted - 1 == harness.MIN_TIMED + 1
    assert "layouts differ" in run.errors[0]


def test_non_finite_output_fails():
    case = workloads.make_case("wide-infer", 1, tiny=True)
    logits = case.native(0)
    assert case.check(logits, logits) == (True, 0.0)
    assert not case.check(logits * np.nan, logits)[0]


def test_tracer_patches_every_binding_and_restores_them():
    run = harness.setup("gather-train", 3, tiny=True)
    originals = {(m, f): getattr(sys.modules[m], f) for m, f, _ in TARGETS}
    post_init = grid.HexTensor.__post_init__
    tracer, macs = harness.traced_phase(run, 0.0)
    for expected in ("hexcnn.ops.gemm", "hexcnn.zeronet.gemm", "hexcnn.im2col.gemm"):
        assert expected in tracer.bindings["matmul.gemm"]
    assert "hexcnn.grads.window_columns" in tracer.bindings["ops.window_columns"]
    assert "hexcnn.nn.conv_valid" in tracer.bindings["ops.conv_valid"]
    assert "hexcnn.grads.conv_full" in tracer.bindings["ops.conv_full"]
    assert "hexcnn.ops.pad_rings" in tracer.bindings["grid.pad_rings"]
    assert all(getattr(sys.modules[m], f) is fn for (m, f), fn in originals.items())
    assert ops.gemm is matmul.gemm and grads.window_columns is ops.window_columns
    assert grid.HexTensor.__post_init__ is post_init and len(macs) == harness.MIN_TIMED

    stats = tracer.layer_stats("native")
    assert stats["ops"] == harness.MIN_TIMED
    assert 0.5 < stats["covered_frac"] <= 1.0
    assert stats["layers"]["ops.window_columns"]["calls"] == 5
    for s in stats["layers"].values():
        assert 0.0 <= s["self_ms"] <= s["busy_ms"] + 1e-9


def test_nominal_macs_match_the_filter_gradient_shape():
    # a side-20 input, C=4, F=8, side-2 filters: 1027 windows * 4 * 7 * 8 MACs
    cfg = nn.NetworkConfig(20, 4, (nn.LayerSpec.conv(8, 2), nn.LayerSpec.flatten(), nn.LayerSpec.dense(2),
                                   nn.LayerSpec.softmax()))
    net = nn.build_network(cfg)
    case = workloads.Case("t", True, 1, {}, net, net, [], 0)
    conv = case.nominal_macs()[0]
    assert conv["forward"] == conv["filter_grad"] == 230_048 and conv["input_grad"] == 0
    rect = case.nominal_macs(workloads.rect_taps)[0]
    assert rect["forward"] * 7 == conv["forward"] * 9
