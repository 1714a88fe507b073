"""Tests of the benchmark itself.

The workloads run at width 16 with a faster penalty schedule (``tiny=True``);
at full size one pass takes 20 to 40 seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from prune24.harness import SyntheticSpec, gen_synthetic
from prune24.matio import write_matrix

from perfbench import bench, checks
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny run per workload, on a seed used nowhere else."""
    return {name: bench.run(name, 424242, 0, 1, tmp_path_factory.mktemp(name), tiny=True)[0]
            for name in bench.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(traced, name):
    record = traced[name]
    assert record["failed"] == 0, record["problems"]
    assert record["missing_wraps"] == []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = bench.result_line(record, trace)
        assert line["correct"] and line["attempted"] == record["attempted"] > 0
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert all(v > 0 for v in record["end_to_end"].values())


def test_layer_split_follows_the_workload(traced):
    row, base = traced["row128"]["per_layer"], traced["baselines1024"]["per_layer"]
    assert row["cells.prox_calls"] > 0 and row["baselines.sparsegpt_gflop"] == 0
    assert base["cells.prox_calls"] == 0 and base["baselines.sparsegpt_gflop"] > 0
    assert base["pruner.masked_gd_s"] > 0 and base["cells.prox_simple_s"] > 0


def test_counts_and_rel_loss_repeat_for_one_seed(traced, tmp_path):
    again, _ = bench.run("layer256", 424242, 0, 1, tmp_path, tiny=True)
    first = traced["layer256"]
    for name in ("pruner.outer_iters", "cells.cells", "linalg.layer_loss_calls"):
        assert again["per_layer"][name] == first["per_layer"][name] > 0
    assert again["end_to_end"]["rel_loss"] == first["end_to_end"]["rel_loss"]
    assert [c["mask_sha256"] for c in again["calls"]] == [c["mask_sha256"] for c in first["calls"]]


def test_generator_is_byte_identical_per_seed(tmp_path):
    wl = bench.WORKLOADS["layer256"]
    files = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        instances, _, _ = bench.set_up(wl, 31, tmp_path / sub)
        files.append([p.read_bytes() for i in instances for p in (i.w_path, i.h_path)])
    assert files[0] == files[1]
    for alpha, W, H in bench.gen_instances(bench.WORKLOADS["row128"], 31):
        W_ref, H_ref = gen_synthetic(SyntheticSpec(d=128, alpha=alpha, seed=31))
        assert W.tobytes() == W_ref.tobytes() and H.tobytes() == H_ref.tobytes()


def _checked(tmp_path, W_out, mask):
    _, W, H = bench.gen_instances(bench.Workload(1, 8, (0.5,), ()), 5)[0]
    inst = bench.Instance(0.5, W, H, None, None, 1.0)
    write_matrix(tmp_path / "out0_W.prx", W_out)
    write_matrix(tmp_path / "out0_M.prx", mask)
    return bench.check_pass([(0, "wanda")], [inst], tmp_path, [0], [0.0])[0]["problems"]


def test_output_check_rejects_planted_defects(tmp_path):
    W = np.array([[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]])
    mask = (W != 0).astype(np.float64)
    assert _checked(tmp_path, W, mask) == []

    three = W.copy()
    three[0, 1] = 5.0
    assert any("more than 2" in p for p in _checked(tmp_path, three, (three != 0) * 1.0))

    flipped = mask.copy()
    flipped[0, 3] = 1.0
    assert any("mask differs" in p for p in _checked(tmp_path, W, flipped))

    nan = W.copy()
    nan[0, 0] = np.nan
    assert any("non-finite" in p for p in _checked(tmp_path, nan, mask))


def test_readback_check_rejects_a_changed_payload():
    W = np.array([[1.0, 0.0, 2.0, 0.0]])
    data = b"PRX1" + (1).to_bytes(4, "little") + (1).to_bytes(8, "little") \
        + (4).to_bytes(8, "little") + W.astype("<f8").tobytes()
    assert checks.check_readback(data, W) == []
    assert checks.check_readback(data, W + 1e-300) == ["PRX1 readback is not bit-exact"]
    assert "malformed" in checks.check_readback(data[:-1], W)[0]


def test_loss_checks():
    calls = [
        {"instance": 0, "alpha": 0.5, "method": "wanda", "loss": 2.0, "wanda_loss": 2.0},
        {"instance": 0, "alpha": 0.5, "method": "wanda-gd", "loss": 2.5, "wanda_loss": 2.0},
        {"instance": 1, "alpha": 1.0, "method": "prox", "loss": 3.0 * (1 + 1e-8),
         "wanda_loss": 3.0},
        {"instance": 1, "alpha": 1.0, "method": "l0", "wanda_loss": 3.0},  # no readable output
    ]
    assert sorted(checks.check_losses(calls)) == [1, 2]
    calls[1]["loss"], calls[2]["loss"] = 1.5, 3.0 * (1 + 1e-12)
    assert checks.check_losses(calls) == {}


def test_missing_wrapped_name_is_reported():
    tracer = Tracer()
    tracer.install({"cli": types.ModuleType("cli"), "pruner": types.ModuleType("pruner"),
                    "baselines": types.ModuleType("baselines")})
    assert "pruner.prox_cells" in tracer.missing and tracer.spans == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "row128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
