import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import prune24
from prune24 import cli
from prune24.baselines import sparsegpt_prune, wanda_prune
from prune24.cli import METHODS, main, run_method
from prune24.harness import SyntheticSpec, gen_synthetic, run_benchmark
from prune24.linalg import layer_loss
from prune24.matio import load_matrix, save_matrix
from prune24.pruner import (
    LambdaSchedule,
    PruneConfig,
    clamp_top2,
    is_24_sparse,
    mask_of,
    masked_gd,
)

from bad_inputs import bad_problem, indefinite_problem


@pytest.fixture
def instance(tmp_path):
    w = tmp_path / "w.bin"
    h = tmp_path / "h.bin"
    assert main(["synth", "--d", "8", "--alpha", "0.5", "--seed", "1",
                 "--out-weights", str(w), "--out-hessian", str(h)]) == 0
    return w, h


@pytest.mark.parametrize("method", METHODS)
def test_prune_all_methods(tmp_path, instance, method):
    w, h = instance
    out = tmp_path / "out.bin"
    mask = tmp_path / "mask.csv"
    code = main(["prune", "--method", method, "--weights", str(w), "--hessian", str(h),
                 "--out", str(out), "--mask-out", str(mask),
                 "--gd-steps", "50", "--max-iter", "400"])
    assert code == 0
    W = load_matrix(out)
    M = load_matrix(mask)
    assert is_24_sparse(W)
    assert set(np.unique(M)) <= {0.0, 1.0}
    assert np.array_equal((np.abs(W) > 0).astype(float), M)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_leaves_a_24_sparse_input_unchanged(method):
    _, H = gen_synthetic(SyntheticSpec(d=16, alpha=0.5, seed=5))
    W_star = clamp_top2(np.random.default_rng(5).normal(size=(3, 16)))
    W_star[1, 4:8] = [0.0, 0.0, -0.7, 0.0]  # a cell with a single nonzero
    W, mask, iters = run_method(method, W_star, H, LambdaSchedule(), PruneConfig())
    assert np.abs(W - W_star).max() <= 4 * np.spacing(np.abs(W_star).max())
    assert layer_loss(W, W_star, H) <= 1e-25
    if method in ("prox", "l0", "l1", "l2"):
        assert iters == 0
    if method.startswith("wanda"):
        # wanda keeps 2 entries per cell by design, zero or not
        assert np.all(mask.reshape(-1, 4).sum(axis=1) == 2)
        assert np.all(mask[W_star != 0.0] == 1.0)
    else:
        assert np.array_equal(mask, mask_of(W_star))


def test_every_export_resolves():
    # METHODS and run_method come through the package's lazy __getattr__
    for name in prune24.__all__:
        assert getattr(prune24, name) is not None, name
    assert prune24.METHODS is cli.METHODS and prune24.run_method is cli.run_method


@pytest.mark.parametrize("method", METHODS)
def test_bench_row_loss_equals_prune_output_loss(tmp_path, instance, method):
    # the instance fixture is synth --d 8 --alpha 0.5 --seed 1
    w, h = instance
    out = tmp_path / "out.bin"
    assert main(["prune", "--method", method, "--weights", str(w), "--hessian", str(h),
                 "--out", str(out), "--mask-out", str(tmp_path / "mask.bin"),
                 "--gd-steps", "50", "--max-iter", "400"]) == 0
    [row] = run_benchmark([0.5], 8, [1], [method], cfg=PruneConfig(max_iter=400, gd_steps=50))
    assert row.method == method
    assert row.loss == layer_loss(load_matrix(out), load_matrix(w), load_matrix(h))


@pytest.mark.parametrize("method, prune", [("wanda-gd", wanda_prune),
                                           ("sparsegpt-gd", sparsegpt_prune)])
def test_gd_variants_report_the_masked_steps_taken(method, prune):
    W_star, H = gen_synthetic(SyntheticSpec(d=64, alpha=0.5, seed=2))
    cfg = PruneConfig()
    W0, mask = prune(W_star, H)
    expect_W, steps = masked_gd(W0, W_star, H, mask, cfg.gd_steps)
    assert 0 < steps < cfg.gd_steps
    W, _, iterations = run_method(method, W_star, H, LambdaSchedule(), cfg)
    assert iterations == steps
    assert np.array_equal(W, expect_W)
    [row] = run_benchmark([0.5], 64, [2], [method], cfg=cfg)
    assert row.iterations == steps


def test_prune_adaptive_lambda(tmp_path, instance):
    w, h = instance
    code = main(["prune", "--method", "prox", "--weights", str(w), "--hessian", str(h),
                 "--out", str(tmp_path / "o.bin"), "--mask-out", str(tmp_path / "m.bin"),
                 "--adaptive-lambda", "1e-3", "--gd-steps", "20"])
    assert code == 0


def test_eval_loss_roundtrip(tmp_path, instance, capsys):
    w, h = instance
    out = tmp_path / "out.bin"
    mask = tmp_path / "mask.bin"
    main(["prune", "--method", "wanda", "--weights", str(w), "--hessian", str(h),
          "--out", str(out), "--mask-out", str(mask)])
    assert main(["eval-loss", "--weights", str(out), "--ref-weights", str(w),
                 "--hessian", str(h)]) == 0
    loss = float(capsys.readouterr().out.strip())
    assert loss >= 0.0
    # identical files give zero loss
    assert main(["eval-loss", "--weights", str(w), "--ref-weights", str(w),
                 "--hessian", str(h)]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_prox_path_csv(tmp_path):
    out = tmp_path / "path.csv"
    for z in ("1.6,1.1,0.8,0.5", "-1.6,1.1,-0.8,0.5"):  # argparse alone rejects the second
        code = main(["prox-path", "--z", z, "--lambda-min", "0.01",
                     "--lambda-max", "2.0", "--points", "20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,w1,w2,w3,w4,case,lambda2_threshold"
        assert len(lines) == 21
        last = lines[-1].split(",")
        assert last[5] == "two_sparse"
        assert float(last[1]) == float(z.split(",")[0])


def test_prox_path_bad_z(tmp_path):
    code = main(["prox-path", "--z", "1,2,3", "--lambda-min", "0.1",
                 "--lambda-max", "1.0", "--points", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_synth_csv_output(tmp_path):
    w = tmp_path / "w.csv"
    h = tmp_path / "h.csv"
    assert main(["synth", "--d", "8", "--alpha", "1.0", "--seed", "0",
                 "--out-weights", str(w), "--out-hessian", str(h)]) == 0
    H = load_matrix(h)
    assert H.shape == (8, 8)
    assert np.all(H[~np.eye(8, dtype=bool)] == 0.0)


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--alphas", "1.0,0.5", "--d", "8", "--seeds", "2",
                 "--methods", "wanda,wanda-gd,sparsegpt", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,alpha,seed,loss,runtime_s,iterations"
    assert len(lines) == 1 + 2 * 2 * 3
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"wanda", "wanda-gd", "sparsegpt"}


def test_bench_rejects_unknown_method(tmp_path):
    for method in ("nope", "wanda+gd"):  # the -gd variants have one spelling
        code = main(["bench", "--alphas", "1.0", "--d", "8", "--seeds", "1",
                     "--methods", method, "--out", str(tmp_path / "b.csv")])
        assert code == 1


def test_toy_command(capsys):
    assert main(["toy", "--method", "wanda"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "method wanda"
    assert out[1] == "weights 0 5 3 0 0 5 5 0"
    assert out[2] == "mask 0 1 1 0 0 1 1 0"
    assert float(out[3].split()[1]) == pytest.approx(16.0)


def test_toy_prox_finds_better_mask(capsys):
    assert main(["toy", "--method", "prox", "--gd-steps", "400"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "mask 0 1 0 1 0 1 1 0"
    assert float(out[3].split()[1]) == pytest.approx(9.0, abs=1e-5)


def test_missing_file_is_one_line_error(tmp_path, capsys):
    code = main(["eval-loss", "--weights", "missing.bin",
                 "--ref-weights", "missing.bin", "--hessian", "missing.bin"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_console_entry_point(tmp_path):
    # exercise the script end to end in a subprocess that imports the same
    # package as this test, installed or not
    path = [str(Path(prune24.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    r = subprocess.run([sys.executable, "-m", "prune24.cli", "toy", "--method", "l1"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "loss" in r.stdout


def test_shape_mismatch_fails_cleanly(tmp_path, instance, capsys):
    w, h = instance
    bad = tmp_path / "bad.bin"
    save_matrix(bad, np.ones((2, 12)))
    code = main(["prune", "--method", "wanda", "--weights", str(bad), "--hessian", str(h),
                 "--out", str(tmp_path / "o.bin"), "--mask-out", str(tmp_path / "m.bin")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_prune_l2_steep_schedule_runs_out_budget(tmp_path, instance):
    # beta**k overflows a float near k=3893, inside the default 5000 iterations
    w, h = instance
    out = tmp_path / "o.bin"
    code = main(["prune", "--method", "l2", "--weights", str(w), "--hessian", str(h),
                 "--out", str(out), "--mask-out", str(tmp_path / "m.bin"), "--beta", "1.2"])
    assert code == 0
    W = load_matrix(out)
    assert np.all(np.isfinite(W)) and is_24_sparse(W)


@pytest.mark.parametrize("method, flags", [
    ("prox", ["--lambda0", "0"]),
    ("l1", ["--adaptive-lambda", "0"]),
    ("prox", ["--beta", "1"]),
    ("l0", ["--max-iter", "-1"]),
    ("prox", ["--gd-steps", "-1"]),
    ("wanda-gd", ["--gd-steps", "-1"]),
    ("prox", ["--lambda0", "-1e-3"]),  # argparse alone would read -1e-3 as an option
    ("l2", ["--adaptive-lambda", "-1e-3"]),
])
def test_prune_rejects_schedules_that_cannot_work(tmp_path, instance, capsys, method, flags):
    w, h = instance
    out = tmp_path / "o.bin"
    code = main(["prune", "--method", method, "--weights", str(w), "--hessian", str(h),
                 "--out", str(out), "--mask-out", str(tmp_path / "m.bin"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_prune_rejects_nan_weights(tmp_path, instance, capsys):
    w, h = instance
    W = load_matrix(w)
    W[0, 1] = np.nan
    save_matrix(tmp_path / "nan.bin", W)
    cases = [(tmp_path / "nan.bin", h, "finite")]
    for bad in ("neg", "asym"):  # H = -I, and an asymmetric H
        W_star, H, message = bad_problem(bad, "H")
        save_matrix(tmp_path / "toy.bin", W_star)
        save_matrix(tmp_path / f"{bad}.bin", H)
        cases.append((tmp_path / "toy.bin", tmp_path / f"{bad}.bin", message))
    for weights, hessian, message in cases:
        for method in ("prox", "wanda", "sparsegpt-gd"):
            out = tmp_path / f"{method}.bin"
            code = main(["prune", "--method", method, "--weights", str(weights),
                         "--hessian", str(hessian), "--out", str(out),
                         "--mask-out", str(tmp_path / "m.bin")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert len(err.strip().splitlines()) == 1
            assert not out.exists()


def test_prune_rejects_an_indefinite_hessian(tmp_path, capsys):
    W_star, H = indefinite_problem()
    save_matrix(tmp_path / "w.bin", W_star)
    save_matrix(tmp_path / "h.bin", H)
    # wanda alone never checks definiteness
    for method in ("prox", "l0", "l1", "l2", "wanda-gd", "sparsegpt", "sparsegpt-gd"):
        out = tmp_path / f"{method}.bin"
        code = main(["prune", "--method", method, "--weights", str(tmp_path / "w.bin"),
                     "--hessian", str(tmp_path / "h.bin"), "--out", str(out),
                     "--mask-out", str(tmp_path / "m.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "indefinite" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("method", METHODS)
def test_prune_rejects_weights_without_columns(tmp_path, capsys, method):
    W_star, H = np.zeros((2, 0)), np.zeros((0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no columns"):
            run_method(method, W_star, H, LambdaSchedule(), PruneConfig())
        save_matrix(tmp_path / "w.bin", W_star)
        save_matrix(tmp_path / "h.bin", H)
        out = tmp_path / "out.bin"
        code = main(["prune", "--method", method, "--weights", str(tmp_path / "w.bin"),
                     "--hessian", str(tmp_path / "h.bin"), "--out", str(out),
                     "--mask-out", str(tmp_path / "m.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no columns" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
