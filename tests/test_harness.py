import numpy as np
import pytest

from prune24.harness import (
    BenchRow,
    SyntheticSpec,
    benchmark_csv,
    gen_synthetic,
    reg_path_csv,
    reg_path_sweep,
    run_benchmark,
    toy_problem,
)
from prune24.linalg import layer_loss

from reference import is_psd


def test_toy_problem_structure():
    W_star, H = toy_problem()
    assert W_star.shape == (1, 8) and H.shape == (8, 8)
    assert np.array_equal(W_star[0], [0, 5, 3, 2, 0, 5, 5, 2])
    assert np.array_equal(H, H.T)
    eigs = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eigs, [0.0] + [1.0] * 6 + [2.0], atol=1e-12)


def test_toy_problem_reference_losses():
    W_star, H = toy_problem()
    merged = np.array([[0.0, 5, 0, 4, 0, 5, 5, 0]])
    per_cell = np.array([[0.0, 5, 3, 0, 0, 5, 5, 0]])
    assert layer_loss(merged, W_star, H) == pytest.approx(9.0)
    assert layer_loss(per_cell, W_star, H) == pytest.approx(16.0)


def test_gen_synthetic_alpha_one_is_diagonal():
    W, H = gen_synthetic(SyntheticSpec(d=16, alpha=1.0, seed=4))
    assert W.shape == (1, 16)
    off = H[~np.eye(16, dtype=bool)]
    assert np.all(off == 0.0)
    diag = np.diag(H)
    assert np.all(diag >= 0.0) and np.all(diag < 1.0)


def test_gen_synthetic_alpha_zero_is_gram():
    _, H = gen_synthetic(SyntheticSpec(d=16, alpha=0.0, seed=5))
    assert np.allclose(H, H.T)
    np.linalg.cholesky(H + 1e-12 * np.eye(16))


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_gen_synthetic_psd_across_mixes(alpha):
    _, H = gen_synthetic(SyntheticSpec(d=24, alpha=alpha, seed=6))
    assert is_psd(H, tol=1e-10)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(SyntheticSpec(d=12, alpha=0.5, seed=7))
    b = gen_synthetic(SyntheticSpec(d=12, alpha=0.5, seed=7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = gen_synthetic(SyntheticSpec(d=12, alpha=0.5, seed=8))
    assert not np.array_equal(a[0], c[0])


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(SyntheticSpec(d=10, alpha=0.5, seed=0))
    with pytest.raises(ValueError):
        gen_synthetic(SyntheticSpec(d=8, alpha=1.5, seed=0))


def test_reg_path_lambda_zero_row():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    rows, lam2 = reg_path_sweep(z, [0.0, 0.5])
    lam, w1, w2, w3, w4, case = rows[0]
    assert case == "dense"
    assert np.allclose([w1, w2, w3, w4], z, atol=1e-8)
    assert lam2 == pytest.approx(0.8 / 1.76)


def test_reg_path_gradual_sparsification_easy_input():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    grid = np.geomspace(0.01, 5.0, 80)
    rows, lam2 = reg_path_sweep(z, grid)
    first_w4_zero = next(lam for lam, *w, c in rows if abs(w[3]) < 1e-12)
    first_w3_zero = next(lam for lam, *w, c in rows if abs(w[2]) < 1e-12)
    assert first_w4_zero < first_w3_zero  # one coordinate dies before the other
    first_two_sparse = next(lam for lam, *_, c in rows if c == "two_sparse")
    assert first_two_sparse >= lam2


def test_reg_path_near_ties_delay_the_transition():
    grid = np.geomspace(0.01, 50.0, 120)
    easy, _ = reg_path_sweep(np.array([1.6, 1.1, 0.8, 0.5]), grid)
    hard, _ = reg_path_sweep(np.array([1.6, 1.59, 1.58, 1.57]), grid)

    def transition(rows):
        return next(lam for lam, *_, c in rows if c == "two_sparse")

    assert transition(hard) > transition(easy)


def test_reg_path_grid_validation():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    with pytest.raises(ValueError):
        reg_path_sweep(z, [0.5])
    with pytest.raises(ValueError):
        reg_path_sweep(z, [0.5, 0.4])


def test_run_benchmark_small():
    rows = run_benchmark([1.0, 0.5], 8, [0, 1], ["wanda", "wanda-gd"])
    assert len(rows) == 8
    keys = [(r.alpha, r.seed, r.method) for r in rows]
    assert keys == sorted(keys)
    assert all(r.loss >= 0 for r in rows)
    by = {(r.alpha, r.seed, r.method): r.loss for r in rows}
    for alpha in (1.0, 0.5):
        for seed in (0, 1):
            assert by[(alpha, seed, "wanda-gd")] <= by[(alpha, seed, "wanda")] + 1e-12


def test_run_benchmark_deterministic_apart_from_runtime():
    a = run_benchmark([0.5], 8, [0], ["wanda", "sparsegpt"])
    b = run_benchmark([0.5], 8, [0], ["wanda", "sparsegpt"])
    sig = lambda rows: [(r.method, r.alpha, r.seed, r.loss, r.iterations) for r in rows]
    assert sig(a) == sig(b)


def test_run_benchmark_empty_seeds():
    rows = run_benchmark([1.0], 8, [], ["wanda"])
    assert rows == []
    csv = benchmark_csv(rows)
    assert csv == "method,alpha,seed,loss,runtime_s,iterations\n"


def test_run_benchmark_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        run_benchmark([1.0], 8, [0], ["magnitude"])


def test_csv_shapes():
    rows = [BenchRow("wanda", 1.0, 0, 0.25, 0.001, 0)]
    out = benchmark_csv(rows).splitlines()
    assert out[0].startswith("method,")
    assert out[1].split(",")[0] == "wanda"
    path = reg_path_csv([(0.1, 1.0, 0.5, 0.2, 0.0, "dense")], 0.45).splitlines()
    assert path[0].split(",")[:2] == ["lambda", "w1"]
    assert path[1].endswith(",dense,0.45")
