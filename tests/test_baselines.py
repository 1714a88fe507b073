import numpy as np
import pytest

from prune24.baselines import (
    simple_reg_prune,
    sparsegpt_prune,
    wanda_prune,
    wanda_scores,
)
from prune24.harness import toy_problem
from prune24.linalg import hessian_from_data, layer_loss
from prune24.pruner import LambdaSchedule, PruneConfig, is_24_sparse, masked_gd

from bad_inputs import BAD_INPUTS, bad_problem, indefinite_problem
from reference import brute_force_mask_search


def test_wanda_toy():
    W_star, H = toy_problem()
    W, mask = wanda_prune(W_star, H)
    assert np.array_equal(W, [[0, 5, 3, 0, 0, 5, 5, 0]])
    assert layer_loss(W, W_star, H) == pytest.approx(16.0, abs=1e-12)


def test_wanda_identity_hessian_is_magnitude_pruning():
    rng = np.random.default_rng(40)
    W_star = rng.normal(size=(3, 8))
    W, mask = wanda_prune(W_star, np.eye(8))
    cells = np.abs(W_star).reshape(-1, 4)
    for c, kept in zip(cells, mask.reshape(-1, 4)):
        kept_idx = set(np.flatnonzero(kept))
        top2 = set(np.argsort(-c, kind="stable")[:2])
        assert kept_idx == top2


def test_wanda_scores_depend_only_on_diag():
    rng = np.random.default_rng(41)
    W_star = rng.normal(size=(2, 8))
    H1 = np.diag(rng.uniform(0.5, 2.0, size=8))
    H2 = H1.copy()
    H2[0, 1] = H2[1, 0] = 0.7  # off-diagonal noise, same diagonal
    assert np.array_equal(wanda_scores(W_star, H1), wanda_scores(W_star, H2))


def test_wanda_optimal_for_diagonal_hessian():
    rng = np.random.default_rng(42)
    for _ in range(5):
        W_star = rng.normal(size=(2, 8))
        H = np.diag(rng.uniform(0.05, 3.0, size=8))
        W, _ = wanda_prune(W_star, H)
        _, best = brute_force_mask_search(W_star, H)
        assert layer_loss(W, W_star, H) == pytest.approx(best, abs=1e-9)


def test_sparsegpt_toy_defers_loss():
    W_star, H = toy_problem()
    W, mask = sparsegpt_prune(W_star, H)
    wanda_W, wanda_mask = wanda_prune(W_star, H)
    assert np.array_equal(mask, wanda_mask)
    assert layer_loss(W, W_star, H) == pytest.approx(16.0, abs=1e-6)


def test_sparsegpt_identity_hessian_equals_wanda():
    rng = np.random.default_rng(43)
    W_star = rng.normal(size=(3, 12))
    Ws, Ms = sparsegpt_prune(W_star, np.eye(12))
    Ww, Mw = wanda_prune(W_star, np.eye(12))
    assert np.array_equal(Ms, Mw)
    assert np.allclose(Ws, Ww, atol=1e-12)


def test_sparsegpt_diagonal_hessian_equals_wanda():
    rng = np.random.default_rng(44)
    for _ in range(20):
        W_star = rng.normal(size=(2, 8))
        H = np.diag(rng.uniform(0.1, 2.0, size=8))
        Ws, Ms = sparsegpt_prune(W_star, H)
        Ww, Mw = wanda_prune(W_star, H)
        assert np.array_equal(Ms, Mw)
        assert np.allclose(Ws, Ww, atol=1e-10)


def test_sparsegpt_output_exactly_sparse_with_correlations():
    rng = np.random.default_rng(45)
    W_star = rng.normal(size=(4, 16))
    H = hessian_from_data(rng.normal(size=(16, 32)))
    W, mask = sparsegpt_prune(W_star, H)
    assert is_24_sparse(W)
    assert np.all(W[mask == 0.0] == 0.0)


def test_sparsegpt_singular_hessian_raises_without_damping():
    # the damping scales with mean(diag(H)), so the zero hessian gets none
    W_star = np.ones((1, 4))
    H = np.zeros((4, 4))
    with pytest.raises(ValueError, match="singular"):
        sparsegpt_prune(W_star, H)


def test_sparsegpt_indefinite_hessian_raises():
    W_star, H = indefinite_problem()
    assert np.all(np.diag(H) >= 0) and np.linalg.eigvalsh(H)[0] < 0
    with pytest.raises(ValueError, match="singular or indefinite"):
        sparsegpt_prune(W_star, H)


@pytest.mark.parametrize("prune", [wanda_prune, sparsegpt_prune])
@pytest.mark.parametrize("bad, where", BAD_INPUTS)
def test_baselines_reject_non_finite_input(prune, bad, where):
    W_star, H, message = bad_problem(bad, where)
    with pytest.raises(ValueError, match=message):
        prune(W_star, H)


@pytest.mark.parametrize("prune", [wanda_prune, sparsegpt_prune])
def test_baselines_reject_bad_shapes(prune):
    W_star, H = toy_problem()
    for bad in (H[:4, :4], H[:, :4], np.eye(12)):
        with pytest.raises(ValueError, match="hessian shape"):
            prune(W_star, bad)
    with pytest.raises(ValueError, match="matrix"):
        prune(W_star[0], H)


def _sparsegpt_reference(W_star, H):
    """Per-block-inverse SparseGPT: re-invert the trailing damped hessian for
    every 4-column block and compensate one row at a time."""
    W = np.array(W_star, dtype=np.float64)
    d = W.shape[1]
    Hd = H + 1e-8 * float(np.mean(np.diag(H))) * np.eye(d)
    for b in range(0, d, 4):
        rest = np.arange(b, d)
        Hinv = np.linalg.inv(Hd[np.ix_(rest, rest)])
        scores = W[:, b : b + 4] ** 2 / np.diag(Hinv)[:4][None, :]
        prune_local = np.argsort(scores, axis=1, kind="stable")[:, :2]
        for r in range(W.shape[0]):
            q = np.sort(prune_local[r])
            coef = np.linalg.solve(Hinv[np.ix_(q, q)], W[r, b + q])
            W[r, rest] -= Hinv[:, q] @ coef
            W[r, b + q] = 0.0
    return W, (W != 0.0).astype(np.float64)


def _dead_half(X):
    X[::2] = 0.0  # every other input channel never fires
    return X


@pytest.mark.parametrize("rows", [1, 8, 33])
@pytest.mark.parametrize("d, samples, kill, full_rank", [
    (64, 256, False, True),   # correlated
    (64, 256, True, True),    # half the channels dead
    (64, 16, False, False),   # rank 16
    (256, 8, False, False),   # rank 8
])
def test_sparsegpt_matches_per_block_inverse_reference(rows, d, samples, kill, full_rank):
    rng = np.random.default_rng([rows, d, samples, kill])
    W_star = rng.normal(size=(rows, d))
    X = rng.normal(size=(d, samples))
    H = hessian_from_data(_dead_half(X) if kill else X)
    W, mask = sparsegpt_prune(W_star, H)
    W_ref, mask_ref = _sparsegpt_reference(W_star, H)
    assert np.array_equal(mask, mask_ref)
    tol = 1e-9
    if not full_rank:
        # The 1e-8 damping leaves cond(Hd) near 1e9 here. Both float64 versions
        # then carry a forward error that scales as eps * cond(Hd), measured at
        # ~1e-8 against a 40-digit reference; they differ by up to 0.3 of it.
        Hd = H + 1e-8 * float(np.mean(np.diag(H))) * np.eye(d)
        tol = np.finfo(float).eps * np.linalg.cond(Hd)
    assert np.max(np.abs(W - W_ref)) <= tol * np.max(np.abs(W_ref))


def test_masked_gd_after_baselines_never_hurts():
    rng = np.random.default_rng(46)
    for _ in range(5):
        W_star = rng.normal(size=(2, 12))
        H = hessian_from_data(rng.normal(size=(12, 24)))
        for prune in (wanda_prune, sparsegpt_prune):
            W, mask = prune(W_star, H)
            before = layer_loss(W, W_star, H)
            after = layer_loss(masked_gd(W, W_star, H, mask, 200)[0], W_star, H)
            assert after <= before + 1e-10


def test_simple_reg_r1_toy_reaches_exact_sparsity():
    W_star, H = toy_problem()
    W, mask, report = simple_reg_prune(W_star, H, "R1")
    assert is_24_sparse(W)
    assert report.terminated_by == "sparsity_reached"
    # the closed-form penalties commit per cell and miss the correlated fix
    assert layer_loss(W, W_star, H) == pytest.approx(16.0, abs=1e-6)


def test_simple_reg_r0_one_application_when_threshold_exceeded():
    W_star, H = toy_problem()
    sched = LambdaSchedule(lambda0=1e4)  # above 0.5 * z3^2 for every cell
    W, _, report = simple_reg_prune(W_star, H, "R0", sched=sched)
    assert report.iterations == 1
    assert is_24_sparse(W)


def test_simple_reg_r2_always_hits_iteration_cap():
    W_star, H = toy_problem()
    cfg = PruneConfig(max_iter=60, gd_steps=100)
    W, _, report = simple_reg_prune(W_star, H, "R2", cfg=cfg)
    assert report.terminated_by == "max_iter"
    assert is_24_sparse(W)  # clamped at the cap


def test_simple_reg_unknown_kind():
    with pytest.raises(ValueError):
        simple_reg_prune(np.ones((1, 4)), np.eye(4), "R7")


def test_brute_force_toy():
    W_star, H = toy_problem()
    mask, loss = brute_force_mask_search(W_star, H)
    assert loss == pytest.approx(9.0, abs=1e-12)
    assert np.array_equal(mask, [[0, 1, 0, 1, 0, 1, 1, 0]])


def test_brute_force_already_sparse_is_free():
    W_star = np.array([[0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 1.0, 0.0]])
    H = np.eye(8)
    _, loss = brute_force_mask_search(W_star, H)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_brute_force_rejects_large_instances():
    with pytest.raises(ValueError, match="too large"):
        brute_force_mask_search(np.ones((1, 36)), np.eye(36))
