import numpy as np
import pytest

from prune24 import baselines, pruner
from prune24.baselines import _invert_lower, simple_reg_prune, sparsegpt_prune, wanda_prune
from prune24.cells import prox_simple_cells
from prune24.harness import SyntheticSpec, gen_synthetic, toy_problem
from prune24.linalg import hessian_from_data, layer_loss
from prune24.pruner import (
    LambdaSchedule,
    PruneConfig,
    is_24_sparse,
    keep_top2,
    masked_gd,
    proximal_prune_loop,
    schedule_lambda,
)

from bad_inputs import BAD_INPUTS, bad_problem, indefinite_problem
from reference import brute_force_mask_search, r2_prune_unsettled


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


def test_wanda_prune_depends_only_on_diag():
    rng = np.random.default_rng(41)
    W_star = rng.normal(size=(2, 8))
    H1 = np.diag(rng.uniform(0.5, 2.0, size=8))
    H2 = H1.copy()
    H2[0, 1] = H2[1, 0] = 0.7  # off-diagonal noise, same diagonal
    W1, mask1 = wanda_prune(W_star, H1)
    W2, mask2 = wanda_prune(W_star, H2)
    assert np.array_equal(W1, W2) and np.array_equal(mask1, mask2)
    # the scores weigh |w| by sqrt(H_jj): a channel whose diagonal outweighs
    # the rest of its cell keeps its weight in every row
    H3 = H1.copy()
    H3[1, 1] = 1e6
    _, mask3 = wanda_prune(W_star, H3)
    assert np.all(mask3[:, 1] == 1.0)
    assert np.array_equal(mask3[:, 4:], mask1[:, 4:])


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


@pytest.mark.parametrize("d, samples", [(260, 1024), (512, 64)], ids=["full-rank", "rank-64"])
def test_invert_lower_matches_a_dense_inverse(d, samples):
    # the factor sparsegpt_prune inverts: the index-reversed damped hessian's
    H = hessian_from_data(np.random.default_rng([d, samples]).normal(size=(d, samples)))
    Hd = H[::-1, ::-1] + 1e-8 * float(np.mean(np.diag(H))) * np.eye(d)
    L = np.linalg.cholesky(Hd)
    ref = np.linalg.inv(L)
    inv = _invert_lower(L)
    assert inv is L  # in place
    assert np.all(np.triu(inv, 1) == 0.0)
    assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_r2_prox_shrinks_dropped_entries_below_the_smaller_kept_one():
    # the inequality simple_reg_prune's R2 clamp rests on
    rng = np.random.default_rng(60)
    for lam in 10.0 ** rng.uniform(-3, 12, size=20):
        C = rng.normal(size=(500, 4)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1))
        C[:50, 1] = C[:50, 0]  # ties
        A = np.abs(prox_simple_cells(C, lam, "R2"))
        kept = keep_top2(np.abs(C))
        smaller_kept = np.min(np.where(kept, A, np.inf), axis=1)
        assert np.all(A[~kept].reshape(-1, 2) <= (smaller_kept / (1.0 + lam))[:, None])


def _r2(cells, lam):
    return prox_simple_cells(cells, lam, "R2")


def _record_settle(monkeypatch):
    """Wrap the R2 settling check; returns the list of iterations at which
    a check settled (at most one per run)."""
    settled = []
    make = baselines._r2_settle

    def recording(*args):
        check = make(*args)

        def checking(k, V, lam):
            out = check(k, V, lam)
            if out is not None:
                settled.append(k)
            return out

        return checking

    monkeypatch.setattr(baselines, "_r2_settle", recording)
    return settled


@pytest.mark.parametrize("rows, d, alpha, seed", [
    *[(1, 32, alpha, seed) for alpha in (1.0, 0.5, 0.3) for seed in (1, 2, 3)],
    *[(4, 64, 0.5, seed) for seed in (1, 2)],
])
def test_simple_reg_r2_stops_at_the_shrinkage_bound_with_the_full_budget_mask(monkeypatch, rows,
                                                                               d, alpha, seed):
    settled = _record_settle(monkeypatch)
    _, H = gen_synthetic(SyntheticSpec(d=d, alpha=alpha, seed=seed))
    W_star = np.random.default_rng(seed).normal(size=(rows, d))
    W, mask, report = simple_reg_prune(W_star, H, "R2")
    W_full, mask_full, report_full = proximal_prune_loop(W_star, H, None, None, _r2)
    assert report_full.terminated_by == "max_iter"
    assert report.terminated_by == "sparsity_reached"
    bound = 1.0 / np.sqrt(np.finfo(float).eps)
    first = next(k for k in range(5000) if 1.0 + schedule_lambda(LambdaSchedule(), k) >= bound)
    # iteration 2275 where no check settles, fewer where one does
    assert first + 1 == 2275
    assert report.iterations == (settled[0] + 1 if settled else first + 1)
    assert report.iterations <= 2275
    assert np.array_equal(mask, mask_full)
    assert layer_loss(W, W_star, H) == pytest.approx(layer_loss(W_full, W_star, H), rel=1e-12)


def _benchmark_style_layer(rows, d, alpha, seed):
    """H = alpha diag(U) + (1 - alpha) G G^T / d, as in the benchmark."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(d, d)) / np.sqrt(d)
    H = alpha * np.diag(rng.uniform(size=d)) + (1.0 - alpha) * G @ G.T
    return rng.normal(size=(rows, d)), 0.5 * (H + H.T)


@pytest.mark.parametrize("rows, d, alpha, seed, settles", [
    *[(1, 32, 0.5, seed, None) for seed in (11, 12, 13)],
    *[(4, 64, alpha, 14, None) for alpha in (0.3, 0.7)],
    *[(8, 128, 0.5, seed, None) for seed in (15, 16)],
    (16, 256, 0.5, 17, None),
    (2, 512, 0.2, 18, None),
    (8, 1024, 0.5, 19, True),
])
def test_r2_settle_keeps_the_mask_of_the_unsettled_run(monkeypatch, rows, d, alpha, seed,
                                                       settles):
    W_star, H = _benchmark_style_layer(rows, d, alpha, seed)
    W_ref, mask_ref, report_ref = r2_prune_unsettled(W_star, H)
    assert report_ref.iterations == 2275
    settled = _record_settle(monkeypatch)
    taken = []
    solve = pruner._masked_cg

    def recording(*args):
        W, steps = solve(*args)
        taken.append(steps)
        return W, steps

    monkeypatch.setattr(pruner, "_masked_cg", recording)
    W, mask, report = simple_reg_prune(W_star, H, "R2")
    assert report.terminated_by == "sparsity_reached"
    assert report.iterations == (settled[0] + 1 if settled else 2275)
    if settles:
        assert report.iterations < 2275
    assert np.array_equal(mask, mask_ref)
    assert layer_loss(W, W_star, H) == pytest.approx(layer_loss(W_ref, W_star, H), rel=1e-12)
    # the settling check's recovery, or the loop's own, is the last one run
    assert report.loss_trace[-1][0] == report.iterations + taken[-1]


def _r2_full_check(k, V, lam, last, sched, cfg, H_t, WsH, gamma):
    """The settling check of _r2_settle without its screen: the recovery
    from V T, the bound 2 c S_J + rho and the margins, as its docstring
    states them. Returns whether every margin beats the bound."""
    d, c = WsH.shape[1], 1.0 + 2.0 * baselines._PSD_RTOL
    keep = keep_top2(np.abs(V))
    mask = keep.astype(np.float64)
    x, _ = pruner._masked_cg(V * mask, WsH, H_t, mask, cfg.gd_steps)
    g = (x @ H_t - WsH) / gamma
    allow = d * np.finfo(float).eps * (np.linalg.norm(V, axis=1)
                                       + np.linalg.norm(WsH, axis=1) / gamma)
    rho = np.linalg.norm(g * mask, axis=1) + allow
    G = np.linalg.norm(g - g * mask, axis=1) + allow
    u = 1.0 / (1.0 + lam * sched.beta ** np.arange(1.0, last - k))
    tail = np.append(np.cumprod((c * (1.0 + u))[::-1])[::-1], 1.0)
    S = (tail[0] * (np.linalg.norm(V * mask - x, axis=1)
                    + np.linalg.norm(V - V * mask, axis=1) / (1.0 + lam))
         + tail[1:].sum() * rho + (u * tail[1:]).sum() * G)
    kept = np.min(np.where(keep, np.abs(x), np.inf).reshape(-1, 4), axis=1)
    dropped = np.max(np.where(keep, 0.0, np.abs(g)).reshape(-1, 4), axis=1)
    margin = np.min((kept - dropped).reshape(V.shape[0], -1), axis=1)
    return bool(np.all(margin > 2.0 * c * S + rho))


def test_r2_settle_screen_skips_only_checks_that_cannot_pass(monkeypatch):
    # the screen in front of each check's recovery skips the decade checks
    # at lam = 100 and 1000, which the full check fails, and on the settling
    # check's iterate at a lam lowered step by step past the full check's
    # threshold, each verdict is the full check's
    W_star, H = _benchmark_style_layer(8, 1024, 0.5, 19)
    make, args, seen, recoveries = baselines._r2_settle, [], {}, []
    solve = pruner._masked_cg
    monkeypatch.setattr(pruner, "_masked_cg",
                        lambda *a: recoveries.append(1) or solve(*a))

    def recording(*a):
        args.append(a)
        check = make(*a)

        def checking(k, V, lam):
            before = len(recoveries)
            out = check(k, V, lam)
            seen[k] = (V.copy(), lam, out is not None, len(recoveries) > before)
            return out

        return checking

    monkeypatch.setattr(baselines, "_r2_settle", recording)
    W, mask, report = simple_reg_prune(W_star, H, "R2")
    [(sched, cfg, W_t, H_t, WsH, gamma)] = args
    last = 2274  # the first iteration whose prox clamps
    settle = report.iterations - 1
    assert seen[settle][2] and seen[settle][3]
    for decade in (100.0, 1000.0):
        k = next(k for k in range(last) if schedule_lambda(sched, k) >= decade)
        V, lam, settled, recovered = seen[k]
        assert not settled and not recovered, k
        assert not _r2_full_check(k, V, lam, last, sched, cfg, H_t, WsH, gamma), k
    V, lam = seen[settle][:2]
    verdicts = []
    for f in (1.0, 1.005, 1.01, 1.02, 1.05, 1.2, 2.0):
        full = _r2_full_check(settle, V, lam / f, last, sched, cfg, H_t, WsH, gamma)
        fresh = make(sched, cfg, W_t, H_t, WsH, gamma)(settle, V, lam / f)
        assert (fresh is not None) == full, f
        verdicts.append(full)
    assert verdicts[0] and not verdicts[-1]


def _near_tie_layer(tie):
    """(W*, H) with a diagonal H, which rescales to the identity: the R2
    pipeline's gradient step then returns the rescaled W* itself, and the
    mask is its top-2 set. In cell 0 of row 0 the larger dropped entry is
    the smaller kept one times 1 - tie, so that cell's margin is tie."""
    rng = np.random.default_rng(70)
    d = 64
    H = np.diag(rng.uniform(0.5, 2.0, size=d))
    W_star = rng.normal(size=(2, d))
    W_star[0, :4] = np.array([3.0, 1.0, 1.0 - tie, 0.2]) / np.sqrt(np.diag(H)[:4])
    return W_star, H


def test_r2_settle_leaves_a_near_tie_to_the_shrinkage_clamp(monkeypatch):
    settled = _record_settle(monkeypatch)
    # margins of half the kept size: the check settles long before the clamp
    W_star, H = _near_tie_layer(0.5)
    W, mask, report = simple_reg_prune(W_star, H, "R2")
    assert settled and report.iterations < 2275
    assert np.array_equal(mask, r2_prune_unsettled(W_star, H)[1])
    # a margin of 1e-12 of the kept size stays below the bound: the run is
    # today's, bit for bit, clamped at iteration 2275
    settled.clear()
    W_star, H = _near_tie_layer(1e-12)
    W, mask, report = simple_reg_prune(W_star, H, "R2")
    W_ref, mask_ref, report_ref = r2_prune_unsettled(W_star, H)
    assert not settled
    assert report.iterations == report_ref.iterations == 2275
    assert np.array_equal(mask[0, :4], [1.0, 1.0, 0.0, 0.0])
    assert W.tobytes() == W_ref.tobytes()
    assert report.loss_trace == report_ref.loss_trace


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
