import sys

import numpy as np
import pytest

from prune24 import pruner
from prune24.baselines import simple_reg_prune, sparsegpt_prune, wanda_prune
from prune24.cells import prox_cells, prox_simple_cells
from prune24.harness import SyntheticSpec, gen_synthetic, toy_problem
from prune24.linalg import hessian_from_data, layer_loss, max_eigenvalue, precondition
from prune24.pruner import (
    LambdaSchedule,
    PruneConfig,
    _CHECK_ROWS,
    check_problem,
    clamp_top2,
    is_24_sparse,
    mask_of,
    masked_gd,
    proximal_prune_loop,
    prune_prox,
    schedule_lambda,
)

from bad_inputs import BAD_INPUTS, bad_problem, indefinite_problem
from reference import _masked_least_squares_loss, brute_force_mask_search


def test_schedule_defaults():
    s = LambdaSchedule()
    assert schedule_lambda(s, 0) == pytest.approx(0.01)
    assert schedule_lambda(s, 1) == pytest.approx(0.0101)


def test_schedule_adaptive():
    s = LambdaSchedule(lambda0_tilde=1e-3)
    W = np.full((1, 4), 0.02)
    assert schedule_lambda(s, 0, W) == pytest.approx(0.05)


def test_schedule_adaptive_errors():
    s = LambdaSchedule(lambda0_tilde=1e-3)
    with pytest.raises(ValueError):
        schedule_lambda(s, 0, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        schedule_lambda(s, 0)
    with pytest.raises(ValueError):
        schedule_lambda(LambdaSchedule(), -1)


def test_schedule_caps_overflow_at_largest_float():
    s = LambdaSchedule(beta=1.2)
    lam = schedule_lambda(s, 5000)  # 1.2**5000 overflows a float
    assert np.isfinite(lam) and lam == sys.float_info.max
    assert schedule_lambda(LambdaSchedule(lambda0=1e300, beta=1.2), 200) == sys.float_info.max


def test_is_24_sparse_and_mask():
    W = np.array([[0.0, 2.0, 0.0, -1.0, 0.0, 3.0, 0.5, 0.0]])
    assert is_24_sparse(W)
    assert np.array_equal(mask_of(W), [[0, 1, 0, 1, 0, 1, 1, 0]])
    assert not is_24_sparse(np.ones((1, 4)))


def test_toy_prox_solution_is_sparse():
    W = np.array([[0.0, 5.0, 0.0, 4.0, 0.0, 5.0, 5.0, 0.0]])
    assert is_24_sparse(W)
    assert np.array_equal(mask_of(W), [[0, 1, 0, 1, 0, 1, 1, 0]])


def test_mask_requires_multiple_of_four():
    with pytest.raises(ValueError):
        is_24_sparse(np.ones((1, 6)))
    with pytest.raises(ValueError):
        mask_of(np.ones((2, 5)))


def test_mask_eps_threshold():
    # the threshold is exact zero: a tiny entry counts, a signed zero does not
    W = np.array([[1e-300, 2.0, -0.0, 0.0]])
    assert np.array_equal(mask_of(W), [[1, 1, 0, 0]])
    assert is_24_sparse(W)
    assert not is_24_sparse(np.array([[1e-300, 2.0, -1e-300, 0.0]]))


def test_clamp_top2_keeps_largest_and_breaks_ties_low_index_first():
    W = np.array([[3.0, -4.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
    out = clamp_top2(W)
    assert np.array_equal(out, [[3.0, -4.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])


def test_every_top2_rule_keeps_the_lower_column_of_a_tie():
    # clamp_top2 (the max_iter clamp; through keep_top2 also wanda and
    # sparsegpt) and the sort reduction of the cell proxes keep the same two
    # weights of a tied cell
    C = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 5.0, 5.0, 5.0],
                  [3.0, 2.0, 2.0, 1.0], [-2.0, 2.0, -2.0, 1.0]])
    expect = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 5.0, 5.0, 0.0],
                       [3.0, 2.0, 0.0, 0.0], [-2.0, 2.0, 0.0, 0.0]])
    assert np.array_equal(clamp_top2(C), expect)
    assert np.array_equal(prox_cells(C, sys.float_info.max), expect)
    assert np.array_equal(prox_simple_cells(C, 1e300, "R0"), expect)
    for prune in (wanda_prune, sparsegpt_prune):
        W, mask = prune(C.reshape(1, 16), np.eye(16))
        assert np.array_equal(W, expect.reshape(1, 16)), prune.__name__
        assert np.array_equal(mask, expect.reshape(1, 16) != 0.0), prune.__name__


def test_masked_gd_diagonal_recovers_kept_weights():
    rng = np.random.default_rng(30)
    W_star = rng.normal(size=(2, 8))
    H = np.diag(rng.uniform(0.2, 1.0, size=8))
    W, mask = wanda_prune(W_star, H)
    out, _ = masked_gd(W, W_star, H, mask, 500)
    assert np.allclose(out, W_star * mask, atol=1e-10)
    expect = float(np.sum((1 - mask) * W_star ** 2 * np.diag(H)[None, :]))
    assert layer_loss(out, W_star, H) == pytest.approx(expect, rel=1e-12)


def test_masked_gd_toy_merges_correlated_pair():
    W_star, H = toy_problem()
    mask = np.array([[0.0, 1, 0, 1, 0, 1, 1, 0]])
    W0 = W_star * mask
    assert layer_loss(W0, W_star, H) == pytest.approx(13.0)
    out, _ = masked_gd(W0, W_star, H, mask, 1000)
    assert out[0, 3] == pytest.approx(4.0, abs=1e-9)
    assert layer_loss(out, W_star, H) == pytest.approx(9.0, abs=1e-9)


def test_masked_gd_zero_steps_is_identity():
    W_star, H = toy_problem()
    mask = mask_of(W_star * np.array([[0.0, 1, 1, 0, 0, 1, 1, 0]]))
    W0 = W_star * mask
    assert np.array_equal(masked_gd(W0, W_star, H, mask, 0)[0], W0)


def test_masked_gd_masked_entries_exactly_zero_and_monotone():
    rng = np.random.default_rng(31)
    W_star = rng.normal(size=(3, 8))
    H = hessian_from_data(rng.normal(size=(8, 6)))  # rank-deficient is fine
    _, mask = wanda_prune(W_star, H)
    W = W_star * mask
    prev = layer_loss(W, W_star, H)
    for _ in range(20):
        W, _ = masked_gd(W, W_star, H, mask, 5)
        cur = layer_loss(W, W_star, H)
        assert cur <= prev + 1e-12
        assert np.all(W[mask == 0.0] == 0.0)
        prev = cur


def _layer(rows, d, alpha, seed):
    """(W*, H) drawn like the benchmark's instances: H = alpha diag(U) +
    (1 - alpha) G G^T / d, which is ill-conditioned for small alpha."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(d, d)) / np.sqrt(d)
    H = alpha * np.diag(rng.uniform(size=d)) + (1.0 - alpha) * G @ G.T
    return rng.normal(size=(rows, d)), 0.5 * (H + H.T)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_masked_gd_first_steps_are_the_plain_recurrence(k):
    W_star, H = _layer(8, 256, 0.5, 50)
    W, mask = wanda_prune(W_star, H)
    eta = 1.0 / (2.0 * max_eigenvalue(H))
    expect = W * mask
    for _ in range(k):
        expect = expect - (2.0 * eta) * (mask * (expect @ H - W_star @ H))
    out, steps = masked_gd(W, W_star, H, mask, k)
    assert steps == k
    assert np.array_equal(out, expect)


def test_masked_gd_takes_every_step_while_the_gradient_still_falls():
    # cond(H) is near 1e4, so 50 steps are far from the roundoff floor
    W_star, H = _layer(8, 256, 0.001, 51)
    W, mask = wanda_prune(W_star, H)
    _, steps = masked_gd(W, W_star, H, mask, 50)
    assert steps == 50


def test_masked_gd_stops_early_at_the_masked_least_squares_optimum():
    W_star, H = _layer(8, 256, 0.5, 52)
    W, mask = wanda_prune(W_star, H)
    out, steps = masked_gd(W, W_star, H, mask, 1000)
    assert steps < 500
    best = np.vstack([_masked_least_squares_loss(W_star[r], H, mask[r])[1]
                      for r in range(W_star.shape[0])])
    assert np.linalg.norm(out - best) <= 1e-12 * np.linalg.norm(best)


def test_masked_gd_stops_within_two_steps_on_a_diagonal_hessian():
    rng = np.random.default_rng(53)
    W_star = rng.normal(size=(2, 8))
    # from wanda's weights the masked gradient is exactly zero at once; from
    # zero, the step 1/gamma_max of H = 4I lands on W* mask in one step
    for H, start in ((np.diag(rng.uniform(0.2, 1.0, size=8)), "wanda"), (4.0 * np.eye(8), "zero")):
        W, mask = wanda_prune(W_star, H)
        if start == "zero":
            W = np.zeros_like(W)
        out, steps = masked_gd(W, W_star, H, mask, 1000)
        assert steps <= 2, start
        assert np.array_equal(out, W_star * mask), start


def test_masked_gd_never_returns_a_higher_loss_than_its_start():
    rng = np.random.default_rng(54)
    for alpha in (1.0, 0.5, 0.1, 0.01):
        W_star, H = _layer(4, 64, alpha, int(rng.integers(1 << 30)))
        starts = [prune(W_star, H) for prune in (wanda_prune, sparsegpt_prune)]
        _, mask = starts[0]
        starts.append((rng.normal(size=W_star.shape) * mask, mask))
        for W, mask in starts:
            for steps in (1, 10, 1000):
                out, _ = masked_gd(W, W_star, H, mask, steps)
                assert layer_loss(out, W_star, H) <= layer_loss(W, W_star, H), (alpha, steps)


def test_prune_prox_toy_exact():
    W_star, H = toy_problem()
    W, mask, report = prune_prox(W_star, H)
    assert np.array_equal(mask, [[0, 1, 0, 1, 0, 1, 1, 0]])
    assert np.allclose(W, [[0, 5, 0, 4, 0, 5, 5, 0]], atol=1e-7)
    assert layer_loss(W, W_star, H) == pytest.approx(9.0, abs=1e-6)
    assert report.terminated_by == "sparsity_reached"
    assert report.iterations > 0
    assert report.final_lambda > 0


def test_prune_prox_already_sparse_short_circuits():
    W_star = np.array([[0.0, 2.0, 0.0, 1.0, 3.0, 0.0, 0.0, -1.0]])
    H = np.eye(8)
    W, mask, report = prune_prox(W_star, H)
    assert report.iterations == 0
    assert np.allclose(W, W_star, atol=1e-12)
    assert layer_loss(W, W_star, H) == pytest.approx(0.0, abs=1e-20)
    assert np.array_equal(mask, mask_of(W_star))
    assert report.loss_trace  # nonempty even without any iterations


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prune_prox_is_row_separable(seed):
    # the loss separates by rows and the fixed schedule does not read W*
    # (the adaptive one reads mean |W*| over the whole matrix), so each row
    # pruned alone gets the joint run's mask
    _, H = gen_synthetic(SyntheticSpec(d=64, alpha=0.5, seed=seed))
    W_star = np.random.default_rng(seed).normal(size=(6, 64))
    W, mask, _ = prune_prox(W_star, H)
    rows = [prune_prox(W_star[i:i + 1], H) for i in range(W_star.shape[0])]
    assert np.array_equal(np.vstack([m for _, m, _ in rows]), mask)
    joint = layer_loss(W, W_star, H)
    alone = layer_loss(np.vstack([w for w, _, _ in rows]), W_star, H)
    assert abs(alone - joint) <= 1e-9 * joint


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prune_prox_is_signed_permutation_equivariant(seed):
    # permuting the cells, permuting within each cell and flipping column
    # signs, with H transformed to match, permutes the mask and keeps the
    # iteration count and the loss
    _, H = gen_synthetic(SyntheticSpec(d=32, alpha=0.5, seed=seed))
    rng = np.random.default_rng(seed)
    W_star = rng.normal(size=(4, 32))
    P = np.concatenate([4 * c + rng.permutation(4) for c in rng.permutation(8)])
    S = rng.choice([-1.0, 1.0], size=32)
    W_p = (W_star * S)[:, P]
    H_p = (S[:, None] * H * S[None, :])[np.ix_(P, P)]
    W, mask, report = prune_prox(W_star, H)
    W_q, mask_q, report_q = prune_prox(W_p, H_p)
    assert np.array_equal(mask_q, mask[:, P])
    assert report_q.iterations == report.iterations
    loss = layer_loss(W, W_star, H)
    assert abs(layer_loss(W_q, W_p, H_p) - loss) <= 1e-9 * loss


def test_prune_prox_diagonal_matches_exhaustive_optimum():
    rng = np.random.default_rng(32)
    for seed in range(3):
        W_star = rng.normal(size=(1, 8))
        H = np.diag(rng.uniform(0.1, 2.0, size=8))
        W, mask, _ = prune_prox(W_star, H)
        _, best = brute_force_mask_search(W_star, H)
        wanda_W, _ = wanda_prune(W_star, H)
        assert layer_loss(W, W_star, H) == pytest.approx(best, abs=1e-6)
        assert layer_loss(wanda_W, W_star, H) == pytest.approx(best, abs=1e-9)


def test_prune_prox_output_exactly_sparse_and_respects_mask():
    rng = np.random.default_rng(33)
    W_star = rng.normal(size=(2, 16))
    H = hessian_from_data(rng.normal(size=(16, 40)))
    W, mask, report = prune_prox(W_star, H)
    assert is_24_sparse(W)
    assert np.array_equal(mask_of(W), mask)
    assert np.all(W[mask == 0.0] == 0.0)
    # the masked gradient steps do not raise the loss at which the mask froze
    (_, frozen), (_, final) = report.loss_trace[-2:]
    assert final <= frozen + 1e-10


def _record_masked_steps(monkeypatch):
    """Wrap pruner.masked_gd; returns the list of step counts it returned."""
    taken = []

    def recording(*args):
        W, steps = masked_gd(*args)
        taken.append(steps)
        return W, steps

    monkeypatch.setattr(pruner, "masked_gd", recording)
    return taken


@pytest.mark.parametrize("max_iter, exit_entries", [(5000, 1), (3, 2)])
def test_prune_prox_trace_has_one_entry_per_iteration_and_a_final_one(monkeypatch, max_iter,
                                                                      exit_entries):
    taken = _record_masked_steps(monkeypatch)
    rng = np.random.default_rng(35)
    W_star = rng.normal(size=(1, 8))
    H = hessian_from_data(rng.normal(size=(8, 12)))
    cfg = PruneConfig(max_iter=max_iter, gd_steps=50)
    W, _, report = prune_prox(W_star, H, cfg=cfg)
    assert report.terminated_by == ("max_iter" if exit_entries == 2 else "sparsity_reached")
    trace = report.loss_trace
    assert len(trace) == report.iterations + exit_entries
    assert [i for i, _ in trace[:report.iterations]] == list(range(1, report.iterations + 1))
    [steps] = taken
    assert steps <= cfg.gd_steps
    assert trace[-1][0] == report.iterations + steps
    assert trace[-1][1] == pytest.approx(layer_loss(W, W_star, H), rel=1e-9)


@pytest.mark.parametrize("run", [
    lambda W, H: prune_prox(W, H),
    lambda W, H: simple_reg_prune(W, H, "R1"),
], ids=["prox", "R1"])
def test_final_trace_index_counts_the_masked_steps_taken(monkeypatch, run):
    taken = _record_masked_steps(monkeypatch)
    W_star, H = _layer(4, 64, 0.5, 55)
    _, _, report = run(W_star, H)
    [steps] = taken
    assert 0 < steps < PruneConfig().gd_steps
    assert report.loss_trace[-1][0] == report.iterations + steps


@pytest.mark.parametrize("cell_prox, max_iter", [
    (prox_cells, 5000),
    (lambda cells, lam: prox_simple_cells(cells, lam, "R2"), 50),
], ids=["prox", "R2"])
def test_in_loop_trace_is_the_layer_loss_of_each_iterate(cell_prox, max_iter):
    # the in-loop entries come from the step's residual, not from layer_loss
    _, H = gen_synthetic(SyntheticSpec(d=32, alpha=0.5, seed=4))
    W_star = np.random.default_rng(4).normal(size=(4, 32))
    iterates = []

    def recording(cells, lam):
        out = cell_prox(cells, lam)
        iterates.append(out.reshape(W_star.shape))
        return out

    _, _, report = proximal_prune_loop(W_star, H, None, PruneConfig(max_iter=max_iter),
                                       recording)
    assert report.iterations == len(iterates) > 0
    W_t, H_t, _ = precondition(W_star, H)
    floor = 1e-12 * np.sum(W_t ** 2)
    for (k, loss), W_k in zip(report.loss_trace, iterates):
        assert loss == pytest.approx(layer_loss(W_k, W_t, H_t), rel=1e-9, abs=floor), k


@pytest.mark.parametrize("run, calls", [
    (lambda W, H: prune_prox(W, H), 1),
    (lambda W, H: prune_prox(W, H, cfg=PruneConfig(max_iter=3)), 2),
    (lambda W, H: simple_reg_prune(W, H, "R1"), 1),
    (lambda W, H: simple_reg_prune(W, H, "R2", cfg=PruneConfig(max_iter=50)), 2),
], ids=["prox", "prox-max_iter", "R1", "R2-max_iter"])
def test_layer_loss_runs_only_for_the_exit_entries(monkeypatch, run, calls):
    count = []

    def counting(*args):
        count.append(1)
        return layer_loss(*args)

    monkeypatch.setattr(pruner, "layer_loss", counting)
    rng = np.random.default_rng(37)
    _, _, report = run(rng.normal(size=(2, 16)), hessian_from_data(rng.normal(size=(16, 40))))
    assert report.iterations > 0
    assert len(count) == calls


@pytest.mark.parametrize("sched, cfg", [
    (LambdaSchedule(lambda0=0.0), PruneConfig()),
    (LambdaSchedule(lambda0=-0.01), PruneConfig()),
    (LambdaSchedule(lambda0_tilde=0.0), PruneConfig()),
    (LambdaSchedule(beta=1.0), PruneConfig()),
    (LambdaSchedule(beta=0.9), PruneConfig()),
    (LambdaSchedule(), PruneConfig(max_iter=-1)),
    (LambdaSchedule(), PruneConfig(gd_steps=-1)),
    (LambdaSchedule(), PruneConfig(max_iter=2.5)),
    (LambdaSchedule(), PruneConfig(gd_steps=2.7)),
])
def test_proximal_pipeline_rejects_schedules_that_cannot_work(sched, cfg):
    W_star, H = toy_problem()
    with pytest.raises(ValueError):
        prune_prox(W_star, H, sched, cfg)
    with pytest.raises(ValueError):
        simple_reg_prune(W_star, H, "R1", sched, cfg)


def test_masked_gd_rejects_bad_input():
    rng = np.random.default_rng(36)
    W_star = rng.normal(size=(2, 8))
    H = np.eye(8)
    W, mask = wanda_prune(W_star, H)
    bad = W_star.copy()
    bad[1, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        masked_gd(W, bad, H, mask, 10)
    with pytest.raises(ValueError, match="shape of W"):
        masked_gd(W, W_star, H, mask[:1], 10)  # would broadcast over the rows
    with pytest.raises(ValueError, match="nonnegative"):
        masked_gd(W, W_star, H, mask, -1)


def test_masked_gd_rejects_non_finite_weights_fractional_masks_and_fractional_steps():
    rng = np.random.default_rng(36)
    W_star = rng.normal(size=(2, 8))
    H = np.eye(8)
    W, mask = wanda_prune(W_star, H)
    for value, kept in ((np.nan, 0.0), (np.inf, 1.0)):  # a masked-out, then a kept entry
        bad_W = W.copy()
        bad_W[0, np.flatnonzero(mask[0] == kept)[0]] = value
        with pytest.raises(ValueError, match="W must be finite"):
            masked_gd(bad_W, W_star, H, mask, 10)
    with pytest.raises(ValueError, match="0 or 1"):
        masked_gd(W, W_star, H, np.where(mask == 1.0, 0.75, 0.25), 10)
    for steps in (2.7, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            masked_gd(W, W_star, H, mask, steps)
    assert masked_gd(W, W_star, H, mask.astype(bool), np.int64(3))[1] <= 3


def test_prune_prox_deterministic():
    rng = np.random.default_rng(34)
    W_star = rng.normal(size=(1, 16))
    H = hessian_from_data(rng.normal(size=(16, 20)))
    W1, m1, r1 = prune_prox(W_star, H)
    W2, m2, r2 = prune_prox(W_star, H)
    assert np.array_equal(W1, W2)
    assert np.array_equal(m1, m2)
    assert r1.iterations == r2.iterations
    assert r1.loss_trace == r2.loss_trace


def test_prune_prox_max_iter_fallback_clamps():
    rng = np.random.default_rng(35)
    W_star = rng.normal(size=(1, 8))
    H = hessian_from_data(rng.normal(size=(8, 12)))
    cfg = PruneConfig(max_iter=3, gd_steps=50)
    W, mask, report = prune_prox(W_star, H, cfg=cfg)
    assert report.terminated_by == "max_iter"
    assert report.iterations == 3
    assert is_24_sparse(W)
    assert np.array_equal(mask_of(W), mask)


@pytest.mark.parametrize("bad, where", BAD_INPUTS)
def test_proximal_pipeline_rejects_non_finite_input(bad, where):
    W_star, H, message = bad_problem(bad, where)
    with pytest.raises(ValueError, match=message):
        prune_prox(W_star, H)
    with pytest.raises(ValueError, match=message):
        simple_reg_prune(W_star, H, "R1")


def test_symmetry_scan_covers_every_block_of_h():
    # one entry of H off its mirror in the first, a middle and the last row
    # block of the scan, above and below the diagonal; d = 68 leaves the
    # last block partial
    d = 68
    assert d % _CHECK_ROWS != 0
    rng = np.random.default_rng(68)
    W_star, H = rng.normal(size=(2, d)), hessian_from_data(rng.normal(size=(d, 80)))
    check_problem(W_star, H)
    for i, j in [(0, 5), (5, 0), (33, 40), (40, 33), (64, 67), (67, 64)]:
        bad = H.copy()
        bad[i, j] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            check_problem(W_star, bad)


def test_proximal_pipeline_rejects_an_indefinite_hessian():
    # the spectral certificate rejects H before any iteration, whatever W*.
    # Unchecked, the loss with this H's own W* goes negative within 10 outer
    # iterations and runs on to -1e252. With the toy W*, prox, R0 and R1 end
    # normally and no traced loss is negative, so only a test of H finds it.
    W_own, H = indefinite_problem()
    for W_star in (W_own, toy_problem()[0]):
        with pytest.raises(ValueError, match="indefinite"):
            prune_prox(W_star, H)
        for kind in ("R0", "R1", "R2"):
            with pytest.raises(ValueError, match="indefinite"):
                simple_reg_prune(W_star, H, kind)


# ---------------------------------------------------------------------------
# scale equivariance of the adaptive schedule


def _rel_loss(W, W_star, H):
    return layer_loss(W, W_star, H) / layer_loss(np.zeros_like(W_star), W_star, H)


_ADAPTIVE = LambdaSchedule(lambda0_tilde=1e-3)
_SCALE_INSTANCES = {
    "toy": toy_problem(),
    "synth16": gen_synthetic(SyntheticSpec(d=16, alpha=0.5, seed=3)),
}


@pytest.fixture(scope="module")
def unscaled():
    out = {}
    for name, (W_star, H) in _SCALE_INSTANCES.items():
        W, mask, rep = prune_prox(W_star, H, _ADAPTIVE)
        out[name] = (mask, rep.iterations, _rel_loss(W, W_star, H))
    return out


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 0.5, 8.0, 1e2, 1e4])
@pytest.mark.parametrize("name", sorted(_SCALE_INSTANCES))
def test_prune_prox_adaptive_schedule_is_scale_equivariant(unscaled, name, scale):
    # the adaptive penalty tracks mean |W*|, so scaling W* by c scales the
    # solution by c: same mask, same iteration count, same relative loss
    W_star, H = _SCALE_INSTANCES[name]
    mask, iterations, rel = unscaled[name]
    W_c, mask_c, rep_c = prune_prox(scale * W_star, H, _ADAPTIVE)
    assert np.array_equal(mask_c, mask)
    assert rep_c.iterations == iterations
    assert _rel_loss(W_c, scale * W_star, H) == pytest.approx(rel, rel=1e-12)
