import sys

import numpy as np
import pytest

from prune24.baselines import brute_force_mask_search, simple_reg_prune, wanda_prune
from prune24.harness import SyntheticSpec, gen_synthetic, toy_problem
from prune24.linalg import hessian_from_data, layer_loss
from prune24.pruner import (
    LambdaSchedule,
    PruneConfig,
    clamp_top2,
    is_24_sparse,
    mask_of,
    masked_gd,
    prune_prox,
    schedule_lambda,
)

from bad_inputs import BAD_INPUTS, bad_problem


def test_schedule_defaults():
    s = LambdaSchedule()
    assert schedule_lambda(s, 0) == pytest.approx(0.01)
    assert schedule_lambda(s, 1) == pytest.approx(0.0101)


def test_schedule_adaptive():
    s = LambdaSchedule(adaptive=True, lambda0_tilde=1e-3)
    W = np.full((1, 4), 0.02)
    assert schedule_lambda(s, 0, W) == pytest.approx(0.05)


def test_schedule_adaptive_errors():
    s = LambdaSchedule(adaptive=True, lambda0_tilde=1e-3)
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
    W = np.array([[1e-9, 2.0, 1e-3, 1.0]])
    assert np.array_equal(mask_of(W, eps=1e-6), [[0, 1, 1, 1]])
    assert is_24_sparse(W, eps=1e-2)


def test_clamp_top2_keeps_largest_and_breaks_ties_low_index_first():
    W = np.array([[3.0, -4.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
    out = clamp_top2(W)
    assert np.array_equal(out, [[3.0, -4.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])


def test_masked_gd_diagonal_recovers_kept_weights():
    rng = np.random.default_rng(30)
    W_star = rng.normal(size=(2, 8))
    H = np.diag(rng.uniform(0.2, 1.0, size=8))
    W, mask = wanda_prune(W_star, H)
    out = masked_gd(W, W_star, H, mask, 500)
    assert np.allclose(out, W_star * mask, atol=1e-10)
    expect = float(np.sum((1 - mask) * W_star ** 2 * np.diag(H)[None, :]))
    assert layer_loss(out, W_star, H) == pytest.approx(expect, rel=1e-12)


def test_masked_gd_toy_merges_correlated_pair():
    W_star, H = toy_problem()
    mask = np.array([[0.0, 1, 0, 1, 0, 1, 1, 0]])
    W0 = W_star * mask
    assert layer_loss(W0, W_star, H) == pytest.approx(13.0)
    out = masked_gd(W0, W_star, H, mask, 1000)
    assert out[0, 3] == pytest.approx(4.0, abs=1e-9)
    assert layer_loss(out, W_star, H) == pytest.approx(9.0, abs=1e-9)


def test_masked_gd_zero_steps_is_identity():
    W_star, H = toy_problem()
    mask = mask_of(W_star * np.array([[0.0, 1, 1, 0, 0, 1, 1, 0]]))
    W0 = W_star * mask
    assert np.array_equal(masked_gd(W0, W_star, H, mask, 0), W0)


def test_masked_gd_masked_entries_exactly_zero_and_monotone():
    rng = np.random.default_rng(31)
    W_star = rng.normal(size=(3, 8))
    H = hessian_from_data(rng.normal(size=(8, 6)))  # rank-deficient is fine
    _, mask = wanda_prune(W_star, H)
    W = W_star * mask
    prev = layer_loss(W, W_star, H)
    for _ in range(20):
        W = masked_gd(W, W_star, H, mask, 5)
        cur = layer_loss(W, W_star, H)
        assert cur <= prev + 1e-12
        assert np.all(W[mask == 0.0] == 0.0)
        prev = cur


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
    assert is_24_sparse(W, eps=0.0)
    assert np.array_equal(mask_of(W), mask)
    assert np.all(W[mask == 0.0] == 0.0)
    # the masked gradient steps do not raise the loss at which the mask froze
    (_, frozen), (_, final) = report.loss_trace[-2:]
    assert final <= frozen + 1e-10


@pytest.mark.parametrize("max_iter, exit_entries", [(5000, 1), (3, 2)])
def test_prune_prox_trace_has_one_entry_per_iteration_and_a_final_one(max_iter, exit_entries):
    rng = np.random.default_rng(35)
    W_star = rng.normal(size=(1, 8))
    H = hessian_from_data(rng.normal(size=(8, 12)))
    cfg = PruneConfig(max_iter=max_iter, gd_steps=50)
    W, _, report = prune_prox(W_star, H, cfg=cfg)
    assert report.terminated_by == ("max_iter" if exit_entries == 2 else "sparsity_reached")
    trace = report.loss_trace
    assert len(trace) == report.iterations + exit_entries
    assert [i for i, _ in trace[:report.iterations]] == list(range(1, report.iterations + 1))
    assert trace[-1][0] == report.iterations + cfg.gd_steps
    assert trace[-1][1] == pytest.approx(layer_loss(W, W_star, H), rel=1e-9)


@pytest.mark.parametrize("sched, cfg", [
    (LambdaSchedule(lambda0=0.0), PruneConfig()),
    (LambdaSchedule(lambda0=-0.01), PruneConfig()),
    (LambdaSchedule(adaptive=True, lambda0_tilde=0.0), PruneConfig()),
    (LambdaSchedule(beta=1.0), PruneConfig()),
    (LambdaSchedule(beta=0.9), PruneConfig()),
    (LambdaSchedule(), PruneConfig(max_iter=-1)),
    (LambdaSchedule(), PruneConfig(gd_steps=-1)),
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
    assert is_24_sparse(W, eps=0.0)
    assert np.array_equal(mask_of(W), mask)


@pytest.mark.parametrize("bad, where", BAD_INPUTS)
def test_proximal_pipeline_rejects_non_finite_input(bad, where):
    W_star, H, message = bad_problem(bad, where)
    with pytest.raises(ValueError, match=message):
        prune_prox(W_star, H)
    with pytest.raises(ValueError, match=message):
        simple_reg_prune(W_star, H, "R1")


# ---------------------------------------------------------------------------
# scale equivariance of the adaptive schedule


def _rel_loss(W, W_star, H):
    return layer_loss(W, W_star, H) / layer_loss(np.zeros_like(W_star), W_star, H)


_ADAPTIVE = LambdaSchedule(adaptive=True)
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
