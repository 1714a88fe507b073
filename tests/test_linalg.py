import numpy as np
import pytest

from prune24.linalg import (
    hessian_from_data,
    layer_loss,
    max_eigenvalue,
    precondition,
    unprecondition,
)
from prune24.pruner import mask_of

from reference import is_psd, loss_gradient


def test_hessian_from_identity_samples():
    H = hessian_from_data(np.eye(2))
    assert np.allclose(H, np.diag([0.5, 0.5]))


def test_hessian_single_sample_outer_product():
    H = hessian_from_data(np.array([[1.0], [2.0]]))
    assert np.allclose(H, [[1.0, 2.0], [2.0, 4.0]])


def test_hessian_matches_triple_loop_and_is_psd():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 32))
    H = hessian_from_data(X)
    ref = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            for k in range(32):
                ref[i, j] += X[i, k] * X[j, k]
    ref /= 32
    assert np.allclose(H, ref, atol=1e-12)
    assert np.allclose(H, H.T)
    np.linalg.cholesky(H + 1e-12 * np.eye(8))  # PSD up to jitter


def test_hessian_empty_input():
    with pytest.raises(ValueError, match="no samples"):
        hessian_from_data(np.empty((4, 0)))


def test_layer_loss_zero_at_reference():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 8))
    H = hessian_from_data(rng.normal(size=(8, 16)))
    assert layer_loss(W, W, H) == 0.0


def test_layer_loss_toy_hand_value():
    # correlated pair: delta (0,0,0,-2,0,0,0,-2) against I + coupling(4,8)
    H = np.eye(8)
    H[3, 7] = H[7, 3] = 1.0
    W_star = np.array([[0.0, 5.0, 3.0, 2.0, 0.0, 5.0, 5.0, 2.0]])
    W = np.array([[0.0, 5.0, 3.0, 0.0, 0.0, 5.0, 5.0, 0.0]])
    assert layer_loss(W, W_star, H) == pytest.approx(16.0, abs=1e-12)


def test_layer_loss_unit_row_identity():
    W_star = np.zeros((1, 4))
    W = np.array([[0.0, 1.0, 0.0, 0.0]])
    assert layer_loss(W, W_star, np.eye(4)) == pytest.approx(1.0)


def test_layer_loss_shape_mismatch():
    with pytest.raises(ValueError):
        layer_loss(np.zeros((1, 4)), np.zeros((2, 4)), np.eye(4))
    with pytest.raises(ValueError):
        layer_loss(np.zeros((1, 4)), np.zeros((1, 4)), np.eye(5))


def test_gradient_zero_at_reference_and_identity_form():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(2, 4))
    W_star = rng.normal(size=(2, 4))
    assert np.allclose(loss_gradient(W, W, np.eye(4)), 0.0)
    assert np.allclose(loss_gradient(W, W_star, np.eye(4)), 2.0 * (W - W_star))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    W = rng.normal(size=(4, 8))
    W_star = rng.normal(size=(4, 8))
    H = hessian_from_data(rng.normal(size=(8, 20)))
    G = loss_gradient(W, W_star, H)
    h = 1e-6
    for _ in range(12):
        i, j = rng.integers(4), rng.integers(8)
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += h
        Wm[i, j] -= h
        fd = (layer_loss(Wp, W_star, H) - layer_loss(Wm, W_star, H)) / (2 * h)
        assert G[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_max_eigenvalue_simple():
    assert max_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-9)
    assert max_eigenvalue(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, rel=1e-8)


def test_max_eigenvalue_vs_dense_solver():
    rng = np.random.default_rng(5)
    G = rng.normal(size=(16, 16))
    H = G @ G.T
    ref = float(np.linalg.eigvalsh(H)[-1])
    assert max_eigenvalue(H) == pytest.approx(ref, rel=1e-8)


def test_max_eigenvalue_all_ones_start_in_null_space():
    # the ones vector lies in this matrix's null space, which defeats a power
    # iteration started from it; the eigendecomposition has no start vector
    H = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert max_eigenvalue(H) == pytest.approx(2.0, rel=1e-8)
    assert max_eigenvalue(np.zeros((3, 3))) == 0.0


def test_max_eigenvalue_rejects_an_indefinite_matrix():
    with pytest.raises(ValueError, match="indefinite"):
        max_eigenvalue(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="indefinite"):
        max_eigenvalue(-np.eye(3))


def test_max_eigenvalue_accepts_a_rank_deficient_hessian():
    # rank 6 of 16: the zero eigenvalues come out negative only by roundoff
    H = hessian_from_data(np.random.default_rng(9).normal(size=(16, 6)))
    eigs = np.linalg.eigvalsh(H)
    assert eigs[0] < 0.0
    assert max_eigenvalue(H) == pytest.approx(eigs[-1], rel=1e-12)


def test_max_eigenvalue_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="empty"):
        max_eigenvalue(np.zeros((0, 0)))


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues -1, 3
    rng = np.random.default_rng(6)
    G = rng.normal(size=(5, 5))
    assert is_psd(G @ G.T)


def test_precondition_diagonal_gives_identity():
    H = np.diag([4.0, 0.25, 9.0, 1.0])
    W = np.ones((1, 4))
    _, H_t, _ = precondition(W, H)
    assert np.allclose(H_t, np.eye(4), atol=1e-14)


def test_precondition_two_by_two():
    H = np.array([[4.0, 2.0], [2.0, 1.0]])
    _, H_t, _ = precondition(np.ones((1, 2)), H)
    assert np.allclose(H_t, np.ones((2, 2)), atol=1e-14)


def test_precondition_roundtrip_and_mask_invariance():
    rng = np.random.default_rng(7)
    W = rng.normal(size=(3, 8))
    W[0, 3] = 0.0
    W[2, 5] = 0.0
    H = hessian_from_data(rng.normal(size=(8, 30)))
    W_t, _, scales = precondition(W, H)
    back = unprecondition(W_t, scales)
    assert np.allclose(back, W, rtol=1e-14, atol=0.0)
    assert np.array_equal(mask_of(W_t), mask_of(W))


def test_precondition_dead_channel_clamped():
    H = np.diag([1.0, 0.0, 2.0, 1.0])
    W = np.ones((1, 4))
    W_t, H_t, scales = precondition(W, H)
    assert np.all(scales > 0)
    assert np.all(np.isfinite(W_t)) and np.all(np.isfinite(H_t))
    assert np.allclose(unprecondition(W_t, scales), W)


def test_single_gradient_step_never_increases_loss():
    rng = np.random.default_rng(8)
    for _ in range(10):
        W_star = rng.normal(size=(2, 8))
        W = rng.normal(size=(2, 8))
        H = hessian_from_data(rng.normal(size=(8, 12)))
        eta = 1.0 / (2.0 * max_eigenvalue(H))
        W_next = W - eta * loss_gradient(W, W_star, H)
        assert layer_loss(W_next, W_star, H) <= layer_loss(W, W_star, H) + 1e-12
