import numpy as np
import pytest

from prune24 import cells
from prune24.cells import (
    CellConvergenceError,
    brute_force_prox_oracle,
    cell_objective,
    hessian_f,
    hessian_g,
    inv_pos_sort,
    inv_pos_sort_cells,
    kkt_check,
    lambda_thresholds,
    pos_sort,
    pos_sort_cells,
    prox_cells,
    prox_enumerate,
    prox_full,
    prox_simple,
    regularizer_rNM,
    solve_case_gd,
    solve_case_ipm,
)
from prune24.linalg import is_psd


def sorted_abs(rng, scale=1.0):
    z = np.sort(np.abs(rng.normal(size=4)))[::-1] * scale
    return np.ascontiguousarray(z)


# ---------------------------------------------------------------------------
# regularizer


def test_regularizer_examples():
    assert regularizer_rNM(np.ones(4), 2, 4) == pytest.approx(4.0)
    assert regularizer_rNM(np.array([2.0, 1.0, 1.0, 0.0]), 2, 4) == pytest.approx(2.0)
    assert regularizer_rNM(np.array([5.0, 3.0, 0.0, 0.0]), 2, 4) == 0.0


def test_regularizer_rejects_bad_nm():
    with pytest.raises(ValueError):
        regularizer_rNM(np.ones(4), 4, 4)
    with pytest.raises(ValueError):
        regularizer_rNM(np.ones(4), 5, 4)


@pytest.mark.parametrize("N,M", [(1, 4), (2, 4), (2, 3), (3, 8)])
def test_regularizer_zero_iff_sparse_enough(N, M):
    rng = np.random.default_rng(10 * N + M)
    for _ in range(25):
        k = rng.integers(0, M + 1)
        w = np.zeros(M)
        support = rng.choice(M, size=k, replace=False)
        w[support] = rng.normal(size=k) + np.sign(rng.normal(size=k)) * 0.1
        val = regularizer_rNM(w, N, M)
        if np.count_nonzero(w) <= N:
            assert val == 0.0
        else:
            assert val > 0.0


# ---------------------------------------------------------------------------
# sign / sort reduction


def test_pos_sort_example():
    z = np.array([-3.0, 1.0, 0.0, -2.0])
    zs, sp = pos_sort(z)
    assert np.array_equal(zs, [3.0, 2.0, 1.0, 0.0])
    assert np.array_equal(inv_pos_sort(zs, sp), z)


def test_pos_sort_identity_on_sorted_nonneg():
    zs, sp = pos_sort(np.array([4.0, 3.0, 2.0, 1.0]))
    assert np.array_equal(zs, [4.0, 3.0, 2.0, 1.0])
    assert np.array_equal(sp.perm, [0, 1, 2, 3])
    assert np.array_equal(sp.signs, [1.0, 1.0, 1.0, 1.0])


def test_pos_sort_stable_ties():
    zs, sp = pos_sort(np.array([1.1, -1.1, 0.0, 0.0]))
    assert np.array_equal(zs, [1.1, 1.1, 0.0, 0.0])
    assert list(sp.perm) == [0, 1, 2, 3]  # tie keeps original position order


def test_pos_sort_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = rng.normal(size=4) * 10.0 ** rng.integers(-3, 3)
        zs, sp = pos_sort(z)
        assert np.all(np.diff(zs) <= 0) and zs[-1] >= 0
        assert np.array_equal(inv_pos_sort(zs, sp), z)


# ---------------------------------------------------------------------------
# cell Hessians


def test_hessians_identity_at_zero():
    assert np.array_equal(hessian_f(np.zeros(4), 3.7), np.eye(4))
    assert np.array_equal(hessian_g(np.zeros(3), 3.7), np.eye(3))


def test_hessian_g_structure_and_eigs():
    Hg = hessian_g(np.ones(3), 1.0)
    assert np.allclose(Hg - np.eye(3), np.ones((3, 3)) - np.eye(3))
    eigs = np.sort(np.linalg.eigvalsh(Hg))
    assert np.allclose(eigs, [0.0, 0.0, 3.0], atol=1e-12)  # PSD boundary


def test_hessian_f_structure_and_eigs():
    Hf = hessian_f(np.ones(4), 1.0)
    off = Hf[~np.eye(4, dtype=bool)]
    assert np.all(off == 2.0)
    assert np.linalg.eigvalsh(Hf)[0] == pytest.approx(-1.0, abs=1e-12)
    assert not is_psd(Hf)


def test_hessian_f_offdiag_is_sum_of_other_two():
    rng = np.random.default_rng(9)
    w = rng.uniform(size=4)
    lam = 0.7
    Hf = hessian_f(w, lam)
    for i in range(4):
        for j in range(4):
            if i != j:
                others = [k for k in range(4) if k not in (i, j)]
                assert Hf[i, j] == pytest.approx(lam * w[others].sum())


# ---------------------------------------------------------------------------
# case solvers


def test_gd_dense_symmetric_quadratic_formula():
    # stationarity for equal coordinates: w + 3 lam w^2 = 1
    lam = 0.1
    w, aborted, _ = solve_case_gd(np.ones(4), lam, "dense")
    expect = (-1.0 + np.sqrt(1.0 + 12.0 * lam)) / (6.0 * lam)
    assert not aborted
    assert np.allclose(w, expect, atol=1e-9)


def test_gd_three_sparse_quadratic_formula():
    lam = 0.1
    w, aborted, _ = solve_case_gd(np.array([1.0, 1.0, 1.0, 0.5]), lam, "three_sparse")
    expect = (-1.0 + np.sqrt(1.0 + 4.0 * lam)) / (2.0 * lam)
    assert not aborted
    assert np.allclose(w[:3], expect, atol=1e-9)
    assert w[3] == 0.0


def test_gd_aborts_when_two_sparse_wins():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    w, aborted, _ = solve_case_gd(z, 5.0, "dense")
    assert w is None and aborted
    wo, fo = brute_force_prox_oracle(z, 5.0)
    assert np.count_nonzero(wo > 1e-9) == 2


def test_gd_rejects_unsorted_input():
    with pytest.raises(ValueError):
        solve_case_gd(np.array([1.0, 2.0, 0.5, 0.1]), 1.0, "dense")
    with pytest.raises(ValueError):
        solve_case_gd(np.array([2.0, 1.0, 0.5, -0.1]), 1.0, "dense")


def test_gd_convergence_error_carries_iterate(monkeypatch):
    monkeypatch.setattr(cells, "_newton_polish", lambda *a, **k: (a[0], False))
    with pytest.raises(CellConvergenceError) as info:
        solve_case_gd(np.array([1.6, 1.1, 0.8, 0.5]), 0.05, "dense", max_iter=3)
    assert info.value.last_iterate.shape == (4,)


def test_ipm_agrees_with_gd_on_reference_cases():
    for z, lam, case in [
        (np.ones(4), 0.1, "dense"),
        (np.array([1.0, 1.0, 1.0, 0.5]), 0.1, "three_sparse"),
        (np.array([1.6, 1.1, 0.8, 0.5]), 5.0, "dense"),
    ]:
        wg, _, _ = solve_case_gd(z, lam, case)
        wi, _, _ = solve_case_ipm(z, lam, case)
        if wg is None:
            assert wi is None
        else:
            assert np.linalg.norm(wg - wi) < 1e-6


def test_ipm_lambda_zero_returns_input():
    w, rejected, _ = solve_case_ipm(np.ones(4), 0.0, "dense")
    assert not rejected
    assert np.allclose(w, 1.0, atol=1e-10)


def test_origin_always_strictly_feasible():
    for lam in (0.0, 0.5, 10.0, 1e6):
        assert np.array_equal(hessian_f(np.zeros(4), lam), np.eye(4))


def test_solver_agreement_random():
    rng = np.random.default_rng(12)
    for i in range(80):
        z = sorted_abs(rng)
        lam = [0.01, 0.1, 1.0, 10.0][i % 4]
        for case in ("dense", "three_sparse"):
            wg, _, _ = solve_case_gd(z, lam, case)
            wi, _, _ = solve_case_ipm(z, lam, case)
            if (wg is None) != (wi is None):
                pytest.fail(f"presence mismatch at z={z} lam={lam} case={case}")
            if wg is not None:
                assert np.linalg.norm(wg - wi) < 1e-6


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_lambda_zero_is_identity():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    res = prox_enumerate(z, 0.0)
    assert res.case_tag == "dense"
    assert np.allclose(res.w, z, atol=1e-9)


def test_enumerate_sparse_input_fixed_point():
    res = prox_enumerate(np.array([5.0, 3.0, 0.0, 0.0]), 2.7)
    assert res.case_tag == "two_sparse"
    assert np.array_equal(res.w, [5.0, 3.0, 0.0, 0.0])
    assert res.objective == 0.0


def test_enumerate_two_sparse_at_large_lambda():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    res = prox_enumerate(z, 1.0)
    assert res.case_tag == "two_sparse"
    assert np.array_equal(res.w, [1.6, 1.1, 0.0, 0.0])
    _, fo = brute_force_prox_oracle(z, 1.0)
    assert res.objective == pytest.approx(fo, abs=1e-9)


def test_enumerate_nearly_tied_stays_dense_at_small_lambda():
    res = prox_enumerate(np.array([1.6, 1.11, 1.1, 1.09]), 0.05)
    assert res.case_tag == "dense"
    assert np.all(res.w > 0)


def test_enumerate_zero_cell():
    res = prox_enumerate(np.zeros(4), 3.0)
    assert res.case_tag == "two_sparse"
    assert np.array_equal(res.w, np.zeros(4))


def test_enumerate_output_sorted_nonnegative():
    rng = np.random.default_rng(13)
    for i in range(60):
        z = sorted_abs(rng)
        res = prox_enumerate(z, [0.01, 0.3, 2.0][i % 3])
        assert np.all(np.diff(res.w) <= 1e-15)
        assert np.all(res.w >= 0)


def test_enumerate_matches_oracle_random():
    rng = np.random.default_rng(14)
    for i in range(40):
        z = sorted_abs(rng)
        lam = [0.01, 0.1, 1.0, 10.0][i % 4]
        res = prox_enumerate(z, lam)
        _, fo = brute_force_prox_oracle(z, lam)
        assert res.objective <= fo + 1e-6 * (1 + abs(fo))
        assert abs(res.objective - fo) <= 1e-6 * (1 + abs(fo))


def test_enumerate_never_two_sparse_below_threshold():
    rng = np.random.default_rng(15)
    for _ in range(60):
        z = sorted_abs(rng) + 0.05  # keep z3 > 0
        lam2, _ = lambda_thresholds(z)
        lam = lam2 * rng.uniform(0.05, 0.95)
        res = prox_enumerate(z, lam)
        assert res.case_tag != "two_sparse"


def test_kkt_passes_on_enumerate_outputs():
    rng = np.random.default_rng(16)
    for i in range(50):
        z = sorted_abs(rng)
        lam = [0.02, 0.2, 1.5, 8.0][i % 4]
        res = prox_enumerate(z, lam)
        assert kkt_check(res.w, z, lam, tol=1e-7).passed


def test_gd_trajectory_stays_in_psd_region_when_dense():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(40):
        z = sorted_abs(rng)
        lam = 0.05
        res = prox_enumerate(z, lam)
        if res.case_tag != "dense":
            continue
        traj = []
        solve_case_gd(z, lam, "dense", trajectory=traj)
        assert traj, "expected recorded iterates"
        for w in traj:
            assert is_psd(hessian_f(w, lam), tol=1e-9)
        checked += 1
    assert checked > 5


def test_hessian_spectrum_bounded_inside_psd_region():
    rng = np.random.default_rng(18)
    hits = 0
    for _ in range(400):
        w = np.abs(rng.normal(size=4)) * rng.uniform(0.2, 2.0)
        lam = rng.uniform(0.0, 2.0)
        Hf = hessian_f(w, lam)
        if is_psd(Hf, tol=1e-12):
            hits += 1
            assert np.linalg.eigvalsh(Hf)[-1] <= 4.0 + 1e-9
    assert hits > 20


# ---------------------------------------------------------------------------
# full prox and equivariance


def test_prox_full_signed_example():
    w = prox_full(np.array([-1.6, 0.5, -0.8, 1.1]), 1.0)
    assert np.allclose(w, [-1.6, 0.0, 0.0, 1.1], atol=1e-12)


def test_prox_full_lambda_zero():
    z = np.array([0.3, -2.0, 1.0, -0.1])
    assert np.allclose(prox_full(z, 0.0), z, atol=1e-9)


def test_prox_full_sign_flip_equivariance_single_coordinate():
    z = np.array([1.3, 0.7, -0.4, 0.2])
    base = prox_full(z, 0.3)
    z2 = z.copy()
    z2[1] = -z2[1]
    flipped = prox_full(z2, 0.3)
    expect = base.copy()
    expect[1] = -expect[1]
    assert np.allclose(flipped, expect, atol=1e-12)


def test_prox_full_signed_permutation_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(100):
        z = rng.normal(size=4)
        lam = rng.uniform(0.01, 2.0)
        perm = rng.permutation(4)
        signs = rng.choice([-1.0, 1.0], size=4)
        base = prox_full(z, lam)
        transformed = prox_full(signs * z[perm], lam)
        assert np.allclose(transformed, signs * base[perm], atol=1e-12)


def test_prox_cells_matches_scalar_path():
    rng = np.random.default_rng(20)
    cells_mat = np.vstack([rng.normal(size=(50, 4)), np.zeros((1, 4))])
    for lam in (0.05, 0.5, 3.0):
        batched = prox_cells(cells_mat, lam)
        for i in range(cells_mat.shape[0]):
            scalar = prox_full(cells_mat[i], lam)
            assert np.allclose(batched[i], scalar, atol=1e-9), f"row {i} lam {lam}"


# ---------------------------------------------------------------------------
# thresholds, kkt, simple proxes


def test_lambda_thresholds_examples():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    lam2, lam3 = lambda_thresholds(z)
    assert lam2 == pytest.approx(0.8 / 1.76)
    assert lam3 is None
    lam2, lam3 = lambda_thresholds(z, w123=z[:3])
    assert lam3 == pytest.approx(0.5 / (1.76 + 0.88 + 1.28))


def test_lambda_thresholds_zero_z3():
    lam2, _ = lambda_thresholds(np.array([2.0, 1.0, 0.0, 0.0]))
    assert lam2 == 0.0


def test_lambda_thresholds_degenerate_error():
    with pytest.raises(ValueError):
        lambda_thresholds(np.zeros(4))


def test_kkt_two_sparse_above_and_below_threshold():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    lam2, _ = lambda_thresholds(z)
    w = np.array([1.6, 1.1, 0.0, 0.0])
    assert kkt_check(w, z, lam2 * 1.5, tol=1e-9).passed
    below = kkt_check(w, z, lam2 * 0.5, tol=1e-9)
    assert not below.dual_feasible
    assert not below.passed


def test_kkt_lambda_zero_identity():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    rep = kkt_check(z, z, 0.0, tol=1e-12)
    assert rep.passed
    assert np.allclose(rep.nu, 0.0)


def test_prox_simple_closed_forms():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    assert np.allclose(prox_simple(z, 0.6, "R1"), [1.6, 1.1, 0.2, 0.0])
    assert np.allclose(prox_simple(z, 0.4, "R0"), [1.6, 1.1, 0.0, 0.0])
    assert np.allclose(prox_simple(z, 1.0, "R2"), [1.6, 1.1, 0.4, 0.25])


def test_prox_simple_keeps_leading_pair():
    rng = np.random.default_rng(21)
    for kind in ("R0", "R1", "R2"):
        z = sorted_abs(rng)
        out = prox_simple(z, 0.7, kind)
        assert out[0] == z[0] and out[1] == z[1]


def test_prox_simple_unknown_kind():
    with pytest.raises(ValueError):
        prox_simple(np.array([1.0, 0.5, 0.2, 0.1]), 0.5, "R9")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_lambda_zero_recovers_input():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    w, f = brute_force_prox_oracle(z, 0.0)
    assert np.allclose(w, z, atol=1e-6)
    assert f == pytest.approx(0.0, abs=1e-9)


def test_oracle_sparse_input():
    w, f = brute_force_prox_oracle(np.array([5.0, 3.0, 0.0, 0.0]), 1.3)
    assert np.allclose(w, [5.0, 3.0, 0.0, 0.0], atol=1e-9)
    assert f == pytest.approx(0.0, abs=1e-12)


def test_oracle_zero_input():
    w, f = brute_force_prox_oracle(np.zeros(4), 1.0)
    assert np.array_equal(w, np.zeros(4))
    assert f == 0.0


def test_oracle_never_beats_solver():
    rng = np.random.default_rng(22)
    for i in range(30):
        z = sorted_abs(rng)
        lam = [0.01, 0.1, 1.0, 10.0][i % 4]
        res = prox_enumerate(z, lam)
        _, fo = brute_force_prox_oracle(z, lam)
        assert fo >= res.objective - 1e-6


def test_batched_sort_helpers_roundtrip():
    rng = np.random.default_rng(23)
    mat = rng.normal(size=(40, 4))
    Z, order, signs = pos_sort_cells(mat)
    assert np.all(np.diff(Z, axis=1) <= 0)
    assert np.array_equal(inv_pos_sort_cells(Z, order, signs), mat)
