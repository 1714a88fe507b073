import sys
import warnings

import numpy as np
import pytest

from prune24 import cells
from prune24.cells import (
    cell_objective,
    hessian_f,
    hessian_g,
    inv_pos_sort_cells,
    lambda_thresholds,
    pos_sort_cells,
    prox_cells,
    prox_enumerate,
    prox_simple_cells,
    solve_case_gd,
    solve_case_ipm,
)
from prune24.harness import SyntheticSpec, gen_synthetic
from prune24.pruner import LambdaSchedule, clamp_top2, is_24_sparse, prune_prox

from reference import (
    brute_force_prox_oracle,
    is_psd,
    kkt_check,
    prox_enumerate_ipm,
    regularizer_rNM,
)


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
    Z, order, signs = pos_sort_cells(z[None, :])
    assert np.array_equal(Z[0], [3.0, 2.0, 1.0, 0.0])
    assert np.array_equal(inv_pos_sort_cells(Z, order, signs)[0], z)


def test_pos_sort_identity_on_sorted_nonneg():
    Z, order, signs = pos_sort_cells(np.array([[4.0, 3.0, 2.0, 1.0]]))
    assert np.array_equal(Z[0], [4.0, 3.0, 2.0, 1.0])
    assert np.array_equal(order[0], [0, 1, 2, 3])
    assert np.array_equal(signs[0], [1.0, 1.0, 1.0, 1.0])


def test_pos_sort_stable_ties():
    Z, order, _ = pos_sort_cells(np.array([[1.1, -1.1, 0.0, 0.0]]))
    assert np.array_equal(Z[0], [1.1, 1.1, 0.0, 0.0])
    assert list(order[0]) == [0, 1, 2, 3]  # tie keeps original position order


def test_pos_sort_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = rng.normal(size=4) * 10.0 ** rng.integers(-3, 3)
        Z, order, signs = pos_sort_cells(z[None, :])
        assert np.all(np.diff(Z[0]) <= 0) and Z[0, -1] >= 0
        assert np.array_equal(inv_pos_sort_cells(Z, order, signs)[0], z)


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


def _fail_first_polish(monkeypatch, pinned):
    # the first Newton polish of one case fails; later ones (the IPM's own
    # among them) run as usual
    polish, failed = cells._newton_polish, []

    def fake(w, z, lam, pinned_, *args, **kwargs):
        if pinned_ == pinned and not failed:
            failed.append(True)
            return w, False
        return polish(w, z, lam, pinned_, *args, **kwargs)

    monkeypatch.setattr(cells, "_newton_polish", fake)
    return failed


# Cells where the polish of a stalled GD row once failed: the dense case at
# lam=0.3 and the 3-sparse case at lam=1 are the optimum.
POLISH_CELLS = [
    pytest.param([2.13268752709739, 1.5550186363820302, 1.3994681804950502,
                  1.3236075615337273], 0.3, id="dense-lam0.3"),
    pytest.param([0.7414488725547751, 0.7375372345649523, 0.5460524383867058,
                  0.4830847839039425], 1.0, id="three_sparse-lam1"),
]


@pytest.mark.parametrize("z, lam", POLISH_CELLS)
def test_prox_cells_matches_oracle_and_ipm_on_polish_cells(z, lam):
    z = np.array(z)
    w = prox_cells(z[None, :], lam)[0]
    _, fo = brute_force_prox_oracle(z, lam)
    assert abs(cell_objective(w, z, lam) - fo) <= 1e-9
    assert np.allclose(w, prox_enumerate_ipm(z, lam).w, atol=1e-9)


@pytest.mark.parametrize("z, lam", POLISH_CELLS)
def test_failed_polish_takes_the_ipm_verdict(monkeypatch, z, lam):
    # a stalled row whose polish fails gets the IPM's verdict on its case,
    # on the scalar and the batched path alike
    z = np.array(z)
    expect = prox_enumerate_ipm(z, lam)
    case = expect.case_tag
    pinned = case == "three_sparse"
    w_ipm, _, _ = solve_case_ipm(z, lam, case)

    failed = _fail_first_polish(monkeypatch, pinned)
    monkeypatch.setattr(cells, "DEFAULT_MAX_ITER", 3)
    w, aborted, iters = solve_case_gd(z, lam, case)
    assert failed and not aborted and iters == 3
    assert np.array_equal(w, w_ipm)

    # GD cut short on the whole batch, so that the optimal case stalls
    failed.clear()
    assert np.allclose(prox_cells(z[None, :], lam)[0], expect.w, atol=1e-9)
    assert failed


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


def test_gd_step_bound_holds_on_the_box():
    # the kernel's per-cell step 1/min(4, 1 + 3 lam (z1 + z2)) rests on two
    # facts: GD iterates stay in the box [0, z], and on that box both case
    # Hessians have spectrum <= 1 + 3 lam (z1 + z2)
    rng = np.random.default_rng(24)
    for i in range(2000):
        z = sorted_abs(rng, scale=10.0 ** rng.uniform(-1.0, 1.0))
        lam = 10.0 ** rng.uniform(-2.5, 1.0)
        bound = (1.0 + 3.0 * lam * (z[0] + z[1])) * (1.0 + 1e-12)  # eigvalsh roundoff
        w = rng.uniform(size=4) * z
        assert np.linalg.eigvalsh(hessian_f(w, lam))[-1] <= bound
        assert np.linalg.eigvalsh(hessian_g(w[:3], lam))[-1] <= bound
        if i % 10 == 0:
            for case in ("dense", "three_sparse"):
                traj = []
                solve_case_gd(z, lam, case, trajectory=traj)
                assert all(np.all(v >= 0.0) and np.all(v <= z) for v in traj)


def _gd_solve_reference(Z, lam, pinned, trajectory=None):
    """The fixed-step kernel: projected GD at step 1/4 on an (n, 4) array,
    every row stepping until all have finished. Same contract as
    cells._gd_solve_batched."""
    eta, guard = 0.25, 1.0 + 1e-12
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    W = np.zeros_like(Z)
    tol_eff = cells.DEFAULT_TOL * np.maximum(1.0, Z[:, 0])
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    aborted = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=np.int64)
    gprev = np.full(n, np.inf)
    for _ in range(cells.DEFAULT_MAX_ITER):
        G = cells._grad_rows(W, Z, lam)
        G[pinned, 3] = 0.0
        gnorm = np.linalg.norm(G, axis=1)
        abort_now = active & (gnorm > gprev * guard)
        aborted |= abort_now
        active &= ~abort_now
        Wn = np.maximum(W - eta * G, 0.0)
        res = np.abs(Wn - W).max(axis=1) / eta
        conv_now = active & (res <= tol_eff)
        converged |= conv_now
        step = active.copy()
        active &= ~conv_now
        W = np.where(step[:, None], Wn, W)
        gprev = np.where(step, gnorm, gprev)
        iters += step
        if not active.any():
            break
    return W, converged, aborted, active.copy(), iters


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.3, 1.0, 3.0])
def test_prox_cells_matches_the_fixed_step_kernel(monkeypatch, lam):
    # the per-cell step moves each case solution within the GD tolerance:
    # every cell keeps its case and its weights to 1e-8
    cells_mat = np.random.default_rng(25).normal(size=(1000, 4))
    fast = prox_cells(cells_mat, lam)
    monkeypatch.setattr(cells, "_gd_solve_batched", _gd_solve_reference)
    ref = prox_cells(cells_mat, lam)
    assert np.array_equal(np.count_nonzero(fast, axis=1), np.count_nonzero(ref, axis=1))
    assert np.abs(fast - ref).max() <= 1e-8


# ---------------------------------------------------------------------------
# one-cell prox (one-row prox_cells calls), equivariance and bad input


def test_prox_full_signed_example():
    w = prox_cells(np.array([[-1.6, 0.5, -0.8, 1.1]]), 1.0)[0]
    assert np.allclose(w, [-1.6, 0.0, 0.0, 1.1], atol=1e-12)


def test_prox_full_lambda_zero():
    z = np.array([0.3, -2.0, 1.0, -0.1])
    assert np.allclose(prox_cells(z[None, :], 0.0)[0], z, atol=1e-9)


def test_prox_full_sign_flip_equivariance_single_coordinate():
    z = np.array([1.3, 0.7, -0.4, 0.2])
    base = prox_cells(z[None, :], 0.3)[0]
    z2 = z.copy()
    z2[1] = -z2[1]
    flipped = prox_cells(z2[None, :], 0.3)[0]
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
        base = prox_cells(z[None, :], lam)[0]
        transformed = prox_cells((signs * z[perm])[None, :], lam)[0]
        assert np.allclose(transformed, signs * base[perm], atol=1e-12)


def test_one_kernel_pass_per_prox(monkeypatch):
    # both convex cases of every cell are solved in one projected-GD batch
    kernel, batches = cells._gd_solve_batched, []

    def counting(Z, lam, pinned, trajectory=None):
        batches.append((Z.shape[0], int(np.count_nonzero(pinned))))
        return kernel(Z, lam, pinned, trajectory)

    monkeypatch.setattr(cells, "_gd_solve_batched", counting)
    prox_cells(np.random.default_rng(26).normal(size=(50, 4)), 0.3)
    assert batches == [(100, 50)]
    batches.clear()
    prox_enumerate(np.array([1.6, 1.1, 0.8, 0.5]), 0.3)
    assert batches == [(2, 1)]


def _kernel_and_prox(monkeypatch, scalar_rows, Z, pinned, cells_mat, lam):
    monkeypatch.setattr(cells, "_SCALAR_ROWS", scalar_rows)
    out = cells._gd_solve_batched(Z, lam, pinned)
    return [a.tobytes() for a in out], prox_cells(cells_mat, lam).tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.01, 0.1, 0.3, 1.0, 3.0, sys.float_info.max])
def test_batch_and_row_loops_agree_bit_for_bit(monkeypatch, lam):
    # every row run wholly in the batch (0) or wholly in the row loop (a
    # huge limit) ends with the same weights, flags and iteration counts,
    # signed zeros included, also where the iteration cap stalls rows
    rng = np.random.default_rng(29)
    for n in (1, 3, 64, 2000):
        cells_mat = rng.normal(size=(n, 4)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
        Z, _, _ = pos_sort_cells(cells_mat)
        Z, pinned = np.vstack([Z, Z]), np.arange(2 * n) < n
        batch = _kernel_and_prox(monkeypatch, 0, Z, pinned, cells_mat, lam)
        rows = _kernel_and_prox(monkeypatch, 1 << 30, Z, pinned, cells_mat, lam)
        assert batch == rows, n
        if n == 64:
            with monkeypatch.context() as m:
                m.setattr(cells, "DEFAULT_MAX_ITER", 3)
                batch = _kernel_and_prox(m, 0, Z, pinned, cells_mat, lam)
                rows = _kernel_and_prox(m, 1 << 30, Z, pinned, cells_mat, lam)
            assert batch == rows, n


@pytest.mark.parametrize("lam", [0.1, 0.3, 1.0])
def test_stalled_rows_in_a_mixed_batch_use_their_own_case(monkeypatch, lam):
    # capped at 3 GD iterations, most rows stall in both cases; each stalled
    # row's polish, second-order check and IPM verdict must read its own pin,
    # so every row matches the one-case solves picked cell by cell
    monkeypatch.setattr(cells, "DEFAULT_MAX_ITER", 3)
    polish, polished = cells._newton_polish, set()

    def recording(w, z, lam_, pinned, *args, **kwargs):
        polished.add(bool(pinned))
        return polish(w, z, lam_, pinned, *args, **kwargs)

    monkeypatch.setattr(cells, "_newton_polish", recording)
    cells_mat = np.random.default_rng(28).normal(size=(64, 4))
    Z, order, signs = pos_sort_cells(cells_mat)
    best = np.empty_like(Z)
    for i, z in enumerate(Z):
        cands = [np.array([z[0], z[1], 0.0, 0.0])]  # sparsest first: ties go to it
        for case in ("three_sparse", "dense"):
            w, _, _ = solve_case_gd(z, lam, case)
            if w is not None:
                cands.append(w)
        best[i] = min(cands, key=lambda w: cell_objective(w, z, lam))
    polished.clear()
    assert np.array_equal(prox_cells(cells_mat, lam), inv_pos_sort_cells(best, order, signs))
    assert polished == {False, True}


def test_prox_cells_at_the_penalty_cap_is_clamp_top2_without_warnings():
    # schedule_lambda caps the penalty at the largest float; there every cell
    # is 2-sparse, and no overflow or NaN may surface
    cells_mat = np.vstack([np.random.default_rng(27).normal(size=(200, 4)), np.zeros((1, 4))])
    with np.errstate(over="raise", invalid="raise"):
        out = prox_cells(cells_mat, sys.float_info.max)
    assert np.array_equal(out, clamp_top2(cells_mat))

    W_star, H = gen_synthetic(SyntheticSpec(d=16, alpha=0.5, seed=0))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        W, _, _ = prune_prox(10 * W_star, H, LambdaSchedule(lambda0=1e308, beta=2))
    assert is_24_sparse(W)


def test_prox_cells_of_a_cell_near_1e150_is_the_scaled_prox_without_warnings():
    # the dense case's triple products (~1e449) pass the largest float unless
    # the case pick scores the cell scaled down
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = prox_cells([[1e150, 7e149, 5e149, 3e149]], 1e-151)
    expect = 1e150 * prox_cells([[1.0, 0.7, 0.5, 0.3]], 0.1)
    assert np.count_nonzero(expect) == 4
    assert np.allclose(out, expect, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [1, 37, 100, 300, 500])
def test_prox_cells_is_equivariant_under_power_of_two_scaling(k):
    # scaling cells by 2**k and lam by 2**-k is exact, so the prox scales
    # bit for bit, also where the unscaled triple products overflow
    rng = np.random.default_rng(28)
    cells_mat = rng.normal(size=(300, 4))
    cells_mat = cells_mat[np.max(np.abs(cells_mat), axis=1) >= 1.0]
    for lam in (0.01, 0.1, 0.3, 1.0, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = prox_cells(np.ldexp(cells_mat, k), np.ldexp(lam, -k))
        assert np.array_equal(scaled, np.ldexp(prox_cells(cells_mat, lam), k)), lam


def test_prox_cells_matches_scalar_path():
    rng = np.random.default_rng(20)
    cells_mat = np.vstack([rng.normal(size=(50, 4)), np.zeros((1, 4))])
    for lam in (0.05, 0.5, 3.0):
        batched = prox_cells(cells_mat, lam)
        for i in range(cells_mat.shape[0]):
            scalar = prox_cells(cells_mat[i:i + 1], lam)[0]
            assert np.allclose(batched[i], scalar, atol=1e-9), f"row {i} lam {lam}"


_CELL = np.array([1.6, 1.1, 0.8, 0.5])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: prox_cells(_CELL[None, :], -1.0), "lam", id="prox_cells-lam-neg"),
    pytest.param(lambda: prox_cells(_CELL[None, :], np.nan), "lam", id="prox_cells-lam-nan"),
    pytest.param(lambda: prox_cells(_CELL[None, :], np.inf), "lam", id="prox_cells-lam-inf"),
    pytest.param(lambda: prox_cells([[np.nan, 1.0, 0.0, 0.0]], 0.5), "finite",
                 id="prox_cells-nan-cell"),
    pytest.param(lambda: prox_cells(np.ones(3), 0.5), r"\(n, 4\)", id="prox_cells-shape-3"),
    pytest.param(lambda: prox_simple_cells(np.ones((2, 3)), 0.5, "R1"), r"\(n, 4\)",
                 id="prox_simple_cells-shape-2x3"),
    pytest.param(lambda: prox_simple_cells(_CELL[None, :], np.nan, "R1"), "lam",
                 id="prox_simple_cells-lam-nan"),
    pytest.param(lambda: prox_enumerate(_CELL, np.nan), "lam", id="prox_enumerate-lam-nan"),
    pytest.param(lambda: prox_enumerate([np.inf, 1.0, 0.0, 0.0], 0.5), "finite",
                 id="prox_enumerate-inf-cell"),
    pytest.param(lambda: solve_case_gd(_CELL, -1.0, "dense"), "lam", id="solve_case_gd-lam-neg"),
    pytest.param(lambda: solve_case_ipm(_CELL, np.inf, "dense"), "lam",
                 id="solve_case_ipm-lam-inf"),
])
def test_cell_entry_points_reject_bad_lam_and_cells(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
    assert np.allclose(prox_simple_cells(z[None, :], 0.6, "R1")[0], [1.6, 1.1, 0.2, 0.0])
    assert np.allclose(prox_simple_cells(z[None, :], 0.4, "R0")[0], [1.6, 1.1, 0.0, 0.0])
    assert np.allclose(prox_simple_cells(z[None, :], 1.0, "R2")[0], [1.6, 1.1, 0.4, 0.25])


def test_prox_simple_keeps_leading_pair():
    rng = np.random.default_rng(21)
    for kind in ("R0", "R1", "R2"):
        z = sorted_abs(rng)
        out = prox_simple_cells(z[None, :], 0.7, kind)[0]
        assert out[0] == z[0] and out[1] == z[1]


def test_prox_simple_unknown_kind():
    with pytest.raises(ValueError):
        prox_simple_cells(np.array([[1.0, 0.5, 0.2, 0.1]]), 0.5, "R9")


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
