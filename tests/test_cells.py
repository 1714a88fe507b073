import sys
import warnings

import numpy as np
import pytest

from prune24 import cells
from prune24.cells import (
    cell_objective,
    hessian_f,
    inv_pos_sort_cells,
    lambda_thresholds,
    pos_sort_cells,
    prox_cells,
    prox_enumerate,
    prox_simple_cells,
    solve_case_ipm,
)
from prune24.harness import SyntheticSpec, gen_synthetic
from prune24.pruner import LambdaSchedule, clamp_top2, is_24_sparse, prune_prox

from reference import (
    brute_force_prox_oracle,
    gd_iterates,
    gd_rows_reference,
    hessian_g,
    is_psd,
    kkt_check,
    normalized_rows,
    prox_cells_unscreened,
    prox_enumerate_ipm,
    prox_simple_cells_by_sort,
    regularizer_rNM,
    solve_case_gd,
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


def _pinned_hessian(w3, lam):
    # the 3-sparse case's Hessian: the pinned case block at w4 = 0
    return cells._case_hessian(np.append(w3, 0.0), lam, True)


def test_hessians_identity_at_zero():
    assert np.array_equal(hessian_f(np.zeros(4), 3.7), np.eye(4))
    assert np.array_equal(_pinned_hessian(np.zeros(3), 3.7), np.eye(3))


def test_pinned_case_hessian_is_the_three_sparse_hessian():
    # entry (i, j) of the pinned block is lam (s - w_i - w_j), with s the
    # sum of all 4 coordinates; at w4 = 0 that is lam times the remaining one
    rng = np.random.default_rng(30)
    for _ in range(500):
        w = rng.uniform(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        lam = 10.0 ** rng.uniform(-3.0, 3.0)
        H, ref = _pinned_hessian(w, lam), hessian_g(w, lam)
        assert np.abs(H - ref).max() <= 1e-15 * np.abs(ref).max()


def test_hessian_g_structure_and_eigs():
    Hg = _pinned_hessian(np.ones(3), 1.0)
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


def _no_roots(Z, lam, pinned):
    return np.zeros(len(Z), dtype=bool), np.zeros((0, 4))


@pytest.fixture
def kernel_only(monkeypatch):
    # _solve_case_rows with neither root deciding a row, so that every case
    # row, pinned or not, takes projected GD, its polish and the IPM
    monkeypatch.setattr(cells, "_pinned_roots", _no_roots)
    monkeypatch.setattr(cells, "_dense_roots", _no_roots)


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
# lam=0.3 and the 3-sparse case at lam=1 are the optimum. In the last three,
# sorted cells of prune_prox on gen_synthetic(SyntheticSpec(128, 1.0, seed))
# for seeds 1114, 1115 and 1118, the pipeline's dense polish failed and the
# IPM ruled the dense case out; the 3-sparse case is the optimum.
POLISH_CELLS = [
    pytest.param([2.13268752709739, 1.5550186363820302, 1.3994681804950502,
                  1.3236075615337273], 0.3, id="dense-lam0.3"),
    pytest.param([0.7414488725547751, 0.7375372345649523, 0.5460524383867058,
                  0.4830847839039425], 1.0, id="three_sparse-lam1"),
    pytest.param([2.03079962765503, 0.649754741033628, 0.6483051914774155,
                  0.25759136237937985], 0.4942862424003685, id="row128-seed1114"),
    pytest.param([1.2346433470402958, 0.40681257148573746, 0.3968022614327363,
                  0.15376996807011403], 0.7890110592450992, id="row128-seed1115"),
    pytest.param([0.6644015919903393, 0.48134730075281784, 0.43605004759448435,
                  0.4343346006786486], 1.1066487535304532, id="row128-seed1118"),
]


@pytest.mark.parametrize("z, lam", POLISH_CELLS)
def test_prox_cells_matches_oracle_and_ipm_on_polish_cells(z, lam):
    z = np.array(z)
    w = prox_cells(z[None, :], lam)[0]
    _, fo = brute_force_prox_oracle(z, lam)
    assert abs(cell_objective(w, z, lam) - fo) <= 1e-9
    assert np.allclose(w, prox_enumerate_ipm(z, lam).w, atol=1e-9)


@pytest.mark.parametrize("z, lam", POLISH_CELLS)
def test_failed_polish_takes_the_ipm_verdict(monkeypatch, kernel_only, z, lam):
    # a stalled row whose polish fails gets the IPM's verdict on its case,
    # on the scalar and the batched path alike
    z = np.array(z)
    expect = prox_enumerate_ipm(z, lam)
    case = expect.case_tag
    pinned = case == "three_sparse"
    w_ipm = solve_case_ipm(z, lam, case)

    failed = _fail_first_polish(monkeypatch, pinned)
    monkeypatch.setattr(cells, "DEFAULT_MAX_ITER", 3)
    w, aborted, iters = solve_case_gd(z, lam, case)
    assert failed and not aborted and iters == 3
    assert np.array_equal(w, w_ipm)

    # GD cut short on the whole batch, so that the optimal case stalls
    failed.clear()
    assert np.allclose(prox_cells(z[None, :], lam)[0], expect.w, atol=1e-9)
    assert failed


# Cells whose optimal case the IPM once ruled out: from the barrier end point
# an objective test a few ulps wide rejected the polish's Newton steps, and
# prox_enumerate_ipm returned a worse case.
IPM_POLISH_CELLS = [
    ([8.526333320576281, 3.67315108423277, 3.424155490585231, 1.6218739387844905],
     0.08229276694289885, "three_sparse"),
    ([7.149641260064105, 2.628224680517529, 2.2188647595255775, 0.030661609968222682],
     0.07062835049271309, "three_sparse"),
    ([2.4605098368006257, 2.1149933853813963, 1.8050429704461077, 1.7295907085115094],
     0.11218185354413064, "dense"),
    ([4.49666105734282, 3.195173559390601, 2.5591367629303927, 1.5640637240976978],
     0.025538104163294714, "dense"),
]


def test_ipm_agrees_with_gd_on_reference_cases():
    for z, lam, case in [
        (np.ones(4), 0.1, "dense"),
        (np.array([1.0, 1.0, 1.0, 0.5]), 0.1, "three_sparse"),
        (np.array([1.6, 1.1, 0.8, 0.5]), 5.0, "dense"),
    ] + [(np.array(z), lam, case) for z, lam, case in IPM_POLISH_CELLS]:
        wg, _, _ = solve_case_gd(z, lam, case)
        wi = solve_case_ipm(z, lam, case)
        if wg is None:
            assert wi is None
        else:
            assert np.linalg.norm(wg - wi) < 1e-6
    for z, lam, case in IPM_POLISH_CELLS:
        _, fo = brute_force_prox_oracle(np.array(z), lam)
        assert abs(prox_enumerate_ipm(np.array(z), lam).objective - fo) <= 1e-9, z


def _polish_residual(w, z, lam, pinned):
    g = cells._grad_rows(w, z, lam)
    g[4 - int(pinned):] = 0.0
    return np.abs(w - np.maximum(w - 0.25 * g, 0.0)).max() / 0.25


def test_newton_polish_never_raises_its_residual():
    # a polish keeps a full Newton step only if it lowers the projected-
    # gradient residual, and succeeds only within its tolerance
    rng = np.random.default_rng(29)
    succeeded = 0
    for i in range(200):
        z = sorted_abs(rng, np.exp(rng.uniform(-1.0, 1.0)))
        lam = 10.0 ** rng.uniform(-2.0, 1.0)
        pinned = i % 2 == 0
        w0 = np.minimum(z, 0.5)
        if pinned:
            w0[3] = 0.0
        tol = cells.DEFAULT_TOL * max(1.0, z[0])
        w, ok = cells._newton_polish(w0, z, lam, pinned, tol)
        res = _polish_residual(w, z, lam, pinned)
        assert res <= _polish_residual(w0, z, lam, pinned), (z, lam, pinned)
        assert np.all(w >= 0.0) and (not pinned or w[3] == 0.0)
        if ok:
            assert res <= tol, (z, lam, pinned)
            succeeded += 1
    assert 0 < succeeded < 200


def test_ipm_lambda_zero_returns_input():
    w = solve_case_ipm(np.ones(4), 0.0, "dense")
    assert w is not None
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
            wi = solve_case_ipm(z, lam, case)
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
        lam2 = lambda_thresholds(z)
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
        for w in gd_iterates(z, lam, "dense"):
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
        assert np.linalg.eigvalsh(_pinned_hessian(w[:3], lam))[-1] <= bound
        if i % 10 == 0:
            for case in ("dense", "three_sparse"):
                traj = gd_iterates(z, lam, case)
                assert np.all(traj >= 0.0) and np.all(traj <= z)


_Z_MID = [1.6, 1.1, 0.8, 0.5]
_Z_POLISH_DENSE, _Z_POLISH_3 = POLISH_CELLS[0].values[0], POLISH_CELLS[1].values[0]

# (z, lam, case, how the kernel's row ends): both cases in each lam bin
# (< 0.1, 0.1 to 1, >= 1), with rows that converge, abort and stall at the cap
GD_ENDINGS = [
    pytest.param(_Z_MID, 0.05, "dense", "converged", id="dense-0.05-converged"),
    pytest.param(_Z_MID, 0.05, "three_sparse", "converged", id="three_sparse-0.05-converged"),
    pytest.param(_Z_MID, 0.3, "dense", "aborted", id="dense-0.3-aborted"),
    pytest.param(_Z_MID, 0.3, "three_sparse", "converged", id="three_sparse-0.3-converged"),
    pytest.param(_Z_POLISH_DENSE, 0.3, "dense", "stalled", id="dense-0.3-stalled"),
    pytest.param(_Z_MID, 1.0, "three_sparse", "aborted", id="three_sparse-1-aborted"),
    pytest.param(_Z_POLISH_3, 1.0, "three_sparse", "stalled", id="three_sparse-1-stalled"),
    pytest.param(_Z_MID, 5.0, "dense", "aborted", id="dense-5-aborted"),
    # the symmetric stationary point, outside the dense case's convex region
    pytest.param([1.0] * 4, 5.0, "dense", "converged", id="dense-5-converged"),
    pytest.param([1.0] * 4, 5.0, "three_sparse", "converged", id="three_sparse-5-converged"),
    pytest.param(_Z_MID, sys.float_info.max, "dense", "aborted", id="dense-max-aborted"),
]


@pytest.mark.parametrize("z, lam, case, ending", GD_ENDINGS)
def test_gd_iterates_replays_every_way_a_kernel_row_ends(z, lam, case, ending):
    # gd_iterates asserts that its last replayed iterate is the row loop's
    # output bit for bit; the replay must also take the row loop's step count
    z, pinned = np.array(z), case == "three_sparse"
    _, outcome, iters = cells._gd_row(z.tolist(), lam, pinned)
    assert outcome == ("converged", "aborted", "stalled").index(ending)
    assert (iters == cells.DEFAULT_MAX_ITER) == (ending == "stalled")
    traj = gd_iterates(z, lam, case)
    assert traj.shape == (iters + 1, 4)
    assert not traj[0].any()
    assert np.all(traj >= 0.0) and np.all(traj <= z)
    assert not (pinned and traj[:, 3].any())


def test_gd_iterates_rejects_a_kernel_output_it_does_not_reach(monkeypatch):
    row = cells._gd_row

    def one_ulp_off(z, lam, pinned):
        w, *rest = row(z, lam, pinned)
        return (tuple(np.nextafter(w, np.inf)), *rest)

    monkeypatch.setattr(cells, "_gd_row", one_ulp_off)
    with pytest.raises(AssertionError):
        gd_iterates(np.array(_Z_MID), 0.05, "dense")


def _gd_solve_reference(Z, lam, pinned):
    """The fixed-step kernel: projected GD at step 1/4 on an (n, 4) array
    with one lam per row, every row stepping until all have finished. Same
    contract as cells._gd_rows, whose outcome codes converged rows 0,
    aborted rows 1 and stalled rows 2."""
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
        G = cells._grad_rows(W, Z, lam[:, None])
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
    return W, np.where(converged, 0, np.where(aborted, 1, 2)), iters


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.3, 1.0, 3.0])
def test_prox_cells_matches_the_fixed_step_kernel(monkeypatch, kernel_only, lam):
    # the per-cell step moves each case solution within the GD tolerance:
    # every cell keeps its case and its weights to 1e-8
    cells_mat = np.random.default_rng(25).normal(size=(1000, 4))
    fast = prox_cells(cells_mat, lam)
    monkeypatch.setattr(cells, "_gd_rows", _gd_solve_reference)
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


def test_cell_objective_is_nonnegative_and_signed_permutation_invariant():
    # the penalty is a sum of |w_i w_j w_k|; the quadratic is on signed w - z
    z = np.array([1.0, -1.0, 1.0, 0.5])
    assert cell_objective(z, z, 1.0) == 2.5
    w = prox_cells(z[None, :], 0.3)[0]
    assert cell_objective(w, z, 0.3) == cell_objective(np.abs(w), np.abs(z), 0.3)
    rng = np.random.default_rng(30)
    for _ in range(200):
        w, z = rng.normal(size=4), rng.normal(size=4)
        lam = 10.0 ** rng.uniform(-2.0, 1.0)
        perm, signs = rng.permutation(4), rng.choice([-1.0, 1.0], size=4)
        f = cell_objective(w, z, lam)
        assert f >= 0.0
        assert cell_objective(signs * w[perm], signs * z[perm], lam) == pytest.approx(f, rel=1e-12)
        a, b = np.abs(w), np.abs(z)
        assert cell_objective(a, b, lam) == float(cells._objective_rows(a, b, lam))


def _record_gd_rows(monkeypatch):
    # every call of the GD row loop, as (rows, penalties, pins)
    gd_rows, batches = cells._gd_rows, []

    def recording(Z, lam, pinned):
        batches.append((Z.copy(), np.array(lam), np.array(pinned)))
        return gd_rows(Z, lam, pinned)

    monkeypatch.setattr(cells, "_gd_rows", recording)
    return batches


def _rows_neither_root_decides(cells_mat, lam):
    # the stacked normalized case rows of prox_cells(cells_mat, lam), the
    # 3-sparse case on the first half, and which of them the screen keeps
    # and neither root decides
    Z, _, _ = pos_sort_cells(np.reshape(cells_mat, (-1, 4)))
    Z, lam_rows, _ = normalized_rows(Z, lam)
    Z, pinned = np.vstack([Z, Z]), np.arange(2 * len(Z)) < len(Z)
    lam_rows = np.concatenate([lam_rows, lam_rows])
    keep = np.flatnonzero(~cells._screened(Z, lam_rows, pinned))
    Zk, lam_k, pin_k = Z[keep], lam_rows[keep], pinned[keep]
    rest = ~(cells._pinned_roots(Zk, lam_k, pin_k)[0] | cells._dense_roots(Zk, lam_k, pin_k)[0])
    return Z, lam_rows, pinned, keep[rest]


def test_one_kernel_pass_per_prox(monkeypatch):
    # both convex cases of every cell are solved in one pass, and GD gets
    # exactly the stacked normalized case rows, penalties and pins that the
    # screen keeps and neither root decides; a call whose rows are all
    # screened still makes its one, empty, pass. The screen keeps 17 dense
    # rows of the 50 cells, all of which GD gets, and 67 of the 200, where
    # the dense root runs
    batches = _record_gd_rows(monkeypatch)
    for call, arg, lam, shape in [
        (prox_cells, np.random.default_rng(26).normal(size=(50, 4)), 0.3, (18, 1)),
        (prox_cells, np.random.default_rng(26).normal(size=(200, 4)), 0.3, (43, 6)),
        (prox_cells, [[10.0, -10.0, 0.1, 0.05]], 0.1, (0, 0)),
        (prox_enumerate, [1.6, 1.1, 0.8, 0.5], 0.3, (1, 0)),
    ]:
        batches.clear()
        call(arg, lam)
        Z, lam_rows, pinned, gd = _rows_neither_root_decides(arg, lam)
        [(Z_gd, lam_gd, pinned_gd)] = batches
        assert Z_gd.tobytes() == Z[gd].tobytes()
        assert lam_gd.tobytes() == lam_rows[gd].tobytes()
        assert np.array_equal(pinned_gd, pinned[gd])
        assert (len(Z_gd), int(np.count_nonzero(pinned_gd))) == shape


def test_screen_drops_only_rows_the_case_solve_calls_invalid():
    # the screen is sound: every row it drops is one that _solve_case_rows
    # marks invalid, at every scale and lam, and it raises nothing. The rows
    # are normalized as prox_cells normalizes them, and each scale runs the
    # lams below and the scale-equivariant lam / s
    rng = np.random.default_rng(31)
    lams0 = (0.0, 1e-3, 0.01, 0.1, 0.3, 1.0, 3.0, 100.0, sys.float_info.max)
    screened = 0
    for s in (1e-3, 1.0, 1e3, 1e50, 1e100, 1e153, 1e200, 1e300):
        cells_mat = rng.normal(size=(300, 4))
        cells_mat *= s / np.abs(cells_mat).max(axis=1, keepdims=True)
        Z, _, _ = pos_sort_cells(cells_mat)
        Z, pinned = np.vstack([Z, Z]), np.arange(2 * len(Z)) < len(Z)
        for lam in lams0 + tuple(lam / s for lam in lams0[1:-1]):
            Zn, lam_rows, _ = normalized_rows(Z, lam)
            with np.errstate(all="raise"):
                dropped = cells._screened(Zn, lam_rows, pinned)
                _, valid, _, _ = cells._solve_case_rows(Zn, lam_rows, pinned)
            assert not np.any(dropped & valid), (s, lam)
            screened += np.count_nonzero(dropped)
    assert screened > 2000  # 6659 of 76,800 rows

    # at lam = 0 the e2 of a cell of 1e154 overflows, and 0 * inf is NaN: a
    # NaN bound drops no row
    big = np.full((2, 4), 1e154)
    with np.errstate(over="ignore"):
        assert np.isinf(cells._e2_others(big[:1].T)).all()
    with np.errstate(all="raise"):
        assert not cells._screened(big, 0.0, np.array([True, False])).any()


def test_prox_cells_equals_the_unscreened_prox_bit_for_bit():
    # a screened row enters the case pick as an invalid row with zero
    # weights, as the unscreened case solve leaves it; the screen keeps the
    # rows of the polish cells, which reach the Newton polish and the IPM
    rng = np.random.default_rng(32)
    cells_mat = rng.normal(size=(500, 4)) * np.exp(rng.uniform(-2.0, 2.0, size=(500, 1)))
    calls = [(cells_mat, lam) for lam in (0.0, 0.01, 0.1, 0.3, 1.0, 3.0)]
    calls += [(np.array([p.values[0]]), p.values[1]) for p in POLISH_CELLS]
    calls.append((np.ldexp(cells_mat, 900), np.ldexp(0.3, -900)))
    for C, lam in calls:
        assert prox_cells(C, lam).tobytes() == prox_cells_unscreened(C, lam).tobytes(), lam


def test_psd_rows_matches_the_spectrum():
    # Gershgorin's shortcut and the elementwise LDL^T give the eigenvalue
    # test's verdict on both cases, away from its boundary, and fail a NaN
    rng = np.random.default_rng(38)
    n = 20000
    W = rng.uniform(size=(n, 4)) * 10.0 ** rng.uniform(-1.0, 0.5, size=(n, 1))
    lam, pinned = 10.0 ** rng.uniform(-2.0, 1.0, size=n), rng.random(n) < 0.5
    W[pinned, 3] = 0.0
    got = cells._psd_rows(W, lam, pinned)
    eig = np.array([np.linalg.eigvalsh(cells._case_hessian(w, lam_i, pin))[0]
                    for w, lam_i, pin in zip(W, lam, pinned)])
    clear = np.abs(eig + cells._SECOND_ORDER_TOL) > 1e-12
    assert np.array_equal(got[clear], eig[clear] >= -cells._SECOND_ORDER_TOL)
    for pin in (True, False):  # each case, on both sides, past Gershgorin too
        gersh = (2.0 - pin) * lam * (W.sum(axis=1) - W.min(axis=1)) <= 1.0
        assert np.any(got & ~gersh & (pinned == pin)) and np.any(~got & (pinned == pin))
    W[0, 1] = np.nan
    assert not cells._psd_rows(W[:1], lam[:1], pinned[:1])[0]


def test_dense_stationary_point_outside_the_convex_region_is_invalid():
    # at z = ones(4), lam = 5 the dense row converges to the symmetric point
    # w + 3 lam w^2 = 1, where hessian_f is indefinite: not the case's
    # minimizer on its convex region, so the case is invalid, as the IPM
    # finds. The screen keeps the row, as its lower bound max(1 - 3 lam, 0)
    # is 0, and the prox is the 2-sparse one, which the oracle finds
    z, lam = np.ones(4), 5.0
    assert not cells._screened(z[None, :], lam, np.array([False]))[0]
    w, outcome, iters = cells._gd_row(z.tolist(), lam, False)
    assert outcome == 0
    assert np.allclose(w, (np.sqrt(1.0 + 12.0 * lam) - 1.0) / (6.0 * lam), atol=1e-9)
    assert not is_psd(hessian_f(w, lam))
    assert solve_case_gd(z, lam, "dense") == (None, False, iters)
    assert solve_case_ipm(z, lam, "dense") is None
    out = prox_cells(z[None, :], lam)[0]
    assert np.array_equal(out, [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(out, brute_force_prox_oracle(z, lam)[0])


# ---------------------------------------------------------------------------
# the 3-sparse and dense cases as scalar roots


def _pinned_hessians(W, lam):
    # the 3-sparse case Hessians of the rows of W, stacked
    H = np.broadcast_to(np.eye(3), (len(W), 3, 3)).copy()
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        H[:, i, j] = H[:, j, i] = lam * W[:, k]
    return H


def _case_hessians(W, lam, pinned):
    # the case Hessians of the rows of W, stacked: the 3-sparse case's if
    # pinned, else the dense case's
    if pinned:
        return _pinned_hessians(W, lam)
    return np.array([hessian_f(w, lam_i) for w, lam_i in zip(W, lam)]).reshape(-1, 4, 4)


def _roots_of(pinned):
    return cells._pinned_roots if pinned else cells._dense_roots


def _root_and_kernel(Z, lam, pinned):
    """The normalized rows of the sorted cells Z at lam, in the 3-sparse case
    if pinned and the dense case otherwise, which rows that case's root
    decides, and _solve_case_rows' (W, valid) with the roots and with GD
    alone."""
    Z, lam, _ = normalized_rows(Z, lam)
    pinned = np.full(len(Z), pinned)
    decided, _ = _roots_of(pinned[0])(Z, lam, pinned)
    W, valid, _, _ = cells._solve_case_rows(Z, lam, pinned)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cells, "_pinned_roots", _no_roots)
        m.setattr(cells, "_dense_roots", _no_roots)
        W_k, valid_k, _, _ = cells._solve_case_rows(Z, lam, pinned)
    return Z, lam, decided, W, valid, W_k, valid_k


def test_root_and_kernel_make_the_same_case_decisions():
    # on the acceptance batch (1000 sorted cells at lam 0.01, 0.1, 1 and 10)
    # and on 20,000 sorted cells at lam log-uniform on [0.01, 10], the 3-sparse
    # root decides every pinned row below the 2-sparse threshold, the dense
    # root only rows that GD calls valid, and both give GD's verdict. GD
    # stops on a step of 1e-10 of the scale, so its weights are off by up
    # to that over the case Hessian's smallest eigenvalue; the roots' agree
    # with them to 1e-9 of the scale over it
    rng = np.random.default_rng(2024)
    batches = [(np.array([sorted_abs(rng) for _ in range(1000)]),
                np.resize([0.01, 0.1, 1.0, 10.0], 1000))]
    rng = np.random.default_rng(33)
    batches.append((np.sort(np.abs(rng.normal(size=(20000, 4))), axis=1)[:, ::-1],
                    10.0 ** rng.uniform(-2.0, 1.0, size=20000)))
    for Z, lam in batches:
        for pinned, share in ((True, 0.4), (False, 0.3)):
            Zn, lam_n, decided, W, valid, W_k, valid_k = _root_and_kernel(Z, lam, pinned)
            if pinned:
                assert np.array_equal(decided, lam_n * Zn[:, 0] * Zn[:, 1] < Zn[:, 2])
            else:
                assert np.all(valid_k[decided])
            assert np.array_equal(valid, valid_k)
            both = decided & valid
            assert both.sum() > share * len(Zn)  # 10,669 and 6,605 of the 20,000
            eig = np.linalg.eigvalsh(_case_hessians(W[both], lam_n[both], pinned))[:, 0]
            err = np.abs(W[both] - W_k[both]).max(axis=1)
            assert np.all(err <= 1e-9 * np.maximum(1.0, Zn[both, 0]) / eig)


def test_dense_root_decides_only_rows_gd_calls_valid():
    # on 60,000 cells z ~ U[0, 2] at lam log-uniform on [0.01, 10], every
    # dense row the root decides is one that GD, row by row, also calls
    # valid, with weights within 1e-8; the root decides almost all of those
    rng = np.random.default_rng(37)
    n = 60000
    Z = np.sort(rng.uniform(0.0, 2.0, size=(n, 4)), axis=1)[:, ::-1]
    lam = np.exp(rng.uniform(np.log(0.01), np.log(10.0), size=n))
    pinned = np.zeros(n, dtype=bool)
    decided, W = cells._dense_roots(Z, lam, pinned)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cells, "_dense_roots", _no_roots)
        W_gd, valid, _, _ = cells._solve_case_rows(Z, lam, pinned)
    assert np.all(valid[decided])
    assert np.abs(W - W_gd[decided]).max() <= 1e-8
    assert decided.sum() >= 0.999 * valid.sum()  # 25,685 of 25,695


def test_root_path_agrees_with_the_ipm():
    # below the 2-sparse threshold the 3-sparse case is the root's; its
    # verdict and weights, and the whole prox, match the interior point's.
    # Dense rows take the dense root in a call of more than _SCALAR_ROWS of
    # them; where it decides, the IPM finds the same weights, and the prox
    # of the call matches the interior point's cell by cell
    rng = np.random.default_rng(34)
    rooted = 0
    for _ in range(60):
        z = sorted_abs(rng, np.exp(rng.uniform(-1.0, 1.0)))
        lam = lambda_thresholds(z) * rng.uniform(0.05, 1.0)
        Zn, lam_n, _ = normalized_rows(z[None, :], lam)
        rooted += int(cells._pinned_roots(Zn, lam_n, np.array([True]))[0][0])
        w, aborted, iters = solve_case_gd(z, lam, "three_sparse")
        w_ipm = solve_case_ipm(z, lam, "three_sparse")
        assert (w is None) == (w_ipm is None) and not aborted and iters == 0, (z, lam)
        if w is not None:
            assert np.abs(w - w_ipm).max() <= 1e-9 * max(1.0, z[0]), (z, lam)
        res, res_ipm = prox_enumerate(z, lam), prox_enumerate_ipm(z, lam)
        assert res.case_tag == res_ipm.case_tag, (z, lam)
        assert np.abs(res.w - res_ipm.w).max() <= 1e-9 * max(1.0, z[0]), (z, lam)
    assert rooted == 60

    n = 60
    Z = np.array([sorted_abs(rng, np.exp(rng.uniform(-1.0, 1.0))) for _ in range(n)])
    lam = 10.0 ** rng.uniform(-2.0, 0.0, size=n)
    Zn, lam_n, s = normalized_rows(Z, lam)
    decided, _ = cells._dense_roots(Zn, lam_n, np.zeros(n, dtype=bool))
    W, valid, _, iters = cells._solve_case_rows(Zn, lam_n, np.zeros(n, dtype=bool))
    assert np.array_equal(iters == 0, decided) and decided.sum() > n // 3  # 24 of the 60
    for i in np.flatnonzero(decided):
        w_ipm = solve_case_ipm(Z[i], lam[i], "dense")
        assert w_ipm is not None, (Z[i], lam[i])
        assert np.abs(W[i] * s[i] - w_ipm).max() <= 1e-9 * max(1.0, Z[i, 0]), (Z[i], lam[i])
    out, *_ = cells._prox_sorted(Z, lam)  # prox_cells' body, at one lam per cell
    for i in range(n):
        w_ipm = prox_enumerate_ipm(Z[i], lam[i]).w
        assert np.abs(out[i] - w_ipm).max() <= 1e-9 * max(1.0, Z[i, 0]), (Z[i], lam[i])


def test_accepted_roots_are_stationary_in_the_psd_region():
    rng = np.random.default_rng(35)
    n = 5000
    Z = np.sort(np.abs(rng.normal(size=(n, 4))), axis=1)[:, ::-1] * np.exp(
        rng.uniform(-3.0, 3.0, size=(n, 1)))
    Z, lam, _ = normalized_rows(Z, 10.0 ** rng.uniform(-2.0, 1.0, size=n))
    for pinned, share in ((True, 4), (False, 6)):
        decided, W = _roots_of(pinned)(Z, lam, np.full(n, pinned))
        assert decided.sum() > n // share and (not pinned or not W[:, 3].any())
        Zd, lam_d, dim = Z[decided], lam[decided], 4 - pinned
        G = cells._grad_rows(W, Zd, lam_d[:, None])[:, :dim]
        assert np.abs(G).max(axis=1).max() <= 1e-12
        assert np.all(W[:, :dim] > 0.0)
        assert np.linalg.eigvalsh(_case_hessians(W, lam_d, pinned))[:, 0].min() >= -1e-9


@pytest.mark.parametrize("z, lam, decided, pinned", [
    pytest.param([1.0, 1.0, 1.0, 0.5], 0.1, True, True, id="three-way-tie"),
    pytest.param([1.0, 1.0, 0.999, 0.3], 0.998, True, True, id="tie-near-u-1"),
    pytest.param([1.0, 1.0, 0.5, 0.5], 0.5, False, True, id="tie-at-threshold"),
    pytest.param([1.6, 1.1, 0.0, 0.0], 0.3, False, True, id="z3-zero"),
    pytest.param([1.6, 1.1, 0.8, 0.5], 0.0, True, True, id="lam-zero"),
    pytest.param([1.6, 1.1, 0.8, 0.5], sys.float_info.max, False, True, id="lam-max"),
    pytest.param([1.6, 1e-300, 1e-300, 0.0], sys.float_info.max, False, True, id="lam-max-tiny"),
    pytest.param([1.6, 1.1, 0.8, 0.0], 0.1, False, False, id="dense-z4-zero"),
    pytest.param([1.0, 1.0, 1.0, 1.0], 0.1, True, False, id="dense-four-way-tie"),
    pytest.param([1.0, 1.0, 1.0, 1.0], 5.0, False, False, id="dense-tie-outside-psd"),
    pytest.param([1.6, 1.1, 0.8, 0.5], 0.0, True, False, id="dense-lam-zero"),
    pytest.param([1.6, 1.1, 0.8, 0.5], sys.float_info.max, False, False, id="dense-lam-max"),
])
def test_root_edge_cases_raise_no_warning(z, lam, decided, pinned):
    # ties, z3 = 0 or z4 = 0, lam = 0 and the largest float lam: the 3-sparse
    # root decides exactly the rows below the 2-sparse threshold, and the
    # dense root a call of the row repeated past _SCALAR_ROWS where its case
    # is valid, with no 0 / 0 at a tie, no overflow and no warning; lam = 0
    # returns z exactly, and the prox is the oracle's
    z = np.array(z)
    m = 1 if pinned else cells._SCALAR_ROWS + 1
    Zn, lam_n, s = normalized_rows(np.repeat(z[None, :], m, axis=0), lam)
    pin = np.full(m, pinned)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        got, W = _roots_of(pinned)(Zn, lam_n, pin)
        W_case, valid, _, iters = cells._solve_case_rows(Zn, lam_n, pin)
        out = prox_cells(np.repeat(z[None, :], m, axis=0), lam)
    assert np.all(got == decided) and np.all((iters == 0) == decided)
    if lam == 0.0:
        assert np.array_equal(W_case[0] * s[0], z if not pinned else [1.6, 1.1, 0.8, 0.0])
    if decided and z[0] == z[1]:
        w1, w2, w3, w4 = W[0] * s[0]
        assert w1 == w2
        if pinned:
            # a tie gives w1 = w2 = z1 / (1 + lam w3), and w3 = z3 - lam w1**2
            assert abs(w1 * (1.0 + lam * w3) - z[0]) <= 1e-12
            assert abs(w3 + lam * w1 * w1 - z[2]) <= 1e-12
        else:
            # a four-way tie gives w + 3 lam w**2 = z1 in every coordinate
            assert w3 == w1
            for w in (w1, w4):
                assert abs(w + 3.0 * lam * w * w - z[0]) <= 1e-12
    if lam < 1e300:
        _, fo = brute_force_prox_oracle(z, lam)
        assert cell_objective(out[0], z, lam) <= fo + 1e-9
    else:
        assert np.array_equal(out[0], clamp_top2(z[None, :])[0])


def test_the_kernel_gets_only_the_rows_the_root_leaves(monkeypatch):
    # one GD pass per prox, on the rows the screen keeps less the ones the
    # roots decide, in calls of more than _SCALAR_ROWS dense rows, where the
    # dense root runs; no pinned row below the 2-sparse threshold is left
    batches = _record_gd_rows(monkeypatch)
    cells_mat = np.random.default_rng(36).normal(size=(400, 4))
    for lam in (0.01, 0.3, 3.0):
        batches.clear()
        prox_cells(cells_mat, lam)
        Z, lam_rows, pinned, gd = _rows_neither_root_decides(cells_mat, lam)
        [(Z_gd, lam_gd, pinned_gd)] = batches
        assert Z_gd.tobytes() == Z[gd].tobytes()
        assert lam_gd.tobytes() == lam_rows[gd].tobytes()
        assert np.array_equal(pinned_gd, pinned[gd])
        P, lam_p = Z_gd[pinned_gd], lam_gd[pinned_gd]
        assert np.all(lam_p * P[:, 0] * P[:, 1] >= P[:, 2])
        dense_kept = np.count_nonzero(~pinned & ~cells._screened(Z, lam_rows, pinned))
        assert dense_kept > cells._SCALAR_ROWS


@pytest.mark.parametrize("lam", [0.0, 0.01, 0.1, 0.3, 1.0, 3.0, sys.float_info.max])
def test_gd_row_loop_matches_the_numpy_reference_bit_for_bit(monkeypatch, lam):
    # the row loop in Python floats takes the numpy reference's steps: every
    # row ends with the same weights, signed zeros included, the same
    # outcome and the same iteration count, on cells with exact and signed
    # zeros, at the largest float lam (whose gradients overflow), and where
    # a cap of 3 iterations stalls rows
    rng = np.random.default_rng(29)
    n = 256
    cells_mat = rng.normal(size=(n, 4)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
    cells_mat[rng.random(size=cells_mat.shape) < 0.1] = -0.0
    cells_mat[rng.random(size=cells_mat.shape) < 0.1] = 0.0
    Z, _, _ = pos_sort_cells(cells_mat)
    Z, pinned, lam_rows = np.vstack([Z, Z]), np.arange(2 * n) < n, np.full(2 * n, lam)
    for max_iter in (cells.DEFAULT_MAX_ITER, 3):
        monkeypatch.setattr(cells, "DEFAULT_MAX_ITER", max_iter)
        got = cells._gd_rows(Z, lam_rows, pinned)
        ref = gd_rows_reference(Z, lam_rows, pinned)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref], max_iter
        if max_iter == 3 and 0.0 < lam < 1e300:
            assert np.count_nonzero(got[1] == 2) > 0  # stalled rows


@pytest.mark.parametrize("lam", [0.1, 0.3, 1.0])
def test_stalled_rows_in_a_mixed_batch_use_their_own_case(monkeypatch, kernel_only, lam):
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
    # the solvers and the case pick work on the cell scaled down
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = prox_cells([[1e150, 7e149, 5e149, 3e149]], 1e-151)
        # its 3-sparse row stalls at the iteration cap and goes to the Newton polish
        polished = prox_cells([[1.1804827732401302e150, 1.0162421188767252e150,
                                9.966559197219987e149, 1.6439813307545067e149]], 1e-150)
        # prox_enumerate's objective, 0.5 (z3**2 + z4**2), is past the largest float
        res = prox_enumerate([1e300, 5e299, 3e299, 1e299], 1e-300)
    assert res.case_tag == "two_sparse" and res.objective == np.inf
    expect = 1e150 * prox_cells([[1.0, 0.7, 0.5, 0.3]], 0.1)
    assert np.count_nonzero(expect) == 4
    assert np.allclose(out, expect, rtol=1e-12, atol=0.0)
    assert np.array_equal(polished, [[1.1804827732401302e150, 1.0162421188767252e150, 0.0, 0.0]])


@pytest.mark.parametrize("k", [1, 37, 100, 300, 500, 700, 1000])
def test_prox_cells_is_equivariant_under_power_of_two_scaling(k):
    # scaling cells by 2**k and lam by 2**-k is exact, so the prox scales
    # bit for bit, also where the unscaled pairwise products overflow
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
    lam2 = lambda_thresholds(z)
    assert type(lam2) is float and lam2 == pytest.approx(0.8 / 1.76)


def test_lambda_thresholds_zero_z3():
    assert lambda_thresholds(np.array([2.0, 1.0, 0.0, 0.0])) == 0.0


def test_lambda_thresholds_of_cells_with_a_zero_product():
    # z1 z2 = 0 or an underflowing z1 z2: z3 = 0 gives 0, and z3 / z1 / z2
    # does not underflow
    for z in ([0.0] * 4, [1.0, 0.0, 0.0, 0.0], [1e-200, 1e-200, 0.0, 0.0]):
        assert lambda_thresholds(np.array(z)) == 0.0
    assert lambda_thresholds(np.array([1e-200, 1e-200, 1e-200, 0.0])) == pytest.approx(1e200)


def test_kkt_two_sparse_above_and_below_threshold():
    z = np.array([1.6, 1.1, 0.8, 0.5])
    lam2 = lambda_thresholds(z)
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


def _tied_cells(rng, n=2048):
    """Random signed cells at scales e^-3 .. e^3, half of them with forced
    magnitude ties (columns 0 = 1, 2 = 3, 0 = 2, and both 0 = 2 and 1 = 3)
    under mixed signs, and about a tenth of the entries exact zeros or
    -0.0."""
    C = rng.normal(size=(n, 4)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
    q = n // 8
    C[:q, 1] = -C[:q, 0]
    C[q:2 * q, 3] = C[q:2 * q, 2]
    C[2 * q:3 * q, 2] = -C[2 * q:3 * q, 0]
    C[3 * q:4 * q, :2] = C[3 * q:4 * q, 2:]
    zero = rng.random(size=C.shape) < 0.1
    C[zero] = np.where(rng.random(size=C.shape) < 0.5, 0.0, -0.0)[zero]
    return C


@pytest.mark.parametrize("kind", ["R0", "R1", "R2"])
def test_prox_simple_matches_the_sort_reference_bit_for_bit(kind):
    rng = np.random.default_rng(150)
    for lam in (0.0, 1e-3, 0.3, 1.0, 1e300, sys.float_info.max):
        C = _tied_cells(rng)
        assert np.signbit(C).any() and (C == 0).any()
        out = prox_simple_cells(C, lam, kind)
        assert out.tobytes() == prox_simple_cells_by_sort(C, lam, kind).tobytes(), lam
    # kept entries whose square overflows raise nothing, as the sort never squared them
    big = np.array([[1e200, -1e300, 1.0, -0.5]])
    with np.errstate(all="raise"):
        out = prox_simple_cells(big, 0.3, kind)
    assert out.tobytes() == prox_simple_cells_by_sort(big, 0.3, kind).tobytes()


def test_top2_mask_keeps_the_first_two_of_the_descending_order():
    rng = np.random.default_rng(151)
    A = np.abs(_tied_cells(rng))
    A[rng.random(size=A.shape) < 0.05] = np.inf
    A[:4] = [[np.inf] * 4, [0.0, np.inf, 0.0, np.inf], [-0.0, 0.0, -0.0, 0.0], [1.0] * 4]
    for V in (A, -A, A * rng.choice([-1.0, 1.0], size=A.shape)):
        expect = np.zeros(V.shape, dtype=bool)
        np.put_along_axis(expect, cells.descending_order(V)[:, :2], True, axis=1)
        assert np.array_equal(cells._top2_mask(V), expect)


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
