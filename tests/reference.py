"""Exact references that only the tests use.

masked_least_squares refits one row on a fixed support by solving its
least-squares normal equations; brute_force_mask_search enumerates every
2:4 mask of a tiny instance with that refit. masked_pcg_rows runs textbook
Jacobi-preconditioned CG on each row's masked normal equations, one row at
a time, for the masked recovery to replay, and calibration_problem draws a
layer whose H comes from correlated calibration-style activations.
r2_prune_unsettled is the R2 pipeline without its settling check, which
the settled run's mask must match.
brute_force_prox_oracle is a grid-search reference for the sorted cell
prox, prox_enumerate_ipm the same prox with the interior-point case
solver, and kkt_check tests a cell for first-order optimality.
regularizer_rNM is the general N:M penalty,
loss_gradient the gradient of the layer loss, is_psd a spectrum test, and
hessian_g the 3-sparse case's Hessian in its own 3 coordinates.
prox_simple_cells_by_sort is the R0/R1/R2 prox through the sort reduction
of the cell prox, which the sort-free prox_simple_cells must match bit for
bit. prox_cells_unscreened is prox_cells with every case row solved, which
prox_cells must match bit for bit, and normalized_rows the scaled cells and
penalties that both hand to the solvers. solve_case_gd is the pipeline's
case solve on one sorted cell, gd_rows_reference replays the projected-GD
row loop in numpy, and gd_iterates records that replay's iterates.
"""

import sys
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from prune24 import cells
from prune24.cells import (
    _CASE_TAGS,
    _CASES,
    ProxResult,
    _check_lam,
    _check_sorted,
    _grad_rows,
    _pick_case,
    inv_pos_sort_cells,
    pos_sort_cells,
    solve_case_ipm,
)
from prune24.linalg import _check_shapes, hessian_from_data
from prune24.pruner import clamp_top2, proximal_prune_loop
from prune24.rng import SplitMix64


def regularizer_rNM(w: np.ndarray, N: int, M: int) -> float:
    """Sum over all (N+1)-subsets of the product of absolute entries.

    Zero exactly when w has at most N nonzeros, which is what makes it a
    structured-sparsity penalty.
    """
    w = np.asarray(w, dtype=np.float64)
    if not 1 <= N < M:
        raise ValueError(f"need 1 <= N < M, got N={N} M={M}")
    if w.shape != (M,):
        raise ValueError(f"expected a length-{M} vector, got shape {w.shape}")
    a = np.abs(w)
    return float(sum(np.prod(a[list(S)]) for S in combinations(range(M), N + 1)))


def prox_simple_cells_by_sort(cells, lam, kind) -> np.ndarray:
    """prox_simple_cells computed on the |.|-descending stable sort of each
    cell: the tail (the two smallest magnitudes) is thresholded or shrunk,
    and the sort is undone."""
    Z, order, signs = pos_sort_cells(cells)
    _check_lam(lam)
    out = Z.copy()
    tail = Z[:, 2:]
    if kind == "R0":
        out[:, 2:] = np.where(lam > 0.5 * tail ** 2, 0.0, tail)
    elif kind == "R1":
        out[:, 2:] = np.maximum(tail - lam, 0.0)
    elif kind == "R2":
        out[:, 2:] = tail / (1.0 + lam)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return inv_pos_sort_cells(out, order, signs)


def loss_gradient(W: np.ndarray, W_star: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Gradient of layer_loss in W: 2 (W - W*) H."""
    W = np.asarray(W, dtype=np.float64)
    W_star = np.asarray(W_star, dtype=np.float64)
    _check_shapes(W, W_star, H)
    return 2.0 * ((W - W_star) @ H)


def is_psd(M: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue of symmetric M is >= -tol."""
    eigs = np.linalg.eigvalsh(np.asarray(M, dtype=np.float64))
    return bool(eigs[0] >= -tol)


def hessian_g(w, lam) -> np.ndarray:
    """Hessian of the 3-sparse-case objective in its 3 free coordinates:
    unit diagonal, off-diagonal (i, j) lam times the remaining coordinate."""
    w = np.asarray(w, dtype=np.float64)
    H = np.eye(3)
    H[0, 1] = H[1, 0] = lam * w[2]
    H[0, 2] = H[2, 0] = lam * w[1]
    H[1, 2] = H[2, 1] = lam * w[0]
    return H


def prox_enumerate_ipm(z, lam) -> ProxResult:
    """prox_enumerate with solve_case_ipm solving the 3-sparse and dense
    cases: the cross-check of the gradient solver on whole cells."""
    Z = _check_sorted(z)[None, :]
    _check_lam(lam)
    cands = []
    for case in _CASES:
        w = solve_case_ipm(Z[0], lam, case)
        cands += [np.zeros((1, 4)) if w is None else w[None, :], np.array([w is not None])]
    W, choice, F = _pick_case(Z, lam, *cands)
    return ProxResult(W[0], _CASE_TAGS[choice[0]], float(F[0]))


def normalized_rows(Z, lam):
    """The sorted cells Z and the penalty lam as prox_cells solves them: each
    row divided by s, the largest power of two at most max(z1, 1), and lam
    multiplied by s, capped at the largest float. Returns (Z / s, lam per
    row, s)."""
    s = np.ldexp(1.0, np.frexp(np.maximum(Z[:, 0], 1.0))[1] - 1)
    return Z / s[:, None], np.minimum(lam, sys.float_info.max / s) * s, s


def prox_cells_unscreened(cells_mat, lam) -> np.ndarray:
    """prox_cells without its screen: _pick_case over _solve_case_rows on
    all 2n stacked case rows of the normalized cells, the 3-sparse case on
    the first n."""
    Z, order, signs = pos_sort_cells(cells_mat)
    _check_lam(lam)
    n = Z.shape[0]
    Z, lam, s = normalized_rows(Z, lam)
    W, valid, _, _ = cells._solve_case_rows(np.vstack([Z, Z]), np.concatenate([lam, lam]),
                                            np.arange(2 * n) < n)
    out, _, _ = _pick_case(Z, lam, W[:n], valid[:n], W[n:], valid[n:])
    return inv_pos_sort_cells(out * s[:, None], order, signs)


def _case_input(z, lam, case):
    z = _check_sorted(z)
    _check_lam(lam)
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    return z, np.array([case == "three_sparse"])


def solve_case_gd(z, lam, case):
    """Solve one prox case of the sorted cell z as the pipeline does, by
    cells._solve_case_rows on one row.

    Returns (w, aborted, iterations) where w is None when the case is ruled
    out, either by the gradient-norm abort rule or because a coordinate that
    must be strictly positive converged to zero.
    """
    z, pinned = _case_input(z, lam, case)
    W, valid, aborted, iters = cells._solve_case_rows(z[None, :], np.full(1, lam), pinned)
    return (W[0] if valid[0] else None), bool(aborted[0]), int(iters[0])


def gd_rows_reference(Z, lam, pinned, path=None):
    """cells._gd_row on every row of the (n, 4) sorted cells Z at once, in
    numpy (one lam and one pin per row): the same IEEE operations in the
    same order, each row frozen once it ends. With a list as path, the
    iterates after each iteration are appended to it, the frozen rows'
    included. Returns (W, outcome, iters) as cells._gd_rows does."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    z1, z2, z3, z4 = Z.T
    with np.errstate(over="ignore"):
        eta = 1.0 / (1.0 + 3.0 * np.minimum(lam * (z1 + z2), 1.0))
    step_tol = cells.DEFAULT_TOL * np.maximum(1.0, z1) * eta
    W = np.zeros((n, 4))
    outcome, iters = np.full(n, 2, dtype=np.int8), np.zeros(n, dtype=np.int64)
    gcap, live = np.full(n, np.inf), np.ones(n, dtype=bool)
    with np.errstate(over="ignore"):  # an overflowed gradient norm aborts its row
        for k in range(1, cells.DEFAULT_MAX_ITER + 1):
            w1, w2, w3, w4 = W.T
            s12, p12, s34, p34 = w1 + w2, w1 * w2, w3 + w4, w3 * w4
            G = np.stack([((w2 * s34 + p34) * lam + w1) - z1, ((w1 * s34 + p34) * lam + w2) - z2,
                          ((w4 * s12 + p12) * lam + w3) - z3, ((w3 * s12 + p12) * lam + w4) - z4],
                         axis=1)
            G[pinned, 3] = 0.0
            g1, g2, g3, g4 = G.T
            gn2 = ((g1 * g1 + g2 * g2) + g3 * g3) + g4 * g4
            abort = live & (gn2 > gcap)
            outcome[abort], iters[abort] = 1, k - 1
            live &= ~abort
            gcap = gn2 * cells._ABORT_GUARD2
            Wn = np.maximum(W - eta[:, None] * G, 0.0)
            conv = live & (np.abs(Wn - W).max(axis=1) <= step_tol)
            W = np.where(live[:, None], Wn, W)
            outcome[conv] = 0
            iters[live] = k
            live &= ~conv
            if path is not None:
                path.append(W.copy())
            if not live.any():
                break
    return W, outcome, iters


def gd_iterates(z, lam, case):
    """The projected-GD iterates of one case solve of the sorted cell z, as
    a (k + 1, 4) array from the origin on, for the k iterations of
    cells._gd_row.

    gd_rows_reference replays the solve and records every iterate. Its last
    iterate, outcome and iteration count must equal cells._gd_row's bit for
    bit, so these are the solver's own iterates, on every way a row ends:
    converged, aborted (the row keeps the iterate before the gradient grew)
    or stalled at the cap.
    """
    z, pinned = _case_input(z, lam, case)
    path = [np.zeros((1, 4))]
    W, outcome, iters = gd_rows_reference(z[None, :], np.full(1, float(lam)), pinned, path)
    w, outcome_row, iters_row = cells._gd_row(z.tolist(), float(lam), bool(pinned[0]))
    assert np.array(w).tobytes() == W[0].tobytes(), (z, lam, case)
    assert (outcome_row, iters_row) == (outcome[0], iters[0]), (z, lam, case)
    return np.array(path[:iters[0] + 1])[:, 0]


def masked_least_squares(w_star, H, keep):
    """Exact minimum loss for one row under a fixed support."""
    K = np.flatnonzero(keep)
    target = H[K, :] @ w_star
    HKK = H[np.ix_(K, K)]
    try:
        wk = np.linalg.solve(HKK, target)
    except np.linalg.LinAlgError:
        wk, *_ = np.linalg.lstsq(HKK, target, rcond=None)
    w = np.zeros_like(w_star)
    w[K] = wk
    delta = w - w_star
    return float(delta @ H @ delta), w


def masked_pcg_rows(W, W_star, H, mask, iterations):
    """`iterations` steps of textbook Jacobi-preconditioned CG on each row's
    masked normal equations H_KK w_K = (H w*)_K, K the row's kept columns,
    started from W * mask, with no stop rule."""
    out = W * mask
    for i in range(W.shape[0]):
        K = np.flatnonzero(mask[i])
        A = H[np.ix_(K, K)]
        diag = np.diag(A)
        minv = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0.0)
        x = out[i, K]
        r = (W_star[i] @ H)[K] - A @ x
        z = minv * r
        p = z.copy()
        rz = r @ z
        for _ in range(iterations):
            q = A @ p
            alpha = rz / (p @ q)
            x = x + alpha * p
            r = r - alpha * q
            z = minv * r
            rz_next = r @ z
            p = z + (rz_next / rz) * p
            rz = rz_next
        out[i, K] = x
    return out


def calibration_problem(d, rows, samples, seed):
    """(W*, H) with H = hessian_from_data(X) of calibration-style inputs.

    X = diag(s) (A F + 0.3 E): 32 shared factors (A of shape d x 32 divided
    by sqrt(32), F of shape 32 x samples), noise E, channel scales
    s = exp(N(0, 1)) and 4 outlier channels multiplied by 30, all drawn from
    one SplitMix64 stream. With fewer samples than channels H is singular;
    with more it is ill-conditioned (at d = 256 and seed 7, cond(H) is 4e8
    at 512 samples and 8e7 at 4096).
    """
    stream = SplitMix64(seed)
    A = stream.normal(d * 32).reshape(d, 32) / np.sqrt(32.0)
    F = stream.normal(32 * samples).reshape(32, samples)
    E = stream.normal(d * samples).reshape(d, samples)
    s = np.exp(stream.normal(d))
    s[:: d // 4] *= 30.0
    W_star = stream.normal(rows * d).reshape(rows, d)
    return W_star, hessian_from_data(s[:, None] * (A @ F + 0.3 * E))


def r2_prune_unsettled(W_star, H, sched=None, cfg=None):
    """simple_reg_prune(W*, H, "R2") with no settling check: the R2 prox
    clamps each cell to its two largest entries once 1 + lam >= 1/sqrt(eps),
    and otherwise the max_iter clamp ends the run."""
    bound = 1.0 / np.sqrt(np.finfo(float).eps)

    def cell_prox(cells_, lam):
        out = cells.prox_simple_cells(cells_, lam, "R2")
        return clamp_top2(out) if 1.0 + lam >= bound else out

    return proximal_prune_loop(W_star, H, sched, cfg, cell_prox)


def brute_force_mask_search(W_star: np.ndarray, H: np.ndarray):
    """Exhaustive search over all valid 2:4 masks with exact refits.

    Enumerates 6^(cols/4) masks per row, solves the support-restricted least
    squares for each, and returns (best_mask, total_best_loss). Only viable
    for tiny widths, hence the cols/4 <= 8 guard.
    """
    W_star = np.asarray(W_star, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    d = W_star.shape[1]
    if d % 4 != 0:
        raise ValueError(f"columns must be divisible by 4, got {d}")
    n_cells = d // 4
    if n_cells > 8:
        raise ValueError(f"instance too large: {n_cells} cells per row (max 8)")

    cell_patterns = []
    for kept in combinations(range(4), 2):
        pat = np.zeros(4)
        pat[list(kept)] = 1.0
        cell_patterns.append(pat)

    best_mask = np.zeros_like(W_star)
    total = 0.0
    for r in range(W_star.shape[0]):
        best_loss, best_keep = np.inf, None
        for combo in product(cell_patterns, repeat=n_cells):
            keep = np.concatenate(combo)
            loss, _ = masked_least_squares(W_star[r], H, keep)
            if loss < best_loss:
                best_loss, best_keep = loss, keep
        best_mask[r] = best_keep
        total += best_loss
    return best_mask, total


# ---------------------------------------------------------------------------
# cell optimality check


@dataclass
class KktReport:
    stationarity_residual: float
    nu: np.ndarray  # multipliers for the w >= 0 constraints (= objective gradient)
    primal_feasible: bool
    dual_feasible: bool
    complementary_slack: bool

    @property
    def passed(self) -> bool:
        return self.primal_feasible and self.dual_feasible and self.complementary_slack


def kkt_check(w, z, lam, tol=1e-7) -> KktReport:
    """First-order optimality check for the sorted cell prox at w.

    With nu := grad of the cell objective, a critical point needs nu >= 0,
    w >= 0 and nu_i w_i = 0 per coordinate, all within tol.
    """
    w = np.asarray(w, dtype=np.float64).reshape(4)
    z = _check_sorted(z)
    nu = np.asarray(_grad_rows(w, z, lam))
    comp = float(np.abs(nu * w).max())
    residual = float(np.abs(w - np.maximum(w - nu, 0.0)).max())
    return KktReport(
        stationarity_residual=residual,
        nu=nu,
        primal_feasible=bool(np.all(w >= 0.0)),
        dual_feasible=bool(np.all(nu >= -tol)),
        complementary_slack=bool(comp <= tol),
    )


# ---------------------------------------------------------------------------
# brute-force oracle
#
# Kept deliberately independent of the case solvers in prune24.cells: its own objective
# expression, a dense grid search, and a fixed-step refinement.

_GRID_POINTS = 101  # grid 0, z1/100, ..., z1
_tables = None


def _oracle_tables():
    """Sorted-grid tables shared by all oracle calls.

    The objective is symmetric in the penalty and the quadratic part is
    minimized, over permutations of a candidate, by matching z's descending
    order (a rearrangement argument), so searching only grid points with
    u1 >= u2 >= u3 >= u4 returns the same minimum value as the full grid.
    """
    global _tables
    if _tables is not None:
        return _tables
    n = _GRID_POINTS
    pk, pl = np.tril_indices(n)  # all (k, l) with k >= l, grouped by k
    tail_count = [(j + 1) * (j + 2) // 2 for j in range(n)]
    total = sum(tail_count[j] for i in range(n) for j in range(i + 1))
    i_col = np.empty(total, dtype=np.int32)
    j_col = np.empty(total, dtype=np.int32)
    k_col = np.empty(total, dtype=np.int32)
    l_col = np.empty(total, dtype=np.int32)
    pos = 0
    for i in range(n):
        for j in range(i + 1):
            m = int(tail_count[j])
            i_col[pos:pos + m] = i
            j_col[pos:pos + m] = j
            k_col[pos:pos + m] = pk[:m]
            l_col[pos:pos + m] = pl[:m]
            pos += m
    step = 1.0 / (n - 1)
    U = tuple(c.astype(np.float64) * step for c in (i_col, j_col, k_col, l_col))
    u1, u2, u3, u4 = U
    E3 = u2 * u3 * u4 + u1 * u3 * u4 + u1 * u2 * u4 + u1 * u2 * u3
    _tables = (*U, E3)
    return _tables


def brute_force_prox_oracle(z, lam):
    """Independent reference for the sorted cell prox.

    Evaluates the objective on a uniform grid over [0, z1]^4 with step
    z1/100 plus the exact 2-sparse point, then refines the best point with
    10000 projected-gradient steps at step 1/8, returning the best (w, f)
    seen anywhere.
    """
    z = _check_sorted(z)
    z1, z2, z3, z4 = (float(v) for v in z)
    if z1 <= 0.0:
        return np.zeros(4), 0.0

    def fval(w1, w2, w3, w4):
        q = (w1 - z1) ** 2 + (w2 - z2) ** 2 + (w3 - z3) ** 2 + (w4 - z4) ** 2
        reg = w1 * w2 * w3 + w2 * w3 * w4 + w3 * w4 * w1 + w4 * w1 * w2
        return 0.5 * q + lam * reg

    u1, u2, u3, u4, e3 = _oracle_tables()
    # in-place accumulation; these arrays have ~4.6M entries
    F = u1 - 1.0
    F *= F
    tmp = np.empty_like(F)
    for u, c in ((u2, z2 / z1), (u3, z3 / z1), (u4, z4 / z1)):
        np.subtract(u, c, out=tmp)
        tmp *= tmp
        F += tmp
    F *= 0.5
    np.multiply(e3, lam * z1, out=tmp)
    F += tmp
    b = int(np.argmin(F))
    w = (z1 * u1[b], z1 * u2[b], z1 * u3[b], z1 * u4[b])
    best_w, best_f = w, fval(*w)

    two_sparse = (z1, z2, 0.0, 0.0)
    f2 = fval(*two_sparse)
    if f2 < best_f:
        best_w, best_f = two_sparse, f2

    w1, w2, w3, w4 = best_w
    for _ in range(10000):
        g1 = w1 - z1 + lam * (w2 * w3 + w2 * w4 + w3 * w4)
        g2 = w2 - z2 + lam * (w1 * w3 + w1 * w4 + w3 * w4)
        g3 = w3 - z3 + lam * (w1 * w2 + w1 * w4 + w2 * w4)
        g4 = w4 - z4 + lam * (w1 * w2 + w1 * w3 + w2 * w3)
        n1 = max(w1 - 0.125 * g1, 0.0)
        n2 = max(w2 - 0.125 * g2, 0.0)
        n3 = max(w3 - 0.125 * g3, 0.0)
        n4 = max(w4 - 0.125 * g4, 0.0)
        if n1 == w1 and n2 == w2 and n3 == w3 and n4 == w4:
            break  # exact fixed point: every further step is a no-op
        w1, w2, w3, w4 = n1, n2, n3, n4
        f = fval(w1, w2, w3, w4)
        if f < best_f:
            best_w, best_f = (w1, w2, w3, w4), f
    return np.array(best_w), best_f
