"""Exact references that only the tests use.

_masked_least_squares_loss refits one row on a fixed support by solving its
least-squares normal equations; brute_force_mask_search enumerates every
2:4 mask of a tiny instance with that refit. brute_force_prox_oracle is a
grid-search reference for the sorted cell prox, prox_enumerate_ipm the same
prox with the interior-point case solver, and kkt_check tests a cell for
first-order optimality. regularizer_rNM is the general N:M penalty,
loss_gradient the gradient of the layer loss, and is_psd a spectrum test.
"""

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from prune24.cells import (
    _CASE_TAGS,
    _CASES,
    ProxResult,
    _check_lam,
    _check_sorted,
    _grad_rows,
    _pick_case,
    solve_case_ipm,
)
from prune24.linalg import _check_shapes


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


def prox_enumerate_ipm(z, lam) -> ProxResult:
    """prox_enumerate with solve_case_ipm solving the 3-sparse and dense
    cases: the cross-check of the gradient solver on whole cells."""
    Z = _check_sorted(z)[None, :]
    _check_lam(lam)
    cands = []
    for case in _CASES:
        w, _, _ = solve_case_ipm(Z[0], lam, case)
        cands += [np.zeros((1, 4)) if w is None else w[None, :], np.array([w is not None])]
    W, choice, F = _pick_case(Z, lam, *cands)
    return ProxResult(W[0], _CASE_TAGS[choice[0]], float(F[0]))


def _masked_least_squares_loss(w_star, H, keep):
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
            loss, _ = _masked_least_squares_loss(W_star[r], H, keep)
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
