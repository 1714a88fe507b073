"""Exact references that only the tests use.

_masked_least_squares_loss refits one row on a fixed support by solving its
least-squares normal equations; brute_force_mask_search enumerates every
2:4 mask of a tiny instance with that refit.
"""

from itertools import combinations, product

import numpy as np


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
