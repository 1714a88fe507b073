"""Reference pruners to compare against.

wanda_prune scores each weight by |w| times the root mean squared activation
of its input channel and keeps the top 2 per cell; it is exactly optimal when
the input features are uncorrelated (diagonal hessian). sparsegpt_prune is an
OBS-style reconstruction: it walks the matrix in 4-column blocks left to
right, prunes the 2 lowest-error weights per cell, and compensates the still
unfrozen weights through the inverse hessian of the remaining columns; one
Cholesky factorization of the damped hessian supplies every such inverse, so
a call costs O(d^3) rather than a fresh inverse per block.
simple_reg_prune runs the proximal pipeline with the closed-form
hard-threshold / soft-threshold / shrinkage cell proxes.
"""

import numpy as np

from .cells import prox_simple_cells
from .pruner import check_problem, keep_top2, mask_of, proximal_prune_loop


def wanda_scores(W_star: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Score matrix |W*_ij| * sqrt(H_jj)."""
    diag = np.maximum(np.diag(np.asarray(H, dtype=np.float64)), 0.0)
    return np.abs(np.asarray(W_star, dtype=np.float64)) * np.sqrt(diag)[None, :]


def wanda_prune(W_star: np.ndarray, H: np.ndarray):
    """Keep the 2 highest-scoring weights per cell at their original values.

    Raises the ValueErrors of check_problem.
    """
    W_star, H = check_problem(W_star, H)
    mask = keep_top2(wanda_scores(W_star, H)).astype(np.float64)
    return W_star * mask, mask


# Damping of the hessian, relative to mean(diag(H)): enough to factor a
# singular PSD hessian, small enough that it never perturbs the selection (a
# visible damp inflates the scores of weak channels and can flip selections
# even on diagonal hessians, where sparsegpt_prune must match score pruning)
_DAMP_REL = 1e-8


def sparsegpt_prune(W_star: np.ndarray, H: np.ndarray):
    """OBS-style block pruner.

    Processes 4-column blocks left to right. Within a block, each row prunes
    the 2 columns with the smallest error w_q^2 / [Hinv]_qq, where Hinv is
    the inverse of the (damped) hessian restricted to the not-yet-frozen
    columns, and distributes the removed weights onto those columns.

    Every Hinv comes from one factorization. With J the index reversal,
    cholesky(J Hd J) = L gives the upper triangular U = J inv(L) J with
    inv(Hd[b:, b:]) = U[b:, b:]^T U[b:, b:] for every b, so a block needs
    only the 4 rows U[b:b+4, b:]. Inverting Hd before factoring it would
    fail on rank-deficient hessians that this order handles.

    The damping is _DAMP_REL * mean(diag(H)). Raises ValueError when the
    damped hessian is not positive definite, and on the input errors of
    check_problem.
    """
    W_star, H = check_problem(W_star, H)
    W = W_star.copy()
    rows, d = W.shape
    Hd = H[::-1, ::-1].copy()
    Hd.flat[:: d + 1] += _DAMP_REL * float(np.mean(np.diag(H)))
    try:
        L = np.linalg.cholesky(Hd)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular or indefinite damped hessian") from exc
    del Hd
    U = np.linalg.inv(L)
    del L
    U *= np.tri(d, dtype=bool)  # pivoting in inv can leave roundoff above the diagonal
    U = U[::-1, ::-1]

    r = np.arange(rows)[:, None]
    for b in range(0, d, 4):
        S = U[b : b + 4, b:]
        Hinv_q = S.T @ S[:, :4]  # first 4 columns of inv(Hd[b:, b:])
        scores = W[:, b : b + 4] ** 2 / np.diag(Hinv_q)[None, :]
        q = np.nonzero(~keep_top2(scores))[1].reshape(rows, 2)  # pruned pair, ascending
        # exact compensation for jointly zeroing each row's pair
        coef = np.linalg.solve(Hinv_q[q[:, :, None], q[:, None, :]], W[r, b + q][..., None])
        C = np.zeros((rows, 4))
        C[r, q] = coef[..., 0]
        W[:, b:] -= C @ Hinv_q.T
        W[r, b + q] = 0.0  # exact zeros
    mask = mask_of(W)
    return W, mask


def simple_reg_prune(W_star, H, kind, sched=None, cfg=None):
    """Proximal pipeline with the closed-form R0/R1/R2 cell proxes.

    R2 only shrinks, so it always runs out the iteration budget and is
    finished by clamping each cell to its two largest entries.
    """
    if kind not in ("R0", "R1", "R2"):
        raise ValueError(f"unknown kind {kind!r}")

    def cell_prox(cells, lam):
        return prox_simple_cells(cells, lam, kind)

    return proximal_prune_loop(W_star, H, sched, cfg, cell_prox)
