"""Whole-matrix 2:4 pruning by proximal gradient descent.

The pipeline rescales (W*, H) by the activation scales, alternates full-matrix
gradient steps on the reconstruction loss with the per-cell prox under an
exponentially growing penalty until every cell is exactly 2:4 sparse, freezes
the mask, recovers the surviving weights with masked gradient steps, and
undoes the rescaling.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .cells import prox_cells
from .linalg import layer_loss, max_eigenvalue, precondition, unprecondition


@dataclass
class LambdaSchedule:
    """Exponential penalty schedule lam_k = lam0 * beta**k.

    With adaptive=True, lam0 is replaced by lambda0_tilde / mean(|W*|) so the
    schedule tracks the scale of the weights it is applied to.
    """

    lambda0: float = 0.01
    beta: float = 1.01
    adaptive: bool = False
    lambda0_tilde: float = 1e-3


@dataclass
class PruneConfig:
    max_iter: int = 5000       # outer proximal-gradient iterations
    gd_steps: int = 1000       # masked gradient steps after the mask freezes


@dataclass
class PruneReport:
    iterations: int
    final_lambda: float
    # (index, layer_loss) after each outer iteration, after the max_iter clamp
    # (same index as the last iteration), and after the masked gradient steps
    # (index iterations + gd_steps)
    loss_trace: list = field(default_factory=list)
    terminated_by: str = "sparsity_reached"


def schedule_lambda(s: LambdaSchedule, k: int, W_star: np.ndarray = None) -> float:
    """Penalty strength at outer iteration k, capped at the largest finite
    float (an infinite penalty turns the cell proxes' inf * 0 into NaN)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s.adaptive:
        if W_star is None:
            raise ValueError("adaptive schedule needs the weight matrix")
        scale = float(np.mean(np.abs(W_star)))
        if scale == 0.0:
            raise ValueError("adaptive schedule undefined: mean |W*| is zero")
        lam0 = s.lambda0_tilde / scale
    else:
        lam0 = s.lambda0
    try:
        return min(lam0 * s.beta ** k, sys.float_info.max)
    except OverflowError:
        return sys.float_info.max


def _cells(W: np.ndarray) -> np.ndarray:
    if W.shape[1] % 4 != 0:
        raise ValueError(f"columns must be divisible by 4, got {W.shape[1]}")
    return W.reshape(-1, 4)


def is_24_sparse(W: np.ndarray, eps: float = 0.0) -> bool:
    """True iff every aligned 4-cell has at most 2 entries with |w| > eps."""
    counts = np.sum(np.abs(_cells(np.asarray(W, dtype=np.float64))) > eps, axis=1)
    return bool(np.all(counts <= 2))


def mask_of(W: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Binary matrix marking entries with |w| > eps."""
    W = np.asarray(W, dtype=np.float64)
    _cells(W)  # shape check
    return (np.abs(W) > eps).astype(np.float64)


def clamp_top2(W: np.ndarray) -> np.ndarray:
    """Keep the 2 largest-magnitude entries of every cell, zero the rest.

    Ties are broken stably: among equal magnitudes the lowest column index is
    pruned first.
    """
    cells = _cells(np.asarray(W, dtype=np.float64)).copy()
    order = np.argsort(np.abs(cells), axis=1, kind="stable")
    np.put_along_axis(cells, order[:, :2], 0.0, axis=1)
    return cells.reshape(W.shape)


def masked_gd(W, W_star, H, mask, steps, eta=None):
    """Gradient descent on the reconstruction loss restricted to a mask.

    Masked-out entries stay exactly zero; with the default step
    1/(2*gamma_max(H)) the loss is non-increasing. Raises the ValueErrors of
    check_problem, and ValueError when W or mask is not shaped like W* or
    steps is negative.
    """
    W_star, H = check_problem(W_star, H)
    if np.shape(W) != W_star.shape or np.shape(mask) != W_star.shape:
        raise ValueError(f"W {np.shape(W)} and mask {np.shape(mask)} must have "
                         f"the shape of W* {W_star.shape}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    W = np.asarray(W, dtype=np.float64) * mask
    if eta is None:
        eta = 1.0 / (2.0 * max(max_eigenvalue(H), np.finfo(float).tiny))
    WsH = W_star @ H
    for _ in range(int(steps)):
        W = W - (2.0 * eta) * (mask * (W @ H - WsH))
    return W


_SYM_RTOL = 1e-10  # allowed |H_ij - H_ji|, relative to the largest |H_jj|
# rows of H compared at a time, so no d x d temporary is made; at d = 1024
# each temporary is 64 KiB, under glibc's default 128 KiB mmap threshold
# (16-row blocks raised the peak RSS of an 8 x 1024 run by 8 MiB)
_CHECK_ROWS = 8


def check_problem(W_star, H):
    """Return (W*, H) as float64 arrays after checking them.

    Raises ValueError unless W* is a matrix whose column count d is a
    multiple of 4, H is (d, d), neither holds a NaN or infinite entry, H is
    symmetric (to _SYM_RTOL) and its diagonal is nonnegative.
    """
    W_star = np.asarray(W_star, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W_star.ndim != 2:
        raise ValueError(f"W* must be a matrix, got shape {W_star.shape}")
    _cells(W_star)
    d = W_star.shape[1]
    if H.shape != (d, d):
        raise ValueError(f"hessian shape {H.shape} does not match {d} columns")
    # min and max propagate NaN and need no temporary the size of H
    H_range = (np.min(H, initial=0.0), np.max(H, initial=0.0))
    if not (np.all(np.isfinite(W_star)) and np.all(np.isfinite(H_range))):
        raise ValueError("W* and H must be finite (found NaN or inf)")
    diag = np.diagonal(H)
    tol = _SYM_RTOL * np.max(np.abs(diag), initial=0.0)
    for i in range(0, d, _CHECK_ROWS):
        # the upper-triangle part of these rows against the matching columns
        if np.any(np.abs(H[i:i + _CHECK_ROWS, i:] - H[i:, i:i + _CHECK_ROWS].T) > tol):
            raise ValueError("hessian is not symmetric")
    if np.any(diag < 0):
        raise ValueError("hessian has a negative diagonal entry, so it is not "
                         "positive semidefinite")
    return W_star, H


def _check_schedule(sched, cfg):
    """Raise ValueError unless the penalty starts positive and grows, and the
    step counts are nonnegative; otherwise the loop can never sparsify."""
    lam0 = sched.lambda0_tilde if sched.adaptive else sched.lambda0
    if not lam0 > 0:
        raise ValueError(f"initial penalty must be positive, got {lam0}")
    if not sched.beta > 1:
        raise ValueError(f"beta must be greater than 1, got {sched.beta}")
    if cfg.max_iter < 0 or cfg.gd_steps < 0:
        raise ValueError(f"max_iter and gd_steps must be nonnegative, "
                         f"got {cfg.max_iter} and {cfg.gd_steps}")


def proximal_prune_loop(W_star, H, sched, cfg, cell_prox):
    """Shared proximal-gradient pruning pipeline.

    cell_prox(cells, lam) maps an (n, 4) array of (signed) cells to its prox.
    Returns (W, mask, report) in the original coordinates. Raises the
    ValueErrors of check_problem and of a schedule that cannot work.
    """
    W_star, H = check_problem(W_star, H)
    sched = sched or LambdaSchedule()
    cfg = cfg or PruneConfig()
    _check_schedule(sched, cfg)

    W_t, H_t, scales = precondition(W_star, H)
    gamma = max(max_eigenvalue(H_t), np.finfo(float).tiny)
    eta = 1.0 / (2.0 * gamma)
    WsH = W_t @ H_t

    W = W_t.copy()
    trace = []
    k = 0
    lam = 0.0
    while not is_24_sparse(W, 0.0):
        if k >= cfg.max_iter:
            break
        W = W - (2.0 * eta) * (W @ H_t - WsH)
        lam = schedule_lambda(sched, k, W_t)
        W = cell_prox(_cells(W), lam).reshape(W.shape)
        k += 1
        trace.append((k, layer_loss(W, W_t, H_t)))

    terminated_by = "sparsity_reached"
    if not is_24_sparse(W, 0.0):
        terminated_by = "max_iter"
        W = clamp_top2(W)
        trace.append((k, layer_loss(W, W_t, H_t)))

    mask = mask_of(W, 0.0)
    W = masked_gd(W, W_t, H_t, mask, cfg.gd_steps, eta)
    trace.append((k + cfg.gd_steps, layer_loss(W, W_t, H_t)))

    W = unprecondition(W, scales)
    report = PruneReport(
        iterations=k,
        final_lambda=lam,
        loss_trace=trace,
        terminated_by=terminated_by,
    )
    return W, mask, report


def prune_prox(W_star, H, sched=None, cfg=None):
    """Prune W* to exact 2:4 sparsity with the triple-product cell prox."""
    # prox_cells is read from the module globals on every call, so a wrapper
    # put on pruner.prox_cells sees every cell prox
    return proximal_prune_loop(W_star, H, sched, cfg, prox_cells)
