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

from .cells import BACKENDS, DEFAULT_MAX_ITER, DEFAULT_TOL, prox_cells
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
    backend: str = "gd"        # cell solver: "gd" or "ipm"
    cell_tol: float = DEFAULT_TOL
    cell_max_iter: int = DEFAULT_MAX_ITER


@dataclass
class PruneReport:
    iterations: int
    final_lambda: float
    loss_trace: list = field(default_factory=list)  # (iteration, layer_loss) pairs
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
    1/(2*gamma_max(H)) the loss is non-increasing.
    """
    W = np.asarray(W, dtype=np.float64) * mask
    W_star = np.asarray(W_star, dtype=np.float64)
    if eta is None:
        eta = 1.0 / (2.0 * max(max_eigenvalue(H), np.finfo(float).tiny))
    WsH = W_star @ H
    for _ in range(int(steps)):
        W = W - (2.0 * eta) * (mask * (W @ H - WsH))
    return W


def check_problem(W_star, H):
    """Return (W*, H) as float64 arrays after checking them.

    Raises ValueError unless W* is a matrix whose column count d is a
    multiple of 4, H is (d, d), and neither holds a NaN or infinite entry.
    """
    W_star = np.asarray(W_star, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W_star.ndim != 2:
        raise ValueError(f"W* must be a matrix, got shape {W_star.shape}")
    _cells(W_star)
    d = W_star.shape[1]
    if H.shape != (d, d):
        raise ValueError(f"hessian shape {H.shape} does not match {d} columns")
    if not (np.all(np.isfinite(W_star)) and np.all(np.isfinite(H))):
        raise ValueError("W* and H must be finite (found NaN or inf)")
    return W_star, H


def proximal_prune_loop(W_star, H, sched, cfg, cell_prox):
    """Shared proximal-gradient pruning pipeline.

    cell_prox(cells, lam) maps an (n, 4) array of (signed) cells to its prox.
    Returns (W, mask, report) in the original coordinates. Raises the
    ValueErrors of check_problem.
    """
    W_star, H = check_problem(W_star, H)
    sched = sched or LambdaSchedule()
    cfg = cfg or PruneConfig()

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
    if not trace:
        trace.append((0, layer_loss(W, W_t, H_t)))

    idx = k
    WsH_masked = WsH  # H is fixed; reuse the precomputed product
    for _ in range(int(cfg.gd_steps)):
        W = W - (2.0 * eta) * (mask * (W @ H_t - WsH_masked))
        idx += 1
        trace.append((idx, layer_loss(W, W_t, H_t)))

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
    cfg = cfg or PruneConfig()
    if cfg.backend not in BACKENDS:  # checked here too: a 2:4 input never reaches the prox
        raise ValueError(f"unknown backend {cfg.backend!r}")

    def cell_prox(cells, lam):
        return prox_cells(cells, lam, cfg.cell_tol, cfg.cell_max_iter, cfg.backend)

    return proximal_prune_loop(W_star, H, sched, cfg, cell_prox)
