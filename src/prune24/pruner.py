"""Whole-matrix 2:4 pruning by proximal gradient descent.

The pipeline rescales (W*, H) by the activation scales, alternates full-matrix
gradient steps on the reconstruction loss with the per-cell prox under an
exponentially growing penalty until every cell is exactly 2:4 sparse, freezes
the mask, recovers the surviving weights with masked gradient steps, and
undoes the rescaling.
"""

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .cells import descending_order, prox_cells
from .linalg import layer_loss, max_eigenvalue, precondition, unprecondition


@dataclass
class LambdaSchedule:
    """Exponential penalty schedule lam_k = lam0 * beta**k.

    lam0 is lambda0, unless lambda0_tilde is set: then the schedule is
    adaptive, and lam0 is lambda0_tilde / mean(|W*|), so the schedule tracks
    the scale of the weights it is applied to.
    """

    lambda0: float = 0.01
    beta: float = 1.01
    lambda0_tilde: float | None = None


@dataclass
class PruneConfig:
    max_iter: int = 5000       # outer proximal-gradient iterations
    gd_steps: int = 1000       # cap on the masked gradient steps after the mask freezes


@dataclass
class PruneReport:
    iterations: int
    final_lambda: float
    # (index, loss) after each outer iteration, from the next step's residual
    # (layer_loss to roundoff); then layer_loss after the max_iter clamp (same
    # index as the last iteration) and after the masked gradient steps (index
    # iterations + the steps masked_gd took, at most gd_steps)
    loss_trace: list = field(default_factory=list)
    terminated_by: str = "sparsity_reached"


def schedule_lambda(s: LambdaSchedule, k: int, W_star: np.ndarray = None) -> float:
    """Penalty strength at outer iteration k, capped at the largest finite
    float (an infinite penalty turns the cell proxes' inf * 0 into NaN)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s.lambda0_tilde is not None:
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


def is_24_sparse(W: np.ndarray) -> bool:
    """True iff every aligned 4-cell has at most 2 nonzero entries."""
    counts = np.sum(np.abs(_cells(np.asarray(W, dtype=np.float64))) > 0.0, axis=1)
    return bool(np.all(counts <= 2))


def mask_of(W: np.ndarray) -> np.ndarray:
    """Binary matrix marking the nonzero entries."""
    W = np.asarray(W, dtype=np.float64)
    _cells(W)  # shape check
    return (np.abs(W) > 0.0).astype(np.float64)


def keep_top2(values: np.ndarray) -> np.ndarray:
    """Boolean mask keeping the 2 largest values of every aligned 4-cell.

    Ties are broken as in cells.descending_order: of equal values the lower
    column is kept, the same two weights the cell proxes keep.
    """
    values = np.asarray(values, dtype=np.float64)
    order = descending_order(_cells(values))
    keep = np.zeros(order.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :2], True, axis=1)
    return keep.reshape(values.shape)


def clamp_top2(W: np.ndarray) -> np.ndarray:
    """Keep the 2 largest-magnitude entries of every cell, zero the rest
    (the ties of keep_top2)."""
    W = np.asarray(W, dtype=np.float64)
    return np.where(keep_top2(np.abs(W)), W, 0.0)


def masked_gd(W, W_star, H, mask, steps, eta=None):
    """Gradient descent on the reconstruction loss restricted to a mask.

    Returns (W, steps taken). Masked-out entries stay exactly zero. Each step
    forms the masked gradient G = mask * (W H - W* H) (half the gradient) and
    moves W by -2 eta G. The loop stops at the first step whose ||G||_F is not
    smaller than the previous step's, or after `steps` steps.

    Why the stop is exact: with eta = 1/(2 gamma_max(H)), the default, one
    step maps each row g of G to (I - P H P / gamma_max) g, where P projects
    onto the row's mask and 0 <= PHP <= gamma_max I. g = P H e for the row's
    error e, so g is orthogonal to the null space of PHP, and ||g|| falls
    strictly unless g = 0. So in exact arithmetic ||G|| never grows; only
    roundoff stops it before the cap, and every step up to the stop is the
    plain recurrence above. An explicit eta above 1/(2 gamma_max) is outside
    this argument: there ||G|| may grow, and the loop then ends at the first
    step where it does.

    Raises the ValueErrors of check_problem, and ValueError when W or mask
    is not shaped like W*, W is not finite, a mask entry is neither 0 nor 1,
    or steps is not a nonnegative integer. The default step comes from
    max_eigenvalue, so it also raises its ValueError on an indefinite H; an
    explicit eta skips that check.
    """
    W_star, H = check_problem(W_star, H)
    if np.shape(W) != W_star.shape or np.shape(mask) != W_star.shape:
        raise ValueError(f"W {np.shape(W)} and mask {np.shape(mask)} must have "
                         f"the shape of W* {W_star.shape}")
    _check_count("steps", steps)
    W = np.asarray(W, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all(np.isfinite(W)):
        raise ValueError("W must be finite (found NaN or inf)")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    W = W * mask
    if eta is None:
        eta = 1.0 / (2.0 * max(max_eigenvalue(H), np.finfo(float).tiny))
    WsH = W_star @ H
    prev = np.inf
    for k in range(steps):
        # G is the one rows x d temporary of a step; the in-place operations
        # do the arithmetic of W - 2 eta (mask * (W @ H - WsH))
        G = W @ H
        G -= WsH
        G *= mask
        norm2 = float(np.vdot(G, G))
        if not norm2 < prev:
            return W, k
        prev = norm2
        G *= 2.0 * eta
        W -= G
    return W, steps


_SYM_RTOL = 1e-10  # allowed |H_ij - H_ji|, relative to the largest |H_jj|
# rows of H compared at a time, so no d x d temporary is made; at d = 1024
# each temporary is 64 KiB, under glibc's default 128 KiB mmap threshold
# (16-row blocks raised the peak RSS of an 8 x 1024 run by 8 MiB)
_CHECK_ROWS = 8


def check_problem(W_star, H):
    """Return (W*, H) as float64 arrays after checking them.

    Raises ValueError unless W* is a matrix whose column count d is a
    positive multiple of 4, H is (d, d), neither holds a NaN or infinite
    entry, H is symmetric (to _SYM_RTOL) and its diagonal is nonnegative.
    """
    W_star = np.asarray(W_star, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W_star.ndim != 2:
        raise ValueError(f"W* must be a matrix, got shape {W_star.shape}")
    _cells(W_star)
    d = W_star.shape[1]
    if d == 0:
        raise ValueError("W* has no columns")
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


def _check_count(name, value):
    """Raise ValueError unless value is a nonnegative integer."""
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _check_schedule(sched, cfg):
    """Raise ValueError unless the penalty starts positive and grows (else the
    loop can never sparsify) and the step counts are nonnegative integers."""
    lam0 = sched.lambda0 if sched.lambda0_tilde is None else sched.lambda0_tilde
    if not lam0 > 0:
        raise ValueError(f"initial penalty must be positive, got {lam0}")
    if not sched.beta > 1:
        raise ValueError(f"beta must be greater than 1, got {sched.beta}")
    _check_count("max_iter", cfg.max_iter)
    _check_count("gd_steps", cfg.gd_steps)


def proximal_prune_loop(W_star, H, sched, cfg, cell_prox):
    """Shared proximal-gradient pruning pipeline.

    cell_prox(cells, lam) maps an (n, 4) array of (signed) cells to its prox.
    Returns (W, mask, report) in the original coordinates. Raises the
    ValueErrors of check_problem and of a schedule that cannot work, and the
    ValueError of max_eigenvalue on an indefinite H, before any iteration.
    """
    W_star, H = check_problem(W_star, H)
    sched = sched or LambdaSchedule()
    cfg = cfg or PruneConfig()
    _check_schedule(sched, cfg)

    W_t, H_t, scales = precondition(W_star, H)
    # max_eigenvalue also certifies H_t: H_t = D^-1 H D^-1 is congruent to H,
    # so it has the inertia of H. Its diagonal is at most 1, so
    # lambda_max(H_t) <= d, up to a factor 1 + d * 1e-10 for the roundoff
    # negative eigenvalues that linalg._PSD_RTOL = 1e-10 lets through. Each
    # traced loss Tr(E H_t E^T), E = W - W_t, of an accepted H_t is thus at
    # least -1e-10 d ||E||^2: never negative beyond roundoff.
    gamma = max(max_eigenvalue(H_t), np.finfo(float).tiny)
    eta = 1.0 / (2.0 * gamma)
    WsH = W_t @ H_t

    W = W_t.copy()
    # R = (W - W_t) H_t: half the gradient of the loss at W, and the loss is
    # <W - W_t, R>, so one product per iteration serves the trace and the
    # next step
    R = W @ H_t - WsH
    trace = []
    k = 0
    lam = 0.0
    while not is_24_sparse(W):
        if k >= cfg.max_iter:
            break
        W = W - (2.0 * eta) * R
        lam = schedule_lambda(sched, k, W_t)
        W = cell_prox(_cells(W), lam).reshape(W.shape)
        k += 1
        R = W @ H_t - WsH
        trace.append((k, float(np.vdot(W - W_t, R))))

    terminated_by = "sparsity_reached"
    if not is_24_sparse(W):
        terminated_by = "max_iter"
        W = clamp_top2(W)
        trace.append((k, layer_loss(W, W_t, H_t)))

    mask = mask_of(W)
    W, steps = masked_gd(W, W_t, H_t, mask, cfg.gd_steps, eta)
    trace.append((k + steps, layer_loss(W, W_t, H_t)))

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
