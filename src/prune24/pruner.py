"""Whole-matrix 2:4 pruning by proximal gradient descent.

The pipeline rescales (W*, H) by the activation scales, alternates full-matrix
gradient steps on the reconstruction loss with the per-cell prox under an
exponentially growing penalty until every cell is exactly 2:4 sparse, freezes
the mask, recovers the surviving weights by masked conjugate gradients, and
undoes the rescaling.
"""

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .cells import _top2_mask, prox_cells
from .linalg import certify_psd, layer_loss, max_eigenvalue, precondition, unprecondition


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
    gd_steps: int = 1000       # cap on the masked recovery iterations after the mask freezes


@dataclass
class PruneReport:
    iterations: int
    final_lambda: float
    # (index, loss) after each outer iteration, from the next step's residual
    # (layer_loss to roundoff); then layer_loss after the max_iter clamp (same
    # index as the last iteration) and after the masked recovery (index
    # iterations + the recovery's iterations, at most gd_steps)
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
    """True iff every aligned 4-cell has at most 2 nonzero entries (an entry
    is nonzero when it is not equal to zero, so a NaN counts)."""
    cells = _cells(np.asarray(W, dtype=np.float64))
    # more than half the entries nonzero puts three in some cell
    if np.count_nonzero(cells) > cells.size // 2:
        return False
    return bool(np.all(np.sum(cells != 0.0, axis=1) <= 2))


def mask_of(W: np.ndarray) -> np.ndarray:
    """Binary matrix marking the nonzero entries (NaN included)."""
    W = np.asarray(W, dtype=np.float64)
    _cells(W)  # shape check
    return (W != 0.0).astype(np.float64)


def keep_top2(values: np.ndarray) -> np.ndarray:
    """Boolean mask keeping the 2 largest values of every aligned 4-cell.

    Ties are broken as in cells.descending_order: of equal values the lower
    column is kept, the same two weights the cell proxes keep. Raises
    ValueError on a NaN, which has no place in that order.
    """
    values = np.asarray(values, dtype=np.float64)
    cells = _cells(values)
    if np.isnan(cells).any():
        raise ValueError("cannot rank a cell holding NaN")
    return _top2_mask(cells).reshape(values.shape)


def clamp_top2(W: np.ndarray) -> np.ndarray:
    """Keep the 2 largest-magnitude entries of every cell, zero the rest
    (the ties of keep_top2)."""
    W = np.asarray(W, dtype=np.float64)
    return np.where(keep_top2(np.abs(W)), W, 0.0)


def masked_gd(W, W_star, H, mask, steps):
    """Masked recovery: minimize the reconstruction loss over the weights
    that the mask keeps.

    Returns (W, iterations taken). Masked-out entries stay exactly zero. Each
    row is solved by Jacobi-preconditioned conjugate gradients on its masked
    normal equations (mask * (W H) = mask * (W* H)), one (rows x d) by (d x d)
    product per iteration, with the step scalars per row; see _masked_cg for
    the stop. `steps` caps the iterations.

    Raises the ValueErrors of check_problem, and ValueError when W or mask
    is not shaped like W*, W is not finite, a mask entry is neither 0 nor 1,
    or steps is not a nonnegative integer. H is certified by certify_psd, one
    Cholesky factorization, so it also raises its ValueError on an
    indefinite H.
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
    certify_psd(H)
    return _masked_cg(W, W_star @ H, H, mask, steps)


def _masked_cg(W, WsH, H, mask, steps):
    """masked_gd on checked input, with WsH = W* H; H is not certified here.

    Row i minimizes its loss over the vectors that its mask keeps, so its
    residual is r = mask * (W* H - W H) and its curvature along p is p^T H p.
    Each row runs textbook preconditioned CG in the original coordinates,
    with z = r / diag(H) (0 where diag(H) is 0); in the pipeline H has a unit
    diagonal, and z is r bit for bit. A row stops for good once
    ||r||^2 <= (d eps)^2 ||mask * (W* H)||^2, its roundoff floor, or once its
    curvature p^T H p is not positive (p is 0, or lies in the null space of
    H to roundoff). The loop ends when every row has stopped, or after
    `steps` iterations. A row whose masked residual is 0 at the start (an
    all-zero mask row, or a row already at its optimum) keeps its values,
    and when every row's is, W * mask is returned bit for bit.
    """
    diag = np.diagonal(H)
    minv = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0.0)
    # four rows x d arrays, updated in place: once Q has moved R, it holds
    # alpha P and then the preconditioned residual z
    W = W * mask
    R = (WsH - W @ H) * mask
    floor = (W.shape[1] * np.finfo(float).eps) ** 2 * np.einsum("ij,ij,ij->i", WsH, WsH, mask)
    P = R * minv
    Q = np.empty_like(P)
    rz = np.einsum("ij,ij->i", R, P)
    live = np.ones(W.shape[0], dtype=bool)
    for k in range(steps):
        live &= np.einsum("ij,ij->i", R, R) > floor
        if not live.any():
            return W, k
        np.matmul(P, H, out=Q)
        Q *= mask
        pq = np.einsum("ij,ij->i", P, Q)
        live &= pq > 0.0
        if not live.any():
            return W, k
        alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=live)[:, None]
        Q *= alpha
        R -= Q
        W += np.multiply(alpha, P, out=Q)
        np.multiply(R, minv, out=Q)
        rz_next = np.einsum("ij,ij->i", R, Q)
        beta = np.divide(rz_next, rz, out=np.zeros_like(rz), where=live)[:, None]
        rz = rz_next
        P *= beta
        P += Q
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


def proximal_prune_loop(W_star, H, sched, cfg, cell_prox, _settle=None):
    """Shared proximal-gradient pruning pipeline.

    cell_prox(cells, lam) maps an (n, 4) array of (signed) cells to its prox.
    Returns (W, mask, report) in the original coordinates. Raises the
    ValueErrors of check_problem and of a schedule that cannot work, and the
    ValueError of max_eigenvalue on an indefinite H, before any iteration.

    _settle, which only simple_reg_prune's R2 branch passes, may end the
    loop early. It is called once as _settle(sched, cfg, W_t, H_t, W_t H_t,
    gamma) on the rescaled problem and returns check(k, V, lam), which sees
    each gradient-step iterate V before its prox. A check that returns
    (W, steps) certifies that the loop would end with the mask
    keep_top2(|V|), and that W is _masked_cg's recovery from V on that mask,
    taking steps iterations: the loop then clamps V there, as at a
    sparsity-reached exit, and returns W without a second recovery.
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
    terminated_by = "sparsity_reached"
    check = None if _settle is None else _settle(sched, cfg, W_t, H_t, WsH, gamma)
    recovered = None
    while recovered is None and not is_24_sparse(W):
        if k >= cfg.max_iter:
            terminated_by = "max_iter"
            break
        W = W - (2.0 * eta) * R
        lam = schedule_lambda(sched, k, W_t)
        if check is not None:
            recovered = check(k, W, lam)
        if recovered is None:
            W = cell_prox(_cells(W), lam).reshape(W.shape)
        else:
            W = clamp_top2(W)
        k += 1
        R = W @ H_t - WsH
        trace.append((k, float(np.vdot(W - W_t, R))))

    if terminated_by == "max_iter":
        W = clamp_top2(W)
        trace.append((k, layer_loss(W, W_t, H_t)))

    mask = mask_of(W)
    # H_t is certified above, so the recovery skips masked_gd's input checks
    # and its Cholesky certificate
    W, steps = _masked_cg(W, WsH, H_t, mask, cfg.gd_steps) if recovered is None else recovered
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
