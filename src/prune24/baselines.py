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

from . import pruner
from .cells import prox_simple_cells
from .linalg import _PSD_RTOL, cholesky_lower
from .pruner import (
    check_problem,
    clamp_top2,
    keep_top2,
    mask_of,
    proximal_prune_loop,
    schedule_lambda,
)


def wanda_prune(W_star: np.ndarray, H: np.ndarray):
    """Keep the 2 weights per cell with the highest score |W*_ij| sqrt(H_jj)
    at their original values.

    Raises the ValueErrors of check_problem.
    """
    W_star, H = check_problem(W_star, H)
    scores = np.abs(W_star) * np.sqrt(np.maximum(np.diag(H), 0.0))[None, :]
    mask = keep_top2(scores).astype(np.float64)
    return W_star * mask, mask


# Damping of the hessian, relative to mean(diag(H)): enough to factor a
# singular PSD hessian, small enough that it never perturbs the selection (a
# visible damp inflates the scores of weak channels and can flip selections
# even on diagonal hessians, where sparsegpt_prune must match score pruning)
_DAMP_REL = 1e-8


# rows of the diagonal blocks that _invert_lower inverts densely
_TRI_LEAF = 64


def _invert_lower(L):
    """Invert a nonsingular lower-triangular L in place; returns L, which
    then holds inv(L), exactly lower triangular.

    Splits L = [[A, 0], [B, C]] and forms inv(L) = [[inv(A), 0],
    [-inv(C) B inv(A), inv(C)]] recursively, so the work is about a third
    of np.linalg.inv's LU solve against a dense identity, and no temporary
    is larger than a quarter of L. Diagonal blocks of at most _TRI_LEAF rows
    go to np.linalg.inv, whose roundoff above their diagonal is cut.
    """
    def invert(lo, hi):
        if hi - lo <= _TRI_LEAF:
            L[lo:hi, lo:hi] = np.tril(np.linalg.inv(L[lo:hi, lo:hi]))
            return
        mid = (lo + hi) // 2
        invert(lo, mid)
        invert(mid, hi)
        L[mid:hi, lo:mid] = -L[mid:hi, mid:hi] @ (L[mid:hi, lo:mid] @ L[lo:mid, lo:mid])

    invert(0, L.shape[0])
    return L


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
    fail on rank-deficient hessians that this order handles. L comes from
    linalg.cholesky_lower and is inverted in place by _invert_lower, both
    by blocks, so L is the only d x d array made.

    The damping is _DAMP_REL * mean(diag(H)). Raises ValueError when the
    damped hessian is not positive definite, and on the input errors of
    check_problem.
    """
    W_star, H = check_problem(W_star, H)
    W = W_star.copy()
    rows, d = W.shape
    try:
        L = cholesky_lower(H[::-1, ::-1], _DAMP_REL * float(np.mean(np.diag(H))))
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular or indefinite damped hessian") from exc
    U = _invert_lower(L)[::-1, ::-1]

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


# The R2 prox divides all but each cell's two largest |v| by 1 + lam, so it
# never zeroes an entry. From 1 + lam >= 1/sqrt(eps) on, the two dropped
# entries carry at most eps of their cell's squared norm, and the cell is
# clamped: the max_iter clamp, early, with the top-2 set of that iteration.
_R2_CLAMP_SHRINK = 1.0 / np.sqrt(np.finfo(float).eps)
# _r2_settle checks first at the first iteration with lam >= this, then at
# each further decade of lam
_R2_FIRST_CHECK = 100.0


def _r2_settle(sched, cfg, W_t, H_t, WsH, gamma):
    """The R2 pipeline's settling check (proximal_prune_loop's _settle).

    The loop's gradient step V = W - R / gamma is nonexpansive in W, as
    0 <= H_t <= gamma I. A check at iteration k takes T = keep_top2(|V|),
    x = _masked_cg's recovery from V * T (the loop's own recovery after a
    clamp at k) and g = (x H_t - W_t H_t) / gamma. While T stays the top-2
    set, the kept part of each later V is within c S_j + rho of x and each
    dropped |V_i| within c S_j of |g_i|, with the row norms rho = |g T| and
    G = |g (1 - T)|, S_{k+1} = |V T - x| + |V (1 - T)| / (1 + lam_k) and
    S_{j+1} = c S_j (1 + u_j) + rho + G u_j, u_j = 1 / (1 + lam_j).
    c = 1 + 2 _PSD_RTOL allows for the roundoff eigenvalues of H_t outside
    [0, gamma], and rho and G carry d eps times the row's scale for each
    step's roundoff. S grows with j. So when in every cell the smallest kept
    |x| beats the largest dropped |g| by more than 2 c S_J + rho, J the
    iteration whose prox clamps or the last one max_iter allows, every
    top-2 set up to J's is T, with no ties, and the check returns (x, steps).
    A row with nothing to fit has no margin and never settles.

    A screen runs first. It scores x = V T, whose g costs one product, with
    rho left out of the bound. The recovery moves x by e = |V T - x|, which
    can raise a margin by at most (1 + c) e and lower G by at most c e,
    while it raises 2 c S_J by at least 2 c (P - c U) e >= 2 c e, P the
    product of all the c (1 + u_j) and U the sum of each u_j times the
    factors after it, as P - 1 >= c U. So the check can pass only where the
    screen does, and the recovery runs only there.

    Checks run at the first iteration with lam >= _R2_FIRST_CHECK, at the
    first of each further decade of lam and, once a check (or its screen)
    finds every margin positive, at the iteration where the shrinking part
    of its bound should fall below the margin. A check costs one product,
    and one recovery and one more product where the screen passes.
    """
    # J: the first iteration whose prox clamps, if max_iter allows it
    lo, last = 0, cfg.max_iter - 1
    while lo < last:
        mid = (lo + last) // 2
        if 1.0 + schedule_lambda(sched, mid, W_t) >= _R2_CLAMP_SHRINK:
            last = mid
        else:
            lo = mid + 1
    d = WsH.shape[1]
    c = 1.0 + 2.0 * _PSD_RTOL
    scale = np.linalg.norm(WsH, axis=1) / gamma
    next_lam, next_k = _R2_FIRST_CHECK, last

    def check(k, V, lam):
        nonlocal next_lam, next_k
        if k >= last or (lam < next_lam and k < next_k):
            return None
        keep = keep_top2(np.abs(V))
        mask = keep.astype(np.float64)
        with np.errstate(over="ignore"):
            u = 1.0 / (1.0 + lam * sched.beta ** np.arange(1.0, last - k))
        # tail[i]: the product of the factors c (1 + u) from term i on
        tail = np.append(np.cumprod((c * (1.0 + u))[::-1])[::-1], 1.0)
        allow = d * np.finfo(float).eps * (np.linalg.norm(V, axis=1) + scale)
        shrunk = np.linalg.norm(V - V * mask, axis=1) / (1.0 + lam)

        def margin_of(x, g):
            kept = np.min(np.where(keep, np.abs(x), np.inf).reshape(-1, 4), axis=1)
            dropped = np.max(np.where(keep, 0.0, np.abs(g)).reshape(-1, 4), axis=1)
            return np.min((kept - dropped).reshape(V.shape[0], -1), axis=1)

        # the screen; allow covers the roundoff of its product
        x = V * mask
        g = (x @ H_t - WsH) / gamma
        margin = margin_of(x, g) + allow
        G = np.maximum(np.linalg.norm(g - g * mask, axis=1) - np.sqrt(d) * allow, 0.0)
        need = 2.0 * c * (tail[0] * shrunk + (u * tail[1:]).sum() * G) * (1.0 - 1e-9)
        if np.all(margin > need):
            x, steps = pruner._masked_cg(x, WsH, H_t, mask, cfg.gd_steps)
            g = (x @ H_t - WsH) / gamma
            rho = np.linalg.norm(g * mask, axis=1) + allow
            G = np.linalg.norm(g - g * mask, axis=1) + allow
            S = (tail[0] * (np.linalg.norm(V * mask - x, axis=1) + shrunk)
                 + tail[1:].sum() * rho + (u * tail[1:]).sum() * G)
            need = 2.0 * c * S + rho
            margin = margin_of(x, g)
            if np.all(margin > need):
                return x, steps
        next_k = last
        if lam >= next_lam:
            next_lam = _R2_FIRST_CHECK * 10.0 ** (np.floor(np.log10(lam / _R2_FIRST_CHECK)) + 1)
        if np.all(margin > 0.0):
            wait = np.log(np.max(need / margin)) / np.log(sched.beta)
            next_k = k + max(1, int(np.ceil(wait)))
        return None

    return check


def simple_reg_prune(W_star, H, kind, sched=None, cfg=None):
    """Proximal pipeline with the closed-form R0/R1/R2 cell proxes.

    R2 only shrinks, so its prox clamps each cell to its two largest entries
    once 1 + lam >= 1/sqrt(eps), and the loop ends there, sparsity reached
    (iteration 2275 of the default schedule), unless max_iter ends it first
    with its own clamp. Before that, _r2_settle may prove at one of a few
    checks that the mask is already final: the loop then clamps at the
    check's iteration and takes the check's recovery, also reported as
    sparsity reached, with the mask and, to roundoff, the weights of the
    full run.
    """
    if kind not in ("R0", "R1", "R2"):
        raise ValueError(f"unknown kind {kind!r}")

    def cell_prox(cells, lam):
        out = prox_simple_cells(cells, lam, kind)
        if kind == "R2" and 1.0 + lam >= _R2_CLAMP_SHRINK:
            return clamp_top2(out)
        return out

    return proximal_prune_loop(W_star, H, sched, cfg, cell_prox,
                               _r2_settle if kind == "R2" else None)
