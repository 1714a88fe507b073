"""Everything at the level of one 4-weight cell.

The 2:4 proximal operator
    argmin_w 0.5*||w - z||^2 + lam * (|w1 w2 w3| + |w2 w3 w4| + |w3 w4 w1| + |w4 w1 w2|)
is nonconvex, but after reducing to a sorted nonnegative input it splits into
three candidate cases (2-sparse, 3-sparse, dense), each of which is solvable
by convex optimization.

The 3-sparse and dense cases are solved by projected gradient descent,
started at the origin, with a per-cell step 1/min(4, 1 + 3 lam (z1 + z2)) that
the case Hessian's spectrum on the iterates' box [0, z] allows, and an abort
rule that discards a case as soon as the gradient norm strictly increases
(that cannot happen inside the region where the case objective is convex, so
an increase certifies the case is not the minimizer). This is the pruning
pipeline's solver. The batch hands its last few live cells to a per-row
loop in Python floats with the same arithmetic in the same order, so a
call's slow tail does not pay numpy's per-call overhead on every step.

The case logic lives in two batched functions over n sorted cells:
``_solve_case_rows`` (projected GD, Newton polish of stalled rows, the
second-order check, the interior-point verdict where the polish fails, and
the positivity test) and ``_pick_case`` (per row, the best of
[z1, z2, 0, 0] and the valid 3-sparse and dense candidates, ties going to
the sparser case). A row's case is per-row data: a boolean pin of its last
coordinate at zero selects the 3-sparse case. ``_prox_sorted``, the only
prox body, runs both in one pass over the sorted cells stacked twice, one
copy pinned: ``prox_cells`` (the pipeline's
prox, on signed cells; one cell is a one-row call) reduces to it through
``pos_sort_cells`` and ``inv_pos_sort_cells``, and ``prox_enumerate``
calls it on one sorted cell. ``solve_case_gd`` is the case solve on one
cell. Every entry point raises ValueError unless lam is finite and
nonnegative and the cells are finite. A lam up to the largest finite float
raises no numpy overflow or invalid-value warning, and neither do cells up
to about 1e154, where the solver's pairwise products overflow.

An interior-point solver with a log-det barrier on the objective's Hessian
(``solve_case_ipm``) decides the rare stalled case whose Newton polish
fails; the tests also run it on whole cells as the cross-check of the
gradient solver.
"""

from dataclasses import dataclass

import numpy as np

_ETA = 0.25  # residual scale of the Newton polish: 1 / 4, the convex region's spectrum bound
_ABORT_GUARD2 = (1.0 + 1e-12) ** 2  # a gradient norm must grow by this factor, squared
_POS_RTOL = 1e-12  # coordinates below this (times the cell scale) count as zero

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
_IPM_TOL = 1e-8  # barrier path tolerance of the interior-point solver
_POLISH_MAX_ITER = 40  # Newton steps of the polish of a stalled row
_SECOND_ORDER_TOL = 1e-9  # smallest case-Hessian eigenvalue a polished point may have


# ---------------------------------------------------------------------------
# sign/sort reduction


def _check_lam(lam):
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")


def _check_cells(cells):
    cells = np.asarray(cells, dtype=np.float64)
    if cells.ndim != 2 or cells.shape[1] != 4:
        raise ValueError(f"cells must be an (n, 4) array, got shape {cells.shape}")
    if not np.all(np.isfinite(cells)):
        raise ValueError("cells must be finite (found NaN or inf)")
    return cells


def descending_order(values: np.ndarray) -> np.ndarray:
    """Per row, the column indices by descending value, the lower column first
    in a tie: the one order of pos_sort_cells and pruner.keep_top2, so every
    method keeps the same two weights of a tied cell."""
    return np.argsort(-values, axis=1, kind="stable")


def pos_sort_cells(cells: np.ndarray):
    """Rowwise |.|-descending stable sort of an (n, 4) array.

    Returns (sorted_abs, order, signs); ties keep original order so the
    reduction is deterministic. inv_pos_sort_cells undoes it. Raises
    ValueError unless cells is a finite (n, 4) array.
    """
    cells = _check_cells(cells)
    order = descending_order(np.abs(cells))
    sorted_abs = np.take_along_axis(np.abs(cells), order, axis=1)
    signs = np.where(cells < 0, -1.0, 1.0)
    return sorted_abs, order, signs


def inv_pos_sort_cells(W: np.ndarray, order: np.ndarray, signs: np.ndarray) -> np.ndarray:
    out = np.empty_like(W)
    np.put_along_axis(out, order, W, axis=1)
    return out * signs


# ---------------------------------------------------------------------------
# objective, gradient, Hessians (sorted nonnegative coordinates)


def _objective_rows(W, Z, lam, s=1.0):
    """Cell objective per row: 0.5||w-z||^2 + lam * sum of triple products.

    With a per-row scale s, W and Z hold cells divided by s, and the result
    is the objective of the unscaled cells divided by s**2; s multiplies the
    triple-product sum before lam does, so no lam * s is formed.
    """
    q = 0.5 * np.sum((W - Z) ** 2, axis=-1)
    w1, w2, w3, w4 = W[..., 0], W[..., 1], W[..., 2], W[..., 3]
    reg = w1 * w2 * w3 + w2 * w3 * w4 + w3 * w4 * w1 + w4 * w1 * w2
    return q + lam * (reg * s)


def _grad_rows(W, Z, lam):
    """Gradient of the cell objective: g_i = w_i - z_i + lam * e2(other coords)."""
    s = np.sum(W, axis=-1, keepdims=True)
    e2 = 0.5 * (s ** 2 - np.sum(W ** 2, axis=-1, keepdims=True))
    return W - Z + lam * (e2 - W * (s - W))


def cell_objective(w: np.ndarray, z: np.ndarray, lam: float) -> float:
    return float(_objective_rows(np.asarray(w, float), np.asarray(z, float), lam))


def hessian_f(w: np.ndarray, lam: float) -> np.ndarray:
    """Hessian of the dense-case objective: unit diagonal, off-diagonal
    (i, j) equal to lam times the sum of the two remaining coordinates."""
    w = np.asarray(w, dtype=np.float64)
    s = w.sum()
    H = lam * (s - w[:, None] - w[None, :])
    np.fill_diagonal(H, 1.0)
    return H


def hessian_g(w: np.ndarray, lam: float) -> np.ndarray:
    """Hessian of the 3-sparse-case objective: off-diagonal (i, j) is lam
    times the remaining coordinate."""
    w = np.asarray(w, dtype=np.float64)
    H = np.eye(3)
    H[0, 1] = H[1, 0] = lam * w[2]
    H[0, 2] = H[2, 0] = lam * w[1]
    H[1, 2] = H[2, 1] = lam * w[0]
    return H


def _case_hessian(w, lam, dim):
    # Hessian of the case with dim free coordinates; the 3-sparse case reads
    # only the first 3, so w may be a 4-vector with its last coordinate
    # pinned to zero or the 3 free coordinates alone.
    return hessian_g(w[:3], lam) if dim == 3 else hessian_f(w, lam)


# ---------------------------------------------------------------------------
# projected gradient solver (batched over cells)


def _gd_finish_row(w, z, lam, pinned, eta, step_tol, gcap, k, trajectory=None):
    """The batched loop's step on one cell in Python floats, from the state
    it has after k iterations (iterate w, input z, pin, eta, step tolerance
    and abort cap). Every IEEE operation is the batch's, in the same order:
    the squared norm sums as einsum does over two or more columns, and
    ``x if x > 0.0 else 0.0`` is np.maximum(x, 0.0) for every x but NaN
    (``max(x, 0.0)`` would keep a -0.0). Returns (w, outcome, iters),
    outcome indexing (converged, aborted, stalled); ``trajectory``, if
    given, collects every iterate.
    """
    w1, w2, w3, w4 = w
    z1, z2, z3, z4 = z
    if trajectory is not None:
        trajectory.append(np.array([w1, w2, w3, w4]))
    while k < DEFAULT_MAX_ITER:
        k += 1
        s12, p12, s34, p34 = w1 + w2, w1 * w2, w3 + w4, w3 * w4
        g1 = ((w2 * s34 + p34) * lam + w1) - z1
        g2 = ((w1 * s34 + p34) * lam + w2) - z2
        g3 = ((w4 * s12 + p12) * lam + w3) - z3
        g4 = 0.0 if pinned else ((w3 * s12 + p12) * lam + w4) - z4
        gn2 = ((g1 * g1 + g2 * g2) + g3 * g3) + g4 * g4
        if gn2 > gcap:  # the row keeps the iterate whose gradient grew
            return (w1, w2, w3, w4), 1, k - 1
        gcap = gn2 * _ABORT_GUARD2
        n1, n2, n3, n4 = w1 - eta * g1, w2 - eta * g2, w3 - eta * g3, w4 - eta * g4
        n1 = n1 if n1 > 0.0 else 0.0
        n2 = n2 if n2 > 0.0 else 0.0
        n3 = n3 if n3 > 0.0 else 0.0
        n4 = n4 if n4 > 0.0 else 0.0
        conv = (abs(n1 - w1) <= step_tol and abs(n2 - w2) <= step_tol
                and abs(n3 - w3) <= step_tol and abs(n4 - w4) <= step_tol)
        w1, w2, w3, w4 = n1, n2, n3, n4
        if trajectory is not None:
            trajectory.append(np.array([w1, w2, w3, w4]))
        if conv:
            return (w1, w2, w3, w4), 0, k
    return (w1, w2, w3, w4), 2, k


# A batch iteration costs about 47 us of numpy call overhead however few
# cells are live, and one row step in _gd_finish_row about 1.5 us (2-core
# x86-64 VM, numpy 2.4), so the batch hands its last few live cells to the
# row loop. On the row128 benchmark, 16 ran about a third faster than 8 and
# as fast as 24 or 32.
_SCALAR_ROWS = 16


def _gd_solve_batched(Z, lam, pinned, trajectory=None):
    """Projected GD from the origin on the (n, 4) sorted cells Z.

    A row whose pin (a boolean per row) is set solves the 3-sparse case by
    fixing its last coordinate at zero (the free coordinates then see
    exactly the 3-variable objective); the other rows solve the dense case.
    Each cell steps at eta = 1/min(4, 1 + 3 lam (z1 + z2)): for w >= 0 and
    eta <= 1, g_i >= w_i - z_i, so the iterates stay in the box [0, z], and
    there Gershgorin bounds the spectrum of either case Hessian by
    1 + 3 lam (z1 + z2); 4 bounds it on the convex region. A cell aborts as
    soon as its gradient norm strictly increases between consecutive
    iterates, and converges once its projected step divided by its eta is
    within the tolerance. Once at most _SCALAR_ROWS cells are live, each
    finishes in _gd_finish_row, bit for bit as the batch would finish it; a
    call with a ``trajectory`` (row 0's iterates) runs wholly there.
    Returns (W, converged, aborted, stalled, iters).
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    W_out = np.zeros((n, 4))
    converged = np.zeros(n, dtype=bool)
    aborted = np.zeros(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=np.int64)

    # The live cells are the columns of (4, m) arrays, so every per-cell sum
    # over the 4 coordinates is elementwise arithmetic on rows. A finished
    # cell is written out by index and frozen at the origin (eta 0, a
    # negative step tolerance); the arrays shrink to the live cells at half.
    idx = np.arange(n)
    pin = np.asarray(pinned, dtype=bool)
    Zl = Z.T.copy()
    W = np.zeros_like(Zl)
    gcap = np.full(n, np.inf)  # a squared gradient norm above this aborts
    live = n

    def finish(done, flag, steps):
        out = idx[done]
        W_out[out] = W[:, done].T
        flag[out] = True
        iters[out] = steps
        W[:, done] = 0.0  # a frozen cell's gradient is then -z, never inf
        eta[done] = 0.0
        step_tol[done] = -1.0
        gcap[done] = np.inf  # a frozen cell must not abort on its next gradient
        return out.size

    batch_rows = n if trajectory is not None else _SCALAR_ROWS
    k = 0
    # Near the largest float lam the penalty terms overflow to inf: an
    # infinite gradient norm aborts its cell, and the cell then sits at the
    # origin, so no inf meets a zero eta.
    with np.errstate(over="ignore"):
        eta = 1.0 / (1.0 + 3.0 * np.minimum(lam * (Zl[0] + Zl[1]), 1.0))
        step_tol = DEFAULT_TOL * np.maximum(1.0, Zl[0]) * eta
        while live > batch_rows and k < DEFAULT_MAX_ITER:
            k += 1
            # g_i = w_i - z_i + lam * e2(the other three coordinates); for w1
            # that is w2 (w3 + w4) + w3 w4, and likewise within the pairs
            # (1, 2) and (3, 4)
            P = W.reshape(2, 2, -1)
            sums = P[:, 0] + P[:, 1]
            prods = P[:, 0] * P[:, 1]
            G = (P[:, ::-1] * sums[::-1, None] + prods[::-1, None]).reshape(4, -1)
            G *= lam
            G += W
            G -= Zl
            G[3, pin] = 0.0
            gn2 = np.einsum("ij,ij->j", G, G)

            abort = gn2 > gcap
            gcap = gn2 * _ABORT_GUARD2
            if abort.any():  # these cells keep the iterate whose gradient grew
                live -= finish(abort, aborted, k - 1)
                G[:, abort] = 0.0  # now at the origin: no 0 * inf step below

            Wn = W - eta * G
            np.maximum(Wn, 0.0, out=Wn)
            conv = np.abs(Wn - W).max(axis=0) <= step_tol
            W = Wn
            if conv.any():
                live -= finish(conv, converged, k)

            if 0 < 2 * live <= W.shape[1]:
                keep = step_tol >= 0.0
                idx, pin, W, Zl = idx[keep], pin[keep], W[:, keep], Zl[:, keep]
                eta, step_tol, gcap = eta[keep], step_tol[keep], gcap[keep]

    lam = float(lam)
    for j in np.flatnonzero(step_tol >= 0.0):
        out = idx[j]
        W_out[out], outcome, iters[out] = _gd_finish_row(
            W[:, j].tolist(), Zl[:, j].tolist(), lam, pin[j], float(eta[j]),
            float(step_tol[j]), float(gcap[j]), k, trajectory if out == 0 else None,
        )
        (converged, aborted, stalled)[outcome][out] = True
    return W_out, converged, aborted, stalled, iters


def _newton_polish(w, z, lam, pinned, tol_eff):
    """Newton refinement for rows where plain GD stalls near a flat optimum.

    Operates on the free coordinates only and keeps iterates nonnegative.
    Returns (w, success) where success means the projected-gradient residual
    fell below tol_eff.
    """
    w = np.array(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dim = 4 - int(pinned)  # the free coordinates

    def residual(wv):
        g = _grad_rows(wv, z, lam)
        g[dim:] = 0.0
        return np.abs(wv - np.maximum(wv - _ETA * g, 0.0)).max() / _ETA, g

    res, g = residual(w)
    for _ in range(_POLISH_MAX_ITER):
        if res <= tol_eff:
            return w, True
        A = _case_hessian(w, lam, dim)
        try:
            d = np.linalg.solve(A + 1e-14 * np.eye(dim), -g[:dim])
        except np.linalg.LinAlgError:
            return w, False
        f0 = cell_objective(w, z, lam)
        alpha = 1.0
        improved = False
        for _ in range(50):
            trial = w.copy()
            trial[:dim] = np.maximum(w[:dim] + alpha * d, 0.0)
            if cell_objective(trial, z, lam) <= f0:
                w = trial
                improved = True
                break
            alpha *= 0.5
        if not improved:
            return w, False
        res, g = residual(w)
    return w, res <= tol_eff


def _second_order_ok(w, lam, pinned):
    """Newton-polished points must sit in the PSD region of the case Hessian;
    otherwise the polish found a saddle rather than a case minimum."""
    eigs = np.linalg.eigvalsh(_case_hessian(w, lam, 4 - int(pinned)))
    return bool(eigs[0] >= -_SECOND_ORDER_TOL)


def _solve_case_rows(Z, lam, pinned, trajectory=None):
    """Solve a prox case on every row of an (n, 4) array of sorted cells:
    the 3-sparse case where the row's pin is set, the dense case elsewhere.

    Projected GD, then a Newton polish and second-order check on stalled
    rows; a stalled row whose polish fails takes the interior-point solver's
    verdict. A row is valid when its case's free coordinates end up strictly
    positive; an invalid row's weights are zeroed. Returns (W, valid,
    aborted, iters).
    """
    W, conv, aborted, stalled, iters = _gd_solve_batched(Z, lam, pinned, trajectory)
    for idx in np.flatnonzero(stalled):
        pin = pinned[idx]
        tol_eff = DEFAULT_TOL * max(1.0, Z[idx, 0])
        W[idx], ok = _newton_polish(W[idx], Z[idx], lam, pin, tol_eff)
        if ok:
            conv[idx] = _second_order_ok(W[idx], lam, pin)
            continue
        # the polish can reject a step that does reach the optimum (its
        # objective test is blind below a few ulps), so this row's GD
        # iterate proves nothing either way
        w, _, _ = solve_case_ipm(Z[idx], lam, "three_sparse" if pin else "dense")
        conv[idx] = w is not None
        if w is not None:
            W[idx] = w
    thr = _POS_RTOL * np.maximum(1.0, Z[:, 0])
    valid = conv & np.all(W[:, :3] > thr[:, None], axis=1) & (pinned | (W[:, 3] > thr))
    W[~valid] = 0.0  # lam times an invalid iterate's penalty can overflow
    return W, valid, aborted, iters


def _check_sorted(z):
    z = _check_cells(np.reshape(z, (1, 4)))[0]
    if z[3] < 0 or np.any(np.diff(z) > 0):
        raise ValueError(f"cell input must be sorted nonnegative, got {z}")
    return z


def solve_case_gd(z, lam, case, trajectory=None):
    """Solve one prox case by projected gradient descent.

    Returns (w, aborted, iterations) where w is None when the case is ruled
    out, either by the gradient-norm abort rule or because a coordinate that
    must be strictly positive converged to zero. ``trajectory``, if given,
    collects every GD iterate for convexity-region monitoring.
    """
    z = _check_sorted(z)
    _check_lam(lam)
    if case not in ("dense", "three_sparse"):
        raise ValueError(f"unknown case {case!r}")
    W, valid, aborted, iters = _solve_case_rows(
        z[None, :], lam, np.array([case == "three_sparse"]), trajectory
    )
    return (W[0] if valid[0] else None), bool(aborted[0]), int(iters[0])


# ---------------------------------------------------------------------------
# interior-point solver (cross-check of the gradient solver, and its fallback
# where the Newton polish fails)

# constant slope matrices of the case Hessian: dA/dw_i = lam * C_i
def _slope_mats(dim):
    mats = []
    for i in range(dim):
        C = np.zeros((dim, dim))
        for j in range(dim):
            for k in range(dim):
                if j != k and i not in (j, k):
                    C[j, k] = 1.0
        mats.append(C)
    return mats


_C4 = _slope_mats(4)
_C3 = _slope_mats(3)


def _case_f(w, z, lam, dim):
    if dim == 3:  # the free coordinates of the 3-sparse case alone
        return 0.5 * np.sum((w - z[:3]) ** 2) + lam * w[0] * w[1] * w[2]
    return _objective_rows(w, z, lam)


def _chol_ok(A):
    try:
        np.linalg.cholesky(A)
        return True
    except np.linalg.LinAlgError:
        return False


def _barrier_value(w, lam, dim):
    A = _case_hessian(w, lam, dim)
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0 or np.any(w <= 0.0):
        return np.inf
    return -logdet - np.sum(np.log(w))


def _barrier_grad_hess(w, lam, dim):
    A = _case_hessian(w, lam, dim)
    Ainv = np.linalg.inv(A)
    Cs = _C3 if dim == 3 else _C4
    M = [Ainv @ C for C in Cs]
    grad = np.array([-lam * np.trace(Mi) for Mi in M]) - 1.0 / w
    hess = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            hess[i, j] = hess[j, i] = lam * lam * np.trace(M[i] @ M[j])
    hess += np.diag(1.0 / w ** 2)
    return grad, hess


def solve_case_ipm(z, lam, case):
    """Solve one prox case by a path-following barrier method.

    Minimizes the case objective over {w >= 0, case Hessian PSD} with the
    barrier -log det(Hessian) - sum log(w_i), multiplying the path parameter
    by 10 per outer step. Returns (w, rejected, newton_iters); w is None when
    the constrained minimizer is not an interior stationary point of the
    case objective, i.e. the case cannot be the cell optimum.
    """
    z = _check_sorted(z)
    _check_lam(lam)
    if case not in ("dense", "three_sparse"):
        raise ValueError(f"unknown case {case!r}")
    dim = 3 if case == "three_sparse" else 4

    w = np.minimum(z[:dim], 0.1)
    if np.any(w <= 0.0) or not _chol_ok(_case_hessian(w, lam, dim)):
        eps = 1e-3
        for _ in range(200):
            w = np.full(dim, eps)
            if _chol_ok(_case_hessian(w, lam, dim)):
                break
            eps *= 0.5
        else:
            raise RuntimeError("no strictly feasible barrier start")

    nu = 2.0 * dim  # barrier parameter: dim from log-det, dim from the logs
    t = 1.0
    total_newton = 0
    while nu / t >= _IPM_TOL:
        for _ in range(60):
            g_f = _grad_rows(w, z[:dim], lam)
            g_b, h_b = _barrier_grad_hess(w, lam, dim)
            grad = t * g_f + g_b
            hess = t * _case_hessian(w, lam, dim) + h_b
            try:
                d = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            decrement = float(-grad @ d)
            total_newton += 1
            if decrement <= 2e-10:
                break
            F0 = t * _case_f(w, z, lam, dim) + _barrier_value(w, lam, dim)
            alpha, stepped = 1.0, False
            for _ in range(60):
                trial = w + alpha * d
                Ft = t * _case_f(trial, z, lam, dim) + _barrier_value(trial, lam, dim)
                if Ft <= F0 - 0.25 * alpha * decrement:
                    w, stepped = trial, True
                    break
                alpha *= 0.5
            if not stepped:
                break
        t *= 10.0

    # the case is the optimum only if the barrier minimizer is an interior
    # stationary point of the plain objective; active constraints leave the
    # plain gradient bounded away from zero
    scale = max(1.0, z[0])
    thr = _POS_RTOL * scale
    near_stationary = np.abs(_grad_rows(w, z[:dim], lam)).max() <= 1e-3 * scale
    if np.all(w > thr) and near_stationary:
        w4 = np.zeros(4)
        w4[:dim] = w
        # the polish moves only the free coordinates: a 3-sparse w4[3] stays 0
        w4, ok = _newton_polish(w4, z, lam, dim == 3, tol_eff=1e-11 * scale)
        if ok and np.all(w4[:dim] > thr) and _second_order_ok(w4, lam, dim == 3):
            return w4, False, total_newton
    return None, True, total_newton


# ---------------------------------------------------------------------------
# case enumeration


@dataclass
class ProxResult:
    """Solution of the sorted-cell prox: the weights, the winning case and
    its objective."""

    w: np.ndarray
    case_tag: str  # two_sparse | three_sparse | dense
    objective: float


_CASES = ("three_sparse", "dense")
_CASE_TAGS = ("two_sparse",) + _CASES


def _pick_case(Z, lam, W3, valid3, W4, valid4):
    """Per row of the sorted cells Z, the best of [z1, z2, 0, 0] and the
    valid 3-sparse and dense candidates, ties going to the sparser case.
    Returns (W, choice, objective) with choice indexing _CASE_TAGS."""
    W2 = Z.copy()
    W2[:, 2:] = 0.0
    # each row is scored on W/s and Z/s, s the largest power of two <= max(z1, 1):
    # the scaling is exact, so the scores are the unscaled ones over s**2 wherever
    # those are finite, and the triple-product sum, which overflows for cells
    # above about 5e102, stays under 32 (each scaled weight is below 2)
    s = np.ldexp(1.0, np.frexp(np.maximum(Z[:, 0], 1.0))[1] - 1)
    Zs = Z / s[:, None]

    def score(W):
        return _objective_rows(W / s[:, None], Zs, lam, s)

    F = np.stack(
        [score(W2), np.where(valid3, score(W3), np.inf), np.where(valid4, score(W4), np.inf)],
        axis=1,
    )
    choice = np.argmin(F, axis=1)  # ties resolve toward the sparser case
    out = W2
    out[choice == 1] = W3[choice == 1]
    out[choice == 2] = W4[choice == 2]
    return out, choice, F.min(axis=1) * s * s


def _prox_sorted(Z, lam):
    """The prox of every row of the (n, 4) sorted nonnegative cells Z: both
    convex cases in one projected-GD batch (the 3-sparse case on the first
    n rows, the dense case on the last n), then the case pick. Returns
    _pick_case's (W, choice, objective)."""
    n = Z.shape[0]
    W, valid, *_ = _solve_case_rows(np.vstack([Z, Z]), lam, np.arange(2 * n) < n)
    return _pick_case(Z, lam, W[:n], valid[:n], W[n:], valid[n:])


def prox_enumerate(z, lam) -> ProxResult:
    """Solve the sorted nonnegative cell prox by enumerating the three cases.

    Evaluates the closed-form 2-sparse candidate [z1, z2, 0, 0] and the
    3-sparse and dense candidates from projected GD (the same solve as
    prox_cells), then returns the one with the smallest objective (ties go
    to the sparser case). Raises ValueError unless z is sorted, nonnegative
    and finite and lam is finite and nonnegative.
    """
    Z = _check_sorted(z)[None, :]
    _check_lam(lam)
    W, choice, F = _prox_sorted(Z, lam)
    return ProxResult(W[0], _CASE_TAGS[choice[0]], float(F[0]))


def prox_cells(cells, lam) -> np.ndarray:
    """2:4 prox of every row of an (n, 4) array of signed cells, solved in
    lockstep; one cell is a one-row call. Equivariant under signed
    permutations of a row. Raises ValueError unless cells is a finite (n, 4)
    array and lam is finite and nonnegative.
    """
    Z, order, signs = pos_sort_cells(cells)
    _check_lam(lam)
    out, _, _ = _prox_sorted(Z, lam)
    return inv_pos_sort_cells(out, order, signs)


# ---------------------------------------------------------------------------
# optimality diagnostics


def lambda_thresholds(z, w123=None):
    """Necessary regularization strengths for sparse critical points.

    Returns (lam2, lam3): a 2-sparse solution requires lam >= z3/(z1 z2); a
    3-sparse one requires lam >= z4/(w1 w2 + w2 w3 + w1 w3) for the 3-sparse
    stationary weights (passing w123=z[:3] gives the weaker input-based
    bound). lam3 is None when w123 is omitted.
    """
    z = _check_sorted(z)
    denom = z[0] * z[1]
    if denom == 0.0:
        raise ValueError("z1 * z2 must be positive")
    lam2 = float(z[2] / denom)
    lam3 = None
    if w123 is not None:
        w1, w2, w3 = (float(v) for v in np.asarray(w123).reshape(3))
        lam3 = float(z[3] / (w1 * w2 + w2 * w3 + w1 * w3))
    return lam2, lam3


# ---------------------------------------------------------------------------
# closed-form proxes for the simpler penalties


def prox_simple_cells(cells, lam, kind) -> np.ndarray:
    """Closed-form prox for the simpler 2:4 penalties on every row of an
    (n, 4) array of signed cells.

    R0 counts nonzeros past the second largest magnitude (hard threshold),
    R1 sums them (soft threshold), R2 sums their squares (shrinkage). The
    two largest-magnitude entries are never touched. Raises ValueError on
    an unknown kind and on the bad cells or lam that prox_cells rejects.
    """
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
