"""Everything at the level of one 4-weight cell.

The 2:4 proximal operator
    argmin_w 0.5*||w - z||^2 + lam * (|w1 w2 w3| + |w2 w3 w4| + |w3 w4 w1| + |w4 w1 w2|)
is nonconvex, but after reducing to a sorted nonnegative input it splits into
three candidate cases (2-sparse, 3-sparse, dense), each of which is solvable
by convex optimization.

Both convex cases are scalar roots where it matters most, solved by one
bracketed Newton loop: the 3-sparse case below the 2-sparse threshold,
lam z1 z2 < z3, as a root in w3 (``_pinned_roots``), and the dense case as
a root in w4 (``_dense_roots``, on calls of more than _SCALAR_ROWS dense
rows), each accepted only in its case's PSD region, where the case
objective is convex. Every row no root decides takes projected gradient
descent from the origin, one row at a time in Python floats (``_gd_row``),
with a per-cell step 1/min(4, 1 + 3 lam (z1 + z2)) that the case Hessian's
spectrum on the iterates' box [0, z] allows, and an abort rule that
discards a case once the gradient norm strictly increases (that cannot
happen where the case objective is convex). A point GD converges to counts
only in the case's PSD region (``_psd_rows``).

The case logic lives in two batched functions over n sorted cells:
``_solve_case_rows`` (the two roots, then projected GD on the rows they
leave, Newton polish of stalled rows, the interior-point verdict where the
polish fails, and the positivity and second-order tests)
and ``_pick_case`` (per row, the best of [z1, z2, 0, 0] and the valid
3-sparse and dense candidates, ties going to the sparser case). A row's
case is per-row data: a boolean pin of its last coordinate at zero selects
the 3-sparse case. ``_prox_sorted``, the only prox body, stacks the sorted
cells twice, one copy pinned, drops the case rows that ``_screened`` proves
invalid, and runs both functions in one pass over the rest. ``prox_cells``
(the pipeline's prox, on signed cells; one cell is a one-row call) reduces
to ``_prox_sorted`` through ``pos_sort_cells`` and ``inv_pos_sort_cells``,
and ``prox_enumerate`` calls it on one sorted cell. Every entry point raises
ValueError unless lam is finite and nonnegative and the cells are finite.
``_prox_sorted`` solves every cell scaled exactly to entries below 2, so no
lam up to the largest float and no finite cell raises a numpy overflow,
invalid-value or divide warning.

Every case solver works on the same case form: a sorted 4-vector whose last
coordinate a pin holds at zero in the 3-sparse case. The 3-sparse case's
Hessian is then the leading 3 x 3 block of the dense case's. An
interior-point solver with a log-det barrier on that Hessian
(``solve_case_ipm``) decides the rare stalled case whose Newton polish
fails; the tests also run it on whole cells as the cross-check of the
roots and the gradient solver.
"""

import sys
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
    in a tie: the order of pos_sort_cells, and the order whose first two
    columns _top2_mask keeps, so every method keeps the same two weights of a
    tied cell."""
    return np.argsort(-values, axis=1, kind="stable")


def _majority(x, y, z):
    return (x & y) | (z & (x | y))


def _top2_mask(values: np.ndarray) -> np.ndarray:
    """Boolean (n, 4) mask of each row's two largest entries, without a sort.

    Column i is kept when it beats at least two of the other three, where i
    beats j > i on values[i] >= values[j] (the lower column wins a tie). The
    six comparisons order the row totally, so the kept set is that of the
    first two columns of descending_order, on ties, signed zeros and
    infinities too. values must hold no NaN, which no comparison orders.
    """
    a0, a1, a2, a3 = values.T
    c01, c02, c03 = a0 >= a1, a0 >= a2, a0 >= a3
    c12, c13, c23 = a1 >= a2, a1 >= a3, a2 >= a3
    return np.stack([_majority(c01, c02, c03), _majority(~c01, c12, c13),
                     _majority(~c02, ~c12, c23), _majority(~c03, ~c13, ~c23)], axis=1)


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


def _objective_rows(W, Z, lam):
    """Cell objective per row: 0.5||w-z||^2 + lam * sum of triple products."""
    q = 0.5 * np.sum((W - Z) ** 2, axis=-1)
    w1, w2, w3, w4 = W[..., 0], W[..., 1], W[..., 2], W[..., 3]
    reg = w1 * w2 * w3 + w2 * w3 * w4 + w3 * w4 * w1 + w4 * w1 * w2
    return q + lam * reg


def _grad_rows(W, Z, lam):
    """Gradient of the cell objective: g_i = w_i - z_i + lam * e2(other coords)."""
    s = np.sum(W, axis=-1, keepdims=True)
    e2 = 0.5 * (s ** 2 - np.sum(W ** 2, axis=-1, keepdims=True))
    return W - Z + lam * (e2 - W * (s - W))


def cell_objective(w: np.ndarray, z: np.ndarray, lam: float) -> float:
    """The prox objective 0.5*||w - z||^2 + lam * (|w1 w2 w3| + |w2 w3 w4| +
    |w3 w4 w1| + |w4 w1 w2|) of the signed cell w at the signed input z, as
    a float. On nonnegative w it is _objective_rows' value bit for bit."""
    w, z = np.asarray(w, float), np.asarray(z, float)
    a1, a2, a3, a4 = np.abs(w)
    reg = a1 * a2 * a3 + a2 * a3 * a4 + a3 * a4 * a1 + a4 * a1 * a2
    return float(0.5 * np.sum((w - z) ** 2, axis=-1) + lam * reg)


def hessian_f(w: np.ndarray, lam: float) -> np.ndarray:
    """Hessian of the dense-case objective: unit diagonal, off-diagonal
    (i, j) equal to lam times the sum of the two remaining coordinates."""
    w = np.asarray(w, dtype=np.float64)
    s = w.sum()
    H = lam * (s - w[:, None] - w[None, :])
    np.fill_diagonal(H, 1.0)
    return H


def _case_hessian(w, lam, pinned):
    # Hessian of a case in the free coordinates of the 4-vector w: the dense
    # case, or with the pin the 3-sparse case, whose w4 is 0, so entry (i, j)
    # is lam times the one other free coordinate
    dim = 4 - int(pinned)
    return hessian_f(w, lam)[:dim, :dim]


# ---------------------------------------------------------------------------
# projected gradient solver (one row at a time, in Python floats)


def _gd_row(z, lam, pinned):
    """Projected GD from the origin on one sorted cell z (4 floats) at the
    float lam, in the 3-sparse case if pinned (w4 held at 0), else the dense
    case. The step eta = 1/min(4, 1 + 3 lam (z1 + z2)) keeps the iterates in
    the box [0, z], where that number bounds the spectrum of either case
    Hessian (4 bounds it on the convex region). The row aborts once its
    gradient norm strictly increases (an overflow is inf), and converges
    once its projected step over eta is within
    DEFAULT_TOL max(1, z1). ``x if x > 0.0 else 0.0`` projects -0.0 to 0.0.
    Returns (w, outcome, iters), the outcome 0 if the row converged, 1 if
    it aborted and 2 if it stalled at DEFAULT_MAX_ITER."""
    z1, z2, z3, z4 = z
    eta = 1.0 / (1.0 + 3.0 * min(lam * (z1 + z2), 1.0))
    step_tol = DEFAULT_TOL * max(1.0, z1) * eta
    w1 = w2 = w3 = w4 = 0.0
    gcap, k = float("inf"), 0  # a squared gradient norm above gcap aborts
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
        if conv:
            return (w1, w2, w3, w4), 0, k
    return (w1, w2, w3, w4), 2, k


def _gd_rows(Z, lam, pinned):
    """_gd_row on every row of the (n, 4) sorted cells Z, with one lam and
    one pin per row. Returns (W, outcome, iters) as arrays."""
    n = Z.shape[0]
    W, outcome, iters = np.zeros((n, 4)), np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int64)
    for i, row in enumerate(zip(Z.tolist(), lam.tolist(), pinned.tolist())):
        W[i], outcome[i], iters[i] = _gd_row(*row)
    return W, outcome, iters


def _newton_polish(w, z, lam, pinned, tol_eff):
    """Newton refinement for rows where plain GD stalls near a flat optimum.

    Takes full projected Newton steps max(w + d, 0) on the free coordinates
    while each strictly lowers the projected-gradient residual, the one test
    of the polish. Returns (w, success): the last iterate kept, and whether
    its residual is within tol_eff.
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
        A = _case_hessian(w, lam, pinned)
        try:
            d = np.linalg.solve(A + 1e-14 * np.eye(dim), -g[:dim])
        except np.linalg.LinAlgError:
            return w, False
        trial = w.copy()
        trial[:dim] = np.maximum(w[:dim] + d, 0.0)
        res_t, g_t = residual(trial)
        if not res_t < res:  # a NaN residual fails too
            return w, False
        w, res, g = trial, res_t, g_t
    return w, res <= tol_eff


def _psd_rows(W, lam, pinned):
    """Per row of the nonnegative points W (one lam and one pin per row),
    whether the case Hessian has no eigenvalue below -_SECOND_ORDER_TOL,
    so that a stationary point is the case's minimizer on its convex region.
    Gershgorin certifies a row whose largest off-diagonal row sum is at most
    1: 2 lam (s - min w) in the dense case, at most lam s in the 3-sparse
    case (s = sum w). Each other row must meet only positive pivots in an
    elementwise LDL^T of its Hessian plus _SECOND_ORDER_TOL I (a pinned
    row's last row and column the identity's). A NaN fails."""
    ok = (2.0 - pinned) * lam * (W.sum(axis=1) - W.min(axis=1)) <= 1.0
    rest = np.flatnonzero(~ok)
    if rest.size:
        W, lam, pin = W[rest], lam[rest], pinned[rest]
        H = lam[:, None, None] * (W.sum(axis=1)[:, None, None] - W[:, :, None] - W[:, None, :])
        H[:, range(4), range(4)] = 1.0 + _SECOND_ORDER_TOL
        H[pin, 3, :3] = H[pin, :3, 3] = 0.0
        pos = np.ones(rest.size, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(4):
                pos &= H[:, j, j] > 0.0
                H[:, j + 1:, j + 1:] -= (H[:, j + 1:, j, None] * H[:, None, j, j + 1:]
                                         / H[:, j, j, None, None])
        ok[rest] = pos
    return ok


# ---------------------------------------------------------------------------
# the 3-sparse and dense cases as scalar roots


_ROOT_TOL = 1e-13  # a root has settled once its step is this small (scaled units)
_ROOT_MAX_ITER = 64  # enough bisections to settle any bracket of width <= 2

# The dense root makes about 40 numpy calls per Newton step, of microseconds
# each however few rows they hold, and one _gd_row step costs about 1.5 us,
# so only calls with more than this many unpinned rows take the dense root.
_SCALAR_ROWS = 32


def _bracketed_root(at, hi, g_lo, g_hi):
    """Per row, the root of G on [0, hi], where g_lo = G(0) < 0 <= g_hi =
    G(hi) and at(t) returns G(t) and G'(t) first: Newton steps from the
    regula-falsi point, bisecting where a step would leave the bracket,
    until a step is within _ROOT_TOL. A row's bits do not depend on the
    batch. Returns (t, settled), a boolean per row."""
    lo = np.zeros_like(hi)
    t = hi * (-g_lo / (g_hi - g_lo))
    settled = np.zeros(t.shape, dtype=bool)
    for _ in range(_ROOT_MAX_ITER):
        g, dg = at(t)[:2]
        below = g < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        step = np.divide(g, dg, out=np.full_like(g, np.inf), where=dg > 0.0)
        t_new = np.where((t - step >= lo) & (t - step <= hi), t - step, 0.5 * (lo + hi))
        t_new = np.where(settled, t, t_new)
        settled |= np.abs(t_new - t) <= _ROOT_TOL
        t = t_new
        if settled.all():
            break
    return t, settled


def _pinned_roots(Z, lam, pinned):
    """The 3-sparse case of the pinned rows of the (n, 4) sorted cells Z
    (entries below 2, one lam per row) whose 2-sparse threshold test fails,
    lam z1 z2 < z3, as one scalar root each. Returns (decided, W): a
    boolean per row, and the case weights of the decided rows.

    With w4 = 0 and t = w3 the first two stationarity equations are linear,
    w1 + u w2 = z1 and u w1 + w2 = z2 with u = lam t, and the row is
    stationary iff G(t) = t - z3 + lam w1 w2 = 0. Here lam z1 < 1, so
    u < 1 and w1, w2 > 0 on [0, z3], where G(0) < 0 <= G(z3). G'(t) is the
    Schur complement of the case Hessian on its PD leading block, so a root
    with G' >= 0 is in the case's PSD region, where the case objective is
    convex: it is the case's one stationary point there, and a root that
    crosses upward, as the bracket's does, has G' >= 0. A row whose root
    has not settled, or has G' < 0 in roundoff, is left undecided.
    """
    z1, z2, z3 = Z[:, 0], Z[:, 1], Z[:, 2]
    with np.errstate(over="ignore"):  # an overflow only fails the test
        decided = pinned & (lam * z1 < 1.0) & (lam * z1 * z2 < z3)
    z1, z2, z3, lam = z1[decided], z2[decided], z3[decided], lam[decided]

    def at(t):
        # G, G', w1 and w2 at t; at lam = 0, w1 = z1 and w2 = z2 exactly
        u = lam * t
        det = (1.0 - u) * (1.0 + u)
        w1, w2 = (z1 - u * z2) / det, (z2 - u * z1) / det
        l1, l2 = lam * w1, lam * w2
        return t - z3 + l1 * w2, 1.0 - (l1 * l1 + l2 * l2 - 2.0 * u * l1 * l2) / det, w1, w2

    t, settled = _bracketed_root(at, z3, lam * z1 * z2 - z3, at(z3)[0])
    _, dg, w1, w2 = at(t)
    ok = settled & (dg >= 0.0)
    decided[decided] = ok
    return decided, np.stack([w1, w2, t, np.zeros_like(t)], axis=1)[ok]


def _dense_g(t, Z, lam):
    # G, G' and w1..w3 (a (3, n) array) of _dense_roots at w4 = t; at lam = 0
    # and t = z4, s = sum z and w_i = z_i exactly, so G = 0
    zsum = ((Z[:, 0] + Z[:, 1]) + Z[:, 2]) + Z[:, 3]
    d = lam * t + 0.5
    s = ((lam * t * t + (t - Z[:, 3])) + 0.5 * zsum) / d
    ls = lam * s
    a, ds = 1.0 - ls, 2.0 - ls / d
    q = Z[:, :3].T - 0.5 * (zsum - s)
    r = np.sqrt(a * a + 4.0 * lam * q)
    w = 2.0 * q / (a + r)
    dw = ds * (0.5 + lam * w) / r
    return (((w[0] + w[1]) + w[2]) + t) - s, ((dw[0] + dw[1]) + dw[2]) + (1.0 - ds), w


def _dense_roots(Z, lam, pinned):
    """The dense case of the unpinned rows of the (n, 4) sorted cells Z
    (entries below 2, one lam per row) as one scalar root each, on a call
    of more than _SCALAR_ROWS unpinned rows. Returns (decided, W) as
    _pinned_roots does.

    The stationarity equations add up to s + 2 lam e2(w) = sum z (s = sum w),
    so equation i is lam w_i^2 + a w_i - q_i = 0, with a = 1 - lam s and
    q_i = z_i - (sum z - s) / 2. With t = w4 the fourth gives
    s(t) = (lam t^2 + t + sum z / 2 - z4) / (lam t + 1/2), w1..w3 are the
    "+" roots 2 q_i / (a + sqrt(a^2 + 4 lam q_i)), and the row is stationary
    iff G(t) = w1 + w2 + w3 + t - s(t) = 0, tried where G(0) < 0 <= G(z4).
    (On vectors summing to 0 the case Hessian is diag(2 lam w_i + a), so in
    its PSD region only w4's term may be negative: w1..w3 take the "+"
    roots.) A root counts only if it settled, is stationary to GD's
    tolerance, positive and PSD: then it is the case's minimizer on its
    convex region. PSD bounds each lam (w_k + w_l) by 1, so lam z1 =
    lam w1 + lam^2 e2(w2, w3, w4) < 2 there, and no other row is tried.
    """
    decided = np.zeros(Z.shape[0], dtype=bool)
    if np.count_nonzero(~pinned) <= _SCALAR_ROWS:
        return decided, np.zeros((0, 4))
    with np.errstate(all="ignore"):  # an inf or NaN fails a test below
        rows = np.flatnonzero(~pinned & (lam * Z[:, 0] < 2.0))
        Zr, lam_r = Z[rows], lam[rows]
        g_lo, g_hi = _dense_g(0.0, Zr, lam_r)[0], _dense_g(Zr[:, 3], Zr, lam_r)[0]
        keep = (g_lo < 0.0) & (g_hi >= 0.0)
        rows, Zr, lam_r = rows[keep], Zr[keep], lam_r[keep]
        t, settled = _bracketed_root(lambda t: _dense_g(t, Zr, lam_r), Zr[:, 3], g_lo[keep],
                                     g_hi[keep])
        W = np.vstack([_dense_g(t, Zr, lam_r)[2], t]).T
        scale = np.maximum(1.0, Zr[:, 0])
        ok = (settled & np.all(W > _POS_RTOL * scale[:, None], axis=1)
              & (np.abs(_grad_rows(W, Zr, lam_r[:, None])).max(axis=1) <= DEFAULT_TOL * scale))
        ok[ok] = _psd_rows(W[ok], lam_r[ok], np.zeros(int(ok.sum()), dtype=bool))
    decided[rows[ok]] = True
    return decided, W[ok]


def _solve_case_rows(Z, lam, pinned):
    """Solve a prox case on every row of an (n, 4) array of sorted cells, at
    one lam per row: the 3-sparse case where the row's pin is set, the
    dense case elsewhere. The roots decide the rows they can and _gd_rows
    takes the rest; a stalled row takes a Newton polish, and where the
    polish fails, the interior-point solver's verdict. A row is valid when
    its case's free coordinates end up strictly positive, a GD point only
    in its case's PSD region; an invalid row's weights are zeroed. Returns
    (W, valid, aborted, iters), with 0 iterations on a row a root decided.
    """
    n = Z.shape[0]
    W, decided = np.zeros((n, 4)), np.zeros(n, dtype=bool)
    for roots in (_pinned_roots, _dense_roots):
        got, W_root = roots(Z, lam, pinned)
        W[got] = W_root
        decided |= got
    rest = ~decided
    outcome, iters = np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int64)
    W[rest], outcome[rest], iters[rest] = _gd_rows(Z[rest], lam[rest], pinned[rest])
    conv, aborted = outcome == 0, outcome == 1
    for idx in np.flatnonzero(outcome == 2):
        pin, lam_i = pinned[idx], lam[idx]
        tol_eff = DEFAULT_TOL * max(1.0, Z[idx, 0])
        W[idx], conv[idx] = _newton_polish(W[idx], Z[idx], lam_i, pin, tol_eff)
        if conv[idx]:
            continue
        # the polish fails once a full Newton step stops lowering the
        # residual, which proves nothing about the case either way, so the
        # IPM decides this row
        w = solve_case_ipm(Z[idx], lam_i, "three_sparse" if pin else "dense")
        conv[idx] = w is not None
        if w is not None:
            W[idx] = w
    thr = _POS_RTOL * np.maximum(1.0, Z[:, 0])
    valid = conv & np.all(W[:, :3] > thr[:, None], axis=1) & (pinned | (W[:, 3] > thr))
    check = valid & rest
    valid[check] = _psd_rows(W[check], lam[check], pinned[check])
    W[~valid] = 0.0  # lam times an invalid iterate's penalty can overflow
    return W, valid, aborted, iters


def _e2_others(W):
    """Per column of the (4, m) array W, the elementary symmetric sum of
    degree 2 of the other three coordinates of each coordinate: for w1 that
    is w2 (w3 + w4) + w3 w4, and likewise within the pairs (1, 2) and
    (3, 4). Returns a new (4, m) array."""
    P = W.reshape(2, 2, -1)
    sums = P[:, 0] + P[:, 1]
    prods = P[:, 0] * P[:, 1]
    return (P[:, ::-1] * sums[::-1, None] + prods[::-1, None]).reshape(4, -1)


# Bracket rounds of _screened. On layer256 seed 1111 one round drops 62.54%
# of the 1.01M case rows, two 62.85%, three 62.87% and four 18 rows more. On
# row128 the share keeps rising (41.2, 43.1, 43.8 and 44.3% on seeds 1111
# and 1112), each dropped row shortened the then batched GD's per-row tail,
# and three rounds ran fastest of 1, 2, 3, 4 and 6 (2-core x86-64 VM). With
# the 3-sparse root, two rounds were no faster (lower in 5 and 8 of 15
# alternating pairs on layer256 and row128). The root decides no row the
# screen drops, yet the pinned half still pays: without it the replayed
# prox calls ran 43% and 18% slower, as GD then takes the pinned rows at or
# above the 2-sparse threshold.
_SCREEN_ROUNDS = 3


def _screened(Z, lam, pinned):
    """The rows of the (n, 4) sorted cells Z whose case (the 3-sparse case
    where the row's pin is set, the dense case elsewhere) has no stationary
    point with every free coordinate positive, so that _solve_case_rows
    could only call them invalid (lam: a float or one per row). Returns a
    boolean per row.

    Such a point solves w_i = z_i - lam * e2(the other coordinates), here on
    _e2_others' (4, m) layout with a pinned z4, and so w4, at 0. For
    w >= 0 that e2 grows with every coordinate, so from a bracket
    L <= w <= U, starting at U = z, the point satisfies
    w >= L' = max(z - lam e2(U), 0) and then w <= U' = max(z - lam e2(L'), 0).
    Each round's bracket lies inside the last, as it starts from tighter
    bounds. After _SCREEN_ROUNDS rounds a row is screened if some free
    U_i <= 0. A nested bracket keeps such a U_i at 0, so once round 1 has
    decided at least half the rows, the later rounds bound only the rest
    (on layer256 that saved a fifth of the screen; on row128's smaller
    calls, where fewer rows drop, a compaction cost more than it saved).
    At lam = 0 an overflowed e2 gives 0 * inf = NaN, a bound that screens
    nothing. The bracket holds for exact stationary points, and
    _solve_case_rows accepts points stationary to within its tolerance; the
    tests check that it calls every screened row invalid.
    """
    def dead_of(U, pinned):
        out = U <= 0.0
        out[3] &= ~pinned
        return out.any(axis=0)

    Zl = Z.T.copy()
    Zl[3, pinned] = 0.0
    U = Zl
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(_SCREEN_ROUNDS):
            L = np.maximum(Zl - lam * _e2_others(U), 0.0)
            U = np.maximum(Zl - lam * _e2_others(L), 0.0)
            if r == 0:
                dead, live = dead_of(U, pinned), slice(None)
                if 2 * np.count_nonzero(dead) >= dead.size:  # take() keeps rows contiguous
                    live = np.flatnonzero(~dead)
                    Zl, U, pinned = Zl.take(live, axis=1), U.take(live, axis=1), pinned[live]
                    lam = np.broadcast_to(lam, dead.shape)[live]
    dead[live] = dead_of(U, pinned)
    return dead


def _check_sorted(z):
    z = _check_cells(np.reshape(z, (1, 4)))[0]
    if z[3] < 0 or np.any(np.diff(z) > 0):
        raise ValueError(f"cell input must be sorted nonnegative, got {z}")
    return z


# ---------------------------------------------------------------------------
# interior-point solver (cross-check of the roots and the gradient solver, and
# the fallback where the Newton polish fails)

# constant slope matrices of the dense-case Hessian, dA/dw_i = lam * C_i; the
# 3-sparse case's are the leading 3 x 3 blocks of the first three
def _slope_mats():
    mats = []
    for i in range(4):
        C = np.zeros((4, 4))
        for j in range(4):
            for k in range(4):
                if j != k and i not in (j, k):
                    C[j, k] = 1.0
        mats.append(C)
    return mats


_C4 = _slope_mats()


def _chol_ok(A):
    try:
        np.linalg.cholesky(A)
        return True
    except np.linalg.LinAlgError:
        return False


def _barrier_value(w, lam, pinned):
    dim = 4 - int(pinned)
    sign, logdet = np.linalg.slogdet(_case_hessian(w, lam, pinned))
    if sign <= 0 or np.any(w[:dim] <= 0.0):
        return np.inf
    return -logdet - np.sum(np.log(w[:dim]))


def _barrier_grad_hess(w, lam, pinned):
    dim = 4 - int(pinned)
    Ainv = np.linalg.inv(_case_hessian(w, lam, pinned))
    M = [Ainv @ C[:dim, :dim] for C in _C4[:dim]]
    grad = np.array([-lam * np.trace(Mi) for Mi in M]) - 1.0 / w[:dim]
    hess = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            hess[i, j] = hess[j, i] = lam * lam * np.trace(M[i] @ M[j])
    hess += np.diag(1.0 / w[:dim] ** 2)
    return grad, hess


def solve_case_ipm(z, lam, case):
    """Solve one prox case of the sorted cell z by a path-following barrier
    method.

    The iterate is a 4-vector; the "three_sparse" case pins its last
    coordinate at 0, and every step moves only the free coordinates.
    Minimizes the case objective over {w >= 0, case Hessian PSD} with the
    barrier -log det(Hessian) - sum log(w_i) over the free coordinates,
    multiplying the path parameter by 10 per outer step, and Newton-polishes
    the end point. Returns the polished weights when the polish succeeds and
    they are positive and in the PSD region, where the case objective is
    convex, so they are its minimizer there; otherwise None, as the case
    cannot be the cell optimum. It solves z unscaled (its objective
    overflows above about 5e102); the pipeline hands it the rows that
    _prox_sorted normalized.
    """
    z = _check_sorted(z)
    _check_lam(lam)
    if case not in ("dense", "three_sparse"):
        raise ValueError(f"unknown case {case!r}")
    pinned = case == "three_sparse"
    dim = 4 - int(pinned)  # the free coordinates

    # the case's target: with the pin, w4 = 0 scores no 0.5 * z4**2, a
    # constant whose roundoff would blur the line search
    z_case = z.copy()
    z_case[dim:] = 0.0
    w = np.minimum(z_case, 0.1)
    if np.any(w[:dim] <= 0.0) or not _chol_ok(_case_hessian(w, lam, pinned)):
        eps = 1e-3
        for _ in range(200):
            w[:dim] = eps
            if _chol_ok(_case_hessian(w, lam, pinned)):
                break
            eps *= 0.5
        else:
            raise RuntimeError("no strictly feasible barrier start")

    nu = 2.0 * dim  # barrier parameter: dim from log-det, dim from the logs
    t = 1.0
    while nu / t >= _IPM_TOL:
        for _ in range(60):
            g_b, h_b = _barrier_grad_hess(w, lam, pinned)
            grad = t * _grad_rows(w, z, lam)[:dim] + g_b
            hess = t * _case_hessian(w, lam, pinned) + h_b
            try:
                d = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            decrement = float(-grad @ d)
            if decrement <= 2e-10:
                break
            F0 = t * _objective_rows(w, z_case, lam) + _barrier_value(w, lam, pinned)
            alpha, stepped = 1.0, False
            for _ in range(60):
                trial = w.copy()
                trial[:dim] += alpha * d
                Ft = t * _objective_rows(trial, z_case, lam) + _barrier_value(trial, lam, pinned)
                if Ft <= F0 - 0.25 * alpha * decrement:
                    w, stepped = trial, True
                    break
                alpha *= 0.5
            if not stepped:
                break
        t *= 10.0

    # a positive stationary point in the PSD region is the case's unique
    # minimizer over that convex region, so the polished end point needs no
    # test but these three
    scale = max(1.0, z[0])
    w, ok = _newton_polish(w, z, lam, pinned, tol_eff=1e-11 * scale)
    if (ok and np.all(w[:dim] > _POS_RTOL * scale)
            and _psd_rows(w[None, :], np.full(1, lam), np.full(1, pinned))[0]):
        return w
    return None


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
    valid 3-sparse and dense candidates at lam (a float or one per row),
    ties going to the sparser case. Returns (W, choice, objective) with
    choice indexing _CASE_TAGS."""
    W2 = Z.copy()
    W2[:, 2:] = 0.0
    F = np.stack([_objective_rows(W2, Z, lam),
                  np.where(valid3, _objective_rows(W3, Z, lam), np.inf),
                  np.where(valid4, _objective_rows(W4, Z, lam), np.inf)], axis=1)
    choice = np.argmin(F, axis=1)  # ties resolve toward the sparser case
    out = W2
    out[choice == 1] = W3[choice == 1]
    out[choice == 2] = W4[choice == 2]
    return out, choice, F.min(axis=1)


def _prox_sorted(Z, lam):
    """The prox of every row of the (n, 4) sorted nonnegative cells Z, as
    s prox(z / s, lam s), s the largest power of two <= max(z1, 1) and
    lam s capped at the largest float; the scaling commutes with every IEEE
    operation that neither underflows nor overflows. Both convex cases are
    the scaled rows stacked twice (the 3-sparse case on the first n), one
    _solve_case_rows batch solves the rows that _screened keeps, and the
    case pick takes a screened row as invalid. Returns (W, choice,
    objective / s**2, s)."""
    n = Z.shape[0]
    s = np.ldexp(1.0, np.frexp(np.maximum(Z[:, 0], 1.0))[1] - 1)
    Z, lam = Z / s[:, None], np.minimum(lam, sys.float_info.max / s) * s
    Z2, lam2, pinned = np.vstack([Z, Z]), np.concatenate([lam, lam]), np.arange(2 * n) < n
    keep = ~_screened(Z2, lam2, pinned)
    W, valid = np.zeros((2 * n, 4)), np.zeros(2 * n, dtype=bool)
    W[keep], valid[keep], *_ = _solve_case_rows(Z2[keep], lam2[keep], pinned[keep])
    W, choice, F = _pick_case(Z, lam, W[:n], valid[:n], W[n:], valid[n:])
    return W * s[:, None], choice, F, s


def prox_enumerate(z, lam) -> ProxResult:
    """Solve the sorted nonnegative cell prox by enumerating the three cases.

    Evaluates the closed-form 2-sparse candidate [z1, z2, 0, 0] and the
    3-sparse and dense candidates from prox_cells' case solve (on one cell
    the dense case takes projected GD), then returns the one with the
    smallest objective (ties go
    to the sparser case). Raises ValueError unless z is sorted, nonnegative
    and finite and lam is finite and nonnegative.
    """
    Z = _check_sorted(z)[None, :]
    _check_lam(lam)
    W, choice, F, s = _prox_sorted(Z, lam)
    return ProxResult(W[0], _CASE_TAGS[choice[0]], float(F[0]) * float(s[0]) * float(s[0]))


def prox_cells(cells, lam) -> np.ndarray:
    """2:4 prox of every row of an (n, 4) array of signed cells, solved in
    lockstep; one cell is a one-row call. Equivariant under signed
    permutations of a row. Raises ValueError unless cells is a finite (n, 4)
    array and lam is finite and nonnegative.
    """
    Z, order, signs = pos_sort_cells(cells)
    _check_lam(lam)
    out, *_ = _prox_sorted(Z, lam)
    return inv_pos_sort_cells(out, order, signs)


# ---------------------------------------------------------------------------
# optimality diagnostics


def lambda_thresholds(z):
    """The 2-sparse threshold z3/(z1 z2) of the sorted nonnegative cell z,
    as a float: a 2-sparse solution is critical only for lam at or above it.
    A cell with z3 = 0, among them every cell with z1 z2 = 0, is 2-sparse
    already and critical at every lam, so its threshold is 0. Raises
    ValueError unless z is sorted, nonnegative and finite.
    """
    z = _check_sorted(z)
    return 0.0 if z[2] == 0.0 else float(z[2] / z[0] / z[1])


# ---------------------------------------------------------------------------
# closed-form proxes for the simpler penalties


def prox_simple_cells(cells, lam, kind) -> np.ndarray:
    """Closed-form prox for the simpler 2:4 penalties on every row of an
    (n, 4) array of signed cells.

    R0 counts nonzeros past the second largest magnitude (hard threshold),
    R1 sums them (soft threshold), R2 sums their squares (shrinkage). The
    two largest-magnitude entries (the lower column of a tie) are never
    touched. Raises ValueError on an unknown kind and on the bad cells or
    lam that prox_cells rejects.
    """
    cells = _check_cells(cells)
    _check_lam(lam)
    A = np.abs(cells)
    if kind == "R0":
        # A ** 2 may overflow to inf on a kept entry; inf keeps the entry too
        with np.errstate(over="ignore"):
            out = np.where(lam > 0.5 * A ** 2, 0.0, A)
    elif kind == "R1":
        out = np.maximum(A - lam, 0.0)
    elif kind == "R2":
        out = A / (1.0 + lam)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    out = np.where(_top2_mask(A), A, out)
    # not copysign: a -0.0 cell must come out +0.0, as |cell| times its sign
    return np.where(cells < 0, -out, out)
