"""Everything at the level of one 4-weight cell.

The 2:4 proximal operator
    argmin_w 0.5*||w - z||^2 + lam * (|w1 w2 w3| + |w2 w3 w4| + |w3 w4 w1| + |w4 w1 w2|)
is nonconvex, but after reducing to a sorted nonnegative input it splits into
three candidate cases (2-sparse, 3-sparse, dense), each of which is solvable
by convex optimization.

The 3-sparse and dense cases are solved by projected gradient descent with
step 1/4, started at the origin, with an abort rule that discards a case as
soon as the gradient norm strictly increases (that cannot happen inside the
region where the case objective is convex, so an increase certifies the case
is not the minimizer). This is the only solver the pruning pipeline uses.

The case logic lives in two batched functions over n sorted cells:
``_solve_case_rows`` (projected GD, Newton polish of stalled rows, the
second-order check and the positivity test for one case) and ``_pick_case``
(per row, the best of [z1, z2, 0, 0] and the valid 3-sparse and dense
candidates, ties going to the sparser case). ``solve_case_gd`` is the case
solve on one cell; ``prox_enumerate`` (one sorted cell) and ``prox_cells``
(a batch of signed cells, the pipeline's prox) share the case pick;
``prox_full`` wraps ``prox_enumerate`` for one signed cell.

An interior-point solver with a log-det barrier on the objective's Hessian
(``solve_case_ipm``) is the cell-level cross-check of the gradient solver,
reached through ``prox_enumerate(backend="ipm")``.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

_ETA = 0.25  # gradient step; safe because the Hessian has spectrum <= 4 on the convex region
_ABORT_GUARD = 1.0 + 1e-12
_POS_RTOL = 1e-12  # coordinates below this (times the cell scale) count as zero

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
_IPM_TOL = 1e-8  # barrier path tolerance of the interior-point solver


class CellConvergenceError(RuntimeError):
    """A case solver ran out of iterations; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = np.asarray(last_iterate)


# ---------------------------------------------------------------------------
# regularizer and sign/sort reduction


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


@dataclass
class SignedPerm:
    """Signs and sorting permutation recorded by pos_sort.

    ``perm[i]`` is the original index of the i-th largest magnitude;
    ``signs`` is indexed by original position.
    """

    signs: np.ndarray
    perm: np.ndarray


def pos_sort_cells(cells: np.ndarray):
    """Rowwise |.|-descending stable sort of an (n, 4) array.

    Returns (sorted_abs, order, signs); ties keep original order so the
    reduction is deterministic.
    """
    cells = np.asarray(cells, dtype=np.float64)
    order = np.argsort(-np.abs(cells), axis=1, kind="stable")
    sorted_abs = np.take_along_axis(np.abs(cells), order, axis=1)
    signs = np.where(cells < 0, -1.0, 1.0)
    return sorted_abs, order, signs


def inv_pos_sort_cells(W: np.ndarray, order: np.ndarray, signs: np.ndarray) -> np.ndarray:
    out = np.empty_like(W)
    np.put_along_axis(out, order, W, axis=1)
    return out * signs


def pos_sort(z: np.ndarray):
    """Sort a 4-vector by absolute value (descending) and strip signs."""
    z = np.asarray(z, dtype=np.float64)
    sorted_abs, order, signs = pos_sort_cells(z[None, :])
    return sorted_abs[0], SignedPerm(signs=signs[0], perm=order[0])


def inv_pos_sort(w: np.ndarray, sp: SignedPerm) -> np.ndarray:
    """Undo pos_sort: scatter back to original positions and restore signs."""
    w = np.asarray(w, dtype=np.float64)
    return inv_pos_sort_cells(w[None, :], sp.perm[None, :], sp.signs[None, :])[0]


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


def _case_hessian(w, lam, pinned):
    # Hessian of the active case; the 3-sparse case reads only the first 3
    # coordinates, so w may be a 4-vector with its last coordinate pinned
    # to zero or the 3 free coordinates alone.
    if pinned:
        return hessian_g(w[:3], lam)
    return hessian_f(w, lam)


# ---------------------------------------------------------------------------
# projected gradient solver (batched over cells)


def _gd_solve_batched(Z, lam, pinned, max_iter, trajectory=None):
    """Projected GD at step 1/4 from the origin, one row per cell.

    pinned=True solves the 3-sparse case by fixing the last coordinate at
    zero (the free coordinates then see exactly the 3-variable objective).
    Returns (W, converged, aborted, stalled, iters). Rows abort as soon as
    their gradient norm strictly increases between consecutive iterates.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    W = np.zeros_like(Z)
    tol_eff = DEFAULT_TOL * np.maximum(1.0, Z[:, 0])
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    aborted = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=np.int64)
    gprev = np.full(n, np.inf)

    if trajectory is not None:
        trajectory.append(W[0].copy())

    for _ in range(max_iter):
        G = _grad_rows(W, Z, lam)
        if pinned:
            G[:, 3] = 0.0
        gnorm = np.linalg.norm(G, axis=1)

        abort_now = active & (gnorm > gprev * _ABORT_GUARD)
        aborted |= abort_now
        active &= ~abort_now

        Wn = np.maximum(W - _ETA * G, 0.0)
        res = np.abs(Wn - W).max(axis=1) / _ETA
        conv_now = active & (res <= tol_eff)
        converged |= conv_now
        step = active.copy()  # includes rows converging this iteration
        active &= ~conv_now

        W = np.where(step[:, None], Wn, W)
        gprev = np.where(step, gnorm, gprev)
        iters += step

        if trajectory is not None and step[0]:
            trajectory.append(W[0].copy())
        if not active.any():
            break

    return W, converged, aborted, active.copy(), iters


def _newton_polish(w, z, lam, pinned, tol_eff, max_iter=40):
    """Newton refinement for rows where plain GD stalls near a flat optimum.

    Operates on the free coordinates only and keeps iterates nonnegative.
    Returns (w, success) where success means the projected-gradient residual
    fell below tol_eff.
    """
    w = np.array(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dim = 3 if pinned else 4

    def residual(wv):
        g = _grad_rows(wv, z, lam)
        if pinned:
            g[3] = 0.0
        return np.abs(wv - np.maximum(wv - _ETA * g, 0.0)).max() / _ETA, g

    res, g = residual(w)
    for _ in range(max_iter):
        if res <= tol_eff:
            return w, True
        A = _case_hessian(w, lam, pinned)
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


def _second_order_ok(w, lam, pinned, tol=1e-9):
    """Newton-polished points must sit in the PSD region of the case Hessian;
    otherwise the polish found a saddle rather than a case minimum."""
    return bool(np.linalg.eigvalsh(_case_hessian(w, lam, pinned))[0] >= -tol)


def _solve_case_rows(Z, lam, pinned, max_iter=DEFAULT_MAX_ITER, trajectory=None):
    """Solve one prox case on every row of an (n, 4) array of sorted cells.

    Projected GD, then a Newton polish and second-order check on stalled
    rows; a row is valid when the case's free coordinates end up strictly
    positive. Returns (W, valid, aborted, polish_failed, iters).
    """
    W, conv, aborted, stalled, iters = _gd_solve_batched(
        Z, lam, pinned, max_iter, trajectory=trajectory
    )
    polish_failed = np.zeros_like(stalled)
    for idx in np.flatnonzero(stalled):
        tol_eff = DEFAULT_TOL * max(1.0, Z[idx, 0])
        W[idx], ok = _newton_polish(W[idx], Z[idx], lam, pinned, tol_eff)
        polish_failed[idx] = not ok
        conv[idx] = ok and _second_order_ok(W[idx], lam, pinned)
    if pinned:
        W[:, 3] = 0.0
    thr = _POS_RTOL * np.maximum(1.0, Z[:, 0])
    need_pos = W[:, :3] if pinned else W
    valid = conv & np.all(need_pos > thr[:, None], axis=1)
    return W, valid, aborted, polish_failed, iters


def _check_sorted(z):
    z = np.asarray(z, dtype=np.float64).reshape(4)
    if z[3] < 0 or np.any(np.diff(z) > 0):
        raise ValueError(f"cell input must be sorted nonnegative, got {z}")
    return z


def solve_case_gd(z, lam, case, max_iter=DEFAULT_MAX_ITER, trajectory=None):
    """Solve one prox case by projected gradient descent.

    Returns (w, aborted, iterations) where w is None when the case is ruled
    out, either by the gradient-norm abort rule or because a coordinate that
    must be strictly positive converged to zero. ``trajectory``, if given,
    collects every GD iterate for convexity-region monitoring.
    """
    z = _check_sorted(z)
    if case not in ("dense", "three_sparse"):
        raise ValueError(f"unknown case {case!r}")
    W, valid, aborted, polish_failed, iters = _solve_case_rows(
        z[None, :], lam, case == "three_sparse", max_iter, trajectory=trajectory
    )
    if polish_failed[0]:
        raise CellConvergenceError(
            f"{case} cell solver did not converge in {max_iter} iterations", W[0]
        )
    return (W[0] if valid[0] else None), bool(aborted[0]), int(iters[0])


# ---------------------------------------------------------------------------
# interior-point solver (cell-level cross-check of the gradient solver)

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
    A = _case_hessian(w, lam, dim == 3)
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0 or np.any(w <= 0.0):
        return np.inf
    return -logdet - np.sum(np.log(w))


def _barrier_grad_hess(w, lam, dim):
    A = _case_hessian(w, lam, dim == 3)
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
    if case not in ("dense", "three_sparse"):
        raise ValueError(f"unknown case {case!r}")
    dim = 3 if case == "three_sparse" else 4

    w = np.minimum(z[:dim], 0.1)
    if np.any(w <= 0.0) or not _chol_ok(_case_hessian(w, lam, dim == 3)):
        eps = 1e-3
        for _ in range(200):
            w = np.full(dim, eps)
            if _chol_ok(_case_hessian(w, lam, dim == 3)):
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
            hess = t * _case_hessian(w, lam, dim == 3) + h_b
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
    """Solution of the sorted-cell prox plus solver diagnostics.

    subcase_aborted and iterations are (three_sparse, dense) pairs; for the
    interior-point solver "aborted" means the case was rejected as
    non-stationary.
    """

    w: np.ndarray
    case_tag: str  # two_sparse | three_sparse | dense
    objective: float
    subcase_aborted: tuple
    iterations: tuple


_CASES = ("three_sparse", "dense")
_CASE_TAGS = ("two_sparse",) + _CASES


def _pick_case(Z, lam, W3, valid3, W4, valid4):
    """Per row of the sorted cells Z, the best of [z1, z2, 0, 0] and the
    valid 3-sparse and dense candidates, ties going to the sparser case.
    Returns (W, choice, objective) with choice indexing _CASE_TAGS."""
    W2 = Z.copy()
    W2[:, 2:] = 0.0
    F = np.stack(
        [
            _objective_rows(W2, Z, lam),
            np.where(valid3, _objective_rows(W3, Z, lam), np.inf),
            np.where(valid4, _objective_rows(W4, Z, lam), np.inf),
        ],
        axis=1,
    )
    choice = np.argmin(F, axis=1)  # ties resolve toward the sparser case
    out = W2
    out[choice == 1] = W3[choice == 1]
    out[choice == 2] = W4[choice == 2]
    return out, choice, F.min(axis=1)


def _candidate(w):
    # a scalar case solution (None when ruled out) as a 1-row candidate
    return (np.zeros((1, 4)) if w is None else w[None, :]), np.array([w is not None])


def prox_enumerate(z, lam, backend="gd") -> ProxResult:
    """Solve the sorted nonnegative cell prox by enumerating the three cases.

    Always evaluates the closed-form 2-sparse candidate [z1, z2, 0, 0] and the
    3-sparse/dense candidates from solve_case_gd (backend="gd") or
    solve_case_ipm (backend="ipm", the cross-check), then returns the one
    with the smallest objective (ties go to the sparser case). A failed
    Newton polish in the gd backend raises CellConvergenceError.
    """
    z = _check_sorted(z)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if z[0] <= 0.0:
        return ProxResult(np.zeros(4), "two_sparse", 0.0, (False, False), (0, 0))

    if backend == "gd":
        solved = [solve_case_gd(z, lam, case) for case in _CASES]
    elif backend == "ipm":
        solved = [solve_case_ipm(z, lam, case) for case in _CASES]
    else:
        raise ValueError(f"unknown backend {backend!r}")

    (w3, ab3, it3), (w4, ab4, it4) = solved
    W, choice, F = _pick_case(z[None, :], lam, *_candidate(w3), *_candidate(w4))
    return ProxResult(W[0], _CASE_TAGS[choice[0]], float(F[0]), (ab3, ab4), (it3, it4))


def prox_full(z, lam) -> np.ndarray:
    """2:4 prox of an arbitrary signed 4-vector.

    Reduces to the sorted nonnegative problem, solves it, and maps the
    result back; equivariant under signed permutations of the input.
    """
    z = np.asarray(z, dtype=np.float64).reshape(4)
    zs, sp = pos_sort(z)
    res = prox_enumerate(zs, lam)
    return inv_pos_sort(res.w, sp)


def prox_cells(cells, lam) -> np.ndarray:
    """Batched 2:4 prox over the rows of an (n, 4) array.

    Equivalent to prox_full row by row, solving all cells in lockstep, except
    that a row whose Newton polish fails drops that case instead of raising.
    """
    cells = np.asarray(cells, dtype=np.float64)
    Z, order, signs = pos_sort_cells(cells)
    W3, valid3, *_ = _solve_case_rows(Z, lam, True)
    W4, valid4, *_ = _solve_case_rows(Z, lam, False)
    out, _, _ = _pick_case(Z, lam, W3, valid3, W4, valid4)
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
# closed-form proxes for the simpler penalties


def prox_simple(z, lam, kind) -> np.ndarray:
    """Closed-form prox for the simpler 2:4 penalties on a sorted cell.

    R0 counts nonzeros past the second (hard threshold), R1 sums them (soft
    threshold), R2 sums their squares (shrinkage). The two leading
    coordinates are never touched.
    """
    return prox_simple_cells(_check_sorted(z)[None, :], lam, kind)[0]


def prox_simple_cells(cells, lam, kind) -> np.ndarray:
    """Batched prox_simple over rows of an (n, 4) array with arbitrary signs."""
    Z, order, signs = pos_sort_cells(cells)
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


# ---------------------------------------------------------------------------
# brute-force oracle
#
# Kept deliberately independent of the case solvers above: its own objective
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
