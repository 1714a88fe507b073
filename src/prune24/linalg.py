"""Dense matrix primitives for layerwise pruning.

Weight matrices are plain float64 ndarrays of shape (d_out, d_in); the
second-moment matrix of the layer inputs ("hessian") is a symmetric PSD
(d_in, d_in) ndarray. Everything here is a pure function of its inputs.
"""

import numpy as np


def hessian_from_data(X: np.ndarray) -> np.ndarray:
    """Input second-moment matrix X @ X.T / n for calibration inputs X (d_in, n)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("no samples")
    H = X @ X.T / X.shape[1]
    return 0.5 * (H + H.T)


def _check_shapes(W, W_star, H):
    if W.shape != W_star.shape:
        raise ValueError(f"weight shape mismatch: {W.shape} vs {W_star.shape}")
    if H.shape != (W.shape[1], W.shape[1]):
        raise ValueError(f"hessian shape {H.shape} does not match {W.shape[1]} columns")


def layer_loss(W: np.ndarray, W_star: np.ndarray, H: np.ndarray) -> float:
    """Reconstruction loss Tr((W - W*) H (W - W*)^T)."""
    W = np.asarray(W, dtype=np.float64)
    W_star = np.asarray(W_star, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    _check_shapes(W, W_star, H)
    delta = W - W_star
    return float(np.sum((delta @ H) * delta))


# smallest eigenvalue allowed, relative to minus the largest one: roundoff
# makes the zero eigenvalues of a singular PSD matrix slightly negative
_PSD_RTOL = 1e-10


def max_eigenvalue(H: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, from one dense
    symmetric eigendecomposition, whose smallest eigenvalue also certifies H.

    Raises ValueError when H is empty, and when its smallest eigenvalue is
    below -_PSD_RTOL times its largest, so H is indefinite.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.size == 0:
        raise ValueError("hessian is empty")
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] < -_PSD_RTOL * eigs[-1]:
        raise ValueError(f"hessian is indefinite: its smallest eigenvalue is "
                         f"{eigs[0]:.3g}, its largest {eigs[-1]:.3g}")
    return float(eigs[-1])


# block size of cholesky_lower
_CHOLESKY_BLOCK = 128


def cholesky_lower(A: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor L of A + shift I for a symmetric A, reading
    only A's lower triangle.

    Left-looking by blocks of _CHOLESKY_BLOCK columns, written straight
    into L: beside L it holds no temporary larger than one block column,
    where np.linalg.cholesky on a shifted copy would hold two more d x d
    arrays. Raises np.linalg.LinAlgError when A + shift I is not positive
    definite to working precision.
    """
    d = A.shape[0]
    L = np.zeros((d, d))
    for b in range(0, d, _CHOLESKY_BLOCK):
        e = min(b + _CHOLESKY_BLOCK, d)
        S = A[b:, b:e].copy()
        S[np.arange(e - b), np.arange(e - b)] += shift
        S -= L[b:, :b] @ L[b:e, :b].T
        L[b:e, b:e] = np.linalg.cholesky(S[: e - b])
        L[e:, b:e] = np.linalg.solve(L[b:e, b:e], S[e - b:].T).T
    return L


def certify_psd(H: np.ndarray) -> None:
    """Certify a symmetric H as PSD by one Cholesky factorization of
    H + tau I, tau = _PSD_RTOL * max(diag(H)), without max_eigenvalue's
    eigendecomposition.

    tau is at most _PSD_RTOL times the largest eigenvalue, so every H that
    max_eigenvalue rejects is rejected here too, and a singular PSD H passes.
    With no positive diagonal entry, H is PSD only when it is zero. Raises
    ValueError when H is empty, and when the factorization fails, so H is
    indefinite.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.size == 0:
        raise ValueError("hessian is empty")
    tau = _PSD_RTOL * float(np.max(np.diagonal(H)))
    if not tau > 0.0:
        if np.any(H):
            raise ValueError("hessian is indefinite: it is not zero, and no "
                             "diagonal entry is positive")
        return
    try:
        cholesky_lower(H, tau)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"hessian is indefinite: H + {tau:.3g} I has no "
                         "Cholesky factor") from exc


# scale floor for dead input channels: keeps the transform invertible while
# leaving live channels untouched
_SCALE_FLOOR = 1e-8


def precondition(W_star: np.ndarray, H: np.ndarray):
    """Activation-aware rescaling of (W*, H).

    Returns (W_tilde, H_tilde, scales) with W_tilde = W* * diag(H)^{1/2}
    columnwise and H_tilde = D^{-1} H D^{-1}, D = diag(scales). H_tilde has
    unit diagonal for all channels above the dead-channel floor. The
    rescaling preserves the sparsity pattern and the loss value.
    """
    W_star = np.asarray(W_star, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    diag = np.diag(H)
    scales = np.maximum(np.sqrt(np.maximum(diag, 0.0)), _SCALE_FLOOR)
    W_t = W_star * scales[None, :]
    H_t = H / scales[None, :]
    H_t /= scales[:, None]  # in place: no second d x d temporary
    return W_t, H_t, scales


def unprecondition(W: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Inverse of the precondition map on weights."""
    return np.asarray(W, dtype=np.float64) / np.asarray(scales)[None, :]
