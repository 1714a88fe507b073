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
    H_t = H / scales[None, :] / scales[:, None]
    return W_t, H_t, scales


def unprecondition(W: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Inverse of the precondition map on weights."""
    return np.asarray(W, dtype=np.float64) / np.asarray(scales)[None, :]
