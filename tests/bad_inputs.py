"""Defective (W*, H) pairs shared by the input-check tests."""

import numpy as np
import pytest

from prune24.harness import toy_problem
from prune24.linalg import hessian_from_data


def bad_problem(bad, where):
    """The toy instance with one defect; returns (W*, H, error message).

    bad is NaN or inf (put into W* or H, as where says), "neg" (H = -I, a
    negative diagonal) or "asym" (one off-diagonal entry of H changed).
    """
    W_star, H = toy_problem()
    W_star, H = W_star.copy(), H.copy()
    if bad == "neg":
        return W_star, -np.eye(H.shape[0]), "negative diagonal"
    if bad == "asym":
        H[0, 1] = 0.7
        return W_star, H, "not symmetric"
    if where == "W":
        W_star[0, 2] = bad
    else:
        H[1, 1] = bad
    return W_star, H, "finite"


BAD_INPUTS = [pytest.param(b, w, id=f"{b}-{w}") for b in (np.nan, np.inf) for w in "WH"]
BAD_INPUTS += [pytest.param("neg", "H", id="neg-H"), pytest.param("asym", "H", id="asym-H")]


def indefinite_problem():
    """(W*, H) where H passes the input checks but is indefinite.

    H is a correlated Gram matrix with the 2x2 block [[1, 2], [2, 1]]
    (eigenvalues 3 and -1) at channels 4-5: symmetric, a nonnegative
    diagonal, and inv(H) still exists.
    """
    rng = np.random.default_rng(47)
    W_star = rng.normal(size=(2, 8))
    H = hessian_from_data(rng.normal(size=(8, 32)))
    H[4:6, 4:6] = [[1.0, 2.0], [2.0, 1.0]]
    return W_star, H
