"""Experiment generators and the benchmark runner.

The toy instance is a single row with two perfectly correlated input
channels; score-based pruning is provably suboptimal on it. The synthetic
generator interpolates between an uncorrelated (diagonal) hessian and a
dense random Gram matrix, which is where the methods separate.
"""

import time
from dataclasses import dataclass

import numpy as np

from .cells import inv_pos_sort_cells, lambda_thresholds, pos_sort_cells, prox_enumerate
from .linalg import layer_loss
from .pruner import PruneConfig
from .rng import SplitMix64


def toy_problem():
    """Single-row instance with one perfectly correlated channel pair.

    Weights (0, 5, 3, 2, 0, 5, 5, 2); identity hessian except channels 4 and
    8 are coupled with unit off-diagonal. Pruning the two 2s individually is
    tempting per cell but merging them into one weight is strictly better.
    """
    W_star = np.array([[0.0, 5.0, 3.0, 2.0, 0.0, 5.0, 5.0, 2.0]])
    H = np.eye(8)
    H[3, 7] = H[7, 3] = 1.0
    return W_star, H


@dataclass
class SyntheticSpec:
    d: int
    alpha: float  # 1 = uncorrelated (diagonal hessian), 0 = fully random Gram
    seed: int


def gen_synthetic(spec: SyntheticSpec):
    """Random (W*, H) pair with tunable channel correlation.

    H = alpha * diag(uniforms) + (1 - alpha) * G G^T / d with G standard
    normal, weights a single standard normal row. All draws come from one
    SplitMix64 stream (uniforms for the diagonal, then the G entries
    row-major, then the weights), so outputs are reproducible bit for bit.
    """
    d, alpha, seed = spec.d, spec.alpha, spec.seed
    if d < 4 or d % 4 != 0:
        raise ValueError(f"d must be a positive multiple of 4, got {d}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    stream = SplitMix64(seed)
    diag = stream.uniform(d)
    G = stream.normal(d * d).reshape(d, d) / np.sqrt(d)
    weights = stream.normal(d).reshape(1, d)
    Z = G @ G.T
    H = alpha * np.diag(diag) + (1.0 - alpha) * Z
    H = 0.5 * (H + H.T)
    return weights, H


def reg_path_sweep(z, lam_grid):
    """Prox solution of one cell as a function of the penalty strength.

    Returns (rows, lam2_threshold) where each row is
    (lam, w1, w2, w3, w4, case_tag) in the original coordinate order and
    lam2_threshold = z3/(z1 z2) is the smallest penalty at which a 2-sparse
    solution can be critical.
    """
    z = np.asarray(z, dtype=np.float64).reshape(1, 4)
    lam_grid = [float(v) for v in lam_grid]
    if len(lam_grid) < 2 or any(b <= a for a, b in zip(lam_grid, lam_grid[1:])):
        raise ValueError("lam_grid must be increasing with at least 2 points")
    Z, order, signs = pos_sort_cells(z)
    lam2, _ = lambda_thresholds(Z[0])
    rows = []
    for lam in lam_grid:
        res = prox_enumerate(Z[0], lam)
        w = inv_pos_sort_cells(res.w[None, :], order, signs)[0]
        rows.append((lam, float(w[0]), float(w[1]), float(w[2]), float(w[3]), res.case_tag))
    return rows, lam2


@dataclass
class BenchRow:
    method: str
    alpha: float
    seed: int
    loss: float
    runtime_s: float
    iterations: int


def run_benchmark(alphas, d, seeds, methods, cfg=None):
    """Prune synthetic instances with every requested method.

    Each (alpha, seed) pair generates one instance shared by all methods,
    and each method runs through cli.run_method with the default penalty
    schedule. Returns BenchRow records sorted by (alpha, seed, method).
    """
    from .cli import METHODS, run_method  # cli imports this module

    cfg = cfg or PruneConfig()
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    rows = []
    for alpha in alphas:
        for seed in seeds:
            W_star, H = gen_synthetic(SyntheticSpec(d=d, alpha=alpha, seed=seed))
            for method in methods:
                t0 = time.perf_counter()
                W, _, iters = run_method(method, W_star, H, None, cfg)
                dt = time.perf_counter() - t0
                rows.append(
                    BenchRow(
                        method=method,
                        alpha=float(alpha),
                        seed=int(seed),
                        loss=layer_loss(W, W_star, H),
                        runtime_s=dt,
                        iterations=int(iters),
                    )
                )
    rows.sort(key=lambda r: (r.alpha, r.seed, r.method))
    return rows


def benchmark_csv(rows) -> str:
    lines = ["method,alpha,seed,loss,runtime_s,iterations"]
    for r in rows:
        lines.append(
            f"{r.method},{r.alpha!r},{r.seed},{r.loss!r},{r.runtime_s:.6f},{r.iterations}"
        )
    return "\n".join(lines) + "\n"


def reg_path_csv(rows, lam2) -> str:
    lines = ["lambda,w1,w2,w3,w4,case,lambda2_threshold"]
    for lam, w1, w2, w3, w4, case in rows:
        lines.append(f"{lam!r},{w1!r},{w2!r},{w3!r},{w4!r},{case},{lam2!r}")
    return "\n".join(lines) + "\n"
