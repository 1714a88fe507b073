"""2:4 structured-sparsity pruning of dense weight matrices.

Layerwise one-shot pruning that minimizes the reconstruction loss
Tr((W - W*) H (W - W*)^T) subject to every aligned group of 4 weights
keeping at most 2 nonzeros. The main method runs proximal gradient descent
with a cellwise triple-product penalty whose prox is solved exactly through
three convex cases; score-based (wanda) and OBS-style (sparsegpt) pruners,
closed-form shrinkage penalties and masked-gradient post-optimization are
included for comparison.
"""

from .baselines import simple_reg_prune, sparsegpt_prune, wanda_prune
from .cells import (
    ProxResult,
    cell_objective,
    hessian_f,
    lambda_thresholds,
    prox_cells,
    prox_enumerate,
    solve_case_ipm,
)
from .harness import (
    BenchRow,
    SyntheticSpec,
    benchmark_csv,
    gen_synthetic,
    reg_path_csv,
    reg_path_sweep,
    run_benchmark,
    toy_problem,
)
from .linalg import (
    hessian_from_data,
    layer_loss,
    max_eigenvalue,
    precondition,
    unprecondition,
)
from .matio import (
    load_matrix,
    read_matrix,
    read_matrix_csv,
    save_matrix,
    write_matrix,
    write_matrix_csv,
)
from .pruner import (
    LambdaSchedule,
    PruneConfig,
    PruneReport,
    clamp_top2,
    is_24_sparse,
    mask_of,
    masked_gd,
    prune_prox,
    schedule_lambda,
)
from .rng import SplitMix64

__all__ = [
    "BenchRow",
    "LambdaSchedule",
    "METHODS",
    "ProxResult",
    "PruneConfig",
    "PruneReport",
    "SplitMix64",
    "SyntheticSpec",
    "benchmark_csv",
    "cell_objective",
    "clamp_top2",
    "gen_synthetic",
    "hessian_f",
    "hessian_from_data",
    "is_24_sparse",
    "lambda_thresholds",
    "layer_loss",
    "load_matrix",
    "mask_of",
    "masked_gd",
    "max_eigenvalue",
    "precondition",
    "prox_cells",
    "prox_enumerate",
    "prune_prox",
    "read_matrix",
    "read_matrix_csv",
    "reg_path_csv",
    "reg_path_sweep",
    "run_benchmark",
    "run_method",
    "save_matrix",
    "schedule_lambda",
    "simple_reg_prune",
    "solve_case_ipm",
    "sparsegpt_prune",
    "toy_problem",
    "unprecondition",
    "wanda_prune",
    "write_matrix",
    "write_matrix_csv",
]


def __getattr__(name):
    # cli is loaded on first use, so `python -m prune24.cli` does not find it
    # already imported by the package
    if name in ("METHODS", "run_method"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
