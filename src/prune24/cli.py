"""Command-line interface.

Matrix arguments ending in .csv use the text format; anything else uses the
binary format. All emitted tables are CSV with a header row. Every failure
exits nonzero with a one-line error on stderr.
"""

import argparse
import sys

import numpy as np

from .baselines import simple_reg_prune, sparsegpt_prune, wanda_prune
from .harness import (
    SyntheticSpec,
    benchmark_csv,
    gen_synthetic,
    reg_path_csv,
    reg_path_sweep,
    run_benchmark,
    toy_problem,
)
from .linalg import layer_loss
from .matio import load_matrix, save_matrix
from .pruner import LambdaSchedule, PruneConfig, masked_gd, prune_prox

METHODS = ("prox", "wanda", "wanda-gd", "sparsegpt", "sparsegpt-gd", "l0", "l1", "l2")


def run_method(method, W_star, H, sched, cfg):
    """Prune W* with one of METHODS; returns (W, mask, iterations).

    iterations counts outer proximal iterations for prox/l0/l1/l2, the
    masked gradient steps masked_gd took (at most cfg.gd_steps) for the -gd
    variants, and is 0 for wanda and sparsegpt.
    The pruners are looked up as module globals at call time, so wrappers put
    on this module's names see every call. Raises ValueError on an unknown
    method.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "prox":
        W, mask, rep = prune_prox(W_star, H, sched, cfg)
        return W, mask, rep.iterations
    if method in ("l0", "l1", "l2"):
        W, mask, rep = simple_reg_prune(W_star, H, "R" + method[1], sched, cfg)
        return W, mask, rep.iterations
    W, mask = (wanda_prune if method.startswith("wanda") else sparsegpt_prune)(W_star, H)
    if not method.endswith("-gd"):
        return W, mask, 0
    W, steps = masked_gd(W, W_star, H, mask, cfg.gd_steps)
    return W, mask, steps


def _sched_cfg(args):
    sched = LambdaSchedule(lambda0=args.lambda0, beta=args.beta,
                           lambda0_tilde=args.adaptive_lambda)
    cfg = PruneConfig(max_iter=args.max_iter, gd_steps=args.gd_steps)
    return sched, cfg


def _cmd_prune(args):
    W_star = load_matrix(args.weights)
    H = load_matrix(args.hessian)
    sched, cfg = _sched_cfg(args)
    W, mask, _ = run_method(args.method, W_star, H, sched, cfg)
    save_matrix(args.out, W)
    save_matrix(args.mask_out, mask)


def _cmd_prox_path(args):
    z = np.array([float(v) for v in args.z.split(",")])
    if z.size != 4:
        raise ValueError("--z needs exactly 4 comma-separated values")
    lo, hi, n = args.lambda_min, args.lambda_max, args.points
    if n < 2 or hi <= lo:
        raise ValueError("need --points >= 2 and --lambda-max > --lambda-min")
    if lo > 0:
        grid = np.geomspace(lo, hi, n)
    else:
        grid = np.linspace(lo, hi, n)
    rows, lam2 = reg_path_sweep(z, grid)
    with open(args.out, "w") as fh:
        fh.write(reg_path_csv(rows, lam2))


def _cmd_synth(args):
    W, H = gen_synthetic(SyntheticSpec(d=args.d, alpha=args.alpha, seed=args.seed))
    save_matrix(args.out_weights, W)
    save_matrix(args.out_hessian, H)


def _cmd_bench(args):
    alphas = [float(v) for v in args.alphas.split(",")]
    methods = list(METHODS) if args.methods == "all" else args.methods.split(",")
    rows = run_benchmark(
        alphas,
        args.d,
        list(range(args.seeds)),
        methods,
        cfg=PruneConfig(max_iter=args.max_iter, gd_steps=args.gd_steps),
    )
    with open(args.out, "w") as fh:
        fh.write(benchmark_csv(rows))


def _cmd_toy(args):
    W_star, H = toy_problem()
    sched, cfg = _sched_cfg(args)
    W, mask, _ = run_method(args.method, W_star, H, sched, cfg)
    print("method", args.method)
    print("weights", " ".join(f"{v:g}" for v in W[0]))
    print("mask", " ".join(str(int(v)) for v in mask[0]))
    print("loss", f"{layer_loss(W, W_star, H):.9g}")


def _cmd_eval_loss(args):
    W = load_matrix(args.weights)
    W_ref = load_matrix(args.ref_weights)
    H = load_matrix(args.hessian)
    print(f"{layer_loss(W, W_ref, H):.12g}")


def _add_schedule_flags(p):
    p.add_argument("--gd-steps", type=int, default=PruneConfig.gd_steps)
    p.add_argument("--lambda0", type=float, default=LambdaSchedule.lambda0)
    p.add_argument("--beta", type=float, default=LambdaSchedule.beta)
    p.add_argument("--adaptive-lambda", type=float, default=None, metavar="LAMBDA0_TILDE",
                   help="use the weight-scale-adaptive schedule with this base value")
    p.add_argument("--max-iter", type=int, default=PruneConfig.max_iter)


def build_parser():
    ap = argparse.ArgumentParser(prog="prune24",
                                 description="2:4 structured-sparsity pruning toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="prune a weight matrix against a hessian")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--weights", required=True)
    p.add_argument("--hessian", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out", required=True)
    _add_schedule_flags(p)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("prox-path", help="cell prox solution along a penalty grid")
    p.add_argument("--z", required=True, help="4 comma-separated cell values")
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prox_path)

    p = sub.add_parser("synth", help="generate a synthetic (weights, hessian) pair")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-hessian", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run the synthetic pruning benchmark")
    p.add_argument("--alphas", default="1.0,0.9,0.7,0.5,0.3")
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--methods", default="all")
    p.add_argument("--out", required=True)
    p.add_argument("--gd-steps", type=int, default=PruneConfig.gd_steps)
    p.add_argument("--max-iter", type=int, default=PruneConfig.max_iter)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("toy", help="run a method on the built-in toy instance")
    p.add_argument("--method", default="prox", choices=METHODS)
    _add_schedule_flags(p)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("eval-loss", help="reconstruction loss between two weight files")
    p.add_argument("--weights", required=True)
    p.add_argument("--ref-weights", required=True)
    p.add_argument("--hessian", required=True)
    p.set_defaults(func=_cmd_eval_loss)

    return ap


def _join_option_values(argv):
    """Write `--flag -1e-3` as `--flag=-1e-3`.

    argparse reads a value that starts with '-' and is not a plain number,
    such as -1e-3 or -1.6,1.1,0.8,0.5, as an option. Every long option here
    takes a value, so a token that starts with a single '-' right after one
    is that option's value.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and token.startswith("-") and not token.startswith("--")):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_option_values(argv))
    try:
        args.func(args)
    except Exception as exc:  # one-line errors, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
