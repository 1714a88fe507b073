"""Workloads, set-up, timed passes and result records of the benchmark.

Each prune call goes through ``prune24.cli.main`` in-process, exactly as
``prune24 prune`` would run it, so the timed path is cli -> matio -> method
-> pruner/cells/linalg/baselines. The load is a closed loop with one client:
calls run one after another.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from prune24 import baselines, cli, pruner
from prune24.matio import read_matrix, write_matrix
from prune24.rng import SplitMix64

from perfbench import checks
from perfbench.spans import PER_LAYER_UNITS, Tracer, layer_metrics

END_TO_END_UNITS = {"prune_s": "s", "rel_loss": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Workload:
    rows: int
    d: int
    alphas: tuple  # one instance per alpha, all from the same draw
    methods: tuple  # every method runs on every instance


WORKLOADS = {
    # the paper's acceptance setting: 32 cells per prox call, so per-call
    # overhead and the slowest cell of the batch set the time
    "row128": Workload(1, 128, (1.0, 0.5, 0.3), ("prox",)),
    # 1024 cells per prox call: batched cell arithmetic and per-iteration
    # matmuls dominate, and it is the only workload where row-level work shows
    "layer256": Workload(16, 256, (0.5,), ("prox",)),
    # every baseline on a wide layer; the triple-product cell prox never runs
    "baselines1024": Workload(
        8, 1024, (0.5,),
        ("wanda", "wanda-gd", "sparsegpt", "sparsegpt-gd", "l0", "l1", "l2")),
}

SETUP_REPS = 5  # set-up is repeated and its median reported
WARMUP_D = 16
WARMUP_FLAGS = ("--max-iter", "3", "--gd-steps", "3")
# the tests shrink a workload to this width and speed up its penalty schedule
TINY_D = 16
TINY_FLAGS = ("--beta", "1.2", "--max-iter", "200")


def gen_instances(wl, seed):
    """The workload's (alpha, W*, H) instances for one seed.

    Follows ``prune24.harness.gen_synthetic``: H = alpha diag(U) + (1 - alpha)
    G G^T / d, with U, G (row-major) and then the ``wl.rows`` rows of W*
    (row-major) drawn from one SplitMix64 stream seeded with ``seed``. Every
    alpha shares the draw. With one row each instance equals gen_synthetic's
    bit for bit.
    """
    stream = SplitMix64(seed)
    diag = stream.uniform(wl.d)
    G = stream.normal(wl.d * wl.d).reshape(wl.d, wl.d) / np.sqrt(wl.d)
    W = stream.normal(wl.rows * wl.d).reshape(wl.rows, wl.d)
    GG = G @ G.T
    out = []
    for alpha in wl.alphas:
        H = alpha * np.diag(diag) + (1.0 - alpha) * GG
        out.append((alpha, W, 0.5 * (H + H.T)))
    return out


@dataclass
class Instance:
    alpha: float
    W: np.ndarray
    H: np.ndarray
    w_path: Path
    h_path: Path
    wanda_loss: float


def prune_argv(method, w_path, h_path, out_path, mask_path, flags=()):
    return ["prune", "--method", method, "--weights", str(w_path), "--hessian", str(h_path),
            "--out", str(out_path), "--mask-out", str(mask_path), *flags]


def invoke(argv):
    """Run one CLI call; returns its exit code, or a description of the crash."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code
    except Exception:  # the pass goes on; the call counts as failed
        traceback.print_exc()
        return "uncaught exception"


def set_up(wl, seed, workdir):
    """Generate, write and score the inputs, then warm up every method.

    Returns (instances, generation seconds, total seconds).
    """
    t0 = perf_counter()
    generated = gen_instances(wl, seed)
    gen_s = perf_counter() - t0
    instances = []
    for j, (alpha, W, H) in enumerate(generated):
        w_path, h_path = workdir / f"in{j}_W.prx", workdir / f"in{j}_H.prx"
        write_matrix(w_path, W)
        write_matrix(h_path, H)
        W_wanda, _ = baselines.wanda_prune(W, H)
        instances.append(Instance(alpha, W, H, w_path, h_path, checks.loss(W_wanda, W, H)))
    _, W, H = gen_instances(Workload(1, WARMUP_D, (0.5,), ()), seed)[0]
    w_path, h_path = workdir / "warm_W.prx", workdir / "warm_H.prx"
    write_matrix(w_path, W)
    write_matrix(h_path, H)
    for method in wl.methods:
        invoke(prune_argv(method, w_path, h_path, workdir / "warm_out.prx",
                          workdir / "warm_mask.prx", WARMUP_FLAGS))
    return instances, gen_s, perf_counter() - t0


def _out_paths(workdir, k):
    return workdir / f"out{k}_W.prx", workdir / f"out{k}_M.prx"


def run_pass(calls, instances, workdir, flags, tracer=None):
    """One timed pass over the calls; returns (seconds, exit codes, seconds per call)."""
    codes, call_s = [], []
    t0 = perf_counter()
    for k, (j, method) in enumerate(calls):
        if tracer is not None:
            tracer.call = k
        inst = instances[j]
        t_call = perf_counter()
        codes.append(invoke(prune_argv(method, inst.w_path, inst.h_path,
                                       *_out_paths(workdir, k), flags)))
        call_s.append(perf_counter() - t_call)
    return perf_counter() - t0, codes, call_s


def check_pass(calls, instances, workdir, codes, call_s):
    """Check every output of a pass; returns one record per call."""
    records = []
    for k, ((j, method), code, secs) in enumerate(zip(calls, codes, call_s)):
        inst = instances[j]
        rec = {"call": k, "instance": j, "alpha": inst.alpha, "method": method, "seconds": secs,
               "wanda_loss": inst.wanda_loss, "problems": []}
        records.append(rec)
        if code != 0:
            rec["problems"].append(f"exit code {code}")
            continue
        out_path, mask_path = _out_paths(workdir, k)
        try:
            w_bytes, m_bytes = out_path.read_bytes(), mask_path.read_bytes()
            W, M = read_matrix(out_path), read_matrix(mask_path)
        except (OSError, ValueError) as exc:
            rec["problems"].append(f"unreadable output: {exc}")
            continue
        rec["problems"] += (checks.check_readback(w_bytes, W) + checks.check_readback(m_bytes, M)
                            + checks.check_output(W, M, inst.W.shape))
        if W.shape != inst.W.shape:
            continue
        rec["loss"] = checks.loss(W, inst.W, inst.H)
        rec["rel_loss"] = rec["loss"] / inst.wanda_loss
        rec["mask_sha256"] = hashlib.sha256(m_bytes).hexdigest()
    for k, problems in checks.check_losses(records).items():
        records[k]["problems"] += problems
    return records


def geomean(values):
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.exp(np.mean(np.log(values)))) if values else math.nan


def environment(root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": commit,
    }


def run(workload, seed, seconds, trace, workdir, import_s=0.0, tiny=False):
    """Set up, measure and check one workload; returns (record, spans or None).

    Untraced passes repeat while another one is predicted to end within
    ``seconds`` (at least one runs). With ``trace``, one traced pass follows.
    """
    wl, flags = WORKLOADS[workload], ()
    if tiny:
        wl, flags = replace(wl, d=TINY_D), TINY_FLAGS
    setups = [set_up(wl, seed, workdir) for _ in range(SETUP_REPS)]
    instances = setups[-1][0]
    calls = [(j, method) for j in range(len(instances)) for method in wl.methods]

    passes, checked = [], []
    t_start = perf_counter()
    while True:
        dt, codes, call_s = run_pass(calls, instances, workdir, flags)
        passes.append(dt)
        checked.append(check_pass(calls, instances, workdir, codes, call_s))
        if perf_counter() - t_start + statistics.median(passes) > seconds:
            break
    prune_s = statistics.median(passes)
    last = checked[-1]
    rel_loss = geomean([r["rel_loss"] for r in last if "rel_loss" in r])

    per_layer, tracer = None, None
    if trace:
        tracer = Tracer()
        tracer.install({"cli": cli, "pruner": pruner, "baselines": baselines})
        try:
            traced_s, codes, call_s = run_pass(calls, instances, workdir, flags, tracer)
        finally:
            tracer.restore()
        checked.append(check_pass(calls, instances, workdir, codes, call_s))
        per_layer = layer_metrics(tracer.spans)
        per_layer.update({
            "harness.gen_s": statistics.median(s[1] for s in setups),
            "harness.prune_s_untraced": prune_s,
            "harness.prune_s_traced": traced_s,
            "harness.trace_overhead": traced_s / prune_s - 1.0,
        })

    all_calls = [r for pass_records in checked for r in pass_records]
    failed = sum(1 for r in all_calls if r["problems"])
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(bool(trace)),
        "seconds": seconds,
        "environment": environment(Path(__file__).resolve().parent.parent),
        "setup_reps_s": [s[2] for s in setups],
        "passes_s": passes,
        "attempted": len(all_calls),
        "failed": failed,
        "fail_rate": failed / len(all_calls),
        "end_to_end": {
            "prune_s": prune_s,
            "rel_loss": rel_loss,
            "setup_s": import_s + statistics.median(s[2] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "per_layer": per_layer,
        "missing_wraps": tracer.missing if tracer else [],
        "calls": last,
        "problems": [r for r in all_calls if r["problems"]],
    }
    return record, tracer.dump() if tracer else None


def main(argv, import_s, root):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="benchmark of the prune24 prune command")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, spans = run(args.workload, args.seed, args.seconds, args.trace, workdir,
                            import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (out_dir / "results" / f"{stem}.spans.json").write_text(json.dumps(spans))
    for missing in record["missing_wraps"]:
        print(f"warning: {missing} not found; its spans are missing", flush=True)
    for r in record["problems"]:
        print(f"FAILED call {r['call']} ({r['method']} on instance {r['instance']}): "
              + "; ".join(r["problems"]), flush=True)
    print(f"fail_rate {record['fail_rate']} ratio ({record['failed']} of "
          f"{record['attempted']} calls failed); record in .perfbench/results/{stem}.json")

    line = result_line(record, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result_line(record, trace):
    """The final JSON line: per-layer metrics for a traced run, else end-to-end ones."""
    values, units = ((record["per_layer"], PER_LAYER_UNITS) if trace
                     else (record["end_to_end"], END_TO_END_UNITS))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        # a failed call can leave a NaN, which is not valid JSON
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else None,
                           "unit": unit} for name, unit in units.items()},
    }
