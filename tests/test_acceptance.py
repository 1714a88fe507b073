"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with pytest -s). The heavyweight
shared artifacts (the random cell batch and the synthetic benchmark) are
module-scoped fixtures so the monitor and improvement criteria reuse them.
"""

import time

import numpy as np
import pytest

from prune24.baselines import sparsegpt_prune, wanda_prune
from prune24.cells import (
    hessian_f,
    prox_cells,
    prox_enumerate,
    solve_case_gd,
    solve_case_ipm,
)
from prune24.harness import reg_path_sweep, run_benchmark, toy_problem
from prune24.linalg import layer_loss
from prune24.matio import read_matrix, write_matrix
from prune24.pruner import prune_prox

from reference import (
    brute_force_mask_search,
    brute_force_prox_oracle,
    is_psd,
    prox_enumerate_ipm,
)

LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)


@pytest.fixture(scope="module")
def cell_batch():
    """1000 random sorted cells with the solver run on each penalty level."""
    rng = np.random.default_rng(2024)
    batch = []
    for i in range(1000):
        z = np.sort(np.abs(rng.normal(size=4)))[::-1].copy()
        lam = LAMBDA_GRID[i % 4]
        batch.append((z, lam, prox_enumerate(z, lam)))
    return batch


@pytest.fixture(scope="module")
def bench_rows():
    return run_benchmark(
        [1.0, 0.5, 0.3],
        128,
        [0, 1, 2, 3, 4],
        ["prox", "wanda", "wanda-gd", "sparsegpt", "sparsegpt-gd", "l0", "l1", "l2"],
    )


def test_criterion_1_toy_exact_reproduction():
    t0 = time.time()
    W_star, H = toy_problem()

    W, mask, _ = prune_prox(W_star, H)
    prox_ok = (
        np.array_equal(mask, [[0, 1, 0, 1, 0, 1, 1, 0]])
        and np.allclose(W, [[0, 5, 0, 4, 0, 5, 5, 0]], atol=1e-5)
        and abs(layer_loss(W, W_star, H) - 9.0) <= 1e-6
    )

    Ww, mw = wanda_prune(W_star, H)
    wanda_ok = (
        np.array_equal(Ww, [[0, 5, 3, 0, 0, 5, 5, 0]])
        and abs(layer_loss(Ww, W_star, H) - 16.0) <= 1e-9
    )

    Ws, ms = sparsegpt_prune(W_star, H)
    spgpt_ok = (
        np.array_equal(ms, mw)
        and abs(layer_loss(Ws, W_star, H) - 16.0) <= 1e-6
    )

    elapsed = time.time() - t0
    ok = prox_ok and wanda_ok and spgpt_ok and elapsed < 5.0
    _report(1, "toy-exact-reproduction", ok, elapsed,
            f"prox={prox_ok} wanda={wanda_ok} sparsegpt={spgpt_ok}")
    assert prox_ok, "proximal pruner missed the merged-weight optimum"
    assert wanda_ok, "score pruner deviated from its expected solution"
    assert spgpt_ok, "block pruner deviated from its expected solution"
    assert elapsed < 5.0


def test_criterion_2_diagonal_hessian_optimality():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        W_star = rng.normal(size=(1, 8))
        H = np.diag(rng.uniform(0.05, 2.0, size=8))
        Ww, _ = wanda_prune(W_star, H)
        _, best = brute_force_mask_search(W_star, H)
        worst = max(worst, abs(layer_loss(Ww, W_star, H) - best))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, "diagonal-hessian-optimality", ok, elapsed, f"worst-gap={worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_3_prox_correctness(cell_batch):
    t0 = time.time()
    worst_rel = 0.0
    worst_backend = 0.0
    oracle_beats = 0
    case_mismatch = 0
    for z, lam, res in cell_batch:
        _, f_o = brute_force_prox_oracle(z, lam)
        rel = abs(res.objective - f_o) / (1.0 + abs(f_o))
        worst_rel = max(worst_rel, rel)
        if f_o < res.objective - 1e-6:
            oracle_beats += 1
        res_ipm = prox_enumerate_ipm(z, lam)
        worst_backend = max(worst_backend, float(np.linalg.norm(res.w - res_ipm.w)))
        for case in ("three_sparse", "dense"):
            wg, _, _ = solve_case_gd(z, lam, case)
            wi, _, _ = solve_case_ipm(z, lam, case)
            if (wg is None) != (wi is None):
                case_mismatch += 1
            elif wg is not None:
                worst_backend = max(worst_backend, float(np.linalg.norm(wg - wi)))
    elapsed = time.time() - t0
    ok = (worst_rel <= 1e-6 and worst_backend <= 1e-6 and oracle_beats == 0
          and case_mismatch == 0 and elapsed < 300.0)
    _report(3, "prox-vs-oracle-and-backends", ok, elapsed,
            f"n={len(cell_batch)} worst-rel={worst_rel:.2e} "
            f"worst-backend-dist={worst_backend:.2e} case-mismatches={case_mismatch}")
    assert oracle_beats == 0, "grid+refine reference found a better objective"
    assert worst_rel <= 1e-6
    assert case_mismatch == 0, "solver backends disagree on case viability"
    assert worst_backend <= 1e-6
    assert elapsed < 300.0


def test_criterion_4_sparsity_thresholds():
    t0 = time.time()
    inputs = [
        np.array([1.6, 1.1, 0.8, 0.5]),
        np.array([1.6, 1.11, 1.1, 1.09]),
        np.array([1.6, 1.59, 1.58, 1.09]),
        np.array([1.6, 1.59, 1.58, 1.57]),
    ]
    grid = np.geomspace(0.01, 100.0, 160)
    violations = 0
    measured_easy_transition = None
    for idx, z in enumerate(inputs):
        rows, lam2 = reg_path_sweep(z, grid)
        for lam, *_, case in rows:
            if case == "two_sparse" and lam < lam2 * (1 - 1e-12):
                violations += 1
        if idx == 0:
            measured_easy_transition = next(
                lam for lam, *_, case in rows if case == "two_sparse"
            )
    elapsed = time.time() - t0
    ok = violations == 0 and measured_easy_transition >= 0.454545 and elapsed < 60.0
    _report(4, "two-sparse-threshold-necessary", ok, elapsed,
            f"violations={violations} easy-transition={measured_easy_transition:.6f}")
    assert violations == 0
    assert measured_easy_transition >= 0.454545
    assert elapsed < 60.0


def test_criterion_5_benchmark_direction(bench_rows):
    t0 = time.time()
    by = {}
    for r in bench_rows:
        by.setdefault(r.alpha, {}).setdefault(r.method, []).append((r.seed, r.loss))

    # uncorrelated inputs: every method lands on the same loss
    eq_worst = 0.0
    losses_a1 = by[1.0]
    for seed in range(5):
        ref = dict(losses_a1["wanda"])[seed]
        for method, vals in losses_a1.items():
            eq_worst = max(eq_worst, abs(dict(vals)[seed] - ref) / max(ref, 1e-30))

    def mean(method, alpha):
        return float(np.mean([loss for _, loss in by[alpha][method]]))

    direction_ok = True
    margins = []
    for alpha in (0.5, 0.3):
        p = mean("prox", alpha)
        for other in ("wanda-gd", "sparsegpt-gd"):
            o = mean(other, alpha)
            margins.append(f"a={alpha} prox/{other}={p / o:.4f}")
            if p > 1.01 * o:
                direction_ok = False

    elapsed = time.time() - t0
    ok = eq_worst <= 1e-6 and direction_ok
    _report(5, "benchmark-direction", ok, elapsed,
            f"alpha1-worst-rel={eq_worst:.2e} " + " ".join(margins))
    assert eq_worst <= 1e-6, "methods disagree on uncorrelated inputs"
    assert direction_ok, "proximal method lost its lead on correlated inputs"


def test_criterion_6_masked_gd_improvement(bench_rows):
    t0 = time.time()
    lookup = {(r.alpha, r.seed, r.method): r.loss for r in bench_rows}
    monotone_ok = True
    strict = 0
    total = 0
    for alpha in (0.5, 0.3):
        for seed in range(5):
            for base in ("wanda", "sparsegpt"):
                before = lookup[(alpha, seed, base)]
                after = lookup[(alpha, seed, base + "-gd")]
                if after > before + 1e-12:
                    monotone_ok = False
                total += 1
                if after < before - 1e-12:
                    strict += 1
    frac = strict / total
    elapsed = time.time() - t0
    ok = monotone_ok and frac >= 0.8
    _report(6, "masked-gd-improvement", ok, elapsed,
            f"strict-improvement={strict}/{total}")
    assert monotone_ok, "masked gradient steps increased a loss"
    assert frac >= 0.8


def test_criterion_7_gd_stays_in_convex_region(cell_batch):
    t0 = time.time()
    exits = 0
    dense_count = 0
    for z, lam, res in cell_batch:
        if res.case_tag != "dense":
            continue
        dense_count += 1
        traj = []
        solve_case_gd(z, lam, "dense", trajectory=traj)
        for w in traj:
            if not is_psd(hessian_f(w, lam), tol=1e-9):
                exits += 1
                break
    elapsed = time.time() - t0
    ok = exits == 0 and dense_count > 0
    _report(7, "gd-convex-region-monitor", ok, elapsed,
            f"dense-instances={dense_count} exits={exits}")
    assert dense_count > 0
    assert exits == 0


def test_criterion_8_spectrum_bound_inside_psd_region():
    t0 = time.time()
    rng = np.random.default_rng(11)
    checked = 0
    worst = -np.inf
    for _ in range(10000):
        w = np.abs(rng.normal(size=4)) * 10.0 ** rng.uniform(-1.5, 0.7)
        lam = 10.0 ** rng.uniform(-2.5, 1.0)
        Hf = hessian_f(w, lam)
        eigs = np.linalg.eigvalsh(Hf)
        if eigs[0] >= -1e-12:
            checked += 1
            worst = max(worst, float(eigs[-1]))
    elapsed = time.time() - t0
    ok = checked > 100 and worst <= 4.0 + 1e-9
    _report(8, "psd-region-spectrum-bound", ok, elapsed,
            f"checked={checked} max-eig={worst:.9f}")
    assert checked > 100
    assert worst <= 4.0 + 1e-9


def test_criterion_9_equivariance_and_file_format(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=4)
        lam = 10.0 ** rng.uniform(-2, 0.5)
        perm = rng.permutation(4)
        signs = rng.choice([-1.0, 1.0], size=4)
        lhs = prox_cells((signs * z[perm])[None, :], lam)[0]
        rhs = signs * prox_cells(z[None, :], lam)[0][perm]
        worst = max(worst, float(np.abs(lhs - rhs).max()))

    mat = rng.normal(size=(5, 8)) * 10.0 ** rng.integers(-6, 6, size=(5, 8))
    path = tmp_path / "roundtrip.bin"
    write_matrix(path, mat)
    roundtrip_exact = read_matrix(path).tobytes() == mat.tobytes()

    elapsed = time.time() - t0
    ok = worst <= 1e-12 and roundtrip_exact
    _report(9, "equivariance-and-file-roundtrip", ok, elapsed,
            f"worst-equivariance={worst:.2e} roundtrip-exact={roundtrip_exact}")
    assert worst <= 1e-12
    assert roundtrip_exact
