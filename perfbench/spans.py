"""Outside-in tracing of one pass of prune calls.

The pipeline reaches each layer through a name bound in ``prune24.cli``,
``prune24.pruner`` or ``prune24.baselines`` (``cli.sparsegpt_prune``,
``pruner.prox_cells``, ...). ``Tracer.install`` replaces those module
attributes with wrappers that record a span per call, and ``restore`` puts
the originals back, so nothing under ``src/`` is edited. Spans stay in
memory until the run writes them out.
"""

import os
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

# Work a wrapper does after its call returns (reading a file size, counting
# nonzeros) is recorded under this name, so it is charged to no layer's
# self time; it still shows in the traced pass time.
BOOKKEEPING = "trace.bookkeeping"

# lambda bins of the cell-prox cost; below 0.1 every cell is still dense,
# above 1 most cells have reached the 2-sparse case
LAM_BINS = (("lam_lt_0.1", 0.0, 0.1), ("lam_0.1_1", 0.1, 1.0), ("lam_ge_1", 1.0, np.inf))

PER_LAYER_UNITS = {
    "cells.prox_calls": "count",
    "cells.cells": "count",
    "cells.prox_s": "s",
    "cells.us_per_cell": "us",
    **{f"cells.us_per_cell.{tag}": "us" for tag, _, _ in LAM_BINS},
    "cells.out_2sparse_frac": "ratio",
    "cells.prox_simple_s": "s",
    "pruner.outer_iters": "count",
    "pruner.max_iter_exits": "count",
    "pruner.self_s": "s",
    "pruner.masked_gd_s": "s",
    "linalg.layer_loss_calls": "count",
    "linalg.layer_loss_s": "s",
    "linalg.max_eigenvalue_s": "s",
    "linalg.precondition_s": "s",
    "baselines.sparsegpt_s": "s",
    "baselines.sparsegpt_gflop": "GFLOP",
    "baselines.wanda_s": "s",
    "matio.read_s": "s",
    "matio.write_s": "s",
    "matio.bytes": "bytes",
    "cli.self_s": "s",
    "harness.gen_s": "s",
    "harness.prune_s_untraced": "s",
    "harness.prune_s_traced": "s",
    "harness.trace_overhead": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    call: int  # prune-call id within the pass
    attrs: dict = field(default_factory=dict)


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _report(args, kwargs, out):
    rep = out[2]
    return {"iterations": rep.iterations, "max_iter_exit": rep.terminated_by == "max_iter"}


def _prox_cells(args, kwargs, out):
    nonzeros = np.count_nonzero(out.reshape(-1, 4), axis=1)
    return {"cells": int(out.shape[0]), "lam": float(args[1]),
            "two_sparse": int(np.sum(nonzeros <= 2))}


def _sparsegpt_flop(args, kwargs, out):
    # sparsegpt_prune inverts the trailing (d - b) x (d - b) block for every
    # 4-column block b; an n x n inverse costs about 2 n^3 flops
    d = np.asarray(args[0]).shape[1]
    return {"gflop": sum(2.0 * (d - b) ** 3 for b in range(0, d, 4)) / 1e9}


# (module name, attribute, span name, attribute recorder)
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_matrix", "matio.read", _file_bytes),
    ("cli", "save_matrix", "matio.write", _file_bytes),
    ("cli", "prune_prox", "pruner.prune", _report),
    ("cli", "simple_reg_prune", "pruner.prune", _report),
    ("cli", "masked_gd", "pruner.masked_gd", None),
    ("cli", "wanda_prune", "baselines.wanda", None),
    ("cli", "sparsegpt_prune", "baselines.sparsegpt", _sparsegpt_flop),
    ("pruner", "prox_cells", "cells.prox", _prox_cells),
    ("baselines", "prox_simple_cells", "cells.prox_simple", None),
    ("pruner", "layer_loss", "linalg.layer_loss", None),
    ("pruner", "max_eigenvalue", "linalg.max_eigenvalue", None),
    ("pruner", "precondition", "linalg.precondition", None),
)


class Tracer:
    """Span recorder whose wrappers replace module attributes while installed."""

    def __init__(self):
        self.spans = []
        self.missing = []  # "module.attr" names that could not be wrapped
        self.call = -1
        self._stack = []
        self._patches = []

    def _add(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, end, parent, self.call))
        return len(self.spans) - 1

    def _wrap(self, module, attr, name, recorder):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            idx = self._add(name, perf_counter(), 0.0)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = perf_counter()
            if recorder is not None:
                t0 = perf_counter()
                self.spans[idx].attrs = recorder(args, kwargs, out)
                self._add(BOOKKEEPING, t0, perf_counter())
            return out

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def install(self, modules):
        """Wrap every name in WRAPS; ``modules`` maps 'cli'/'pruner'/'baselines' to modules."""
        for mod_name, attr, name, recorder in WRAPS:
            self._wrap(modules[mod_name], attr, name, recorder)

    def restore(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def dump(self):
        return {"missing": self.missing, "spans": [asdict(s) for s in self.spans]}


def layer_metrics(spans) -> dict:
    """Per-layer totals of one traced pass, keyed like PER_LAYER_UNITS.

    A span's self time is its duration minus the time its child spans cover
    (children of one span never overlap: the pipeline is single-threaded).
    A call that raised has no attributes and adds to the times only. The
    harness.* entries are filled in by the caller.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for s, covered in zip(spans, child_s):
        total[s.name] += s.end - s.start
        self_s[s.name] += s.end - s.start - covered
        calls[s.name] += 1

    def with_attrs(name):
        return [s for s in spans if s.name == name and s.attrs]

    prox = with_attrs("cells.prox")
    n_cells = sum(s.attrs["cells"] for s in prox)
    m = {
        "cells.prox_calls": len(prox),
        "cells.cells": n_cells,
        "cells.prox_s": total["cells.prox"],
        "cells.us_per_cell": 1e6 * total["cells.prox"] / n_cells if n_cells else 0.0,
    }
    for tag, lo, hi in LAM_BINS:
        binned = [s for s in prox if lo <= s.attrs["lam"] < hi]
        cells = sum(s.attrs["cells"] for s in binned)
        secs = sum(s.end - s.start for s in binned)
        m[f"cells.us_per_cell.{tag}"] = 1e6 * secs / cells if cells else 0.0
    two = sum(s.attrs["two_sparse"] for s in prox)
    reports = [s.attrs for s in with_attrs("pruner.prune")]
    m.update({
        "cells.out_2sparse_frac": two / n_cells if n_cells else 0.0,
        "cells.prox_simple_s": total["cells.prox_simple"],
        "pruner.outer_iters": sum(r["iterations"] for r in reports),
        "pruner.max_iter_exits": sum(r["max_iter_exit"] for r in reports),
        "pruner.self_s": self_s["pruner.prune"],
        "pruner.masked_gd_s": total["pruner.masked_gd"],
        "linalg.layer_loss_calls": calls["linalg.layer_loss"],
        "linalg.layer_loss_s": total["linalg.layer_loss"],
        "linalg.max_eigenvalue_s": total["linalg.max_eigenvalue"],
        "linalg.precondition_s": total["linalg.precondition"],
        "baselines.sparsegpt_s": total["baselines.sparsegpt"],
        "baselines.sparsegpt_gflop": sum(
            s.attrs["gflop"] for s in with_attrs("baselines.sparsegpt")),
        "baselines.wanda_s": total["baselines.wanda"],
        "matio.read_s": total["matio.read"],
        "matio.write_s": total["matio.write"],
        "matio.bytes": sum(s.attrs["bytes"] for name in ("matio.read", "matio.write")
                           for s in with_attrs(name)),
        "cli.self_s": self_s["cli.main"],
    })
    return m
