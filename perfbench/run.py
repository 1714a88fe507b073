"""Command-line entry point of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``prune24`` from
``src/`` and writes its scratch files and result records under
``.perfbench/``. The last line of standard output is the JSON result.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: the load is a single client making sequential calls, and
# on a small shared host a second BLAS thread made pass times swing by a
# third between identical runs. Must be set before numpy is imported.
BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    t0 = time.perf_counter()
    if not (ROOT / "src" / "prune24" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'prune24'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import prune24.cli  # noqa: F401  (timed as part of set-up)
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:], import_s=time.perf_counter() - t0, root=ROOT))
