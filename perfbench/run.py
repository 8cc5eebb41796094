"""dlpsim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a fresh child
process (``bench.py``) that imports dlpsim from the checkout's ``src/``,
with BLAS/OpenMP thread counts pinned to 1 in the child's environment.
The child's output is passed on: a line that records nproc and the Python
and numpy versions, then the result object as the last line. Exits
non-zero, and prints no result, when the checkout has no dlpsim sources
or the child fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv) -> int:
    src = Path.cwd() / "src"
    if not (src / "dlpsim" / "__init__.py").is_file():
        print(f"run.py: no dlpsim sources under {src}; run from the root "
              "of a dlpsim checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED_THREADS})
    try:
        child = subprocess.run([sys.executable, str(HERE / "bench.py"), *argv],
                               env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"run.py: benchmark process exited {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    if set(json.loads(lines[-1])) != RESULT_KEYS:
        print(f"run.py: malformed result {lines[-1]!r}", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
