"""Launch environment shared by the benchmark and its set-up probe.

Import this module before anything that loads NumPy: BLAS and OpenMP read
their thread counts once, at load time.  With two pool workers on a 2-core
machine, an unpinned OpenBLAS would start two threads in each worker and
the campaign would oversubscribe the cores.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = "1"
# a master seed from the environment would override every campaign config
os.environ.pop("PTLAB_SEED", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "ptlab" / "__init__.py").is_file():
    print(f"error: no ptlab sources under {SRC}; run the benchmark from the "
          f"root of a ptlab checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
