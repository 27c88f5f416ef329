"""Set-up probe: one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <campaign-seed>

Prints the monotonic clock at the point where the workload would submit its
first trial: after imports, config parsing and fixed-matrix construction.
The caller reads the clock before starting this process, so the difference
includes interpreter start-up.
"""

import bootstrap  # noqa: F401  (pins threads and finds ptlab before NumPy loads)

import sys
import time

import workloads

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), int(sys.argv[3]))
print(repr(time.monotonic()))
