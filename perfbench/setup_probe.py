"""Time the package's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR WORK_DIR

Set-up is the package import plus ``workloads.setup``: load every seed
fixture and open a file-backed pair cache.  Prints the wall seconds and
the same time at reference speed, scaled by reference-kernel runs taken
just before and just after.
"""
import os
import statistics
import sys
import time

from measure import REF_KERNEL_S, kernel_seconds

src, workdir = sys.argv[1], sys.argv[2]
kernel = [kernel_seconds() for _ in range(5)]
start = time.perf_counter()
sys.path.insert(0, src)

import workloads  # noqa: E402  (imports the package)

os.makedirs(workdir, exist_ok=True)
workloads.setup(workdir)
elapsed = time.perf_counter() - start
kernel += [kernel_seconds() for _ in range(5)]
print(elapsed, elapsed * REF_KERNEL_S / statistics.median(kernel))
