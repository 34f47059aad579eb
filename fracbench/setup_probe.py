"""Time one workload's set-up in this fresh interpreter and print the seconds.

    python3 fracbench/setup_probe.py <workload>

The clock starts before ``import fracbesov`` (numpy is imported by it) and
stops once the workload's reused objects exist: the systems, the filters
wavelet_filter(alpha, trunc) for each alpha, bl_system(n) for each n and the
molecule parameters.  run.py starts this script several times, one after
another, and reports the median as ``setup_s``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

if __name__ == "__main__":
    t0 = time.perf_counter()
    import fracbesov  # noqa: F401
    import workloads

    workloads.WORKLOADS[sys.argv[1]]().setup()
    print(repr(time.perf_counter() - t0))
