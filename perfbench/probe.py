"""Set-up time of one fresh interpreter: import clarklab and build a
workload's inputs, as perfbench/run.py does before its first job.

    python3 perfbench/probe.py WORKLOAD SEED   (prints seconds)
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.build(workload, seed, HERE.parent / ".perfbench_out" / f"probe-{workload}-{seed}")
print(time.perf_counter() - T0)
