"""Set-up probe: a fresh process imports fadingmac and builds one workload's
inputs up to its first call, then prints the seconds that took and what
run.host_probe() reads right after, for run.normalized().

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

run.py sets PYTHONPATH to the checkout's src/ and this directory.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, out_dir).round(0)
    taken = time.perf_counter() - START
    from run import host_probe
    print(taken, host_probe())
