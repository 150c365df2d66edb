"""One fresh-process set-up, timed by the parent: `run.py` starts this script.

Usage: python3 perfbench/probe.py <workload> <seed>

Imports lyagate, runs the workload's set-up, then prints one JSON line with
the CLOCK_MONOTONIC time at which the first operation could start, the mean
of CAL_PASSES calibration passes made after it (see `speed.py`), and any
set-up problems. CLOCK_MONOTONIC is one clock for every process on the
machine, so the parent subtracts its own reading taken before the spawn.
The passes run in this process, after the timed part, because they track
its speed far better than passes made in the parent.
"""

import json
import os
import sys
import time

CAL_PASSES = 2


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads

    problems = workloads.WORKLOADS[name]().setup(seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import speed
    cal = sum(speed.kernel_seconds() for _ in range(CAL_PASSES)) / CAL_PASSES
    print(json.dumps({"ready": ready, "cal": cal, "problems": problems}))


if __name__ == "__main__":
    main()
