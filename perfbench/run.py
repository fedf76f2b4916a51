"""Benchmark of hexacent: the proof ledger, Monte Carlo stress and `check`
on large exact bodies.

    python3 perfbench/run.py --workload {ledger,stress,check_large} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  This launcher starts the worker
(workloads.py) as a fresh process, so that set-up is timed from that
process's start, and waits for it.  The worker runs with -S: hexacent needs
nothing from site-packages, and the environment's site hooks would add
time to set-up that no change to hexacent can move.  The worker's last
line of output is the result: {"correct", "attempted", "failed",
"metrics"}.
"""

import subprocess
import sys
from pathlib import Path

# the worker must end well inside the three minutes a run may take
WORKER_TIMEOUT_S = 170


def main():
    worker = Path(__file__).resolve().parent / "workloads.py"
    cmd = [sys.executable, "-S", str(worker), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: the worker ran longer than %d s" % WORKER_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
