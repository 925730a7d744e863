"""Set-up probe, run in a fresh interpreter by run.py, which times it from
spawn to exit: import `sfrac.cli` and write the first op's configs.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import sfrac.cli  # noqa: E402,F401  (the import is what is timed)
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    next(WORKLOADS[name].stream(seed)).write_configs(directory)
