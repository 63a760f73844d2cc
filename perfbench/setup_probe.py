"""Time one benchmark set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing posspf, loading the workload's config and building the
scenario, prior and filter options.
"""

import sys
from time import perf_counter

start = perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(perf_counter() - start))
