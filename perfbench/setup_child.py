"""Set-up probe, run in a fresh interpreter by run.py: python3 setup_child.py WORKLOAD SEED

Imports wulffkit.cli (which loads every layer), builds the workload's inputs
and prints one JSON line with the import time.  The parent times the whole
child from spawn to that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import common  # noqa: E402  (fixes the BLAS thread count before NumPy loads)

common.add_src_to_path()
import wulffkit.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(json.dumps({"import_s": import_s}), flush=True)
