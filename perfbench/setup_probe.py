"""Time one cold set-up of a workload, as the CLI pays it on every call:
import levelcert, load the algebra, load the generator (with its
decomposition).  Prints the seconds taken at the reference speed, from
the reference loop timed just before and just after.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time
from pathlib import Path

from reference import REF_S, reference_s

REF_REPS = 3

refs = [reference_s() for _ in range(REF_REPS)]
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import WORKLOADS  # noqa: E402  (importing levelcert is what is timed)

WORKLOADS[sys.argv[1]].load()
took = time.perf_counter() - start
refs += [reference_s() for _ in range(REF_REPS)]
print(took * REF_S / (sum(refs) / len(refs)))
