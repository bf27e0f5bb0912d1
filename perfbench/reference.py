"""The reference loop: a probe of how fast the machine runs this process
right now.  Timings are scaled by REF_S / (the loop's mean time while they
were taken), so they read as times at the reference speed (see README.md).
Imports nothing but time, so that set-up probes can use it before the
imports they time."""

import time

# The loop's mean time on the baseline machine.
REF_S = 0.0018


def reference_s() -> float:
    """One timing of a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - started
