"""Smoke check of the benchmark harness itself.

    python3 perfbench/smoke.py

For every workload it runs the benchmark for one second with tracing off
and with tracing on, and asserts that every metric BENCHMARK.json names is
emitted with its unit and that no operation failed.  On the certificate
workloads it then checks the tamper gate: a certificate with one tampered
entry is rejected, and when forgeries are made to pass, every operation
runs the tamper check and is counted as failed.  Exits 0 when all checks
hold.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout

import run

TAMPER_INPUTS = 3  # certificates per workload for the tamper checks


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)])
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np
    import workloads
    from workloads import WORKLOADS, tamper

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
            assert result["attempted"] >= 1
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    for name in ("resolution-a4-proj", "split-a3-allmods"):
        workload = WORKLOADS[name]
        workload.load()
        pool = workload.inputs(np.random.default_rng(1))[:TAMPER_INPUTS]
        # The program rejects a certificate with one tampered entry.
        for index, complex_ in enumerate(pool):
            text = workload.run(complex_).payload[2]
            forged = tamper(text, random.Random(index), workload.alg.p)
            assert forged is not None and forged != text, f"{name}: nothing to tamper"
            assert workloads.accepts(text), f"{name}: honest certificate rejected"
            assert not workloads.accepts(forged), f"{name}: tampered certificate accepted"
        # The gate runs its tamper check on every operation and counts an
        # accepted forgery as a failed operation.
        honest = workloads.accepts
        workloads.accepts = lambda text: True
        try:
            res = run.run_loop(workload, pool, 0.5, seed=1)
        finally:
            workloads.accepts = honest
        assert res.tampers == res.failed == res.attempted >= 1, (
            f"{name}: {res.tampers} tamper checks, {res.failed} of {res.attempted} failed")
        print(f"ok  {name}: {len(pool)} tampered certificates rejected; with forgeries "
              f"accepted, {res.failed} of {res.attempted} operations counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
