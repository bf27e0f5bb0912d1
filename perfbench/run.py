"""Closed-loop benchmark of levelcert: one client in one process, each
operation started after the previous one completed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs come from --seed and are generated before any timing starts.  The
loop runs operations until S seconds of operation time have been measured;
every operation's output goes through the workload's correctness gate,
outside the timed region.  Timings are reported at a reference machine
speed, measured by a fixed loop timed after each operation (see
reference.py and README.md).  With --trace 0 the end-to-end metrics are
printed; with --trace 1 the run is split into an untraced and a traced
half, and the per-layer metrics are printed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import REF_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 9  # cold set-ups per run; setup_s is their median
REF_REPS = 3  # reference-loop timings after each operation
CLI_ROUNDS = 3  # in-process CLI round trips per traced run; median reported
DIGEST_OPS = 20  # the run digest covers the outputs of this many first operations

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "witness_ms.p50": "ms",
    "witness_ms.p90": "ms",
    "check_ms.p50": "ms",
    "check_ms.p90": "ms",
    "cert_bytes.p50": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span names from tracing.py -> metrics; "calls" and "s" are per operation.
CALLS = [
    "linalg.rref", "linalg.solve", "linalg.kernel_basis", "algebra.hom_space",
    "algebra.projective_cover", "homological.in_add", "homological.modules_isomorphic",
    "homological.xdim", "complexes.is_quasi_iso", "complexes.homology",
]
SELF_S = ["linalg.rref", "linalg.solve"]
INCLUSIVE_S = [
    "algebra.hom_space", "algebra.projective_cover", "homological.in_add",
    "homological.decompose", "homological.xdim", "complexes.is_quasi_iso",
    "complexes.kernel_of_chain_map", "levels.build", "levels.verify",
    "formats.render", "formats.decode", "formats.parse_document",
]
COUNTS = ["linalg.matmul.calls", "linalg.Matrix.new", "complexes.ChainMap.new"]

PER_LAYER = {
    **{f"{n}.calls": "calls/op" for n in CALLS},
    **{f"{n}.self_s": "s/op" for n in SELF_S},
    **{f"{n}.s": "s/op" for n in INCLUSIVE_S},
    **{n: "calls/op" for n in COUNTS},
    "linalg.max_rows": "rows",
    "algebra.ModuleMap.new": "calls/op",
    "algebra.ModuleMap.init_s": "s/op",
    "homological.modules_isomorphic.hit_rate": "ratio",
    "complexes.is_quasi_iso.identity_share": "ratio",
    "levels.nodes": "nodes/op",
    "cli.witness.s": "s",
    "cli.verify.s": "s",
    "sampling.random_complex.s": "s/input",
    "sampling.random_module.s": "s/input",
    "trace_overhead": "ratio",
}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class LoopResult:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.tampers = 0
        self.busy = 0.0
        self.ref = []
        self.op = []
        self.witness = []
        self.check = []
        self.size = []
        self.levels = Counter()
        self.nodes = 0
        self.digest = hashlib.sha256()

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy

    @property
    def scale(self) -> float:
        """Factor that turns this loop's times into times at the reference
        speed: above 1 when the machine ran faster than the reference."""
        return REF_S / statistics.mean(self.ref) if self.ref else 1.0


def run_loop(workload, pool, seconds, seed, tracer=None) -> LoopResult:
    """Closed loop over the pool until `seconds` of operation time."""
    res = LoopResult()
    index = 0
    while res.busy < seconds:
        item = pool[index % len(pool)]
        gate_rng = random.Random(f"{workload.name}/{seed}/{index}")
        started = time.perf_counter()
        out = None
        try:
            if tracer is None:
                out = workload.run(item)
            else:
                with tracer.installed():
                    try:
                        out = workload.run(item)
                    finally:
                        tracer.end_op()
            problems = workload.check(out, gate_rng)
        except Exception as exc:  # a failing operation is counted, never fatal
            if not res.failed:
                traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        res.ref.extend(reference_s() for _ in range(REF_REPS))
        res.attempted += 1
        if out is None:
            res.busy += time.perf_counter() - started
        else:
            res.busy += out.op_s
        if out is not None and out.tampered:
            res.tampers += 1
        if problems:
            res.failed += 1
            print(f"operation {index} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            res.op.append(out.op_s)
            res.witness.append(out.witness_s)
            res.check.append(out.check_s)
            res.size.append(out.size)
            res.levels[out.level] += 1
            if tracer is not None:
                res.nodes += workload.nodes(out)
        if out is not None and index < DIGEST_OPS:
            res.digest.update(out.record)
        index += 1
    return res


def median_setup_s(workload_name: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def cli_round_trip() -> tuple[float, float, bool]:
    """One in-process `levelcert witness` and `levelcert verify` on the
    shipped lambda3 stalk fixture; returns both times and whether both
    exited 0."""
    from levelcert.cli import main as cli_main

    fixtures = ROOT / "fixtures"
    cert = OUT / "cli-roundtrip.lc"
    witness = [
        "witness", str(fixtures / "lambda3.alg"), str(fixtures / "s1_stalk_lambda3.cpx"),
        str(fixtures / "lambda3.proj.gen"), "--mode", "main", "--d", "2", "--out", str(cert),
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        wrote = cli_main(witness)
        t1 = time.perf_counter()
        read = cli_main(["verify", str(cert)])
        t2 = time.perf_counter()
    cert.unlink(missing_ok=True)
    return t1 - t0, t2 - t1, wrote == 0 and read == 0


def warm_up(workload, pool, seed) -> LoopResult:
    """One untimed operation through the gate, so lazy imports and
    first-call costs are not charged to the first measured operation.
    Then the benchmark's own objects (the input pool above all) are moved
    out of the garbage collector's view, so that its collections cost what
    they would cost the program alone."""
    warm = run_loop(workload, pool, 1e-9, seed)
    gc.collect()
    gc.freeze()
    return warm


def end_to_end_metrics(workload, pool, args) -> tuple[dict, list[LoopResult], list[str]]:
    setup_s = median_setup_s(workload.name)
    warm = warm_up(workload, pool, args.seed)
    res = run_loop(workload, pool, args.seconds, args.seed)
    ok = bool(res.op)
    wall = {
        "ops_per_s": res.ops_per_s,
        "op_ms.p50": 1000 * percentile(res.op, 50) if ok else 0.0,
        "op_ms.p90": 1000 * percentile(res.op, 90) if ok else 0.0,
        "witness_ms.p50": 1000 * percentile(res.witness, 50) if ok else 0.0,
        "witness_ms.p90": 1000 * percentile(res.witness, 90) if ok else 0.0,
        "check_ms.p50": 1000 * percentile(res.check, 50) if ok else 0.0,
        "check_ms.p90": 1000 * percentile(res.check, 90) if ok else 0.0,
    }
    note = (f"  wall clock (reference loop {1000 * statistics.mean(res.ref):.4f} ms, "
            f"scale {res.scale:.4f}): "
            + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))
    values = {name: value * res.scale for name, value in wall.items()}
    values.update({
        "ops_per_s": res.ops_per_s / res.scale,
        "cert_bytes.p50": percentile(res.size, 50) if ok else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return values, [warm, res], [note]


def per_layer_metrics(workload, pool_fn, args) -> tuple[dict, list[LoopResult], list[str]]:
    from tracing import Tracer

    sampling = Tracer()
    with sampling.installed():
        pool = pool_fn()
    sampling.end_op()
    warm = warm_up(workload, pool, args.seed)
    OUT.mkdir(exist_ok=True)
    plain = run_loop(workload, pool, args.seconds / 2, args.seed)
    tracer = Tracer()
    traced = run_loop(workload, pool, args.seconds / 2, args.seed, tracer)
    cli = [cli_round_trip() for _ in range(CLI_ROUNDS)]

    n = traced.attempted
    values = {}
    for name in CALLS:
        values[f"{name}.calls"] = tracer.calls[name] / n
    for name in SELF_S:
        values[f"{name}.self_s"] = tracer.self_time[name] / n
    for name in INCLUSIVE_S:
        values[f"{name}.s"] = tracer.inclusive[name] / n
    for name in COUNTS:
        values[name] = tracer.counts[name] / n
    iso = tracer.calls["homological.modules_isomorphic"]
    quasi = tracer.calls["complexes.is_quasi_iso"]
    values.update({
        "linalg.max_rows": tracer.max_rows,
        "algebra.ModuleMap.new": tracer.calls["algebra.ModuleMap.new"] / n,
        "algebra.ModuleMap.init_s": tracer.inclusive["algebra.ModuleMap.new"] / n,
        "homological.modules_isomorphic.hit_rate":
            tracer.counts["homological.modules_isomorphic.hits"] / iso if iso else 0.0,
        "complexes.is_quasi_iso.identity_share":
            tracer.counts["complexes.is_quasi_iso.identity"] / quasi if quasi else 0.0,
        "levels.nodes": traced.nodes / n,
        "cli.witness.s": statistics.median(w for w, _, _ in cli),
        "cli.verify.s": statistics.median(v for _, v, _ in cli),
        "sampling.random_complex.s": sampling.inclusive["sampling.random_complex"] / len(pool),
        "sampling.random_module.s": sampling.inclusive["sampling.random_module"] / len(pool),
        "trace_overhead": (plain.ops_per_s / plain.scale) / (traced.ops_per_s / traced.scale)
        if traced.ops_per_s else 0.0,
    })
    cli_result = LoopResult()
    cli_result.attempted = CLI_ROUNDS
    cli_result.failed = sum(not ok for _, _, ok in cli)
    if cli_result.failed:
        print(f"{cli_result.failed} of {CLI_ROUNDS} CLI round trips did not exit 0",
              file=sys.stderr)

    spans = {
        "workload": workload.name,
        "seed": args.seed,
        "traced_ops": traced.attempted,
        "totals": {
            name: {"calls": tracer.calls[name], "s": tracer.inclusive[name],
                   "self_s": tracer.self_time[name]}
            for name in sorted(tracer.calls)
        },
        "counts": dict(tracer.counts),
        "first_op_spans": tracer.first_op or [],
    }
    (OUT / f"trace-{workload.name}-{args.seed}.json").write_text(json.dumps(spans))
    return values, [warm, plain, cli_result, traced], []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "levelcert").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no levelcert sources and fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workload.load()

    def pool_fn():
        return workload.inputs(np.random.default_rng(args.seed))

    if args.trace:
        values, loops, notes = per_layer_metrics(workload, pool_fn, args)
        units = PER_LAYER
    else:
        values, loops, notes = end_to_end_metrics(workload, pool_fn(), args)
        units = END_TO_END
    res = loops[-1]  # the loop the metrics describe
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    tampers = sum(loop.tampers for loop in loops)

    print(f"{workload.name} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f}, {tampers} tamper checks, "
          f"{len(res.op)} timed samples")
    print(f"  levels {dict(sorted(res.levels.items()))}, "
          f"sha256 of first {DIGEST_OPS} outputs {res.digest.hexdigest()}")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
