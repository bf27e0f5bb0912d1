"""The benchmark's workloads: how each builds its inputs, runs one
operation and checks the operation's output.

A workload is loaded once (algebra and generator), generates a pool of
inputs from the run's seed before any timing starts, and then runs
operations on pool entries in turn.  ``run`` is the timed part; ``check``
is the correctness gate and runs outside the timed region.  Each check
returns a list of problems; an empty list means the operation was correct.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from time import perf_counter

import numpy as np

# Calls go through the module attributes so that the traced run, which
# swaps those attributes for recording wrappers, sees them.
from levelcert import algebra, formats, homological, levels, sampling

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Cap on the independent projective-dimension iteration; the fixtures
# have global dimension at most 3.
PD_CAP = 16


@dataclasses.dataclass
class Outcome:
    """What one timed operation produced."""

    op_s: float
    witness_s: float
    check_s: float
    size: int  # bytes of the artifact (see README)
    level: int  # certificate level, or the xdim value
    payload: object  # workload-specific data for the gate
    record: bytes = b""  # output bytes that the run digest covers
    tampered: bool = False  # whether the gate ran its tamper check


def count_nodes(node) -> int:
    if isinstance(node, levels.Leaf):
        return 1
    return 1 + count_nodes(node.sub) + count_nodes(node.rest)


def tamper(text: str, rng: random.Random, p: int) -> str | None:
    """The certificate with one nonzero matrix entry of its tree (the part
    after the generator block) raised by one mod p, or None if the tree
    holds no nonzero entry."""
    lines = text.split("\n")
    start = lines.index("  end generator")
    spots = [
        (i, j)
        for i in range(start, len(lines))
        if lines[i].lstrip().startswith("row ")
        for j, value in enumerate(lines[i].split()[1:], start=1)
        if value != "0"
    ]
    if not spots:
        return None
    i, j = spots[rng.randrange(len(spots))]
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    fields = lines[i].split()
    fields[j] = str((int(fields[j]) + 1) % p)
    lines[i] = indent + " ".join(fields)
    return "\n".join(lines)


class CertificateWorkload:
    """Build a certificate, verify it, render it; then decode and verify the
    text again.  The first half is what ``levelcert witness`` does (timed as
    witness), the second what ``levelcert verify`` does (timed as check)."""

    def __init__(self, name, why, fixture, generator, route, d, max_dim, level_bound, pool):
        self.name = name
        self.why = why
        self.algebra_file = FIXTURES / f"{fixture}.alg"
        self.generator_file = FIXTURES / f"{fixture}.{generator}.gen"
        self.route = route
        self.d = d
        self.max_dim = max_dim
        self.level_bound = level_bound
        self.pool = pool

    def load(self) -> None:
        self.alg_name, self.alg = formats.load_algebra_file(str(self.algebra_file))
        self.gen_name, self.gen = formats.load_generator_file(str(self.generator_file), self.alg)

    def inputs(self, rng: np.random.Generator) -> list:
        """random_complex draws (max_len 4), taken in turn by support length
        1, 2, 3, 4.  random_complex draws the length uniformly, so these are
        the stream's own shares, but held exactly: length drives most of an
        operation's cost, and a share left to chance moves the percentiles
        between seeds (see README).  A draw whose length is not due yet
        waits for its turn; the zero complex is skipped."""
        waiting = {length: [] for length in range(1, 5)}
        out = []
        while len(out) < self.pool:
            due = len(out) % 4 + 1
            while not waiting[due]:
                c = sampling.random_complex(self.alg, rng, max_len=4, max_dim=self.max_dim)
                if c.terms:
                    waiting[len(c.terms)].append(c)
            out.append(waiting[due].pop(0))
        return out

    def run(self, complex_) -> Outcome:
        t0 = perf_counter()
        if self.route == "resolution":
            node = levels.build_resolution_witness(complex_, self.gen, self.d)
        else:
            node = levels.build_split_witness(complex_, self.gen)
        built = levels.verify_certificate(node, self.gen)
        text = formats.render_certificate(self.alg_name, self.alg, self.gen_name, self.gen, node)
        t1 = perf_counter()
        alg, gen, decoded, seed = formats.decode_certificate(text)
        checked = levels.verify_certificate(decoded, gen, seed)
        t2 = perf_counter()
        return Outcome(
            t2 - t0, t1 - t0, t2 - t1, len(text.encode()), node.level,
            (node, built, text, alg, gen, decoded, seed, checked),
        )

    def check(self, out: Outcome, rng: random.Random) -> list[str]:
        node, built, text, alg, gen, decoded, seed, checked = out.payload
        problems = []
        if not built.accepted:
            problems.append(f"in-process verify rejected at {built.path}: {built.reason}")
        if not checked.accepted:
            problems.append(f"verify of decoded text rejected at {checked.path}: {checked.reason}")
        if node.level > self.level_bound:
            problems.append(f"level {node.level} above route bound {self.level_bound}")
        if decoded.level != node.level:
            problems.append(f"decoded level {decoded.level} differs from {node.level}")
        if formats.render_certificate(self.alg_name, alg, self.gen_name, gen, decoded, seed) != text:
            problems.append("render -> decode -> render changed the bytes")
        forged = tamper(text, rng, self.alg.p)
        out.tampered = forged is not None
        if out.tampered and accepts(forged):
            problems.append("a certificate with one tampered entry was accepted")
        out.record = text.encode()
        return problems

    def nodes(self, out: Outcome) -> int:
        return count_nodes(out.payload[0])


def accepts(text: str) -> bool:
    try:
        _, gen, node, seed = formats.decode_certificate(text)
    except ValueError:  # FormatError, CertificateDecodeError, AlgebraError
        return False
    return levels.verify_certificate(node, gen, seed).accepted


def projective_dimension(m) -> int | None:
    """Projective dimension by iterating projective covers until the kernel
    vanishes; shares no code with the add-M membership test."""
    cur = m
    for t in range(PD_CAP + 1):
        cover = algebra.projective_cover(cur)
        if cover.kernel.is_zero():
            return t
        cur = cover.kernel
    return None


class XDimWorkload:
    """One ``xdim`` of a random module against the projectives generator
    (timed as witness).  Its independent check, the projective dimension by
    iterated projective covers, is timed as check and kept out of op time."""

    def __init__(self, name, why, fixture, p, max_dim, pool):
        self.name = name
        self.why = why
        self.algebra_file = FIXTURES / f"{fixture}.alg"
        self.p = p
        self.max_dim = max_dim
        self.pool = pool

    def load(self) -> None:
        _, fixture = formats.load_algebra_file(str(self.algebra_file))
        self.alg = algebra.load_algebra(dataclasses.replace(fixture.presentation, p=self.p))
        self.gen = homological.make_generator(algebra.projective_generator(self.alg))

    def inputs(self, rng: np.random.Generator) -> list:
        return [sampling.random_module(self.alg, rng, max_dim=self.max_dim) for _ in range(self.pool)]

    def run(self, module) -> Outcome:
        t0 = perf_counter()
        report = homological.xdim(module, self.gen)
        t1 = perf_counter()
        return Outcome(t1 - t0, t1 - t0, 0.0, 0, report.value, (module, report))

    def check(self, out: Outcome, rng: random.Random) -> list[str]:
        # The independent check runs here, outside the op (and outside any
        # tracing), and fills in the outcome's check time and artifact size.
        module, report = out.payload
        t0 = perf_counter()
        pd = projective_dimension(module)
        out.check_s = perf_counter() - t0
        text = formats.render_module("m", module)
        out.size = len(text.encode())
        out.record = f"{text}value {report.value}\n".encode()
        if report.value is None or report.value != pd:
            return [f"xdim {report.value} differs from projective dimension {pd}"]
        return []

    def nodes(self, out: Outcome) -> int:
        return 0


WORKLOADS = {
    w.name: w
    for w in (
        CertificateWorkload(
            "resolution-a4-proj",
            "deep trees (level up to 4) and large certificates: time goes to map "
            "construction, chain-map kernels, quasi-iso checks and decode",
            fixture="lambda4", generator="proj", route="resolution", d=3,
            max_dim=2, level_bound=4, pool=256,
        ),
        CertificateWorkload(
            "split-a3-allmods",
            "shallow trees (level <= 2) with large leaves: add-M membership "
            "(decompose, then isomorphism tests against 5 summands) dominates",
            fixture="lambda3", generator="all", route="split", d=None,
            max_dim=4, level_bound=2, pool=512,
        ),
        XDimWorkload(
            "xdim-a4-p3",
            "module layer only, odd modulus: covers, hom spaces and add-M tests "
            "without complexes, certificates or formats",
            fixture="lambda4", p=3, max_dim=4, pool=2048,
        ),
    )
}
