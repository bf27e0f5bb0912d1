"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at fixed seeds.  Criterion 9 re-executes criteria 1
through 7 from scratch and compares the serialized artifacts byte for
byte, so each criterion function below is careful to route all randomness
through explicit per-sample seeds.

Criterion 5 exercises the claim that the kernel of any chain map between
finite sums of disks with positive indices has homology concentrated in
degree zero.  That claim is false in this generality (a map hitting only
the bottom copy of a higher disk leaves kernel homology one degree below
its index; see test_complexes.py::
test_disk_kernel_homology_outside_degree_zero), so the
criterion is expected to fail; it is implemented faithfully and reports
the violation count rather than being weakened to pass.
"""

from __future__ import annotations

import hashlib
import io
import time

import numpy as np
import pytest

from levelcert.algebra import (
    Matrix,
    Module,
    direct_sum,
    projective_cover,
    projective_generator,
    simple_module,
)
from levelcert.complexes import ChainMap, Complex, homology, is_quasi_iso, kernel_of_chain_map
from levelcert.formats import render_certificate
from levelcert.homological import in_add, make_generator, xdim
from levelcert.levels import (
    Branch,
    Leaf,
    build_resolution_witness,
    build_split_witness,
    derived_dim_bound,
    reduction_step,
    verify_certificate,
)
from levelcert.linalg import inverse, kernel_basis, rref
from levelcert.sampling import random_chain_map, random_complex, random_disk_sum

from conftest import (
    presentation_a2,
    presentation_a3,
    presentation_a4,
    presentation_dual_numbers,
    presentation_point,
)
from levelcert.algebra import load_algebra


class Criterion:
    def __init__(self, number, passed, detail, elapsed, artifact: bytes):
        self.number = number
        self.passed = passed
        self.detail = detail
        self.elapsed = elapsed
        self.digest = hashlib.sha256(artifact).hexdigest()

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number}: {self.detail} ({self.elapsed:.1f}s)"


_ALGEBRAS = {}


def algebra(key):
    if key not in _ALGEBRAS:
        makers = {
            "point": presentation_point,
            "dual": presentation_dual_numbers,
            "a2": presentation_a2,
            "a3": presentation_a3,
            "a4": presentation_a4,
        }
        _ALGEBRAS[key] = load_algebra(makers[key]())
    return _ALGEBRAS[key]


def _pd_independent(m: Module, cap: int = 16) -> int | None:
    """Projective dimension via iterated covers and the cover-kernel test,
    sharing no code path with the add-M membership machinery."""
    cur = m
    for t in range(cap + 1):
        cover = projective_cover(cur)
        if cover.kernel.is_zero():
            return t
        cur = cover.kernel
    return None


# ---------------------------------------------------------------------------
# criterion implementations


def run_criterion_1() -> Criterion:
    """200 random complexes over the dual numbers with the all-modules
    generator: split certificates of level <= 2, all verified."""
    t0 = time.time()
    alg = algebra("dual")
    total, _, _ = direct_sum(alg, [projective_generator(alg), simple_module(alg, "1")])
    gen = make_generator(total)
    failures = 0
    buf = io.StringIO()
    for i in range(200):
        seed = 1000 + i
        a = random_complex(alg, np.random.default_rng(seed), max_len=4, max_dim=4)
        node = build_split_witness(a, gen)
        verdict = verify_certificate(node, gen)
        if node.level > 2 or not verdict.accepted:
            failures += 1
        buf.write(render_certificate("lambda1", alg, "allmods", gen, node, seed))
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60
    return Criterion(
        1,
        ok,
        f"rep-finite base: 200 split certificates, level <= 2, {failures} failures",
        elapsed,
        buf.getvalue().encode(),
    )


def run_criterion_2() -> Criterion:
    """100 random complexes each over the gl.dim 2 and gl.dim 3 fixtures:
    resolution certificates of level <= d + 1, all verified."""
    t0 = time.time()
    failures = 0
    buf = io.StringIO()
    for key, d in (("a3", 2), ("a4", 3)):
        alg = algebra(key)
        gen = make_generator(projective_generator(alg))
        for i in range(100):
            seed = 2000 + i
            a = random_complex(alg, np.random.default_rng(seed), max_len=4, max_dim=2)
            node = build_resolution_witness(a, gen, d)
            verdict = verify_certificate(node, gen)
            if node.level > d + 1 or not verdict.accepted:
                failures += 1
            buf.write(render_certificate(key, alg, "proj", gen, node, seed))
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 300
    return Criterion(
        2,
        ok,
        f"resolution route: 2 x 100 certificates, level <= d + 1, {failures} failures",
        elapsed,
        buf.getvalue().encode(),
    )


def run_criterion_3() -> Criterion:
    """100 random complexes over the hereditary fixture: split certificates
    of level <= 3, all verified."""
    t0 = time.time()
    alg = algebra("a2")
    gen = make_generator(projective_generator(alg))
    failures = 0
    buf = io.StringIO()
    for i in range(100):
        seed = 3000 + i
        a = random_complex(alg, np.random.default_rng(seed), max_len=4, max_dim=2)
        node = build_split_witness(a, gen)
        verdict = verify_certificate(node, gen)
        if node.level > 3 or not verdict.accepted:
            failures += 1
        buf.write(render_certificate("lambda2", alg, "proj", gen, node, seed))
    elapsed = time.time() - t0
    return Criterion(
        3,
        failures == 0,
        f"split route: 100 certificates, level <= 3, {failures} failures",
        elapsed,
        buf.getvalue().encode(),
    )


def run_criterion_4() -> Criterion:
    """One reduction step on 50 samples each over the hereditary and
    gl.dim 2 fixtures, with d the global relative dimension: the kernel's
    cycle and boundary data must drop to d - 1, cross-checked by the
    independent projective-dimension computation."""
    t0 = time.time()
    violations = 0
    buf = io.StringIO()
    for key, d in (("a2", 1), ("a3", 2)):
        alg = algebra(key)
        gen = make_generator(projective_generator(alg))
        for i in range(50):
            seed = 4000 + i
            a = random_complex(alg, np.random.default_rng(seed), max_len=4, max_dim=2)
            try:
                step = reduction_step(a, gen, d)
            except Exception as exc:  # posted as a violation, never swallowed
                violations += 1
                buf.write(f"{key} seed {seed}: step failed: {exc}\n")
                continue
            from levelcert.complexes import boundaries, cycles

            for n in step.kernel.support:
                for kind, (mod, _) in (
                    ("cycles", cycles(step.kernel, n)),
                    ("boundaries", boundaries(step.kernel, n)),
                ):
                    pd = _pd_independent(mod)
                    buf.write(f"{key} seed {seed} degree {n} {kind}: pd {pd}\n")
                    if pd is None or pd > d - 1:
                        violations += 1
    elapsed = time.time() - t0
    return Criterion(
        4,
        violations == 0,
        f"reduction decrease: 100 steps cross-checked, {violations} violations",
        elapsed,
        buf.getvalue().encode(),
    )


def run_criterion_5() -> Criterion:
    """500 random chain maps between random positive-index disk sums:
    kernel homology must vanish away from degree 0 and the natural map to
    the degree-0 stalk must be a quasi-isomorphism.  Expected to fail; see
    the module docstring."""
    t0 = time.time()
    violations = 0
    first = None
    buf = io.StringIO()
    for key in ("point", "dual"):
        alg = algebra(key)
        for i in range(250):
            seed = 5000 + i
            rng = np.random.default_rng(seed)
            c, _ = random_disk_sum(alg, rng, (1, 4), max_pieces=3, max_dim=2)
            dsum, _ = random_disk_sum(alg, rng, (1, 4), max_pieces=3, max_dim=2)
            phi = random_chain_map(c, dsum, rng)
            k, _ = kernel_of_chain_map(phi)
            bad = [
                n
                for n in k.support
                if n != 0 and not homology(k, n).module.is_zero()
            ]
            ok_map = True
            if not bad and not k.is_zero():
                from levelcert.complexes import stalk as _stalk

                h0 = homology(k, 0)
                tgt = _stalk(h0.module, 0)
                rho = ChainMap(k, tgt, {0: h0.quotient} if not tgt.is_zero() else {})
                ok_map = is_quasi_iso(rho)
            if bad or not ok_map:
                violations += 1
                if first is None:
                    first = f"{key} seed {seed}, homology in degrees {bad}"
            buf.write(f"{key} seed {seed}: nonzero degrees {bad}\n")
    elapsed = time.time() - t0
    detail = f"disk-kernel concentration: {violations} violations in 500 samples"
    if first:
        detail += f" (first: {first})"
    return Criterion(5, violations == 0, detail, elapsed, buf.getvalue().encode())


def _semisimple_stalk_data(c: Complex):
    """Independent oracle over the one-vertex semisimple fixture: split
    every differential with rref complements and return the homology
    dimensions together with the explicit projection to the stalk sum."""
    p = c.algebra.p
    hdims: dict[int, int] = {}
    q_rows: dict[int, Matrix] = {}
    for n in c.support:
        a_n = c.term(n).dims[0]
        d_out = c.diff(n).blocks[0]
        d_in = c.diff(n + 1).blocks[0]
        z = kernel_basis(d_out)
        b_cols = list(rref(d_in).pivots)
        b = d_in.array[:, b_cols]
        stacked = Matrix(p, np.hstack([b, z.array, np.eye(a_n, dtype=np.int64)]))
        piv = list(rref(stacked).pivots)
        basis = Matrix(p, stacked.array[:, piv])
        inv = inverse(basis)
        assert inv is not None
        nb = b.shape[1]
        upos = [k for k, col in enumerate(piv) if nb <= col < nb + z.cols]
        hdims[n] = len(upos)
        q_rows[n] = Matrix(p, inv.array[upos, :])
    return hdims, q_rows


def _certificate_homology_dims(node) -> dict[int, int]:
    """Homology dimensions asserted by a one-vertex split certificate."""
    if isinstance(node, Leaf):
        out: dict[int, int] = {}
        for piece in node.pieces:
            if piece.kind == "stalk":
                out[piece.degree] = out.get(piece.degree, 0) + piece.module.total_dim
        return out
    assert isinstance(node, Branch)
    kdims: dict[int, int] = {}
    idims: dict[int, int] = {}
    for piece, sink in ((node.sub, kdims), (node.rest, idims)):
        assert isinstance(piece, Leaf)
        for pc in piece.pieces:
            sink[pc.degree] = sink.get(pc.degree, 0) + pc.module.total_dim
    degrees = set(kdims) | {n - 1 for n in idims}
    return {
        n: kdims.get(n, 0) - idims.get(n + 1, 0)
        for n in degrees
        if kdims.get(n, 0) - idims.get(n + 1, 0) != 0
    }


def run_criterion_6() -> Criterion:
    """200 random complexes over the semisimple point: the rref-splitting
    oracle must produce a verified quasi-isomorphism onto the homology
    stalk sum, and the engine's certificates must claim the same homology
    dimensions."""
    t0 = time.time()
    alg = algebra("point")
    gen = make_generator(projective_generator(alg))
    discrepancies = 0
    buf = io.StringIO()
    for i in range(200):
        seed = 6000 + i
        a = random_complex(alg, np.random.default_rng(seed), max_len=4, max_dim=3)
        hdims, q_rows = _semisimple_stalk_data(a)
        # assemble the oracle's map and check it through the engine's
        # quasi-isomorphism test
        from levelcert.complexes import Piece, assemble_pieces

        pieces = [
            Piece("stalk", Module(alg, (hdims[n],), ()), n)
            for n in sorted(hdims)
            if hdims[n]
        ]
        target = assemble_pieces(alg, pieces)
        comps = {}
        from levelcert.algebra import ModuleMap

        for n in a.support:
            comps[n] = ModuleMap(a.term(n), target.term(n), (q_rows[n],))
        rho = ChainMap(a, target, comps)
        if not is_quasi_iso(rho):
            discrepancies += 1
            buf.write(f"seed {seed}: oracle map failed\n")
            continue
        node = build_split_witness(a, gen)
        verdict = verify_certificate(node, gen)
        claimed = _certificate_homology_dims(node)
        oracle = {n: h for n, h in hdims.items() if h}
        buf.write(f"seed {seed}: oracle {sorted(oracle.items())}\n")
        if not verdict.accepted or claimed != oracle:
            discrepancies += 1
            buf.write(f"seed {seed}: claimed {sorted(claimed.items())}\n")
    elapsed = time.time() - t0
    return Criterion(
        6,
        discrepancies == 0,
        f"semisimple oracle: 200 samples, {discrepancies} discrepancies",
        elapsed,
        buf.getvalue().encode(),
    )


def run_criterion_7() -> Criterion:
    """All modules over the hereditary fixture with dimension vector at
    most (2, 2): relative dimension lies in {0, 1} and is zero exactly on
    the projectives, cross-checked by the cover-kernel test."""
    t0 = time.time()
    alg = algebra("a2")
    gen = make_generator(projective_generator(alg))
    discrepancies = 0
    count = 0
    buf = io.StringIO()
    import itertools

    for d1 in range(3):
        for d2 in range(3):
            for entries in itertools.product(range(2), repeat=d1 * d2):
                arr = np.array(entries, dtype=np.int64).reshape(d2, d1)
                try:
                    m = Module(alg, (d1, d2), (Matrix(2, arr),))
                except Exception:
                    continue  # relation filter (vacuous here)
                count += 1
                report = xdim(m, gen)
                proj = projective_cover(m).kernel.is_zero()
                member = in_add(m, gen)
                buf.write(f"dims ({d1},{d2}) entries {entries}: value {report.value}\n")
                if report.value not in (0, 1):
                    discrepancies += 1
                if (report.value == 0) != member or (report.value == 0) != proj:
                    discrepancies += 1
    elapsed = time.time() - t0
    ok = discrepancies == 0 and elapsed < 120
    return Criterion(
        7,
        ok,
        f"exhaustive relative dimension over {count} modules, {discrepancies} discrepancies",
        elapsed,
        buf.getvalue().encode(),
    )


GOLDEN_BOUNDS = """\
plain 0 rep-finite-resolving 1
plain 0 small-dim 1
plain 1 rep-finite-resolving 2
plain 1 small-dim 2
plain 2 rep-finite-resolving 3
plain 2 large-dim 2
plain 5 rep-finite-resolving 6
plain 5 large-dim 5
syzygy 0 syzygy-rep-finite 1
syzygy 0 syzygy-small 1
syzygy 1 syzygy-rep-finite 2
syzygy 1 syzygy-small 2
syzygy 2 syzygy-rep-finite 3
syzygy 2 syzygy-large 2
syzygy 5 syzygy-rep-finite 6
syzygy 5 syzygy-large 5
gorenstein 0 gorenstein-cm-finite 2
gorenstein 0 small-dim 1
gorenstein 2 gorenstein-cm-finite 2
gorenstein 2 large-dim 2
gorenstein 5 gorenstein-cm-finite 5
gorenstein 5 large-dim 5
"""


def run_criterion_8() -> Criterion:
    """The bound table reproduces every theorem line exactly."""
    t0 = time.time()
    rows = []
    for mode, ds in (("plain", (0, 1, 2, 5)), ("syzygy", (0, 1, 2, 5)), ("gorenstein", (0, 2, 5))):
        for d in ds:
            for ln in derived_dim_bound(d, mode):
                rows.append(f"{mode} {d} {ln.rule} {ln.value}")
    got = "\n".join(rows) + "\n"
    elapsed = time.time() - t0
    return Criterion(
        8,
        got == GOLDEN_BOUNDS,
        "bound table golden comparison",
        elapsed,
        got.encode(),
    )


RUNNERS = {
    1: run_criterion_1,
    2: run_criterion_2,
    3: run_criterion_3,
    4: run_criterion_4,
    5: run_criterion_5,
    6: run_criterion_6,
    7: run_criterion_7,
    8: run_criterion_8,
}

_CACHE: dict[int, Criterion] = {}


def cached(n: int) -> Criterion:
    if n not in _CACHE:
        _CACHE[n] = RUNNERS[n]()
    return _CACHE[n]


@pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6, 7, 8])
def test_criterion(number):
    result = cached(number)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_9_determinism():
    """Criteria 1 through 7 rerun with the same seeds must produce
    bit-identical certificates and reports."""
    t0 = time.time()
    mismatches = []
    for n in range(1, 8):
        first = cached(n)
        again = RUNNERS[n]()
        if first.digest != again.digest:
            mismatches.append(n)
    elapsed = time.time() - t0
    tag = "PASS" if not mismatches else "FAIL"
    print(f"[{tag}] criterion 9: determinism of criteria 1-7 ({elapsed:.1f}s)")
    assert not mismatches, f"nondeterministic criteria: {mismatches}"
