"""Tests for the bounded complex calculus."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from levelcert.algebra import (
    Matrix,
    Module,
    ModuleMap,
    factor_through_mono,
    indecomposable_projective,
    projective_cover,
    projective_generator,
    simple_module,
)
from levelcert.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    ShortExactSequence,
    boundaries,
    cycles,
    disk,
    homology,
    is_quasi_iso,
    kernel_of_chain_map,
    projective_epi,
    stalk,
)
from levelcert.formats import load_algebra_file
from levelcert.linalg import solve
from levelcert.sampling import random_chain_map, random_complex

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def f2_space(point, n):
    return Module(point, (n,), ())


def f2_map(point, rows, cols, entries):
    src = f2_space(point, cols)
    tgt = f2_space(point, rows)
    return ModuleMap(
        src, tgt, (Matrix(2, np.array(entries, dtype=np.int64).reshape(rows, cols)),)
    )


def rad_inclusion_complex(a2):
    """0 -> P(2) -> P(1) -> 0 in degrees 1, 0 over the a2 fixture."""
    p1 = indecomposable_projective(a2, "1")
    p2 = indecomposable_projective(a2, "2")
    incl = ModuleMap(p2, p1, (Matrix.zeros(1, 0, 2), Matrix.identity(2, 1)))
    return Complex(a2, 0, (p1, p2), (incl,))


# ---------------------------------------------------------------------------
# stalks, disks, evaluation


def test_stalk_of_zero_is_zero(a2):
    assert stalk(Module.zero(a2), 5).is_zero()


def test_stalk_homology(a2):
    s1 = simple_module(a2, "1")
    c = stalk(s1, 0)
    assert homology(c, 0).module.dims == s1.dims
    assert homology(c, 1).module.is_zero()
    assert c.support == range(0, 1)


def test_stalk_support(a2):
    assert stalk(simple_module(a2, "1"), 2).support == range(2, 3)


def test_disk_is_acyclic(a2):
    p1 = indecomposable_projective(a2, "1")
    d = disk(p1, 3)
    for n in range(-1, 5):
        assert homology(d, n).module.is_zero()


def test_disk_evaluation(a2):
    p1 = indecomposable_projective(a2, "1")
    d = disk(p1, 3)
    assert d.term(3) == p1
    assert d.term(2) == p1
    assert d.term(1).is_zero()


def test_disk_of_zero(a2):
    assert disk(Module.zero(a2), 4).is_zero()


def test_differential_squares_enforced(point):
    v = f2_space(point, 1)
    ident = ModuleMap.identity(v)
    with pytest.raises(ComplexError, match="square"):
        Complex(point, 0, (v, v, v), (ident, ident))


# ---------------------------------------------------------------------------
# cycles, boundaries, homology


def test_homology_of_radical_inclusion(a2):
    c = rad_inclusion_complex(a2)
    assert homology(c, 1).module.is_zero()
    h0 = homology(c, 0).module
    assert h0.dims == (1, 0)  # S1


def test_cycles_and_boundaries(a2):
    c = rad_inclusion_complex(a2)
    z1, _ = cycles(c, 1)
    assert z1.is_zero()
    b0, _ = boundaries(c, 0)
    assert b0.dims == (0, 1)


def test_euler_characteristic_conserved(a2, a3):
    for c in [rad_inclusion_complex(a2), disk(indecomposable_projective(a3, "1"), 2)]:
        nvert = len(c.algebra.vertices)
        for v in range(nvert):
            chi_terms = sum((-1) ** n * c.term(n).dims[v] for n in c.support)
            chi_h = sum(
                (-1) ** n * homology(c, n).module.dims[v] for n in c.support
            )
            assert chi_terms == chi_h


# ---------------------------------------------------------------------------
# chain maps, kernels, quasi-isomorphisms


def test_kernel_of_identity_chain_map(a2):
    c = rad_inclusion_complex(a2)
    k, incl = kernel_of_chain_map(ChainMap.identity(c))
    assert k.is_zero()


def test_kernel_of_disk_map_point(point):
    # [1 1]: disk(F_2^2, 1) -> disk(F_2, 1); the kernel is the disk on the
    # 1-dimensional kernel space.
    phi_block = f2_map(point, 1, 2, [1, 1])
    src = disk(f2_space(point, 2), 1)
    tgt = disk(f2_space(point, 1), 1)
    phi = ChainMap(src, tgt, {1: phi_block, 0: phi_block})
    k, _ = kernel_of_chain_map(phi)
    assert [k.term(n).dims for n in (1, 0)] == [(1,), (1,)]
    for n in (0, 1, 2):
        assert homology(k, n).module.is_zero()


def test_kernel_crossing_disk_map_point(point):
    # degree-1 component identity from disk(F2,1) into disk(F2,2): the
    # kernel is the stalk at degree 0.
    src = disk(f2_space(point, 1), 1)
    tgt = disk(f2_space(point, 1), 2)
    phi = ChainMap(src, tgt, {1: f2_map(point, 1, 1, [1])})
    k, _ = kernel_of_chain_map(phi)
    assert k.support == range(0, 1)
    assert k.term(0).dims == (1,)


def test_quasi_iso_identity(a2):
    assert is_quasi_iso(ChainMap.identity(rad_inclusion_complex(a2)))


def test_zero_map_not_quasi_iso(a2):
    s = stalk(simple_module(a2, "1"), 0)
    assert not is_quasi_iso(ChainMap.zero(s, s))


def test_radical_inclusion_resolves_simple(a2):
    # the natural map (P(2) -> P(1)) -> stalk(S1, 0) is a quasi-isomorphism
    c = rad_inclusion_complex(a2)
    cover = projective_cover(simple_module(a2, "1"))
    phi = ChainMap(c, stalk(simple_module(a2, "1"), 0), {0: cover.epi})
    assert is_quasi_iso(phi)


def test_composition_of_quasi_isos(a2):
    c = rad_inclusion_complex(a2)
    s = stalk(simple_module(a2, "1"), 0)
    cover = projective_cover(simple_module(a2, "1"))
    phi = ChainMap(c, s, {0: cover.epi})
    psi = ChainMap.identity(s)
    assert is_quasi_iso(psi.compose(phi))


def _homology_quasi_iso(phi: ChainMap) -> bool:
    """The oracle: every induced map H_n(source) -> H_n(target), built from
    homology modules and their witnessing maps, is an isomorphism."""
    for n in set(phi.source.support) | set(phi.target.support):
        hs = homology(phi.source, n)
        ht = homology(phi.target, n)
        mapped = phi.component(n).compose(hs.cycle_incl)
        on_cycles = factor_through_mono(mapped, ht.cycle_incl)
        # descend through the surjection hs.quotient
        lifted = ht.quotient.compose(on_cycles)
        blocks = [solve(qb.T, lb.T).T for qb, lb in zip(hs.quotient.blocks, lifted.blocks)]
        if not ModuleMap(hs.module, ht.module, blocks).is_isomorphism():
            return False
    return True


def test_cone_ranks_agree_with_homology_maps():
    rng = np.random.default_rng(11)
    algebras = [load_algebra_file(str(FIXTURES / f"lambda{i}.alg"))[1] for i in range(1, 5)]
    verdicts = []
    for k in range(160):
        alg = algebras[k % 4]
        a = random_complex(alg, rng, max_len=3)
        b = a if k % 2 else random_complex(alg, rng, max_len=3)
        phi = random_chain_map(a, b, rng)
        expected = _homology_quasi_iso(phi)
        assert is_quasi_iso(phi) == expected, (k, phi)
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_term_outside_support_is_the_shared_zero_module(a2):
    c = rad_inclusion_complex(a2)
    assert c.term(5) is Module.zero(a2)
    assert Complex.zero(a2).term(0) is c.term(-3)


# ---------------------------------------------------------------------------
# short exact sequences


def test_ses_dimension_count(a2):
    pe = projective_epi(stalk(simple_module(a2, "1"), 0))
    ses = pe.ses
    for n in set(ses.middle.support):
        for v in range(2):
            assert (
                ses.middle.term(n).dims[v]
                == ses.sub.term(n).dims[v] + ses.quotient.term(n).dims[v]
            )


def test_ses_rejects_non_exact(a2):
    s = stalk(simple_module(a2, "1"), 0)
    with pytest.raises(ComplexError):
        ShortExactSequence(ChainMap.zero(s, s), ChainMap.zero(s, s))


# ---------------------------------------------------------------------------
# projective epis


def test_projective_epi_on_projective_disk(a2):
    p1 = indecomposable_projective(a2, "1")
    pe = projective_epi(disk(p1, 2))
    assert pe.kernel.is_zero()
    assert all(p.kind == "disk" for p in pe.pieces)


def test_projective_epi_on_simple_stalk_a2(a2):
    pe = projective_epi(stalk(simple_module(a2, "1"), 0))
    assert [p.degree for p in pe.pieces] == [0]
    assert pe.pieces[0].module == indecomposable_projective(a2, "1")
    # kernel is P(2) at degree 0 included into P(1) at degree -1
    assert pe.kernel.support == range(-1, 1)
    assert pe.kernel.term(0).dims == (0, 1)
    assert pe.kernel.term(-1).dims == (1, 1)


def test_projective_epi_on_simple_stalk_dual(dual):
    pe = projective_epi(stalk(simple_module(dual, "1"), 0))
    assert pe.cover == disk(projective_generator(dual), 0)
    assert pe.kernel.term(0).dims == (1,)
    assert pe.kernel.term(-1).dims == (2,)


def test_projective_epi_surjective_everywhere(a3):
    from levelcert.linalg import rank

    c = stalk(simple_module(a3, "1"), 0)
    pe = projective_epi(c)
    for n in pe.cover.support:
        for v, b in enumerate(pe.epi.component(n).blocks):
            assert rank(b) == pe.epi.target.term(n).dims[v]


# ---------------------------------------------------------------------------
# disk kernels


def test_disk_kernel_homology_outside_degree_zero(point):
    # The map disk(k, 2) -> disk(k, 3) hitting only the bottom copy has
    # kernel stalk(k, 1): between positive-index disk sums, kernel homology
    # need not sit in degree 0 (why acceptance criterion 5 stays red).
    src = disk(f2_space(point, 1), 2)
    tgt = disk(f2_space(point, 1), 3)
    phi = ChainMap(src, tgt, {2: f2_map(point, 1, 1, [1])})
    k, _ = kernel_of_chain_map(phi)
    assert k == stalk(f2_space(point, 1), 1)
    assert homology(k, 1).module.dims == (1,)
    assert homology(k, 0).module.is_zero()


def test_euler_characteristic_on_random_complexes(a2, a3, a4, dual, point):
    import numpy as np

    from levelcert.sampling import random_complex

    for alg in (a2, a3, a4, dual, point):
        for seed in range(8):
            c = random_complex(alg, np.random.default_rng(seed), max_len=4, max_dim=2)
            for v in range(len(alg.vertices)):
                chi_terms = sum((-1) ** n * c.term(n).dims[v] for n in c.support)
                chi_h = sum(
                    (-1) ** n * homology(c, n).module.dims[v] for n in c.support
                )
                assert chi_terms == chi_h
