"""Tests for path algebra loading and the module category toolkit."""

from __future__ import annotations

import dataclasses
import itertools
import time

import numpy as np
import pytest

from levelcert.algebra import (
    AlgebraError,
    Arrow,
    Matrix,
    Module,
    ModuleMap,
    Presentation,
    Relation,
    RelationTerm,
    cokernel,
    direct_sum,
    factor_through_mono,
    hom_space,
    image,
    indecomposable_projective,
    is_projective,
    kernel,
    load_algebra,
    path_action,
    projective_cover,
    projective_generator,
    simple_module,
    solve_left_composition,
)


def mat(p, rows, cols, entries):
    return Matrix(p, np.array(entries, dtype=np.int64).reshape(rows, cols))


# ---------------------------------------------------------------------------
# Loading


def test_point_algebra(point):
    assert point.dim == 1
    assert [b.length for b in point.basis] == [0]


def test_dual_numbers_basis(dual):
    # Paths of length <= 2 are {e, a, aa}; aa reduces to zero, leaving {e, a}.
    assert point_names(dual) == [(), ("a",)]
    assert dual.dim == 2


def point_names(alg):
    return [tuple(alg.arrows[i].name for i in b.arrows) for b in alg.basis]


def test_a3_basis(a3):
    # Path enumeration: trivials e1, e2, e3, arrows a, b; the only length-2
    # path a.b is a relation.
    assert a3.dim == 5
    assert sorted(point_names(a3)) == sorted([(), (), (), ("a",), ("b",)])


def test_not_finite_dimensional():
    pres = Presentation(2, ("1",), (Arrow("a", "1", "1"),), (), 3)
    with pytest.raises(AlgebraError, match="not finite-dimensional"):
        load_algebra(pres)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_modulus_beyond_exact_range_rejected(p):
    pres = Presentation(p, ("1", "2"), (Arrow("a", "1", "2"),), (), 2)
    t0 = time.perf_counter()
    with pytest.raises(AlgebraError, match="too large"):
        load_algebra(pres)
    assert time.perf_counter() - t0 < 1.0


def test_largest_admitted_modulus_loads_lambda2(a2):
    # 1048573 is the largest prime below 2^20
    alg = load_algebra(dataclasses.replace(a2.presentation, p=1048573))
    assert alg.p == 1048573
    assert alg.dim == a2.dim


def test_relation_must_compose():
    pres = Presentation(
        2,
        ("1", "2"),
        (Arrow("a", "1", "2"),),
        (Relation((RelationTerm(1, ("a", "a")),)),),
        2,
    )
    with pytest.raises(AlgebraError, match="compose"):
        load_algebra(pres)


def test_relation_unknown_arrow():
    pres = Presentation(
        2,
        ("1",),
        (Arrow("a", "1", "1"),),
        (Relation((RelationTerm(1, ("a", "z")),)),),
        2,
    )
    with pytest.raises(AlgebraError, match="unknown arrow"):
        load_algebra(pres)


def test_commutativity_relation_square():
    # Commuting square: two length-2 parallel paths identified.
    pres = Presentation(
        3,
        ("1", "2", "3", "4"),
        (
            Arrow("a", "1", "2"),
            Arrow("b", "2", "4"),
            Arrow("c", "1", "3"),
            Arrow("d", "3", "4"),
        ),
        (Relation((RelationTerm(1, ("a", "b")), RelationTerm(2, ("c", "d")))),),
        3,
    )
    alg = load_algebra(pres)
    # 4 trivial + 4 arrows + one surviving length-2 class.
    assert alg.dim == 9


# ---------------------------------------------------------------------------
# Projectives


def test_projectives_point(point):
    p1 = indecomposable_projective(point, "1")
    assert p1.dims == (1,)


def test_projectives_a2(a2):
    p1 = indecomposable_projective(a2, "1")
    p2 = indecomposable_projective(a2, "2")
    assert p1.dims == (1, 1)
    assert p2.dims == (0, 1)
    # the arrow action on P(1) carries the generator e1 to the path a
    assert p1.action("a") == mat(2, 1, 1, [1])


def test_regular_module_dual(dual):
    reg = projective_generator(dual)
    assert reg.dims == (2,)
    # a acts with square zero and rank one
    act = reg.action("a")
    assert (act @ act).is_zero()
    assert not act.is_zero()


def test_unknown_vertex(dual):
    with pytest.raises(AlgebraError):
        indecomposable_projective(dual, "7")


# ---------------------------------------------------------------------------
# Modules and maps


def test_module_relation_enforced(a3):
    # dims (1,1,1) with both arrows acting as identity violates a.b = 0
    with pytest.raises(AlgebraError, match="relation"):
        Module(
            a3,
            (1, 1, 1),
            (mat(2, 1, 1, [1]), mat(2, 1, 1, [1])),
        )


def test_intertwining_enforced(a2):
    p1 = indecomposable_projective(a2, "1")
    s1 = simple_module(a2, "1")
    # a map P(1) -> S1 exists; but the "wrong direction" block fails
    with pytest.raises(AlgebraError, match="intertwine"):
        ModuleMap(s1, p1, (mat(2, 1, 1, [1]), mat(2, 1, 0, [])))


def test_zero_and_identity_maps_equal_their_checked_forms(a2, a3):
    p1 = indecomposable_projective(a2, "1")
    s1 = simple_module(a2, "1")
    blocks = (mat(2, 1, 1, [0]), mat(2, 0, 1, []))
    assert ModuleMap.zero(p1, s1) == ModuleMap(p1, s1, blocks)
    assert ModuleMap.identity(p1) == ModuleMap(p1, p1, (mat(2, 1, 1, [1]), mat(2, 1, 1, [1])))
    assert Module.zero(a2) is Module.zero(a2)
    with pytest.raises(AlgebraError, match="common algebra"):
        ModuleMap.zero(p1, simple_module(a3, "1"))
    with pytest.raises(AlgebraError, match="common algebra"):
        ModuleMap.zero(Module.zero(a3), s1)


def test_hom_space_system_limit(point):
    # 33 * 33 unknowns and no equations: 1089^2 cells, just past 2^20
    big = Module(point, (33,), ())
    with pytest.raises(AlgebraError, match="hom_space system of .* exceeds the limit"):
        hom_space(big, big)


def test_hom_simple_to_simple_a2(a2):
    # Brute force: every component pair is forced to zero by shapes, and the
    # intertwining system over the 1-dimensional spaces has no nonzero
    # solution, so Hom(S1, S2) = 0.
    s1 = simple_module(a2, "1")
    s2 = simple_module(a2, "2")
    assert hom_space(s1, s2) == ()


def test_hom_contains_identity(a2):
    p1 = indecomposable_projective(a2, "1")
    basis = hom_space(p1, p1)
    assert len(basis) >= 1
    span = []
    for coeffs in itertools.product(range(2), repeat=len(basis)):
        f = ModuleMap.zero(p1, p1)
        for c, b in zip(coeffs, basis):
            if c:
                f = f + b
        span.append(f)
    assert ModuleMap.identity(p1) in span


def test_end_of_regular_dual(dual):
    # Brute force all 2x2 matrices over F_2 commuting with the loop action:
    # exactly 4, so End is 2-dimensional (isomorphic to the algebra itself).
    reg = projective_generator(dual)
    act = reg.action("a").array
    count = 0
    for entries in itertools.product(range(2), repeat=4):
        x = np.array(entries, dtype=np.int64).reshape(2, 2)
        if np.array_equal((x @ act) % 2, (act @ x) % 2):
            count += 1
    assert count == 4
    assert len(hom_space(reg, reg)) == 2


def test_kernel_of_identity(a2):
    p1 = indecomposable_projective(a2, "1")
    k, incl = kernel(ModuleMap.identity(p1))
    assert k.is_zero()
    assert incl.source.is_zero()


def test_kernel_of_cover_a2(a2):
    # kernel of P(1) ->> S1 has dimension vector (0, 1), i.e. P(2)
    p1 = indecomposable_projective(a2, "1")
    cover = projective_cover(simple_module(a2, "1"))
    assert cover.projective == p1
    assert cover.kernel.dims == (0, 1)
    assert cover.kernel == indecomposable_projective(a2, "2")


def test_cokernel_of_zero_map(a2):
    p1 = indecomposable_projective(a2, "1")
    z = Module.zero(a2)
    c, proj = cokernel(ModuleMap.zero(z, p1))
    assert c.dims == p1.dims
    assert proj.is_isomorphism()


def test_image_factorization(dual):
    reg = projective_generator(dual)
    f = ModuleMap(reg, reg, (reg.action("a"),))
    img, mono, epi = image(f)
    assert img.dims == (1,)
    assert mono.compose(epi) == f
    assert mono.is_injective()
    assert epi.is_surjective()


def test_rank_nullity_per_vertex(a3):
    p1 = indecomposable_projective(a3, "1")
    cover = projective_cover(simple_module(a3, "1"))
    f = cover.epi
    img, _, _ = image(f)
    ker, _ = kernel(f)
    for v in range(3):
        assert f.source.dims[v] == ker.dims[v] + img.dims[v]


def test_direct_sum_biproduct(a2):
    p1 = indecomposable_projective(a2, "1")
    p2 = indecomposable_projective(a2, "2")
    total, injs, projs = direct_sum(a2, [p1, p2])
    assert total.dims == (1, 2)
    assert total == projective_generator(a2)
    for i, inj in enumerate(injs):
        for j, proj in enumerate(projs):
            comp = proj.compose(inj)
            if i == j:
                assert comp == ModuleMap.identity([p1, p2][i])
            else:
                assert comp.is_zero()


def test_direct_sum_empty(a2):
    total, injs, projs = direct_sum(a2, [])
    assert total.is_zero()
    assert injs == () and projs == ()


def test_direct_sum_of_simples(a2):
    s1 = simple_module(a2, "1")
    total, _, _ = direct_sum(a2, [s1, s1])
    assert total.dims == (2, 0)


# ---------------------------------------------------------------------------
# Projective covers


def test_cover_of_projective_is_iso(a3):
    for v in a3.vertices:
        pv = indecomposable_projective(a3, v)
        cover = projective_cover(pv)
        assert cover.kernel.is_zero()
        assert cover.epi.is_isomorphism()


def test_cover_of_simple_dual(dual):
    s = simple_module(dual, "1")
    cover = projective_cover(s)
    assert cover.projective.dims == (2,)
    assert cover.kernel.dims == (1,)
    # rad(regular) is isomorphic to the simple
    assert len(hom_space(cover.kernel, s)) == 1


def test_cover_of_zero(a2):
    cover = projective_cover(Module.zero(a2))
    assert cover.projective.is_zero()
    assert cover.kernel.is_zero()


def test_is_projective(a2, dual):
    assert is_projective(indecomposable_projective(a2, "1"))
    assert not is_projective(simple_module(a2, "1"))
    assert is_projective(projective_generator(dual))
    assert not is_projective(simple_module(dual, "1"))


# ---------------------------------------------------------------------------
# Hom system cross-check and lifting


def test_hom_dimension_matches_reversed_assembly(a3):
    # Assembling the intertwining system with arrows reversed must give the
    # same solution space dimension.
    p1 = indecomposable_projective(a3, "1")
    p2 = indecomposable_projective(a3, "2")
    forward = len(hom_space(p1, p2))

    pres = a3.presentation
    reversed_pres = Presentation(
        pres.p,
        pres.vertices,
        tuple(reversed(pres.arrows)),
        pres.relations,
        pres.cap,
    )
    alg2 = load_algebra(reversed_pres)
    q1 = indecomposable_projective(alg2, "1")
    q2 = indecomposable_projective(alg2, "2")
    assert len(hom_space(q1, q2)) == forward


def test_path_action_composes(a3):
    p1 = indecomposable_projective(a3, "1")
    ia = a3.arrow_index["a"]
    ib = a3.arrow_index["b"]
    assert path_action(p1, (ia, ib)) == p1.action("b") @ p1.action("a")


def test_solve_left_composition(a2):
    # Lift S1's cover through itself: identity is the canonical solution.
    cover = projective_cover(simple_module(a2, "1"))
    x = solve_left_composition(cover.epi, cover.epi)
    assert x is not None
    assert cover.epi.compose(x) == cover.epi


def test_factor_through_mono(a2):
    cover = projective_cover(simple_module(a2, "1"))
    incl = cover.inclusion
    g = factor_through_mono(incl, incl)
    assert g == ModuleMap.identity(cover.kernel)
