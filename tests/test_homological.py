"""Tests for decomposition, add-membership, syzygies and relative dimension."""

from __future__ import annotations

import dataclasses
import functools
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levelcert.algebra import (
    AlgebraError,
    Matrix,
    Module,
    ModuleMap,
    direct_sum,
    hom_space,
    indecomposable_projective,
    load_algebra,
    projective_generator,
    simple_module,
)
from levelcert.formats import load_algebra_file, load_generator_file
from levelcert.homological import (
    ENUM_LIMIT,
    GeneratorError,
    decompose,
    in_add,
    make_generator,
    modules_isomorphic,
    syzygy,
    syzygy_closure,
    xdim,
)
from levelcert.sampling import random_module

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def gen_proj_a2(a2):
    return make_generator(projective_generator(a2))


@pytest.fixture(scope="module")
def gen_proj_a3(a3):
    return make_generator(projective_generator(a3))


@pytest.fixture(scope="module")
def gen_all_dual(dual):
    total, _, _ = direct_sum(
        dual, [projective_generator(dual), simple_module(dual, "1")]
    )
    return make_generator(total)


@pytest.fixture(scope="module")
def gen_proj_dual(dual):
    return make_generator(projective_generator(dual))


# ---------------------------------------------------------------------------
# decompose


def test_decompose_zero(a2):
    dec = decompose(Module.zero(a2))
    assert dec.pairs == ()
    assert dec.parts == ()


def test_decompose_sum_of_projectives(a2):
    p1 = indecomposable_projective(a2, "1")
    p2 = indecomposable_projective(a2, "2")
    total, _, _ = direct_sum(a2, [p1, p2])
    dec = decompose(total)
    assert sorted(count for _, count in dec.pairs) == [1, 1]
    dims = sorted(rep.dims for rep, _ in dec.pairs)
    assert dims == [(0, 1), (1, 1)]


def test_decompose_regular_dual_indecomposable(dual):
    # All four endomorphisms of the regular module are either invertible or
    # nilpotent (checked by brute force in test_algebra), so it must come
    # back in one piece.
    reg = projective_generator(dual)
    dec = decompose(reg)
    assert dec.pairs == ((reg, 1),)


def test_decompose_round_trip(a3):
    s2 = simple_module(a3, "2")
    p1 = indecomposable_projective(a3, "1")
    total, _, _ = direct_sum(a3, [s2, p1, s2])
    dec = decompose(total)
    assert dec.into.compose(dec.out_of) == ModuleMap.identity(total)
    assert sum(rep.total_dim * count for rep, count in dec.pairs) == total.total_dim
    # multiplicities: s2 twice, p1 once
    assert sorted(count for _, count in dec.pairs) == [1, 2]


def test_decompose_deterministic(a3):
    s1 = simple_module(a3, "1")
    p2 = indecomposable_projective(a3, "2")
    total, _, _ = direct_sum(a3, [s1, p2])
    d1 = decompose(total)
    d2 = decompose(total)
    assert d1.parts == d2.parts
    assert d1.into == d2.into


# ---------------------------------------------------------------------------
# isomorphism and in_add


def test_iso_rejects_different_dims(a2):
    assert modules_isomorphic(simple_module(a2, "1"), simple_module(a2, "2")) is None


def test_iso_finds_nontrivial_match(dual):
    # Two presentations of the same 1-dimensional module.
    s = simple_module(dual, "1")
    t = Module(dual, (1,), (Matrix.zeros(1, 1, 2),))
    f = modules_isomorphic(s, t)
    assert f is not None and f.is_isomorphism()


def test_in_add_zero_module(a2, gen_proj_a2):
    assert in_add(Module.zero(a2), gen_proj_a2) is True


def test_in_add_projective_summand(a2, gen_proj_a2):
    assert in_add(indecomposable_projective(a2, "2"), gen_proj_a2)


def test_in_add_rejects_simple(a2, gen_proj_a2):
    assert in_add(simple_module(a2, "1"), gen_proj_a2) is False


def test_in_add_invariant_under_permutation(a3, gen_proj_a3):
    p1 = indecomposable_projective(a3, "1")
    p3 = indecomposable_projective(a3, "3")
    ab, _, _ = direct_sum(a3, [p1, p3])
    ba, _, _ = direct_sum(a3, [p3, p1])
    assert in_add(ab, gen_proj_a3) is True
    assert in_add(ba, gen_proj_a3) is True
    s2 = simple_module(a3, "2")
    sp, _, _ = direct_sum(a3, [s2, p1])
    ps, _, _ = direct_sum(a3, [p1, s2])
    assert in_add(sp, gen_proj_a3) is False
    assert in_add(ps, gen_proj_a3) is False


def test_generator_requires_projectives(a2):
    with pytest.raises(GeneratorError):
        make_generator(simple_module(a2, "1"))


def test_generator_own_module_in_add(gen_all_dual):
    assert in_add(gen_all_dual.module, gen_all_dual)


# The trace criterion against the summand-matching reference.  decompose
# and modules_isomorphic are exact while every search they run is
# exhaustive: p^dim End(m) <= ENUM_LIMIT makes the splitting of m exact, and
# p^dim Hom(m, M) <= ENUM_LIMIT bounds every isomorphism test between a
# summand of m and a summand of M.

_STEMS = ("lambda1", "lambda2", "lambda3", "lambda4")
_ALGEBRAS = {stem: load_algebra_file(str(FIXTURES / f"{stem}.alg"))[1] for stem in _STEMS}
_GENERATORS = {
    (stem, kind): load_generator_file(str(FIXTURES / f"{stem}.{kind}.gen"), alg)[1]
    for stem, alg in _ALGEBRAS.items()
    for kind in ("proj", "all")
}


@functools.lru_cache(maxsize=None)
def _generator_summands(key):
    gen = _GENERATORS[key]
    p = gen.module.algebra.p
    reps = [rep for rep, _ in decompose(gen.module).pairs]
    # each leaf was certified indecomposable by an exhaustive search
    assert all(p ** len(hom_space(r, r)) <= ENUM_LIMIT for r in reps)
    return reps


def _reference_in_add(m, key) -> bool:
    reps = _generator_summands(key)
    return all(
        any(modules_isomorphic(part, rep) is not None for rep in reps)
        for part, _ in decompose(m).pairs
    )


@settings(max_examples=300, deadline=None)
@given(
    stem=st.sampled_from(_STEMS),
    kind=st.sampled_from(("proj", "all")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_dim=st.integers(min_value=1, max_value=3),
)
def test_in_add_agrees_with_decomposition_reference(stem, kind, seed, max_dim):
    alg = _ALGEBRAS[stem]
    gen = _GENERATORS[(stem, kind)]
    m = random_module(alg, np.random.default_rng(seed), max_dim=max_dim)
    assume(alg.p ** len(hom_space(m, m)) <= ENUM_LIMIT)
    assume(alg.p ** len(hom_space(m, gen.module)) <= ENUM_LIMIT)
    assert in_add(m, gen) == _reference_in_add(m, (stem, kind))


@pytest.fixture(scope="module")
def a4_f3():
    _, a4 = load_algebra_file(str(FIXTURES / "lambda4.alg"))
    return load_algebra(dataclasses.replace(a4.presentation, p=3))


def _beyond_enumeration_limit(a4_f3):
    """P1^3 + P2 and S2 + P1^3 over F_3: both endomorphism spaces have
    3^13 elements, far past ENUM_LIMIT."""
    p1 = indecomposable_projective(a4_f3, "1")
    p2 = indecomposable_projective(a4_f3, "2")
    s2 = simple_module(a4_f3, "2")
    member, _, _ = direct_sum(a4_f3, [p1, p1, p1, p2])
    other, _, _ = direct_sum(a4_f3, [s2, p1, p1, p1])
    return member, other


def test_in_add_exact_beyond_enumeration_limit(a4_f3):
    gen = make_generator(projective_generator(a4_f3))
    member, other = _beyond_enumeration_limit(a4_f3)
    for x in (member, other):
        assert 3 ** len(hom_space(x, x)) > ENUM_LIMIT
    assert in_add(member, gen) is True
    assert in_add(other, gen) is False


def test_modules_isomorphic_refuses_beyond_enumeration_limit(a4_f3):
    # The search cannot try all 3^13 maps, so it says so instead of guessing.
    for x in _beyond_enumeration_limit(a4_f3):
        with pytest.raises(AlgebraError, match=r"3\^13 elements, more than ENUM_LIMIT = 4096"):
            modules_isomorphic(x, x)


# ---------------------------------------------------------------------------
# syzygy


def test_syzygy_of_projective(a2):
    p1 = indecomposable_projective(a2, "1")
    assert syzygy(p1, 1).is_zero()


def test_first_syzygy_of_simple_a2(a2):
    assert syzygy(simple_module(a2, "1"), 1) == indecomposable_projective(a2, "2")


def test_syzygy_stabilizes_dual(dual):
    s = simple_module(dual, "1")
    for n in range(1, 6):
        omega = syzygy(s, n)
        assert omega.dims == (1,)
        assert modules_isomorphic(omega, s) is not None


def test_syzygy_additive(a3, gen_proj_a3):
    s1 = simple_module(a3, "1")
    s2 = simple_module(a3, "2")
    both, _, _ = direct_sum(a3, [s1, s2])
    left = syzygy(both, 1)
    right, _, _ = direct_sum(a3, [syzygy(s1, 1), syzygy(s2, 1)])
    assert left.dims == right.dims
    assert modules_isomorphic(left, right) is not None


def test_hereditary_syzygies_projective(a2, gen_proj_a2):
    # Over the hereditary fixture every first syzygy is projective.
    for dims, entries in [((1, 0), []), ((1, 1), [0]), ((2, 1), [1, 1]), ((1, 2), [1, 0])]:
        rows, cols = dims[1], dims[0]
        m = Module(
            a2,
            dims,
            (Matrix(2, np.array(entries, dtype=np.int64).reshape(rows, cols)),),
        )
        assert in_add(syzygy(m, 1), gen_proj_a2)


# ---------------------------------------------------------------------------
# xdim


def test_xdim_zero_for_members(a2, gen_proj_a2):
    report = xdim(indecomposable_projective(a2, "1"), gen_proj_a2)
    assert report.value == 0
    assert report.steps == ()


def test_xdim_simple_a2(a2, gen_proj_a2):
    report = xdim(simple_module(a2, "1"), gen_proj_a2)
    assert report.value == 1
    assert len(report.steps) == 1
    assert report.steps[0].kernel.dims == (0, 1)


def test_xdim_simple_a3(a3, gen_proj_a3):
    report = xdim(simple_module(a3, "1"), gen_proj_a3)
    assert report.value == 2
    # trace: cover P(1), kernel S2; cover P(2), kernel P(3)
    assert report.steps[0].kernel.dims == (0, 1, 0)
    assert report.steps[1].kernel.dims == (0, 0, 1)


def test_xdim_zero_iff_in_add(a2, gen_proj_a2):
    for dims, entries in [((1, 0), []), ((1, 1), [1]), ((1, 1), [0])]:
        m = Module(
            a2,
            dims,
            (Matrix(2, np.array(entries, dtype=np.int64).reshape(dims[1], dims[0])),),
        )
        report = xdim(m, gen_proj_a2)
        assert (report.value == 0) == in_add(m, gen_proj_a2)


def test_xdim_exceeds_cap_is_value(dual, gen_proj_dual):
    # The simple over the dual numbers has no finite projective dimension.
    report = xdim(simple_module(dual, "1"), gen_proj_dual, cap=5)
    assert report.exceeded
    assert report.value is None
    assert len(report.steps) == 5


def test_xdim_deterministic(a3, gen_proj_a3):
    r1 = xdim(simple_module(a3, "1"), gen_proj_a3)
    r2 = xdim(simple_module(a3, "1"), gen_proj_a3)
    assert r1.value == r2.value
    assert [s.kernel.dims for s in r1.steps] == [s.kernel.dims for s in r2.steps]


# ---------------------------------------------------------------------------
# closure under syzygies


def test_semires_everything_passes_dual(dual, gen_all_dual):
    # M = regular + S over the dual numbers: the syzygy of M is S
    omega, closed = syzygy_closure(gen_all_dual)
    assert closed
    assert omega.dims == (1,)


def test_semires_projectives_pass_a2(a2, gen_proj_a2):
    omega, closed = syzygy_closure(gen_proj_a2)
    assert closed
    assert omega.is_zero()
    s1 = simple_module(a2, "1")
    assert xdim(s1, gen_proj_a2).value == 1
    assert xdim(syzygy(s1, 1), gen_proj_a2).value == 0


def test_semires_refutes_bad_generator(a3):
    # add(regular + S1) over the a3 fixture is not closed under syzygies:
    # S1 is in add M but its cover kernel S2 is not.
    total, _, _ = direct_sum(
        a3, [projective_generator(a3), simple_module(a3, "1")]
    )
    omega, closed = syzygy_closure(make_generator(total))
    assert not closed
    assert omega.dims == (0, 1, 0)


def test_syzygy_closure_decides_for_sums_of_summands():
    # Generators: the projectives plus 0-2 random modules.  Closed means
    # every sum of M's summands has its syzygy in add M; not closed means
    # the syzygy of some summand of M, and so of M itself, is outside it.
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(9000 + seed)
        alg = _ALGEBRAS[_STEMS[seed % len(_STEMS)]]
        summands = [indecomposable_projective(alg, v) for v in alg.vertices]
        summands += [random_module(alg, rng, max_dim=2) for _ in range(int(rng.integers(0, 3)))]
        gen = make_generator(direct_sum(alg, summands)[0])
        _, closed = syzygy_closure(gen)
        outcomes.add(closed)
        picks = rng.integers(0, 3, size=len(summands))
        mixed = [m for m, k in zip(summands, picks) for _ in range(k)]
        samples = [*summands, direct_sum(alg, mixed)[0], gen.module]
        in_add_after = [in_add(syzygy(a, 1), gen) for a in samples]
        if closed:
            assert all(in_add_after), seed
        else:
            assert not in_add_after[-1], seed
            assert not all(in_add_after[: len(summands)]), seed
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# odd characteristic


def square_algebra_f3():
    from levelcert.algebra import Arrow, Presentation, Relation, RelationTerm, load_algebra

    return load_algebra(
        Presentation(
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
    )


def test_commutative_square_f3_global_dimension():
    alg = square_algebra_f3()
    gen = make_generator(projective_generator(alg))
    values = [xdim(simple_module(alg, v), gen).value for v in alg.vertices]
    assert values == [2, 1, 1, 0]


def test_decompose_regular_f3():
    alg = square_algebra_f3()
    reg = projective_generator(alg)
    dec = decompose(reg)
    assert sum(count for _, count in dec.pairs) == 4
    assert all(count == 1 for _, count in dec.pairs)
