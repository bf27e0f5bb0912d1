"""Tests for the certificate builders, verifier and bound table."""

from __future__ import annotations

import pytest

from levelcert import levels
from levelcert.algebra import (
    MAX_SYSTEM_CELLS,
    Module,
    indecomposable_projective,
    projective_generator,
    simple_module,
)
from levelcert.complexes import ChainMap, Piece, assemble_pieces, disk, stalk
from levelcert.homological import make_generator
from levelcert.levels import (
    Branch,
    Leaf,
    WitnessError,
    build_resolution_witness,
    build_split_witness,
    derived_dim_bound,
    reduction_step,
    verify_certificate,
)


@pytest.fixture(scope="module")
def gen_a2(a2):
    return make_generator(projective_generator(a2))


@pytest.fixture(scope="module")
def gen_a3(a3):
    return make_generator(projective_generator(a3))


@pytest.fixture(scope="module")
def gen_a4(a4):
    return make_generator(projective_generator(a4))


# ---------------------------------------------------------------------------
# reduction step


def test_reduction_step_a2_simple(a2, gen_a2):
    step = reduction_step(stalk(simple_module(a2, "1"), 0), gen_a2, d=1)
    k = step.kernel
    assert k.support == range(-1, 1)
    assert k.term(0).dims == (0, 1)
    assert k.term(-1).dims == (1, 1)
    assert all(cb.value == 0 for cb in step.output_bounds)


def test_reduction_step_projective_disk(a2, gen_a2):
    step = reduction_step(disk(indecomposable_projective(a2, "1"), 4), gen_a2, d=3)
    assert step.kernel.is_zero()
    assert step.output_bounds == ()


def test_reduction_step_a3_simple(a3, gen_a3):
    step = reduction_step(stalk(simple_module(a3, "1"), 0), gen_a3, d=2)
    values = [cb.value for cb in step.output_bounds]
    assert all(v is not None and v <= 1 for v in values)
    assert max(values) == 1  # the middle simple shows up with dimension 1


def test_reduction_step_rejects_small_d(a3, gen_a3):
    with pytest.raises(WitnessError, match="not <= 1"):
        reduction_step(stalk(simple_module(a3, "1"), 0), gen_a3, d=1)


# ---------------------------------------------------------------------------
# splitting builder


def test_split_witness_stalk_in_add(a2, gen_a2):
    node = build_split_witness(stalk(indecomposable_projective(a2, "1"), 0), gen_a2)
    assert isinstance(node, Leaf)
    assert node.level == 1
    assert verify_certificate(node, gen_a2).accepted


def test_split_witness_zero_complex(a2, gen_a2):
    from levelcert.complexes import Complex

    node = build_split_witness(Complex.zero(a2), gen_a2)
    assert node.level == 0
    assert verify_certificate(node, gen_a2).accepted


def test_split_witness_simple_stalk_a2(a2, gen_a2):
    node = build_split_witness(stalk(simple_module(a2, "1"), 0), gen_a2)
    assert node.level <= 3
    assert verify_certificate(node, gen_a2).accepted


def test_split_witness_radical_complex_a2(a2, gen_a2):
    # the complex P(2) -> P(1) has projective cycles and boundaries: level 2
    from levelcert.complexes import Complex
    from levelcert.algebra import Matrix, ModuleMap

    p1 = indecomposable_projective(a2, "1")
    p2 = indecomposable_projective(a2, "2")
    incl = ModuleMap(p2, p1, (Matrix.zeros(1, 0, 2), Matrix.identity(2, 1)))
    c = Complex(a2, 0, (p1, p2), (incl,))
    node = build_split_witness(c, gen_a2)
    assert node.level <= 2
    assert verify_certificate(node, gen_a2).accepted


# ---------------------------------------------------------------------------
# resolution builder


def test_resolution_witness_requires_d_two(a2, gen_a2):
    with pytest.raises(WitnessError, match="d >= 2"):
        build_resolution_witness(stalk(simple_module(a2, "1"), 0), gen_a2, d=1)


def test_resolution_witness_a3_simple(a3, gen_a3):
    node = build_resolution_witness(stalk(simple_module(a3, "1"), 0), gen_a3, d=2)
    assert node.level <= 3
    assert verify_certificate(node, gen_a3).accepted


def test_resolution_witness_a3_disk(a3, gen_a3):
    node = build_resolution_witness(disk(simple_module(a3, "2"), 1), gen_a3, d=2)
    assert node.level <= 3
    assert verify_certificate(node, gen_a3).accepted


def test_resolution_witness_a4_simple(a4, gen_a4):
    node = build_resolution_witness(stalk(simple_module(a4, "1"), 0), gen_a4, d=3)
    assert node.level <= 4
    assert verify_certificate(node, gen_a4).accepted


def test_resolution_witness_projective_disk_is_leaf(a3, gen_a3):
    node = build_resolution_witness(
        disk(indecomposable_projective(a3, "1"), 2), gen_a3, d=2
    )
    assert isinstance(node, Leaf)
    assert node.level == 1
    assert verify_certificate(node, gen_a3).accepted


# ---------------------------------------------------------------------------
# verifier rejections


def build_valid_branch(a2, gen_a2):
    node = build_split_witness(stalk(simple_module(a2, "1"), 0), gen_a2)
    assert isinstance(node, Branch)
    return node


def test_verifier_rejects_wrong_leaf_module(a2, gen_a2):
    node = build_valid_branch(a2, gen_a2)
    # replace the sub child by a leaf asserting a non-member stalk
    s1 = simple_module(a2, "1")
    bad_subject = stalk(s1, 0)
    bad = Leaf(
        bad_subject,
        (Piece("stalk", s1, 0),),
        ChainMap.identity(bad_subject),
        1,
    )
    tampered = Branch(
        node.subject, node.ses, node.link, node.link_kind, node.sub, node.rest, node.level
    )
    direct = verify_certificate(bad, gen_a2)
    assert not direct.accepted
    assert "add M" in direct.reason
    assert verify_certificate(tampered, gen_a2).accepted  # untouched copy still fine


def test_verifier_rejects_broken_link(a2, gen_a2):
    node = build_valid_branch(a2, gen_a2)
    zero_link = ChainMap.zero(node.link.source, node.link.target)
    tampered = Branch(
        node.subject, node.ses, zero_link, node.link_kind, node.sub, node.rest, node.level
    )
    verdict = verify_certificate(tampered, gen_a2)
    assert not verdict.accepted
    assert "quasi-isomorphism" in verdict.reason


def test_verifier_rejects_level_arithmetic(a2, gen_a2):
    node = build_valid_branch(a2, gen_a2)
    tampered = Branch(
        node.subject,
        node.ses,
        node.link,
        node.link_kind,
        node.sub,
        node.rest,
        node.level + 1,
    )
    verdict = verify_certificate(tampered, gen_a2)
    assert not verdict.accepted
    assert "level" in verdict.reason


def test_verifier_names_failing_node(a2, gen_a2):
    node = build_valid_branch(a2, gen_a2)
    s1 = simple_module(a2, "1")
    bad_subject = stalk(s1, node.ses.sub.lo if not node.ses.sub.is_zero() else 0)
    bad_leaf = Leaf(
        node.ses.sub,
        (Piece("stalk", s1, 0),),
        ChainMap.zero(node.ses.sub, stalk(s1, 0)),
        1,
    )
    tampered = Branch(
        node.subject,
        node.ses,
        node.link,
        node.link_kind,
        bad_leaf,
        node.rest,
        bad_leaf.level + node.rest.level,
    )
    verdict = verify_certificate(tampered, gen_a2)
    assert not verdict.accepted
    assert verdict.path == "root.sub"


def test_verifier_tests_each_piece_module_once_per_call(a2, gen_a2, monkeypatch):
    p1 = indecomposable_projective(a2, "1")
    pieces = (Piece("stalk", p1, 0), Piece("stalk", p1, 1), Piece("disk", p1, 3))
    c = assemble_pieces(a2, pieces)
    leaf = Leaf(c, pieces, ChainMap.identity(c), 1)
    real_in_add = levels.in_add
    calls = []
    monkeypatch.setattr(levels, "in_add", lambda m, gen: calls.append(m) or real_in_add(m, gen))
    assert verify_certificate(leaf, gen_a2).accepted
    assert calls == [p1]
    assert verify_certificate(leaf, gen_a2).accepted
    assert calls == [p1, p1]  # nothing carried over between calls


def test_verifier_rejects_membership_table_over_the_limit(point):
    # End(k^24) has 576 basis maps, so the table has 576^3 cells
    m = Module(point, (24,), ())
    assert 576**3 > MAX_SYSTEM_CELLS
    gen = make_generator(m)
    c = stalk(m, 0)
    leaf = Leaf(c, (Piece("stalk", m, 0),), ChainMap.identity(c), 1)
    verdict = verify_certificate(leaf, gen)
    assert not verdict.accepted
    assert verdict.path == "root"
    assert "membership not decided" in verdict.reason
    assert "exceeds the limit" in verdict.reason


# ---------------------------------------------------------------------------
# bound table


def test_bound_plain_values():
    def theorem_value(d):
        lines = derived_dim_bound(d, "plain")
        by_rule = {ln.rule: ln.value for ln in lines}
        return by_rule.get("small-dim", by_rule.get("large-dim"))

    assert theorem_value(0) == 1
    assert theorem_value(1) == 2
    assert theorem_value(2) == 2
    assert theorem_value(5) == 5


def test_bound_plain_includes_general_line():
    lines = derived_dim_bound(3, "plain")
    assert lines[0].rule == "rep-finite-resolving"
    assert lines[0].value == 4


def test_bound_syzygy_values():
    for d, expect in [(0, 1), (1, 2), (2, 2), (5, 5)]:
        lines = derived_dim_bound(d, "syzygy")
        refined = [ln for ln in lines if ln.rule.startswith("syzygy-") and ln.rule != "syzygy-rep-finite"]
        assert refined[0].value == expect


def test_bound_gorenstein_values():
    lines0 = derived_dim_bound(0, "gorenstein")
    values = {ln.rule: ln.value for ln in lines0}
    assert values["gorenstein-cm-finite"] == 2
    assert values["small-dim"] == 1
    lines5 = derived_dim_bound(5, "gorenstein")
    assert {ln.rule: ln.value for ln in lines5}["gorenstein-cm-finite"] == 5


def test_bound_infinite():
    lines = derived_dim_bound(None, "plain")
    assert lines[0].rule == "no-bound"
    assert lines[0].value is None


# ---------------------------------------------------------------------------
# tower bookkeeping invariants


def _euler(c, v):
    from levelcert.complexes import homology

    return sum((-1) ** n * homology(c, n).module.dims[v] for n in c.support)


def _walk_branches(node):
    if isinstance(node, Branch):
        yield node
        yield from _walk_branches(node.sub)
        yield from _walk_branches(node.rest)


def test_euler_characteristic_through_towers(a3, gen_a3):
    node = build_resolution_witness(stalk(simple_module(a3, "1"), 0), gen_a3, d=2)
    for br in _walk_branches(node):
        x, y, z = br.ses.sub, br.ses.middle, br.ses.quotient
        for v in range(len(a3.vertices)):
            assert _euler(y, v) == _euler(x, v) + _euler(z, v)


def test_builders_handle_support_gaps(a3, gen_a3):
    # a complex with an internal zero term: S2 in degree 2, zero in degree 1,
    # S3 in degree 0, zero differentials
    from levelcert.complexes import Complex
    from levelcert.algebra import Module, ModuleMap

    s2 = simple_module(a3, "2")
    s3 = simple_module(a3, "3")
    zero = Module.zero(a3)
    c = Complex(
        a3,
        0,
        (s3, zero, s2),
        (ModuleMap.zero(zero, s3), ModuleMap.zero(s2, zero)),
    )
    split = build_split_witness(c, gen_a3)
    assert verify_certificate(split, gen_a3).accepted
    res = build_resolution_witness(c, gen_a3, d=2)
    assert res.level <= 3
    assert verify_certificate(res, gen_a3).accepted


def test_verifier_accepts_oracle_built_formal_leaf(point):
    # over a semisimple algebra every complex is formal; a leaf presenting a
    # complex by its homology stalk sum through a nontrivial quasi-iso must
    # be accepted at level 1
    import numpy as np

    from levelcert.algebra import Module, ModuleMap, projective_generator
    from levelcert.complexes import assemble_pieces
    from levelcert.linalg import Matrix, inverse, kernel_basis, rref
    from levelcert.sampling import random_complex

    gen = make_generator(projective_generator(point))
    for seed in (1, 5, 9):
        c = random_complex(point, np.random.default_rng(seed), max_len=4, max_dim=3)
        pieces = []
        comps = {}
        for n in c.support:
            a_n = c.term(n).dims[0]
            z = kernel_basis(c.diff(n).blocks[0])
            d_in = c.diff(n + 1).blocks[0]
            b = d_in.array[:, list(rref(d_in).pivots)]
            stacked = Matrix(2, np.hstack([b, z.array, np.eye(a_n, dtype=np.int64)]))
            piv = list(rref(stacked).pivots)
            inv = inverse(Matrix(2, stacked.array[:, piv]))
            nb = b.shape[1]
            upos = [k for k, col in enumerate(piv) if nb <= col < nb + z.cols]
            h = len(upos)
            if h:
                pieces.append(Piece("stalk", Module(point, (h,), ()), n))
            comps[n] = (h, Matrix(2, inv.array[upos, :]))
        target = assemble_pieces(point, pieces)
        chain_comps = {
            n: ModuleMap(c.term(n), target.term(n), (blockm,))
            for n, (h, blockm) in comps.items()
        }
        pres = ChainMap(c, target, chain_comps)
        leaf = Leaf(c, tuple(pieces), pres, 0 if target.is_zero() else 1)
        assert verify_certificate(leaf, gen).accepted
        assert leaf.level <= 1


def test_split_witness_level_two_on_rep_finite_a3(a3):
    # with the all-indecomposables generator the cycle/boundary data always
    # has dimension 0, so every complex splits in two layers
    import pathlib

    import numpy as np

    from levelcert.formats import load_generator_file
    from levelcert.sampling import random_complex

    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    _, gen = load_generator_file(str(fixtures / "lambda3.all.gen"), a3)
    for seed in range(8):
        c = random_complex(a3, np.random.default_rng(seed), max_len=4, max_dim=2)
        node = build_split_witness(c, gen)
        assert node.level <= 2
        assert verify_certificate(node, gen).accepted
