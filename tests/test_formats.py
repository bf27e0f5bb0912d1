"""Round-trip and error-reporting tests for the file formats."""

from __future__ import annotations

import pathlib

import pytest

from levelcert.algebra import projective_generator, simple_module
from levelcert.complexes import stalk
from levelcert.formats import (
    CertificateDecodeError,
    FormatError,
    decode_algebra,
    decode_certificate,
    decode_complex_file,
    decode_generator,
    decode_module,
    load_algebra_file,
    load_complex_file,
    load_generator_file,
    load_module_file,
    parse_document,
    render_algebra,
    render_certificate,
    render_complex_file,
    render_generator,
    render_module,
)
from levelcert.homological import decompose, make_generator
from levelcert.levels import build_split_witness, verify_certificate
from levelcert.sampling import random_complex

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_reports_line_numbers():
    with pytest.raises(FormatError, match="line 3"):
        parse_document("begin algebra x\nmodulus 2\nend wrong\n")


def test_parse_unclosed_block():
    with pytest.raises(FormatError, match="unclosed"):
        parse_document("begin algebra x\nmodulus 2\n")


def test_algebra_roundtrip(a3):
    text = render_algebra("lambda3", a3.presentation)
    blocks = parse_document(text)
    name, alg2 = decode_algebra(blocks[0])
    assert name == "lambda3"
    assert alg2 == a3
    assert render_algebra(name, alg2.presentation) == text


def test_algebra_fixture_files():
    for stem, dim in [
        ("lambda0", 1),
        ("lambda1", 2),
        ("lambda2", 3),
        ("lambda3", 5),
        ("lambda4", 7),
    ]:
        name, alg = load_algebra_file(str(FIXTURES / f"{stem}.alg"))
        assert name == stem
        assert alg.dim == dim


def test_relation_with_unknown_arrow_reports_line():
    text = (
        "begin algebra bad\n"
        "modulus 2\n"
        "cap 2\n"
        "vertex 1\n"
        "arrow a 1 1\n"
        "relation 1 a.z\n"
        "end algebra\n"
    )
    with pytest.raises(FormatError, match="unknown arrow"):
        decode_algebra(parse_document(text)[0])


def test_module_roundtrip(a3):
    m = projective_generator(a3)
    text = render_module("reg", m)
    name, m2 = decode_module(parse_document(text)[0], a3)
    assert name == "reg"
    assert m2 == m
    assert render_module(name, m2) == text


def test_module_fixture_file(a2):
    name, m = load_module_file(str(FIXTURES / "s1_lambda2.mod"), a2)
    assert m == simple_module(a2, "1")


def test_module_with_bad_relation_rejected(a3):
    text = (
        "begin module bad\n"
        "dim 1 1\n"
        "dim 2 1\n"
        "dim 3 1\n"
        "begin matrix a 1 1\nrow 1\nend matrix\n"
        "begin matrix b 1 1\nrow 1\nend matrix\n"
        "end module\n"
    )
    with pytest.raises(FormatError, match="relation"):
        decode_module(parse_document(text)[0], a3)


def test_complex_roundtrip(a3):
    import numpy as np

    c = random_complex(a3, np.random.default_rng(11), max_len=4, max_dim=2)
    text = render_complex_file("c", c)
    name, c2 = decode_complex_file(parse_document(text), a3)
    assert c2 == c
    assert render_complex_file(name, c2) == text


def test_complex_fixture_file(a3):
    name, c = load_complex_file(str(FIXTURES / "s1_stalk_lambda3.cpx"), a3)
    assert c == stalk(simple_module(a3, "1"), 0)


def test_generator_roundtrip(dual):
    gen = make_generator(projective_generator(dual))
    text = render_generator("proj", gen)
    name, gen2 = decode_generator(parse_document(text)[0], dual)
    assert gen2.module == gen.module
    assert gen2.declared_semi_resolving == gen.declared_semi_resolving
    assert render_generator(name, gen2) == text


def test_generator_fixture_files(dual):
    _, gen = load_generator_file(str(FIXTURES / "lambda1.proj.gen"), dual)
    assert gen.module.dims == (2,)
    _, gen_all = load_generator_file(str(FIXTURES / "lambda1.all.gen"), dual)
    assert gen_all.module.dims == (3,)
    assert len(decompose(gen_all.module).pairs) == 2


def test_certificate_roundtrip(a2):
    gen = make_generator(projective_generator(a2))
    node = build_split_witness(stalk(simple_module(a2, "1"), 0), gen)
    text = render_certificate("lambda2", a2, "proj", gen, node, seed=0)
    alg2, gen2, node2, seed = decode_certificate(text)
    assert alg2 == a2
    assert seed == 0
    assert verify_certificate(node2, gen2).accepted
    text2 = render_certificate("lambda2", alg2, "proj", gen2, node2, seed=seed)
    assert text2 == text


def test_certificate_with_legacy_verdict_lines_still_reads(a2):
    # certificates written before the membership test became exact carry
    # one "verdict" line per leaf piece; readers skip them
    gen = make_generator(projective_generator(a2))
    node = build_split_witness(stalk(simple_module(a2, "1"), 0), gen)
    text = render_certificate("lambda2", a2, "proj", gen, node, seed=0)
    assert "verdict" not in text
    lines = text.splitlines()
    legacy = []
    for ln in lines:
        legacy.append(ln)
        if ln.strip() == "begin leaf":
            indent = ln[: len(ln) - len(ln.lstrip())]
            legacy += [indent + "  verdict 1 0", indent + "  verdict 0 1"]
    assert len(legacy) > len(lines)
    alg2, gen2, node2, seed = decode_certificate("\n".join(legacy) + "\n")
    assert verify_certificate(node2, gen2, seed).accepted
    assert render_certificate("lambda2", alg2, "proj", gen2, node2, seed) == text


def test_certificate_tamper_is_loud(a2):
    gen = make_generator(projective_generator(a2))
    node = build_split_witness(stalk(simple_module(a2, "1"), 0), gen)
    text = render_certificate("lambda2", a2, "proj", gen, node, seed=0)
    lines = text.splitlines()
    # flip one matrix entry inside the tree (first 'row 1' after a leaf begins)
    flipped = None
    in_node = False
    for i, ln in enumerate(lines):
        if "begin branch" in ln or "begin leaf" in ln:
            in_node = True
        if in_node and ln.strip() == "row 1":
            flipped = i
            break
    assert flipped is not None
    lines[flipped] = lines[flipped].replace("row 1", "row 0")
    broken = "\n".join(lines) + "\n"
    with pytest.raises(CertificateDecodeError):
        alg2, gen2, node2, _ = decode_certificate(broken)
        verdict = verify_certificate(node2, gen2)
        # if the tampered object still constructs, the verifier must reject
        assert not verdict.accepted
        raise CertificateDecodeError("root", verdict.reason or "rejected")


def test_relation_error_points_at_relation_line():
    text = (
        "begin algebra bad\n"
        "modulus 2\n"
        "cap 2\n"
        "vertex 1\n"
        "arrow a 1 1\n"
        "relation 1 a.q\n"
        "end algebra\n"
    )
    with pytest.raises(FormatError, match="line 6"):
        decode_algebra(parse_document(text)[0])


def test_all_indecomposables_generators_cover_everything(a2, a3, a4):
    # over these representation-finite fixtures the all-indecomposables
    # generators witness relative dimension 0 for random modules
    import numpy as np

    from levelcert.homological import xdim
    from levelcert.sampling import random_module

    for alg, stem in ((a2, "lambda2"), (a3, "lambda3"), (a4, "lambda4")):
        _, gen = load_generator_file(str(FIXTURES / f"{stem}.all.gen"), alg)
        for seed in range(6):
            m = random_module(alg, np.random.default_rng(seed), max_dim=2)
            assert xdim(m, gen).value == 0
