"""End-to-end tests of the command line surface and its exit codes."""

from __future__ import annotations

import json
import pathlib
import shlex
import tracemalloc

import pytest

from levelcert.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_check_lambda1(capsys):
    assert main(["check", fx("lambda1.alg")]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out
    assert "P(1): dimension 2" in out


def test_check_lambda0(capsys):
    assert main(["check", fx("lambda0.alg")]) == 0
    assert "dimension 1" in capsys.readouterr().out


def test_check_json(capsys):
    assert main(["check", fx("lambda3.alg"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 5
    assert data["projectives"]["1"] == [1, 1, 0]


def test_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("begin algebra x\nmodulus 2\ncap 2\nvertex 1\nrelation 1 q.q\nend algebra\n")
    assert main(["check", str(bad)]) == 3
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "modulus, message", [("2147483647", "too large"), ("4", "must be a prime")]
)
def test_check_rejects_unusable_modulus(tmp_path, capsys, modulus, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        (FIXTURES / "lambda2.alg").read_text().replace("modulus 2", f"modulus {modulus}")
    )
    assert main(["check", str(bad)]) == 3
    assert message in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/file.alg"]) == 3


def test_xdim_s1_lambda2(capsys):
    code = main([
        "xdim", fx("lambda2.alg"), fx("s1_lambda2.mod"), fx("lambda2.proj.gen")
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "relative dimension 1" in out
    assert "step 1" in out


def test_xdim_exceeds_cap_exit_code(tmp_path, capsys):
    s = tmp_path / "s.mod"
    s.write_text(
        "begin module S\ndim 1 1\nbegin matrix a 1 1\nrow 0\nend matrix\nend module\n"
    )
    code = main([
        "xdim", fx("lambda1.alg"), str(s), fx("lambda1.proj.gen"), "--cap", "6"
    ])
    assert code == 1
    assert "exceeds cap 6" in capsys.readouterr().out


def test_xdim_member_is_zero(capsys):
    code = main([
        "xdim", fx("lambda3.alg"), fx("s1_lambda3.mod"), fx("lambda3.proj.gen"), "--json"
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 2


def test_syzygy_command(tmp_path, capsys):
    out_file = tmp_path / "omega.mod"
    code = main([
        "syzygy", fx("lambda2.alg"), fx("s1_lambda2.mod"), "--n", "1",
        "--out", str(out_file),
    ])
    assert code == 0
    assert "(1:0, 2:1)" in capsys.readouterr().out
    assert "begin module" in out_file.read_text()


def test_witness_verify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.lc"
    code = main([
        "witness", fx("lambda3.alg"), fx("s1_stalk_lambda3.cpx"), fx("lambda3.proj.gen"),
        "--mode", "main", "--d", "2", "--out", str(cert),
    ])
    assert code == 0
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accept")


def test_witness_main_requires_d(capsys):
    code = main([
        "witness", fx("lambda3.alg"), fx("s1_stalk_lambda3.cpx"), fx("lambda3.proj.gen"),
        "--mode", "main", "--d", "1",
    ])
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_witness_han_mode(tmp_path, capsys):
    cert = tmp_path / "cert.lc"
    code = main([
        "witness", fx("lambda2.alg"), _stalk_file(tmp_path), fx("lambda2.proj.gen"),
        "--mode", "han", "--out", str(cert), "--json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert data["level"] <= 3
    assert main(["verify", str(cert), "--json"]) == 0


def _stalk_file(tmp_path) -> str:
    path = tmp_path / "s1stalk.cpx"
    path.write_text(
        "begin module S1\ndim 1 1\ndim 2 0\nend module\n"
        "begin complex c\nsupport 0 0\nterm 0 S1\nend complex\n"
    )
    return str(path)


def test_verify_tampered_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.lc"
    assert (
        main([
            "witness", fx("lambda3.alg"), fx("s1_stalk_lambda3.cpx"),
            fx("lambda3.proj.gen"), "--mode", "main", "--d", "2",
            "--out", str(cert),
        ])
        == 0
    )
    capsys.readouterr()
    text = cert.read_text()
    lines = text.splitlines()
    idx = next(
        i
        for i, ln in enumerate(lines)
        if ln.strip() == "row 1" and any("begin" in x and ("leaf" in x or "branch" in x) for x in lines[:i])
    )
    lines[idx] = lines[idx].replace("row 1", "row 0")
    cert.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("reject")


def test_bound_table(capsys):
    assert main(["bound", "--d", "0"]) == 0
    out = capsys.readouterr().out
    assert "derived dimension <= 1" in out
    assert main(["bound", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "derived dimension <= 5" in out


def test_bound_gorenstein(capsys):
    assert main(["bound", "--d", "0", "--mode", "gorenstein", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    by_rule = {d["rule"]: d["bound"] for d in data}
    assert by_rule["gorenstein-cm-finite"] == 2
    assert by_rule["small-dim"] == 1


def test_bound_usage_error(capsys):
    assert main(["bound", "--d", "many"]) == 2


def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_semires_check_passes(capsys):
    code = main(["semires-check", fx("lambda2.alg"), fx("lambda2.proj.gen")])
    assert code == 0
    out = capsys.readouterr().out
    assert "syzygy of M: vector (1:0, 2:0)" in out
    assert "closed under syzygies" in out
    assert "not closed" not in out


def test_semires_check_refutes(tmp_path, capsys):
    # add(regular + S1) over lambda3 is not closed under syzygies: the
    # syzygy of M is S2
    gen = tmp_path / "bad.gen"
    gen.write_text(
        "begin generator bad\n"
        "semi_resolving 1\n"
        "use_projectives\n"
        "begin module S1\n"
        "dim 1 1\ndim 2 0\ndim 3 0\n"
        "end module\n"
        "summand S1\n"
        "end generator\n"
    )
    assert main(["semires-check", fx("lambda3.alg"), str(gen)]) == 1
    out = capsys.readouterr().out
    assert "syzygy of M: vector (1:0, 2:1, 3:0)" in out
    assert "not closed under syzygies" in out
    assert main(["semires-check", fx("lambda3.alg"), str(gen), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"closed": False, "syzygy_dims": [0, 1, 0]}


@pytest.mark.parametrize("alg", ["lambda0", "lambda1", "lambda2", "lambda3", "lambda4"])
@pytest.mark.parametrize("kind", ["proj", "all"])
def test_semires_check_fixture_generators_closed(alg, kind, capsys):
    assert main(["semires-check", fx(f"{alg}.alg"), fx(f"{alg}.{kind}.gen")]) == 0


def test_semires_check_rejects_samples(capsys):
    argv = ["semires-check", fx("lambda2.alg"), fx("lambda2.proj.gen"), fx("s1_lambda2.mod")]
    assert main(argv) == 2


# ---------------------------------------------------------------------------
# Malformed input: exit 3 with the offending line, never a traceback


def _lambda2_module(body: str) -> str:
    return f"begin module m\n{body}end module\n"


def _mutate_first(text: str, start: str, edit, after: str | None) -> tuple[str, int]:
    """text with edit applied to the first line starting with start that
    follows the line after (or any line, when after is None), and the
    1-based number of that line."""
    lines = text.splitlines()
    first = 0 if after is None else lines.index(after)
    i = next(k for k in range(first, len(lines)) if lines[k].strip().startswith(start))
    lines[i : i + 1] = edit(lines[i])
    return "\n".join(lines) + "\n", i + 1


def _retag(new: str):
    return lambda line: [line[: len(line) - len(line.lstrip())] + new]


def _drop(line: str) -> list[str]:
    return []


def _append_token(line: str) -> list[str]:
    return [line + " x"]


def _insert_before(new: str):
    return lambda line: [line[: len(line) - len(line.lstrip())] + new, line]


CERT_CASES = {
    "cert-term-degree-not-int": ("begin term", _retag("begin term x"), 0),
    "cert-component-without-degree": ("begin component", _retag("begin component"), 0),
    "cert-piece-without-arguments": ("begin piece", _retag("begin piece"), 0),
    "cert-unknown-arrow-label": ("begin matrix a ", lambda ln: [ln.replace(" a ", " zz ")], 0),
    # the missing dim is reported at its term block, the line above it
    "cert-term-missing-dim": ("dim ", _drop, -1),
}

# searched from the top of the certificate; each fault is on the edited line
CERT_LINE_CASES = {
    "cert-end-trailing-token": ("end matrix", _append_token),
    "cert-leaf-argument": ("begin leaf", _append_token),
    "cert-level-trailing-token": ("level 2", _append_token),
    "cert-seed-trailing-token": ("seed 0", _append_token),
    "cert-modulus-trailing-token": ("modulus 2", _append_token),
    "cert-flag-trailing-token": ("semi_resolving 1", _append_token),
    "cert-flag-not-0-or-1": ("semi_resolving 1", _retag("semi_resolving 7")),
    "cert-end-certificate-trailing-token": ("end certificate", _append_token),
    "cert-algebra-extra-argument": ("begin algebra", _append_token),
    "cert-generator-extra-argument": ("begin generator", _append_token),
    "cert-use-projectives-argument": ("semi_resolving 1", _insert_before("use_projectives x")),
}

FILE_CASES = {
    "module-negative-dim": ("xdim", _lambda2_module("dim 1 -1\ndim 2 0\n"), 2),
    "module-extra-argument": ("xdim", "begin module m x\ndim 1 1\ndim 2 0\nend module\n", 1),
    "matrix-negative-shape": (
        "xdim",
        _lambda2_module("dim 1 1\ndim 2 1\nbegin matrix a -1 1\nend matrix\n"),
        4,
    ),
    "matrix-entry-overflows-int64": (
        "xdim",
        _lambda2_module(
            "dim 1 1\ndim 2 1\nbegin matrix a 1 1\nrow 99999999999999999999\nend matrix\n"
        ),
        5,
    ),
    "matrix-entry-not-a-residue": (
        "xdim",
        _lambda2_module("dim 1 1\ndim 2 1\nbegin matrix a 1 1\nrow 3\nend matrix\n"),
        5,
    ),
    "complex-term-without-module": (
        "witness",
        "begin module S1\ndim 1 1\ndim 2 0\nend module\n"
        "begin complex c\nsupport 0 0\nterm 0\nend complex\n",
        7,
    ),
    "complex-extra-argument": (
        "witness",
        "begin module S1\ndim 1 1\ndim 2 0\nend module\n"
        "begin complex c x\nsupport 0 0\nterm 0 S1\nend complex\n",
        5,
    ),
    # each support degree needs a term, so a short file cannot ask for a long complex
    "complex-support-without-terms": (
        "witness",
        "begin module S1\ndim 1 1\ndim 2 0\nend module\n"
        "begin complex c\nsupport 0 1000\nterm 0 S1\nend complex\n",
        5,
    ),
}


@pytest.fixture(scope="module")
def lambda3_certificate(tmp_path_factory) -> str:
    cert = tmp_path_factory.mktemp("cert") / "cert.lc"
    assert main([
        "witness", fx("lambda3.alg"), fx("s1_stalk_lambda3.cpx"), fx("lambda3.proj.gen"),
        "--mode", "main", "--d", "2", "--out", str(cert),
    ]) == 0
    return cert.read_text()


@pytest.mark.parametrize(
    "case", sorted(CERT_CASES) + sorted(CERT_LINE_CASES) + sorted(FILE_CASES)
)
def test_malformed_input_exits_3_with_line(case, lambda3_certificate, tmp_path, capsys):
    capsys.readouterr()
    path = tmp_path / "input"
    if case in CERT_CASES:
        start, edit, offset = CERT_CASES[case]
        text, line = _mutate_first(lambda3_certificate, start, edit, "  end generator")
        line += offset
        argv = ["verify", str(path)]
    elif case in CERT_LINE_CASES:
        start, edit = CERT_LINE_CASES[case]
        text, line = _mutate_first(lambda3_certificate, start, edit, None)
        argv = ["verify", str(path)]
    else:
        command, text, line = FILE_CASES[case]
        argv = {
            "xdim": ["xdim", fx("lambda2.alg"), str(path), fx("lambda2.proj.gen")],
            "witness": ["witness", fx("lambda2.alg"), str(path), fx("lambda2.proj.gen")],
        }[command]
    path.write_text(text)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"line {line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dim", [2000, 10**5])
def test_module_dimension_limit_exits_3_in_bounded_memory(dim, tmp_path, capsys):
    # 48 bytes at dim 2000: no matrix lines, so a decoder without the limit
    # would allocate the zero actions of every arrow (61 MiB at 2000).
    path = tmp_path / "big.mod"
    path.write_text(_lambda2_module(f"dim 1 {dim}\ndim 2 {dim}\n"))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["xdim", fx("lambda2.alg"), str(path), fx("lambda2.proj.gen")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert "line 1:" in err and "exceeds the limit 256" in err
    assert "Traceback" not in err
    assert peak < 5 * 2**20


_ZERO_BRANCH_HEAD = """begin branch
level 0
kind middle
begin subject
end subject
begin ses
begin sub
end sub
begin middle
end middle
begin quotient
end quotient
begin inclusion
end inclusion
begin projection
end projection
end ses
begin link
end link
"""
_ZERO_LEAF = "begin leaf\nlevel 0\nbegin subject\nend subject\nbegin presentation\nend presentation\nend leaf\n"


def _nested_zero_certificate(depth: int) -> str:
    """A lambda0 certificate whose tree nests depth branches over the zero
    complex down its sub side."""
    head = (
        "begin certificate\nseed 0\n"
        + (FIXTURES / "lambda0.alg").read_text()
        + (FIXTURES / "lambda0.proj.gen").read_text()
    )
    nodes = _ZERO_BRANCH_HEAD * depth + _ZERO_LEAF + (_ZERO_LEAF + "end branch\n") * depth
    return head + nodes + "end certificate\n"


@pytest.mark.parametrize("depth, code", [(63, 0), (64, 3), (500, 3)])
def test_tree_depth_limit(depth, code, tmp_path, capsys):
    # depth nested branches and the innermost leaf make depth + 1 levels
    text = _nested_zero_certificate(depth)
    path = tmp_path / "deep.cert"
    path.write_text(text)
    capsys.readouterr()
    assert main(["verify", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        nodes = [k for k, s in enumerate(text.splitlines(), 1) if s in ("begin branch", "begin leaf")]
        assert f"line {nodes[64]}:" in err and "deeper than the limit 64" in err


def test_membership_table_limit_exits_3(tmp_path, capsys):
    # Hom(m, M) and Hom(M, m) have 24 * 25 basis maps each, so the
    # membership table would have 24^2 * 600^2 cells (1.54 GiB)
    mod = tmp_path / "big.mod"
    mod.write_text("begin module m\ndim 1 24\nend module\n")
    gen = tmp_path / "big.gen"
    gen.write_text(
        "begin generator g\nsemi_resolving 1\nuse_projectives\n"
        "begin module S\ndim 1 24\nend module\nsummand S\nend generator\n"
    )
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["xdim", fx("lambda0.alg"), str(mod), str(gen)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert "in_add table of 207360000 cells exceeds the limit" in err
    assert "Traceback" not in err
    assert peak < 16 * 2**20  # the two hom bases take about 9 MiB


# ---------------------------------------------------------------------------
# The README's command-line examples run as written


def _readme_commands() -> list[list[str]]:
    """The levelcert lines of the README's command-line sh block, with
    continuations joined and fixture paths made absolute."""
    readme = (FIXTURES.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv and argv[0] == "levelcert":
            commands.append(
                [fx(a[len("fixtures/"):]) if a.startswith("fixtures/") else a for a in argv[1:]]
            )
    return commands


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        assert main(argv) == 0, argv
