"""End-to-end tests of the command line surface and its exit codes."""

from __future__ import annotations

import json
import pathlib

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
    code = main([
        "semires-check", fx("lambda2.alg"), fx("lambda2.proj.gen"),
        fx("s1_lambda2.mod"), "--random", "5",
    ])
    assert code == 0
    assert "no violation found" in capsys.readouterr().out


def test_semires_check_refutes(tmp_path, capsys):
    # add(regular + S1) over lambda3 is not semi-resolving
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
    code = main([
        "semires-check", fx("lambda3.alg"), str(gen), fx("s1_lambda3.mod")
    ])
    assert code == 1
    assert "refuted" in capsys.readouterr().out


def test_semires_check_needs_samples(capsys):
    assert main(["semires-check", fx("lambda2.alg"), fx("lambda2.proj.gen")]) == 2
