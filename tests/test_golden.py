"""Certificates pinned byte for byte.

The recipe renders 25 resolution certificates (lambda4, projectives,
d = 3) and then 25 split certificates (lambda3, all indecomposables).
Each group draws its complexes with random_complex(max_len=3, max_dim=2)
from a fresh default_rng(7).  Every certificate must decode, verify and
re-render to the same bytes, and the SHA-256 of the concatenated renders
must equal GOLDEN_SHA256.  Only a deliberate format change may update the
constant, and CHANGES.md then records why.
"""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np

from levelcert.formats import (
    decode_certificate,
    load_algebra_file,
    load_generator_file,
    render_certificate,
)
from levelcert.levels import (
    build_resolution_witness,
    build_split_witness,
    verify_certificate,
)
from levelcert.sampling import random_complex

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

GOLDEN_SHA256 = "a9fd2d583fd6b164aa803406881211f3c1d4aa6a7881963bc58957ed1da7b4a8"


def _renders(stem: str, kind: str, build) -> list[str]:
    name, alg = load_algebra_file(str(FIXTURES / f"{stem}.alg"))
    gen_name, gen = load_generator_file(str(FIXTURES / f"{stem}.{kind}.gen"), alg)
    rng = np.random.default_rng(7)
    texts = []
    for _ in range(25):
        node = build(random_complex(alg, rng, max_len=3, max_dim=2), gen)
        text = render_certificate(name, alg, gen_name, gen, node)
        alg2, gen2, node2, _ = decode_certificate(text)
        assert verify_certificate(node2, gen2).accepted
        assert render_certificate(name, alg2, gen_name, gen2, node2) == text
        texts.append(text)
    return texts


def test_golden_certificate_digest():
    texts = _renders("lambda4", "proj", lambda c, g: build_resolution_witness(c, g, 3))
    texts += _renders("lambda3", "all", build_split_witness)
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == GOLDEN_SHA256
