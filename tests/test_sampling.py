"""Tests for the seeded random generators."""

from __future__ import annotations

import numpy as np

from levelcert.complexes import assemble_pieces, homology
from levelcert.sampling import (
    random_chain_map,
    random_complex,
    random_disk_sum,
    random_module,
    random_module_map,
)


def rng(seed):
    return np.random.default_rng(seed)


def test_random_module_respects_relations(a3, dual):
    for seed in range(10):
        m = random_module(a3, rng(seed), max_dim=3)
        ab = m.action("b") @ m.action("a")
        assert ab.is_zero()
        d = random_module(dual, rng(seed), max_dim=4)
        sq = d.action("a") @ d.action("a")
        assert sq.is_zero()


def test_random_module_deterministic(a3):
    m1 = random_module(a3, rng(42), max_dim=3)
    m2 = random_module(a3, rng(42), max_dim=3)
    assert m1 == m2


def test_random_complex_is_valid(a2, a3, dual):
    for alg in (a2, a3, dual):
        for seed in range(15):
            c = random_complex(alg, rng(seed), max_len=4, max_dim=2)
            # constructor enforces d o d = 0; spot-check the homology runs
            for n in c.support:
                homology(c, n)


def test_random_complex_deterministic(a3):
    c1 = random_complex(a3, rng(5))
    c2 = random_complex(a3, rng(5))
    assert c1 == c2


def test_random_disk_sum_profile(dual):
    for seed in range(10):
        c, pieces = random_disk_sum(dual, rng(seed), indices=(1, 4))
        assert all(p.kind == "disk" and 1 <= p.degree <= 4 for p in pieces)
        assert c == assemble_pieces(dual, pieces)


def test_random_chain_map_squares(point, dual):
    for alg in (point, dual):
        for seed in range(15):
            r = rng(seed)
            c, _ = random_disk_sum(alg, r, indices=(1, 4))
            d, _ = random_disk_sum(alg, r, indices=(1, 4))
            random_chain_map(c, d, r)  # constructor checks the squares


def test_random_chain_map_reaches_cross_components(point):
    # Between disk sums with shifted indices the only maps are the
    # cross-degree ones; the sampler must be able to produce them.
    hits = 0
    for seed in range(30):
        r = rng(seed)
        c, _ = random_disk_sum(point, r, indices=(2, 2), max_pieces=1, max_dim=2)
        d, _ = random_disk_sum(point, r, indices=(3, 3), max_pieces=1, max_dim=2)
        phi = random_chain_map(c, d, r)
        if any(not phi.component(n).is_zero() for n in c.support):
            hits += 1
    assert hits > 0


def test_random_module_map_intertwines(a3):
    r = rng(9)
    a = random_module(a3, r)
    b = random_module(a3, r)
    random_module_map(a, b, r)  # constructor validates
