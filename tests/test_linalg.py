"""Tests for exact dense linear algebra over prime fields.

The expected values for the small worked cases were produced by the naive
routines below (schoolbook elimination and brute-force enumeration), which
are kept deliberately independent of the library implementation.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcert.linalg import MAX_MODULUS, Matrix, hstack, inverse, kernel_basis, rank, rref, solve


def naive_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], int, list[int]]:
    """Schoolbook Gauss-Jordan elimination, written before the main build."""
    a = [[x % p for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] % p != 0:
                coef = a[i][c]
                a[i] = [(x - coef * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, r, pivots


def enumerate_kernel(rows: list[list[int]], p: int, ncols: int) -> list[tuple[int, ...]]:
    """All kernel vectors found by brute-force enumeration of F_p^ncols."""
    out = []
    for vec in itertools.product(range(p), repeat=ncols):
        if all(sum(r[j] * vec[j] for j in range(ncols)) % p == 0 for r in rows):
            out.append(vec)
    return out


def mat(p, rows):
    return Matrix(p, np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows and rows[0] else 0))


def test_rref_identity_f2():
    m = Matrix.identity(2, 2)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 2
    assert res.pivots == (0, 1)


def test_rref_zero_f3():
    m = Matrix.zeros(3, 3, 2)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 0
    assert res.pivots == ()


def test_rref_rank_one_f2():
    # Frozen from naive_rref([[1, 1], [1, 1]], 2) == ([[1, 1], [0, 0]], 1, [0]).
    expected, expected_rank, expected_pivots = naive_rref([[1, 1], [1, 1]], 2)
    assert (expected, expected_rank, expected_pivots) == ([[1, 1], [0, 0]], 1, [0])
    res = rref(mat(2, [[1, 1], [1, 1]]))
    assert res.reduced == mat(2, expected)
    assert res.rank == 1
    assert res.pivots == (0,)


def test_kernel_identity():
    assert kernel_basis(Matrix.identity(2, 4)).cols == 0


def test_kernel_zero_matrix():
    k = kernel_basis(Matrix.zeros(2, 3, 3))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_row_vector_f2():
    # Enumeration over F_2^2 finds kernel {(0,0), (1,1)}; the canonical basis
    # vector is (1, 1)^T.
    vectors = enumerate_kernel([[1, 1]], 2, 2)
    assert set(vectors) == {(0, 0), (1, 1)}
    k = kernel_basis(mat(2, [[1, 1]]))
    assert k.cols == 1
    assert k.array[:, 0].tolist() == [1, 1]


def test_solve_identity():
    b = mat(5, [[3], [4]])
    assert solve(Matrix.identity(5, 2), b) == b


def test_solve_no_solution():
    assert solve(Matrix.zeros(2, 2, 2), mat(2, [[1], [0]])) is None


def test_solve_upper_triangular_f2():
    # Enumeration over F_2^2: the unique solution of [[1,1],[0,1]] x = (0,1)
    # is x = (1, 1).
    sols = [
        v
        for v in itertools.product(range(2), repeat=2)
        if (v[0] + v[1]) % 2 == 0 and v[1] % 2 == 1
    ]
    assert sols == [(1, 1)]
    x = solve(mat(2, [[1, 1], [0, 1]]), mat(2, [[0], [1]]))
    assert x.array[:, 0].tolist() == [1, 1]


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        mat(2, [[1]]) @ mat(3, [[1]])


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        Matrix.zeros(1, 1, 4)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_large_modulus_rejected_quickly(p):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        Matrix.zeros(1, 1, p)
    assert time.perf_counter() - t0 < 1.0


def test_largest_modulus_products_are_exact():
    p = 1048573  # the largest prime below MAX_MODULUS = 2^20
    assert p < MAX_MODULUS
    m = Matrix(p, np.full((3, 3), p - 1, dtype=np.int64))
    assert (m @ m).array.tolist() == [[3, 3, 3]] * 3


def test_zero_sized_matrices_are_legal():
    m = Matrix.zeros(0, 3, 2)
    assert rank(m) == 0
    assert kernel_basis(m).cols == 3
    n = Matrix.zeros(3, 0, 2)
    assert kernel_basis(n).cols == 0
    assert (m @ kernel_basis(m)).rows == 0


small_prime = st.sampled_from([2, 3, 5])


@st.composite
def matrices(draw, p=None):
    modulus = p if p is not None else draw(small_prime)
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = draw(
        st.lists(
            st.integers(min_value=0, max_value=modulus - 1),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    arr = np.array(entries, dtype=np.int64).reshape(rows, cols)
    return Matrix(modulus, arr)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(m.T)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.cols == rank(m) + kernel_basis(m).cols


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r1 = rref(m).reduced
    assert rref(r1).reduced == r1


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_columns_are_killed(m):
    k = kernel_basis(m)
    prod = m @ k
    assert prod.is_zero()
    assert rank(k) == k.cols


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_exactness(m, data):
    # Build a consistent right-hand side, then solve must reproduce it.
    xs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m.p - 1),
            min_size=m.cols,
            max_size=m.cols,
        )
    )
    x = Matrix(m.p, np.array(xs, dtype=np.int64).reshape(m.cols, 1))
    b = m @ x
    got = solve(m, b)
    assert got is not None
    assert m @ got == b


@settings(max_examples=100, deadline=None)
@given(matrices(p=3))
def test_inverse_roundtrip(m):
    if m.rows != m.cols:
        return
    inv = inverse(m)
    if rank(m) == m.rows:
        assert inv is not None
        assert m @ inv == Matrix.identity(3, m.rows)
    else:
        assert inv is None


def test_hstack_shapes():
    a = mat(2, [[1, 0], [0, 1]])
    b = Matrix.zeros(2, 1, 2)
    c = hstack([a, b])
    assert (c.rows, c.cols) == (2, 3)
