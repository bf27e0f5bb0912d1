"""Exact dense linear algebra over a prime field F_p.

Every value is immutable and every routine is a pure function, so the whole
module is safe to use from multiple threads.  Matrices are stored densely as
row-major int64 arrays with entries reduced into [0, p); this is the right
trade-off at the dimensions this package works with (a few hundred at most).
The modulus is bounded by MAX_MODULUS = 2^20, so an inner product of n terms
stays below n (p - 1)^2 < 2^63 for any n that fits in memory and every
int64 product and elimination step is exact.

The reduced row echelon form is unique, and the kernel/solve routines read
their answers off the rref pivot structure, so every basis produced here is
canonical: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "check_modulus",
    "Matrix",
    "RrefResult",
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "inverse",
    "hstack",
    "block_diag",
]


MAX_MODULUS = 2**20


@lru_cache(maxsize=None)
def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime below MAX_MODULUS."""
    if p >= MAX_MODULUS:
        raise ValueError(
            f"modulus {p} is too large: int64 arithmetic is exact only below {MAX_MODULUS}"
        )
    if p < 2:
        raise ValueError(f"modulus must be a prime, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus must be a prime, got {p}")
        d += 1


class Matrix:
    """A rows x cols matrix over F_p.  Zero-sized shapes are legal."""

    __slots__ = ("p", "array")

    def __init__(self, p: int, array) -> None:
        check_modulus(p)
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = np.mod(arr, p)
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "Matrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "Matrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def T(self) -> "Matrix":
        return Matrix(self.p, self.array.T)

    def is_zero(self) -> bool:
        return not self.array.any()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.p, (self.array * (c % self.p)) % self.p)

    def _coerce(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._coerce(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return Matrix(self.p, (self.array @ other.array) % self.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._coerce(other)
        if self.array.shape != other.array.shape:
            raise ValueError("shape mismatch for sum")
        return Matrix(self.p, (self.array + other.array) % self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._coerce(other)
        if self.array.shape != other.array.shape:
            raise ValueError("shape mismatch for difference")
        return Matrix(self.p, (self.array - other.array) % self.p)

    def __neg__(self) -> "Matrix":
        return Matrix(self.p, (-self.array) % self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.p, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix(p={self.p}, {self.array.tolist()!r})"


@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns.

    Pivots are chosen as the first nonzero entry scanning down each column
    left to right, which makes the output (and everything derived from it)
    deterministic.
    """
    a = m.array.copy()
    p = m.p
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return RrefResult(Matrix(p, a), r, tuple(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of {v : m v = 0}, one column per free variable.

    Read off the rref: the free columns are taken in increasing order, and
    each basis vector has a 1 in its free coordinate and minus the reduced
    column in the pivot coordinates.
    """
    res = rref(m)
    red = res.reduced.array
    pivots = list(res.pivots)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-red[i, f]) % m.p
    return Matrix(m.p, basis)


def solve(m: Matrix, b: Matrix) -> Matrix | None:
    """One solution x of m x = b (column-wise), or None if inconsistent.

    The canonical solution sets all free variables to zero, so it is the
    same on every run.
    """
    if not isinstance(b, Matrix) or b.p != m.p:
        raise ValueError("modulus mismatch in solve")
    if b.rows != m.rows:
        raise ValueError(f"dimension mismatch: {m.rows} rows vs rhs {b.rows}")
    aug = rref(Matrix(m.p, np.hstack([m.array, b.array])))
    if any(c >= m.cols for c in aug.pivots):
        return None
    red = aug.reduced.array
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    for i, c in enumerate(aug.pivots):
        x[c] = red[i, m.cols :]
    return Matrix(m.p, x)


def inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    inv = solve(m, Matrix.identity(m.p, m.rows))
    if inv is None:
        return None
    if rank(m) != m.rows:
        return None
    return inv


def _common_modulus(mats: list[Matrix]) -> int:
    if not mats:
        raise ValueError("need at least one matrix")
    p = mats[0].p
    for m in mats[1:]:
        if m.p != p:
            raise ValueError("modulus mismatch")
    return p


def hstack(mats: list[Matrix]) -> Matrix:
    p = _common_modulus(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    return Matrix(p, np.hstack([m.array for m in mats]))


def block_diag(p: int, mats: list[Matrix]) -> Matrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in mats:
        if m.p != p:
            raise ValueError("modulus mismatch")
        out[r : r + m.rows, c : c + m.cols] = m.array
        r += m.rows
        c += m.cols
    return Matrix(p, out)
