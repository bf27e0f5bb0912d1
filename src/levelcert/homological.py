"""Module-level homological tools: add-membership, syzygies, dimensions
relative to an additive generator, and decomposition.

Membership in add M is decided exactly by the trace criterion (see
in_add): one pair of hom spaces and one linear solve, with no search and
no seed.  Everything built on it, the relative dimension xdim, the
certificate builders and the verifier, is therefore exact as well.  So is
syzygy_closure, which decides with one membership test whether add M is
closed under syzygies.

decompose and modules_isomorphic search a hom space exhaustively, and only
when it has at most ENUM_LIMIT elements (p^k for a k-dimensional space
over F_p); a search they cannot finish within that limit raises
AlgebraError rather than guess.  Nothing on the membership or certificate
path calls them; they are the reference the tests check in_add against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError,
    Module,
    ModuleMap,
    check_system_cells,
    direct_sum,
    hom_space,
    image,
    indecomposable_projective,
    kernel,
    projective_cover,
)
from .linalg import Matrix, hstack, inverse, rank, solve

__all__ = [
    "DEFAULT_CAP",
    "ENUM_LIMIT",
    "Decomposition",
    "decompose",
    "modules_isomorphic",
    "Generator",
    "GeneratorError",
    "make_generator",
    "in_add",
    "syzygy",
    "XDimStep",
    "XDimReport",
    "xdim",
    "syzygy_closure",
]

DEFAULT_CAP = 32
ENUM_LIMIT = 4096


class GeneratorError(AlgebraError):
    """The declared generator is unusable (projectives not in add M)."""


def _combinations(p: int, k: int):
    """All nonzero coefficient vectors in F_p^k, lexicographically."""
    vec = [0] * k
    total = p**k
    for _ in range(total - 1):
        i = k - 1
        while True:
            vec[i] += 1
            if vec[i] < p:
                break
            vec[i] = 0
            i -= 1
        yield tuple(vec)


def _require_enumerable(what: str, p: int, k: int) -> None:
    """Refuse an exhaustive search over a hom space of p^k elements above
    ENUM_LIMIT."""
    if p**k > ENUM_LIMIT:
        raise AlgebraError(
            f"{what}: the hom space has {p}^{k} elements, more than "
            f"ENUM_LIMIT = {ENUM_LIMIT}, too many to search exhaustively"
        )


def _endo_candidates(basis, p: int):
    """Endomorphisms to try: the basis first, then every other combination.

    Once the basis is used up, a space of more than ENUM_LIMIT elements
    raises AlgebraError instead of being searched."""
    yield from basis
    _require_enumerable("decompose", p, len(basis))
    for coeffs in _combinations(p, len(basis)):
        if sum(1 for c in coeffs if c) <= 1:
            continue  # basis vectors already tried
        yield _combine(basis, coeffs)


def _combine(basis, coeffs) -> ModuleMap:
    """sum c * b over a nonzero coefficient vector."""
    f = None
    for c, b in zip(coeffs, basis):
        if c:
            f = b.scale(c) if f is None else f + b.scale(c)
    return f


def _power(f: ModuleMap, n: int) -> ModuleMap:
    """f composed with itself at least n times (rounded up to a power of 2)."""
    g = f
    k = 1
    while k < n:
        g = g.compose(g)
        k *= 2
    return g


def _try_split(m: Module):
    """Find a Fitting splitting m = ker(f^N) + im(f^N), or None.

    Returns ((k, incl_k), (i, incl_i)) with both parts nonzero.  When no
    tried endomorphism splits, every one of them was nilpotent or
    invertible, which is the local-endomorphism-ring witness.
    """
    n = m.total_dim
    basis = hom_space(m, m)
    for f in _endo_candidates(basis, m.algebra.p):
        g = _power(f, max(n, 1))
        r = sum(rank(b) for b in g.blocks)
        if 0 < r < n:
            k, incl_k = kernel(g)
            i, incl_i, _ = image(g)
            return (k, incl_k), (i, incl_i)
    return None


@dataclass(frozen=True)
class Decomposition:
    """A verified decomposition into indecomposables.

    pairs groups the parts up to isomorphism with multiplicities; parts
    lists every indecomposable leaf in order; into/out_of are the mutually
    inverse maps between the assembled sum and the original module.
    """

    module: Module
    pairs: tuple[tuple[Module, int], ...]
    parts: tuple[Module, ...]
    into: ModuleMap  # sum of parts -> module
    out_of: ModuleMap  # module -> sum of parts


def decompose(m: Module) -> Decomposition:
    """Split a module into indecomposable summands by Fitting's lemma.

    Endomorphisms are drawn from the computed endomorphism basis, then from
    all its combinations; any f with 0 < rank(f^N) < dim splits the module
    along ker(f^N) and im(f^N).  The process recurses until nothing splits,
    then the assembled isomorphism pair is verified exactly.  A part that
    no basis endomorphism splits and whose endomorphism space has more than
    ENUM_LIMIT elements raises AlgebraError.
    """
    alg = m.algebra
    leaves: list[tuple[Module, ModuleMap]] = []

    def walk(part: Module, incl: ModuleMap) -> None:
        if part.is_zero():
            return
        split = _try_split(part)
        if split is None:
            leaves.append((part, incl))
            return
        (k, incl_k), (i, incl_i) = split
        walk(k, incl.compose(incl_k))
        walk(i, incl.compose(incl_i))

    walk(m, ModuleMap.identity(m))
    parts = tuple(part for part, _ in leaves)
    total, injs, _ = direct_sum(alg, list(parts))
    blocks = []
    for v in range(len(alg.vertices)):
        cols = [incl.blocks[v] for _, incl in leaves]
        if cols:
            blocks.append(hstack(cols))
        else:
            blocks.append(Matrix.zeros(m.dims[v], 0, alg.p))
    into = ModuleMap(total, m, blocks)
    inv_blocks = []
    for b in into.blocks:
        ib = inverse(b)
        if ib is None:
            raise AlgebraError("decomposition assembly is not invertible (internal error)")
        inv_blocks.append(ib)
    out_of = ModuleMap(m, total, inv_blocks)
    if into.compose(out_of) != ModuleMap.identity(m) or out_of.compose(
        into
    ) != ModuleMap.identity(total):
        raise AlgebraError("decomposition round trip failed (internal error)")

    grouped: list[tuple[Module, int]] = []
    for part in parts:
        for idx, (rep, count) in enumerate(grouped):
            if modules_isomorphic(rep, part) is not None:
                grouped[idx] = (rep, count + 1)
                break
        else:
            grouped.append((part, 1))
    return Decomposition(m, tuple(grouped), parts, into, out_of)


def modules_isomorphic(a: Module, b: Module) -> ModuleMap | None:
    """An isomorphism a -> b, or None if there is none.

    Requires equal dimension vectors, then tries every element of Hom(a, b)
    for an invertible one.  A hom space of more than ENUM_LIMIT elements
    (p^dim Hom) raises AlgebraError.
    """
    if a.algebra != b.algebra:
        raise AlgebraError("isomorphism test needs a common algebra")
    if a.dims != b.dims:
        return None
    if a.total_dim == 0:
        return ModuleMap.zero(a, b)
    basis = hom_space(a, b)
    k = len(basis)
    if k == 0:
        return None
    p = a.algebra.p
    _require_enumerable("modules_isomorphic", p, k)
    for coeffs in _combinations(p, k):
        f = _combine(basis, coeffs)
        if f.is_isomorphism():
            return f
    return None


@dataclass(frozen=True)
class Generator:
    """An additive generator M, with X = add M.

    declared_semi_resolving is the caller's declaration; nothing computed
    depends on it.  syzygy_closure decides closure under syzygies.
    """

    module: Module
    declared_semi_resolving: bool


def make_generator(m: Module, declared_semi_resolving: bool = True) -> Generator:
    """Build a generator and verify that every indecomposable projective
    lies in add M; a violation is a hard error."""
    if m.is_zero():
        raise GeneratorError("the zero module generates nothing")
    gen = Generator(m, declared_semi_resolving)
    for v in m.algebra.vertices:
        if not in_add(indecomposable_projective(m.algebra, v), gen):
            raise GeneratorError(
                f"projective at vertex {v!r} is not in add M; "
                "the generator cannot witness a resolving subcategory"
            )
    return gen


def in_add(m: Module, gen: Generator) -> bool:
    """Decide membership in add M exactly, by the trace criterion.

    m lies in add M exactly when id_m factors through a finite sum of
    copies of M, that is, when id_m lies in the span of the composites
    f o g with g in Hom(m, M) and f in Hom(M, m) (Auslander-Reiten-Smalo,
    Representation Theory of Artin Algebras, ch. II).  The composites of
    the two hom bases are formed vertex by vertex in one contraction each,
    stacked into one matrix with a column per pair (f, g), and id_m is
    tested against their span by a single solve.
    """
    if m.algebra != gen.module.algebra:
        raise AlgebraError("in_add needs a common algebra")
    if m.is_zero():
        return True
    into = hom_space(m, gen.module)
    if not into:
        return False
    out_of = hom_space(gen.module, m)
    if not out_of:
        return False
    p = m.algebra.p
    check_system_cells(
        "in_add table", sum(d * d for d in m.dims) * len(out_of) * len(into)
    )
    rows = []
    for v, d in enumerate(m.dims):
        if d == 0:
            continue
        f = np.stack([h.blocks[v].array for h in out_of])  # (J, d, M_v)
        g = np.stack([h.blocks[v].array for h in into])  # (I, M_v, d)
        # table[j, i] = f_j[v] @ g_i[v], flattened row-major to d * d rows
        table = np.einsum("jab,ibc->acji", f, g) % p
        rows.append(table.reshape(d * d, len(out_of) * len(into)))
    identity = np.concatenate([np.eye(d, dtype=np.int64).reshape(-1) for d in m.dims])
    return solve(Matrix(p, np.vstack(rows)), Matrix(p, identity[:, None])) is not None


def syzygy(m: Module, n: int) -> Module:
    """n-th kernel of iterated canonical projective covers (n = 0 gives m).

    This is the iterated-kernel reading of the n-th syzygy.  The other
    common reading (modules embedding into a length-n chain of
    projectives) agrees up to projective summands for cover kernels but is
    a different set condition; only the iterated-kernel version is
    implemented.
    """
    if n < 0:
        raise ValueError("syzygy index must be nonnegative")
    cur = m
    for _ in range(n):
        cur = projective_cover(cur).kernel
    return cur


def syzygy_closure(gen: Generator) -> tuple[Module, bool]:
    """The syzygy of M, and whether add M is closed under syzygies.

    add M is closed under syzygies when every A in add M has its cover
    kernel in add M, and that holds exactly when the cover kernel of M
    does.  Minimal projective covers are additive, so the cover kernel of
    a direct sum is the sum of the cover kernels, up to isomorphism.  If
    A + B = M^n then the syzygy of A is a summand of the syzygy of M taken
    n times, and add M is closed under summands; conversely A = M is in
    add M.  So the one membership test below decides the question for all
    of add M, with no search over its modules.
    """
    omega = syzygy(gen.module, 1)
    return omega, in_add(omega, gen)


@dataclass(frozen=True)
class XDimStep:
    cover: Module
    kernel: Module
    in_add: bool


@dataclass(frozen=True)
class XDimReport:
    """The resolution trace computing the dimension of a module relative
    to add M.

    value None means the cap was exceeded (a legitimate outcome standing
    for an infinite dimension, never an exception).  The computed value is
    exact whenever add M really is semi-resolving.
    """

    cap: int
    value: int | None
    steps: tuple[XDimStep, ...]

    @property
    def exceeded(self) -> bool:
        return self.value is None


def xdim(m: Module, gen: Generator, cap: int = DEFAULT_CAP) -> XDimReport:
    """Dimension of m relative to add M via projective-cover kernels.

    The trace runs m, K1 = ker(cover(m)), K2, ... and stops at the first
    kernel lying in add M.  For a semi-resolving add M this computes the
    true relative dimension; in general it is an upper bound.  Closure of
    add M under syzygies, decided by syzygy_closure, is necessary for it
    to be exact.
    """
    if in_add(m, gen):
        return XDimReport(cap, 0, ())
    steps: list[XDimStep] = []
    cur = m
    for t in range(1, cap + 1):
        cover = projective_cover(cur)
        k = cover.kernel
        member = in_add(k, gen)
        steps.append(XDimStep(cover.projective, k, member))
        if member:
            return XDimReport(cap, t, tuple(steps))
        cur = k
    return XDimReport(cap, None, tuple(steps))
