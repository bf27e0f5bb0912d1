"""Bounded homologically graded complexes over a module category.

Complexes are graded so the differential lowers degree: f_n maps the term
in degree n to the term in degree n - 1.  A disk on M at index i is the
complex with M in degrees i and i - 1 and the identity between them; a
stalk is M concentrated in one degree.  Complexes are normalized to
minimal support (zero terms trimmed at both ends) so structural equality
is meaningful.

Homology computations return explicit witnessing maps.  The
quasi-isomorphism test builds no homology: it checks that the mapping cone
is exact by comparing ranks of its differential, vertex by vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    AlgebraError,
    Module,
    ModuleMap,
    cokernel,
    direct_sum,
    factor_through_mono,
    image,
    kernel,
    projective_cover,
    solve_left_composition,
)
from .linalg import Matrix, hstack, rank

__all__ = [
    "Complex",
    "ChainMap",
    "ShortExactSequence",
    "ComplexError",
    "stalk",
    "disk",
    "cycles",
    "boundaries",
    "Homology",
    "homology",
    "is_quasi_iso",
    "kernel_of_chain_map",
    "Piece",
    "assemble_pieces",
    "ProjectiveEpi",
    "projective_epi",
]


class ComplexError(AlgebraError):
    pass


class Complex:
    """A bounded complex, normalized to minimal support."""

    __slots__ = ("algebra", "lo", "terms", "diffs")

    def __init__(self, algebra: Algebra, lo: int, terms, diffs) -> None:
        terms = list(terms)
        diffs = list(diffs)
        if len(diffs) != max(0, len(terms) - 1):
            raise ComplexError("need exactly one differential per adjacent pair")
        # trim zero terms at both ends
        while terms and terms[-1].is_zero():
            terms.pop()
            if diffs:
                diffs.pop()
        while terms and terms[0].is_zero():
            terms.pop(0)
            lo += 1
            if diffs:
                diffs.pop(0)
        for t in terms:
            if t.algebra != algebra:
                raise ComplexError("terms must live over the one algebra")
        for k, d in enumerate(diffs):
            # diffs[k]: term at degree lo+k+1 -> term at degree lo+k
            if d.source != terms[k + 1] or d.target != terms[k]:
                raise ComplexError(f"differential {k} has wrong endpoints")
        for k in range(len(diffs) - 1):
            if not diffs[k].compose(diffs[k + 1]).is_zero():
                raise ComplexError("differentials do not square to zero")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "lo", lo if terms else 0)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "diffs", tuple(diffs))

    def __setattr__(self, name, value):
        raise AttributeError("Complex is immutable")

    @classmethod
    def zero(cls, algebra: Algebra) -> "Complex":
        return cls(algebra, 0, (), ())

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> range:
        return range(self.lo, self.lo + len(self.terms))

    def term(self, n: int) -> Module:
        if n in self.support:
            return self.terms[n - self.lo]
        return Module.zero(self.algebra)

    def diff(self, n: int) -> ModuleMap:
        """The differential from degree n to degree n - 1."""
        k = n - self.lo - 1
        if 0 <= k < len(self.diffs):
            return self.diffs[k]
        return ModuleMap.zero(self.term(n), self.term(n - 1))

    def total_dim(self) -> int:
        return sum(t.total_dim for t in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.lo == other.lo
            and self.terms == other.terms
            and self.diffs == other.diffs
        )

    def __hash__(self):
        return hash((self.lo, self.terms))

    def __repr__(self):
        if self.is_zero():
            return "Complex(0)"
        dims = {n: self.term(n).dims for n in self.support}
        return f"Complex(lo={self.lo}, dims={dims})"


def stalk(m: Module, i: int) -> Complex:
    return Complex(m.algebra, i, (m,), ())


def disk(m: Module, i: int) -> Complex:
    """m in degrees i and i - 1 with the identity differential; acyclic."""
    if m.is_zero():
        return Complex.zero(m.algebra)
    return Complex(m.algebra, i - 1, (m, m), (ModuleMap.identity(m),))


class ChainMap:
    """A degreewise family of module maps with commuting squares."""

    __slots__ = ("source", "target", "lo", "parts")

    def __init__(self, source: Complex, target: Complex, components: dict[int, ModuleMap]):
        if source.algebra != target.algebra:
            raise ComplexError("chain map needs a common algebra")
        degrees = [n for n in components]
        for n in degrees:
            c = components[n]
            if c.source != source.term(n) or c.target != target.term(n):
                raise ComplexError(f"component at degree {n} has wrong endpoints")
        los = [c.lo for c in (source, target) if not c.is_zero()]
        his = [c.hi for c in (source, target) if not c.is_zero()]
        lo = min(los) if los else 0
        hi = max(his) if his else -1
        parts = []
        for n in range(lo, hi + 1):
            c = components.get(n)
            if c is None:
                c = ModuleMap.zero(source.term(n), target.term(n))
            parts.append(c)
        # commuting squares, including the boundary degrees
        for n in range(lo, hi + 2):
            cn = parts[n - lo] if lo <= n <= hi else ModuleMap.zero(
                source.term(n), target.term(n)
            )
            cn1 = parts[n - 1 - lo] if lo <= n - 1 <= hi else ModuleMap.zero(
                source.term(n - 1), target.term(n - 1)
            )
            lhs = target.diff(n).compose(cn)
            rhs = cn1.compose(source.diff(n))
            if lhs != rhs:
                raise ComplexError(f"square at degree {n} does not commute")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        return cls(c, c, {n: ModuleMap.identity(c.term(n)) for n in c.support})

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "ChainMap":
        return cls(source, target, {})

    def component(self, n: int) -> ModuleMap:
        k = n - self.lo
        if 0 <= k < len(self.parts):
            return self.parts[k]
        return ModuleMap.zero(self.source.term(n), self.target.term(n))

    def compose(self, inner: "ChainMap") -> "ChainMap":
        if inner.target != self.source:
            raise ComplexError("chain map composition endpoint mismatch")
        degrees = set(inner.source.support) | set(self.target.support)
        comps = {
            n: self.component(n).compose(inner.component(n)) for n in degrees
        }
        return ChainMap(inner.source, self.target, comps)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        degrees = set(self.source.support) | set(self.target.support)
        return all(self.component(n) == other.component(n) for n in degrees)

    def __hash__(self):
        return hash((self.source, self.target))

    def __repr__(self):
        return f"ChainMap(lo={self.lo}, degrees={len(self.parts)})"


@dataclass(frozen=True)
class ShortExactSequence:
    """Degreewise short exact sequence of complexes, validated on creation."""

    inclusion: ChainMap  # X -> Y
    projection: ChainMap  # Y -> Z

    def __post_init__(self):
        if self.inclusion.target != self.projection.source:
            raise ComplexError("short exact sequence middle terms differ")
        x, y, z = self.sub, self.middle, self.quotient
        degrees = set(x.support) | set(y.support) | set(z.support)
        for n in degrees:
            i_n = self.inclusion.component(n)
            p_n = self.projection.component(n)
            if not p_n.compose(i_n).is_zero():
                raise ComplexError(f"composite is nonzero at degree {n}")
            for v in range(len(y.algebra.vertices)):
                di = rank(i_n.blocks[v])
                dp = rank(p_n.blocks[v])
                if di != x.term(n).dims[v]:
                    raise ComplexError(f"inclusion not injective at degree {n}")
                if dp != z.term(n).dims[v]:
                    raise ComplexError(f"projection not surjective at degree {n}")
                if y.term(n).dims[v] != di + dp:
                    raise ComplexError(f"not exact at degree {n}")

    @property
    def sub(self) -> Complex:
        return self.inclusion.source

    @property
    def middle(self) -> Complex:
        return self.inclusion.target

    @property
    def quotient(self) -> Complex:
        return self.projection.target


def cycles(a: Complex, n: int) -> tuple[Module, ModuleMap]:
    """Kernel of the outgoing differential, with its inclusion."""
    return kernel(a.diff(n))


def boundaries(a: Complex, n: int) -> tuple[Module, ModuleMap]:
    """Image of the incoming differential, with its inclusion."""
    img, mono, _ = image(a.diff(n + 1))
    return img, mono


@dataclass(frozen=True)
class Homology:
    module: Module
    cycle_incl: ModuleMap  # cycles -> term
    quotient: ModuleMap  # cycles -> homology


def homology(a: Complex, n: int) -> Homology:
    """H_n = cycles / boundaries, with witnessing maps."""
    z, z_incl = cycles(a, n)
    b, b_incl = boundaries(a, n)
    j = factor_through_mono(b_incl, z_incl)
    h, proj = cokernel(j)
    return Homology(h, z_incl, proj)


def is_quasi_iso(phi: ChainMap) -> bool:
    """True iff the mapping cone of phi: A -> B is exact.

    The cone has C_n = A_(n-1) + B_n and d_n(a, b) = (-d_A a, phi a + d_B b),
    and phi is a quasi-isomorphism exactly when it is exact (Weibel, An
    Introduction to Homological Algebra, Cor. 1.5.4).  A complex of
    representations is exact when it is exact at every vertex, so the test
    is rank d_n + rank d_(n+1) = dim A_(n-1),v + dim B_n,v for every vertex
    v and degree n, with one block per vertex and degree assembled from the
    stored matrices.  The rank count decides exactness only when d squares
    to zero, that is, for a genuine chain map between genuine complexes;
    the checked Complex and ChainMap constructors guarantee both.
    """
    a, b = phi.source, phi.target
    degrees = [n + 1 for n in a.support] + list(b.support)
    if not degrees:
        return True
    p = a.algebra.p
    # the cone is supported in [lo, hi], so d_lo and d_(hi+1) vanish
    lo, hi = min(degrees), max(degrees)

    def dim(c: Complex, n: int, v: int) -> int:
        k = n - c.lo
        return c.terms[k].dims[v] if 0 <= k < len(c.terms) else 0

    def diff(c: Complex, n: int, v: int) -> np.ndarray | None:
        k = n - c.lo - 1
        return c.diffs[k].blocks[v].array if 0 <= k < len(c.diffs) else None

    for v in range(len(a.algebra.vertices)):
        ranks = {lo: 0, hi + 1: 0}
        for n in range(lo + 1, hi + 1):
            # d_n: A_(n-1) + B_n -> A_(n-2) + B_(n-1)
            ra, ca = dim(a, n - 2, v), dim(a, n - 1, v)
            block = np.zeros((ra + dim(b, n - 1, v), ca + dim(b, n, v)), dtype=np.int64)
            d_a = diff(a, n - 1, v)
            if d_a is not None:
                block[:ra, :ca] = -d_a
            k = n - 1 - phi.lo
            if 0 <= k < len(phi.parts):
                block[ra:, :ca] = phi.parts[k].blocks[v].array
            d_b = diff(b, n, v)
            if d_b is not None:
                block[ra:, ca:] = d_b
            ranks[n] = rank(Matrix(p, block))
        for n in range(lo, hi + 1):
            if ranks[n] + ranks[n + 1] != dim(a, n - 1, v) + dim(b, n, v):
                return False
    return True


def kernel_of_chain_map(phi: ChainMap) -> tuple[Complex, ChainMap]:
    """Degreewise kernel with induced differentials and its inclusion."""
    src = phi.source
    degrees = list(src.support)
    mods: dict[int, Module] = {}
    incls: dict[int, ModuleMap] = {}
    for n in degrees:
        k, incl = kernel(phi.component(n))
        mods[n] = k
        incls[n] = incl
    terms = []
    diffs = []
    for n in degrees:
        terms.append(mods[n])
    for idx in range(len(degrees) - 1):
        n = degrees[idx + 1]
        lower = degrees[idx]
        mapped = src.diff(n).compose(incls[n])
        d = factor_through_mono(mapped, incls[lower])
        diffs.append(d)
    if not degrees:
        k = Complex.zero(src.algebra)
        return k, ChainMap.zero(k, src)
    k = Complex(src.algebra, degrees[0], terms, diffs)
    comps = {n: incls[n] for n in k.support}
    return k, ChainMap(k, src, comps)


# ---------------------------------------------------------------------------
# Disk and stalk sums


@dataclass(frozen=True)
class Piece:
    """One building block of a split complex: a stalk or a disk."""

    kind: str  # "stalk" | "disk"
    module: Module
    degree: int

    def __post_init__(self):
        if self.kind not in ("stalk", "disk"):
            raise ComplexError(f"unknown piece kind {self.kind!r}")

    def complex(self) -> Complex:
        return stalk(self.module, self.degree) if self.kind == "stalk" else disk(
            self.module, self.degree
        )


def assemble_pieces(algebra: Algebra, pieces) -> Complex:
    """The direct sum of stalk and disk pieces, in the listed order.

    At each degree the term is the direct sum of the pieces' contributions
    (disk at i contributes its module at degrees i and i - 1), concatenated
    in piece order; differentials send each disk's top copy identically to
    its bottom copy.
    """
    pieces = list(pieces)
    live = [p for p in pieces if not p.module.is_zero()]
    if not live:
        return Complex.zero(algebra)
    lo = min(p.degree - (1 if p.kind == "disk" else 0) for p in live)
    hi = max(p.degree for p in live)
    contributions: dict[int, list[tuple[int, str]]] = {n: [] for n in range(lo, hi + 1)}
    for idx, p in enumerate(live):
        if p.kind == "stalk":
            contributions[p.degree].append((idx, "stalk"))
        else:
            contributions[p.degree].append((idx, "top"))
            contributions[p.degree - 1].append((idx, "bottom"))
    terms = []
    offsets: dict[int, dict[tuple[int, str], int]] = {}
    for n in range(lo, hi + 1):
        mods = [live[idx].module for idx, _ in contributions[n]]
        total, _, _ = direct_sum(algebra, mods)
        terms.append(total)
        offs = {}
        running = [0] * len(algebra.vertices)
        for (idx, role), m in zip(contributions[n], mods):
            offs[(idx, role)] = tuple(running)
            for v in range(len(algebra.vertices)):
                running[v] += m.dims[v]
        offsets[n] = offs
    diffs = []
    p_mod = algebra.p
    for n in range(lo + 1, hi + 1):
        src = terms[n - lo]
        tgt = terms[n - 1 - lo]
        blocks = []
        for v in range(len(algebra.vertices)):
            arr = np.zeros((tgt.dims[v], src.dims[v]), dtype=np.int64)
            for idx, role in contributions[n]:
                if role != "top":
                    continue
                if (idx, "bottom") not in offsets[n - 1]:
                    continue
                srow = offsets[n][(idx, "top")][v]
                trow = offsets[n - 1][(idx, "bottom")][v]
                d = live[idx].module.dims[v]
                arr[trow : trow + d, srow : srow + d] = np.eye(d, dtype=np.int64)
            blocks.append(Matrix(p_mod, arr))
        diffs.append(ModuleMap(src, tgt, blocks))
    return Complex(algebra, lo, terms, diffs)


@dataclass(frozen=True)
class ProjectiveEpi:
    """A degreewise-surjective map from a sum of disks on projective covers."""

    pieces: tuple[Piece, ...]
    cover: Complex
    epi: ChainMap
    kernel: Complex
    inclusion: ChainMap
    ses: ShortExactSequence


def projective_epi(a: Complex) -> ProjectiveEpi:
    """Cover a complex by a sum of disks, surjectively in every degree.

    The disk at index i already covers the boundaries one degree down, so
    the disk module at i only needs to cover the cokernel of the incoming
    boundary: it is the projective cover of A_i / B_i, with top map a lift
    of that cover through the quotient.  This keeps the kernel as small as
    possible; in particular a disk on a projective is covered isomorphically.
    """
    alg = a.algebra
    tops: dict[int, ModuleMap] = {}  # n -> t_n: Q_n -> A_n
    for n in a.support:
        term = a.term(n)
        if term.is_zero():
            continue
        b_mod, b_incl = boundaries(a, n)
        coker, proj = cokernel(b_incl)
        if coker.is_zero():
            continue
        cover = projective_cover(coker)
        lift = solve_left_composition(proj, cover.epi)
        if lift is None:
            raise ComplexError("cover lift failed (internal error)")
        tops[n] = lift
    pieces = tuple(Piece("disk", tops[n].source, n) for n in sorted(tops))
    total = assemble_pieces(alg, pieces)
    # epi components: at degree n the contributions, in piece order, are the
    # top of disk n (t_n) and the bottom of disk n+1 (f_{n+1} o t_{n+1}).
    comps: dict[int, ModuleMap] = {}
    for n in total.support:
        srcs = []
        if n in tops:
            srcs.append(("top", n))
        if n + 1 in tops:
            srcs.append(("bottom", n + 1))
        blocks = []
        for v in range(len(alg.vertices)):
            mats = []
            for role, i in srcs:
                if role == "top":
                    mats.append(tops[i].blocks[v])
                else:
                    mats.append(a.diff(i).compose(tops[i]).blocks[v])
            if mats:
                blocks.append(hstack(mats))
            else:
                blocks.append(Matrix.zeros(a.term(n).dims[v], 0, alg.p))
        comps[n] = ModuleMap(total.term(n), a.term(n), blocks)
    epi = ChainMap(total, a, comps)
    ker, incl = kernel_of_chain_map(epi)
    ses = ShortExactSequence(incl, epi)
    return ProjectiveEpi(pieces, total, epi, ker, incl, ses)
