"""Generation-level certificates for the bounded derived category.

A certificate is a finite tree.  A leaf asserts that its complex is
quasi-isomorphic to an explicit finite sum of stalks and disks whose
modules lie in add M; it has level 1 (level 0 for the zero complex).  A
branch records a degreewise short exact sequence X -> Y -> Z of complexes
together with a verified quasi-isomorphism linking the node's complex to
either the middle term or the quotient:

  * middle link: the triangle X -> Y -> Z builds Y from X and Z, so
    level(Y) <= level(X) + level(Z);
  * quotient link: rotating the same triangle builds Z from Y and a shift
    of X, and shifts are free, so level(Z) <= level(X) + level(Y).

Either way the node's level is the sum of its children's levels, with the
non-distinguished child kept at level <= 1.  The verifier re-derives
every claim from the stored matrices, testing each quasi-isomorphism by the
ranks of its mapping cone, and shares no state with the builders.

Two builders are provided.  The splitting builder peels cycles from
boundaries (level at most d + 2 when the cycle/boundary data has relative
dimension d).  The resolution builder resolves the whole complex by
columns whose cycles, boundaries and homology are all projective; such
columns decompose as sums of stalks and disks on projectives, and the
column count is governed by projective resolutions of the boundary and
homology modules, giving level at most d + 1.

Add-M membership (homological.in_add) is exact, so neither the builders
nor the verifier depend on a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraError,
    Module,
    ModuleMap,
    cokernel,
    direct_sum,
    factor_through_mono,
    image,
    projective_cover,
    solve_left_composition,
)
from .complexes import (
    ChainMap,
    Complex,
    ComplexError,
    Piece,
    ProjectiveEpi,
    ShortExactSequence,
    assemble_pieces,
    boundaries,
    cycles,
    is_quasi_iso,
    kernel_of_chain_map,
    projective_epi,
)
from .homological import (
    DEFAULT_CAP,
    Generator,
    in_add,
    xdim,
)
from .linalg import inverse

__all__ = [
    "WitnessError",
    "Leaf",
    "Branch",
    "ReductionStep",
    "reduction_step",
    "build_split_witness",
    "build_resolution_witness",
    "Verdict",
    "verify_certificate",
    "BoundLine",
    "derived_dim_bound",
]


class WitnessError(AlgebraError):
    """A witness construction could not establish its contract."""


# ---------------------------------------------------------------------------
# Certificate tree


@dataclass(frozen=True)
class Leaf:
    """subject is quasi-isomorphic to the assembly of the pieces."""

    subject: Complex
    pieces: tuple[Piece, ...]
    presentation: ChainMap  # subject -> assembled pieces
    level: int


@dataclass(frozen=True)
class Branch:
    """subject is quasi-isomorphic to one part of a short exact sequence.

    link maps the designated part (middle term or quotient, per link_kind)
    to the subject and must be a quasi-isomorphism.  sub covers the
    sequence's sub-object; rest covers the remaining part (the quotient
    for a middle link, the middle for a quotient link).
    """

    subject: Complex
    ses: ShortExactSequence
    link: ChainMap
    link_kind: str  # "middle" | "quotient"
    sub: "Leaf | Branch"
    rest: "Leaf | Branch"
    level: int

    def __post_init__(self):
        if self.link_kind not in ("middle", "quotient"):
            raise WitnessError(f"unknown link kind {self.link_kind!r}")


Node = Leaf | Branch


def _leaf(subject: Complex, pieces, presentation: ChainMap, gen: Generator) -> Leaf:
    pieces = tuple(pieces)
    for p in pieces:
        if not in_add(p.module, gen):
            raise WitnessError(
                f"leaf piece at degree {p.degree} is not in add M "
                f"(dims {p.module.dims})"
            )
    level = 0 if presentation.target.is_zero() else 1
    return Leaf(subject, pieces, presentation, level)


def _zero_leaf(subject: Complex, gen: Generator) -> Leaf:
    target = Complex.zero(subject.algebra)
    return _leaf(subject, (), ChainMap.zero(subject, target), gen)


# ---------------------------------------------------------------------------
# One reduction step (the projective-epi triangle)


@dataclass(frozen=True)
class CycleBound:
    degree: int
    kind: str  # "cycles" | "boundaries"
    value: int | None


@dataclass(frozen=True)
class ReductionStep:
    epi_data: ProjectiveEpi
    output_bounds: tuple[CycleBound, ...]

    @property
    def kernel(self) -> Complex:
        return self.epi_data.kernel


def _cycle_boundary_bounds(a: Complex, gen: Generator, cap: int):
    out = []
    for n in a.support:
        z, _ = cycles(a, n)
        b, _ = boundaries(a, n)
        out.append(CycleBound(n, "cycles", xdim(z, gen, cap).value))
        out.append(CycleBound(n, "boundaries", xdim(b, gen, cap).value))
    return tuple(out)


def _bounds_at_most(a: Complex, gen: Generator, d: int, cap: int) -> None:
    """Raise unless every cycle and boundary bound of a is <= d."""
    for cb in _cycle_boundary_bounds(a, gen, cap):
        if cb.value is None or cb.value > d:
            raise WitnessError(
                f"{cb.kind} at degree {cb.degree} have relative dimension "
                f"{'beyond the cap' if cb.value is None else cb.value}, not <= {d}"
            )


def reduction_step(
    a: Complex, gen: Generator, d: int, cap: int = DEFAULT_CAP
) -> ReductionStep:
    """Cover a by a sum of disks and verify the kernel's data drops below d.

    Requires every cycle and boundary module of a to have relative
    dimension at most d (checked).  The postcondition, that the kernel's
    cycles and boundaries all have relative dimension at most d - 1, is
    guaranteed when d bounds the relative dimension of every module of the
    category and add M is semi-resolving; a failure is surfaced with the
    offending degree and refutes one of those assumptions.
    """
    if d < 1:
        raise WitnessError("reduction step needs d >= 1")
    _bounds_at_most(a, gen, d, cap)
    pe = projective_epi(a)
    outputs = _cycle_boundary_bounds(pe.kernel, gen, cap)
    for cb in outputs:
        if cb.value is None or cb.value > d - 1:
            raise WitnessError(
                f"reduction failed to decrease: kernel {cb.kind} at degree "
                f"{cb.degree} have relative dimension "
                f"{'beyond the cap' if cb.value is None else cb.value}, not <= {d - 1}; "
                "either add M is not semi-resolving or d does not bound the "
                "relative dimension of every module"
            )
    return ReductionStep(pe, outputs)


# ---------------------------------------------------------------------------
# Splitting builder: level <= d + 2


def _cycle_boundary_split(a: Complex, gen: Generator) -> Branch:
    """The base split 0 -> (cycles, 0) -> a -> (boundaries, 0) -> 0."""
    alg = a.algebra
    z_data = {n: cycles(a, n) for n in a.support}
    img_data = {n: image(a.diff(n)) for n in a.support}
    k_pieces = [
        Piece("stalk", z_data[n][0], n) for n in a.support if not z_data[n][0].is_zero()
    ]
    k_complex = assemble_pieces(alg, k_pieces)
    i_pieces = [
        Piece("stalk", img_data[n][0], n)
        for n in a.support
        if not img_data[n][0].is_zero()
    ]
    i_complex = assemble_pieces(alg, i_pieces)
    incl = ChainMap(
        k_complex, a, {n: z_data[n][1] for n in k_complex.support}
    )
    proj = ChainMap(
        a, i_complex, {n: img_data[n][2] for n in i_complex.support}
    )
    ses = ShortExactSequence(incl, proj)
    k_leaf = _leaf(k_complex, k_pieces, ChainMap.identity(k_complex), gen)
    i_leaf = _leaf(i_complex, i_pieces, ChainMap.identity(i_complex), gen)
    return Branch(
        a,
        ses,
        ChainMap.identity(a),
        "middle",
        k_leaf,
        i_leaf,
        k_leaf.level + i_leaf.level,
    )


def build_split_witness(
    a: Complex, gen: Generator, cap: int = DEFAULT_CAP
) -> Node:
    """Certify membership in at most d + 2 layers, d the largest relative
    dimension among the cycle and boundary modules of the complex.

    The base case (d = 0) splits the complex into its cycle and boundary
    stalk sums; each deeper level peels off one projective-epi triangle and
    recurses on the kernel with d - 1.
    """
    if a.is_zero():
        return _zero_leaf(a, gen)
    bounds = _cycle_boundary_bounds(a, gen, cap)
    if any(cb.value is None for cb in bounds):
        raise WitnessError(
            "a cycle or boundary module has relative dimension beyond the cap"
        )
    d = max(cb.value for cb in bounds)

    def step_or_explain(c: Complex, depth: int) -> ReductionStep:
        try:
            return reduction_step(c, gen, depth, cap)
        except WitnessError as exc:
            # the one-step decrease is only guaranteed when the depth
            # parameter bounds the relative dimension of every module, which
            # the per-complex depth here need not do; the resolution route
            # does not have this limit.
            raise WitnessError(
                f"{exc}; the split route guarantees its decrease only when "
                "the depth bounds every module's relative dimension, and for "
                "dimension data >= 2 the resolution route (level d + 1) is "
                "the reliable builder"
            ) from exc

    def build(c: Complex, depth: int) -> Node:
        if c.is_zero():
            return _zero_leaf(c, gen)
        if depth == 0:
            if all(c.diff(n).is_zero() for n in c.support):
                # already a sum of stalks: one layer, no triangle needed
                pieces = [
                    Piece("stalk", c.term(n), n)
                    for n in c.support
                    if not c.term(n).is_zero()
                ]
                return _leaf(c, pieces, ChainMap.identity(c), gen)
            return _cycle_boundary_split(c, gen)
        step = step_or_explain(c, depth)
        sub = build(step.kernel, depth - 1)
        pd = step.epi_data
        rest = _leaf(pd.cover, pd.pieces, ChainMap.identity(pd.cover), gen)
        return Branch(
            c,
            pd.ses,
            ChainMap.identity(c),
            "quotient",
            sub,
            rest,
            sub.level + rest.level,
        )

    node = build(a, d)
    if node.level > d + 2:
        raise WitnessError(
            f"split witness exceeded level bound: {node.level} > {d + 2}"
        )
    return node


# ---------------------------------------------------------------------------
# Resolution builder: level <= d + 1 (d >= 2)


@dataclass(frozen=True)
class Resolution:
    """A finite projective resolution R_L -> ... -> R_0 -> subject -> 0."""

    subject: Module
    modules: tuple[Module, ...]
    diffs: tuple[ModuleMap, ...]  # diffs[j]: modules[j+1] -> modules[j]
    aug: ModuleMap  # modules[0] -> subject

    @property
    def length(self) -> int:
        last = -1
        for j, m in enumerate(self.modules):
            if not m.is_zero():
                last = j
        return last


def projective_resolution(m: Module, cap: int) -> Resolution:
    """Minimal projective resolution via iterated covers; fails past cap."""
    mods = []
    diffs = []
    aug = None
    cur = m
    for step in range(cap + 2):
        cover = projective_cover(cur)
        mods.append(cover.projective)
        if aug is None:
            aug = cover.epi
        else:
            diffs.append(prev_incl.compose(cover.epi))
        if cover.kernel.is_zero():
            return Resolution(m, tuple(mods), tuple(diffs), aug)
        prev_incl = cover.inclusion
        cur = cover.kernel
    raise WitnessError(
        f"projective resolution exceeds cap {cap}; projective dimension too large"
    )


def _pad_resolution(res: Resolution, length: int) -> Resolution:
    """Extend with zero modules so there are length + 1 levels."""
    alg = res.subject.algebra
    mods = list(res.modules)
    diffs = list(res.diffs)
    while len(mods) < length + 1:
        z = Module.zero(alg)
        diffs.append(ModuleMap.zero(z, mods[-1]))
        mods.append(z)
    return Resolution(res.subject, tuple(mods), tuple(diffs), res.aug)


def horseshoe(
    mono: ModuleMap, epi: ModuleMap, left: Resolution, right: Resolution
) -> Resolution:
    """Resolve Y from resolutions of the ends of 0 -> X -> Y -> Q -> 0.

    Level j is X_j + Q_j; the differential is upper block triangular with a
    correction column solved level by level through the left resolution,
    and the augmentation pairs the included left augmentation with a
    projective lift of the right one.  Exactness of the result is asserted
    by rank bookkeeping.
    """
    alg = mono.source.algebra
    # physical level count: trailing zero levels are kept so that pre-padded
    # inputs stay aligned across degrees
    length = max(len(left.modules), len(right.modules), 1) - 1
    left = _pad_resolution(left, length)
    right = _pad_resolution(right, length)
    subject = mono.target
    sums = []
    injections = []
    projections = []
    for j in range(length + 1):
        total, injs, projs = direct_sum(alg, [left.modules[j], right.modules[j]])
        sums.append(total)
        injections.append(injs)
        projections.append(projs)
    sigma = solve_left_composition(epi, right.aug)
    if sigma is None:
        raise WitnessError("projective lift through the quotient failed")
    aug = mono.compose(left.aug).compose(projections[0][0]) + sigma.compose(
        projections[0][1]
    )
    corrections: list[ModuleMap] = []
    diffs = []
    for j in range(1, length + 1):
        if j == 1:
            c = sigma.compose(right.diffs[0])
            g = factor_through_mono(c, mono)
            s = solve_left_composition(left.aug, -g)
        else:
            c = corrections[-1].compose(right.diffs[j - 1])
            s = solve_left_composition(left.diffs[j - 2], -c)
        if s is None:
            raise WitnessError("horseshoe correction failed to solve")
        corrections.append(s)
        d = (
            injections[j - 1][0]
            .compose(left.diffs[j - 1])
            .compose(projections[j][0])
            + injections[j - 1][0].compose(s).compose(projections[j][1])
            + injections[j - 1][1]
            .compose(right.diffs[j - 1])
            .compose(projections[j][1])
        )
        diffs.append(d)
    res = Resolution(subject, tuple(sums), tuple(diffs), aug)
    _assert_resolution_exact(res)
    return res


def _assert_resolution_exact(res: Resolution) -> None:
    from .linalg import rank as _rank

    maps = [res.aug] + list(res.diffs)
    for j in range(1, len(maps)):
        if not maps[j - 1].compose(maps[j]).is_zero():
            raise WitnessError("resolution does not compose to zero")
    nvert = len(res.subject.algebra.vertices)
    for v in range(nvert):
        if _rank(res.aug.blocks[v]) != res.subject.dims[v]:
            raise WitnessError("resolution augmentation is not surjective")
        for j in range(1, len(maps)):
            dom = res.modules[j - 1].dims[v]
            ker_dim = dom - _rank(maps[j - 1].blocks[v])
            if ker_dim != _rank(maps[j].blocks[v]):
                raise WitnessError("resolution is not exact")
        if _rank(maps[-1].blocks[v]) != res.modules[-1].dims[v]:
            raise WitnessError("resolution top has a kernel")


@dataclass(frozen=True)
class _ColumnData:
    """Per-degree resolution data for a complex.

    For each degree n, the boundary and homology modules get projective
    resolutions; the cycle resolution is the horseshoe of those, and the
    term resolution the horseshoe of the cycle resolution with the next
    boundary resolution down.  All rows share one length.
    """

    length: int
    res_b: dict[int, Resolution]
    res_h: dict[int, Resolution]
    rows: dict[int, Resolution]


def _column_data(a: Complex, cap: int) -> _ColumnData:
    z_data = {n: cycles(a, n) for n in a.support}
    img_data = {n: image(a.diff(n)) for n in a.support}
    res_b: dict[int, Resolution] = {}
    res_h: dict[int, Resolution] = {}
    h_data: dict[int, tuple[ModuleMap, ModuleMap]] = {}
    length = 0
    for n in a.support:
        b_mod, b_incl = boundaries(a, n)
        z, z_incl = z_data[n]
        j = factor_through_mono(b_incl, z_incl)
        h, h_proj = cokernel(j)
        res_b[n] = projective_resolution(b_mod, cap)
        res_h[n] = projective_resolution(h, cap)
        h_data[n] = (j, h_proj)
        length = max(length, res_b[n].length, res_h[n].length)
    for n in a.support:
        res_b[n] = _pad_resolution(res_b[n], length)
        res_h[n] = _pad_resolution(res_h[n], length)
    rows: dict[int, Resolution] = {}
    for n in a.support:
        _, z_incl = z_data[n]
        j, h_proj = h_data[n]
        z_shoe = horseshoe(j, h_proj, res_b[n], res_h[n])
        if (n - 1) in res_b:
            right = res_b[n - 1]
        else:
            right = _pad_resolution(
                projective_resolution(Module.zero(a.algebra), cap), length
            )
        img, _, epi = img_data[n]
        # the boundary resolution one degree down must resolve the same image
        # module; sharing it is what makes columns commute with rows.
        if right.subject != img:
            raise WitnessError("boundary bookkeeping mismatch (internal error)")
        rows[n] = horseshoe(z_incl, epi, z_shoe, right)
    return _ColumnData(length, res_b, res_h, rows)


def _column_complex(a: Complex, data: _ColumnData, j: int) -> tuple[Complex, tuple[Piece, ...]]:
    """Assemble column j as a sum of disks and stalks.

    At degree n the term is [V_n | U_n | V_{n-1}] with V the boundary and U
    the homology resolutions; pieces are listed top degree first so the
    assembled coordinates match the row horseshoe's nested sums.
    """
    pieces: list[Piece] = []
    for n in sorted(a.support, reverse=True):
        v_mod = data.res_b[n].modules[j]
        if not v_mod.is_zero():
            pieces.append(Piece("disk", v_mod, n + 1))
        u_mod = data.res_h[n].modules[j]
        if not u_mod.is_zero():
            pieces.append(Piece("stalk", u_mod, n))
    col = assemble_pieces(a.algebra, pieces)
    return col, tuple(pieces)


def _chain_factor_through_mono(f: ChainMap, incl: ChainMap) -> ChainMap:
    comps = {}
    for n in set(f.source.support) | set(incl.source.support):
        comps[n] = factor_through_mono(f.component(n), incl.component(n))
    return ChainMap(f.source, incl.source, comps)


def _invert_chain_iso(f: ChainMap) -> ChainMap:
    comps = {}
    for n in set(f.source.support) | set(f.target.support):
        blocks = []
        for b in f.component(n).blocks:
            ib = inverse(b)
            if ib is None:
                raise WitnessError("expected a degreewise isomorphism")
            blocks.append(ib)
        comps[n] = ModuleMap(f.target.term(n), f.source.term(n), blocks)
    return ChainMap(f.target, f.source, comps)


def build_resolution_witness(
    a: Complex, gen: Generator, d: int, cap: int = DEFAULT_CAP
) -> Node:
    """Certify membership in at most d + 1 layers, for d >= 2.

    The complex is resolved by an exact sequence of split columns: for each
    degree, compatible projective resolutions of the boundary and homology
    modules are combined into resolutions of the cycles and of the term, and
    the level-j pieces across all degrees form a column complex whose
    cycles, boundaries, homology and terms are all projective.  Each column
    is literally a sum of stalks and disks on projectives, hence one
    certificate layer; the iterated kernels of the column maps give the
    triangle tower.  The tower height is the maximum projective resolution
    length, which must not exceed d.
    """
    if d < 2:
        raise WitnessError(
            "the resolution witness requires d >= 2; use the splitting builder"
        )
    if a.is_zero():
        return _zero_leaf(a, gen)
    _bounds_at_most(a, gen, d, cap)
    data = _column_data(a, cap)
    length = data.length
    if length > d:
        raise WitnessError(
            f"projective data needs {length} resolution steps, more than d = {d}; "
            "the level bound d + 1 is out of reach on this input"
        )
    columns = []
    all_pieces = []
    for j in range(length + 1):
        col, pieces = _column_complex(a, data, j)
        columns.append(col)
        all_pieces.append(pieces)
    # row maps between columns and the augmentation onto the complex
    aug = ChainMap(
        columns[0], a, {n: data.rows[n].aug for n in a.support}
    )
    rhos = []
    for j in range(1, length + 1):
        rho = ChainMap(
            columns[j],
            columns[j - 1],
            {n: data.rows[n].diffs[j - 1] for n in a.support},
        )
        rhos.append(rho)

    # deepest kernel first: K_j = ker(eps_{j-1}), eps_j = rho_j corestricted
    eps = aug
    towers: list[tuple[Complex, ChainMap, ChainMap]] = []  # (K_j, incl, eps_j)
    for j in range(1, length + 1):
        k, incl = kernel_of_chain_map(eps)
        eps_j = _chain_factor_through_mono(rhos[j - 1], incl)
        towers.append((k, incl, eps_j))
        eps = eps_j

    if not towers:
        # length 0: the augmentation itself is an isomorphism of complexes
        pres = _invert_chain_iso(aug)
        return _leaf(a, all_pieces[0], pres, gen)

    k_last, _, eps_last = towers[-1]
    pres = _invert_chain_iso(eps_last)
    node: Node = _leaf(k_last, all_pieces[-1], pres, gen)
    for j in range(length, 0, -1):
        k_j, incl_j, _ = towers[j - 1]
        quotient = a if j == 1 else towers[j - 2][0]
        proj = aug if j == 1 else towers[j - 2][2]
        ses = ShortExactSequence(incl_j, proj)
        col_leaf = _leaf(
            columns[j - 1],
            all_pieces[j - 1],
            ChainMap.identity(columns[j - 1]),
            gen,
        )
        node = Branch(
            quotient,
            ses,
            ChainMap.identity(quotient),
            "quotient",
            node,
            col_leaf,
            node.level + col_leaf.level,
        )
    if node.level > d + 1:
        raise WitnessError(
            f"resolution witness exceeded level bound: {node.level} > {d + 1}"
        )
    return node


# ---------------------------------------------------------------------------
# Verifier


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    path: str | None = None
    reason: str | None = None


def _reject(path: str, reason: str) -> Verdict:
    return Verdict(False, path, reason)


def verify_certificate(node: Node, gen: Generator, seed: int = 0) -> Verdict:
    """Re-derive every claim in the certificate from its stored matrices.

    Quasi-isomorphisms are tested by the ranks of their mapping cones
    (complexes.is_quasi_iso).  Leaves: the piece assembly is rebuilt from
    scratch and must equal the presentation's target, the presentation must
    be a quasi-isomorphism and every piece module must lie in add M; each
    distinct module is tested once per call, and a test too large to run
    (AlgebraError) rejects the leaf.  Branches: the short exact
    sequence revalidates degreewise, the link must be a quasi-isomorphism
    from the designated part onto the node's complex, the children must
    cover the right complexes, and the levels must add up with the
    non-distinguished child at level <= 1.  seed is unused; it stays for
    callers that pass a certificate's seed line.
    """

    members: dict[Module, bool] = {}  # in_add verdicts of this call only

    def walk(n: Node, path: str) -> Verdict:
        if isinstance(n, Leaf):
            return check_leaf(n, path)
        return check_branch(n, path)

    def check_leaf(leaf: Leaf, path: str) -> Verdict:
        rebuilt = assemble_pieces(leaf.subject.algebra, leaf.pieces)
        if rebuilt != leaf.presentation.target:
            return _reject(path, "leaf pieces do not assemble to the presentation target")
        if leaf.presentation.source != leaf.subject:
            return _reject(path, "leaf presentation does not start at the subject")
        if not is_quasi_iso(leaf.presentation):
            return _reject(path, "leaf presentation is not a quasi-isomorphism")
        for p in leaf.pieces:
            piece = f"leaf piece at degree {p.degree} (dims {p.module.dims})"
            if p.module not in members:
                try:
                    members[p.module] = in_add(p.module, gen)
                except AlgebraError as exc:
                    return _reject(path, f"{piece}: membership not decided: {exc}")
            if not members[p.module]:
                return _reject(path, f"{piece} is not in add M")
        expected = 0 if rebuilt.is_zero() else 1
        if leaf.level != expected:
            return _reject(path, f"leaf level {leaf.level} should be {expected}")
        return Verdict(True)

    def check_branch(br: Branch, path: str) -> Verdict:
        try:
            ShortExactSequence(br.ses.inclusion, br.ses.projection)
        except ComplexError as exc:
            return _reject(path, f"short exact sequence failed: {exc}")
        linked = br.ses.middle if br.link_kind == "middle" else br.ses.quotient
        if br.link.source != linked:
            return _reject(path, "link does not start at the designated part")
        if br.link.target != br.subject:
            return _reject(path, "link does not end at the subject")
        if not is_quasi_iso(br.link):
            return _reject(path, "link is not a quasi-isomorphism")
        if br.sub.subject != br.ses.sub:
            return _reject(path, "sub child does not cover the sub-object")
        rest_target = br.ses.quotient if br.link_kind == "middle" else br.ses.middle
        if br.rest.subject != rest_target:
            return _reject(path, "rest child does not cover the remaining part")
        if br.rest.level > 1:
            return _reject(path, "rest child claims level above 1")
        if br.level != br.sub.level + br.rest.level:
            return _reject(path, "level arithmetic does not add up")
        sub_verdict = walk(br.sub, path + ".sub")
        if not sub_verdict.accepted:
            return sub_verdict
        return walk(br.rest, path + ".rest")

    return walk(node, "root")


# ---------------------------------------------------------------------------
# Bound table


@dataclass(frozen=True)
class BoundLine:
    rule: str
    hypothesis: str
    value: int | None


def derived_dim_bound(d: int | None, mode: str = "plain") -> tuple[BoundLine, ...]:
    """Every applicable upper bound on the derived dimension, one line per
    statement; d is the relevant finite dimension datum, None stands for
    infinity (no applicable bound)."""
    if mode not in ("plain", "syzygy", "gorenstein"):
        raise ValueError(f"unknown mode {mode!r}")
    if d is None:
        return (BoundLine("no-bound", "dimension datum is infinite", None),)
    if d < 0:
        raise ValueError("dimension datum must be nonnegative")
    lines: list[BoundLine] = []
    if mode == "plain":
        lines.append(
            BoundLine(
                "rep-finite-resolving",
                f"rep-finite semi-resolving subcategory of relative global dimension {d}",
                d + 1,
            )
        )
        if d <= 1:
            lines.append(BoundLine("small-dim", f"relative global dimension {d} <= 1", d + 1))
        else:
            lines.append(BoundLine("large-dim", f"relative global dimension {d} >= 2", d))
    elif mode == "syzygy":
        lines.append(
            BoundLine(
                "syzygy-rep-finite",
                f"rep-finite syzygy subcategory at depth {d}",
                d + 1,
            )
        )
        if d <= 1:
            lines.append(BoundLine("syzygy-small", f"syzygy depth {d} <= 1", d + 1))
        else:
            lines.append(BoundLine("syzygy-large", f"syzygy depth {d} >= 2", d))
    else:
        lines.append(
            BoundLine(
                "gorenstein-cm-finite",
                f"{d}-Gorenstein algebra of finite CM type",
                max(2, d),
            )
        )
        if d <= 1:
            lines.append(BoundLine("small-dim", f"relative global dimension {d} <= 1", d + 1))
        else:
            lines.append(BoundLine("large-dim", f"relative global dimension {d} >= 2", d))
    return tuple(lines)
