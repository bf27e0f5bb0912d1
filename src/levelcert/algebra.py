"""Presented path algebras over F_p and their finite-dimensional modules.

A presentation is a quiver (vertices and arrows) together with relations,
each a linear combination of parallel paths of length >= 2, plus a path
length cap witnessing finite-dimensionality: loading fails unless every
path of that length falls into the relation ideal.

Conventions, fixed once:
  * paths compose left to right: the path (a, b) means "first a, then b";
  * modules are representations with the column-vector convention, so the
    action of an arrow a: v -> w is a matrix mapping coordinates at v to
    coordinates at w, and a path (a, b) acts as action(b) @ action(a);
  * relations must be length-homogeneous (all paths in one relation have
    equal length).  This keeps the relation ideal graded by path length, so
    the basis can be computed by plain linear algebra on the span of paths
    of each length, with no rewriting machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, block_diag, check_modulus, hstack, kernel_basis, rank, rref, solve

__all__ = [
    "Arrow",
    "RelationTerm",
    "Relation",
    "Presentation",
    "Path",
    "Algebra",
    "AlgebraError",
    "load_algebra",
    "Module",
    "ModuleMap",
    "hom_space",
    "kernel",
    "cokernel",
    "image",
    "direct_sum",
    "indecomposable_projective",
    "projective_generator",
    "projective_cover",
    "Cover",
    "path_action",
    "is_projective",
    "simple_module",
    "solve_left_composition",
    "factor_through_mono",
    "MAX_SYSTEM_CELLS",
    "check_system_cells",
]

MAX_PATHS = 200_000

# The most cells a linear system or composition table may have; checked
# before it is allocated.  The largest one the fixtures, the test suite and
# the benchmark workloads build has 7140 cells.
MAX_SYSTEM_CELLS = 1 << 20


class AlgebraError(ValueError):
    """Raised for malformed presentations or failed finiteness checks."""


def check_system_cells(what: str, cells: int) -> None:
    """Refuse to allocate a system of more than MAX_SYSTEM_CELLS cells."""
    if cells > MAX_SYSTEM_CELLS:
        raise AlgebraError(f"{what} of {cells} cells exceeds the limit {MAX_SYSTEM_CELLS}")


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class RelationTerm:
    coeff: int
    path: tuple[str, ...]  # arrow names, applied left to right


@dataclass(frozen=True)
class Relation:
    terms: tuple[RelationTerm, ...]


@dataclass(frozen=True)
class Presentation:
    p: int
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    cap: int


@dataclass(frozen=True)
class Path:
    """A reduced basis path; arrows holds indices into Algebra.arrows."""

    source: str
    target: str
    arrows: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)


class Algebra:
    """A loaded path algebra with explicit basis and multiplication table."""

    def __init__(self, presentation, basis, mult):
        self.presentation = presentation
        self.p = presentation.p
        self.vertices = presentation.vertices
        self.arrows = presentation.arrows
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.basis: tuple[Path, ...] = basis
        # mult[(i, j)] = tuple of (basis index, coeff) for basis[i] * basis[j]
        self.mult: dict[tuple[int, int], tuple[tuple[int, int], ...]] = mult
        self.zero_module: Module | None = None  # built by Module.zero

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_from(self, v: str) -> list[int]:
        return [i for i, b in enumerate(self.basis) if b.source == v]

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.presentation == other.presentation

    def __hash__(self):
        return hash(self.presentation)

    def __repr__(self):
        return f"Algebra(p={self.p}, dim={self.dim}, vertices={len(self.vertices)})"


def _validate_presentation(pres: Presentation) -> None:
    try:
        check_modulus(pres.p)
    except ValueError as exc:
        raise AlgebraError(str(exc)) from exc
    if len(set(pres.vertices)) != len(pres.vertices):
        raise AlgebraError("duplicate vertex names")
    if not pres.vertices:
        raise AlgebraError("presentation needs at least one vertex")
    names = [a.name for a in pres.arrows]
    if len(set(names)) != len(names):
        raise AlgebraError("duplicate arrow names")
    if set(names) & set(pres.vertices):
        raise AlgebraError("arrow names must differ from vertex names")
    for a in pres.arrows:
        if a.source not in pres.vertices or a.target not in pres.vertices:
            raise AlgebraError(f"arrow {a.name!r} references an unknown vertex")
    if pres.cap < 1:
        raise AlgebraError("path_length_cap must be positive")
    by_name = {a.name: a for a in pres.arrows}
    for rel in pres.relations:
        if not rel.terms:
            raise AlgebraError("empty relation")
        endpoints = set()
        lengths = set()
        for term in rel.terms:
            if not (0 < term.coeff < pres.p):
                raise AlgebraError(f"relation coefficient {term.coeff} out of range")
            if len(term.path) < 2:
                raise AlgebraError("relation paths must have length >= 2")
            for name in term.path:
                if name not in by_name:
                    raise AlgebraError(f"relation references unknown arrow {name!r}")
            for x, y in zip(term.path, term.path[1:]):
                if by_name[x].target != by_name[y].source:
                    raise AlgebraError(
                        f"relation path {term.path} does not compose at {x!r} -> {y!r}"
                    )
            endpoints.add((by_name[term.path[0]].source, by_name[term.path[-1]].target))
            lengths.add(len(term.path))
        if len(endpoints) != 1:
            raise AlgebraError("all paths in a relation must be parallel")
        if len(lengths) != 1:
            raise AlgebraError(
                "relations must be length-homogeneous (all paths of equal length)"
            )


def load_algebra(pres: Presentation) -> Algebra:
    """Compute the path basis and multiplication table of kQ/I.

    Paths are enumerated degree by degree up to the cap.  At each length the
    span of the relation ideal is computed inside the space of paths of that
    length; the rref pivot columns are the reducible paths, the free columns
    the surviving basis paths, and the rref rows give the normal form of
    every reducible path.  The load fails unless every path of length cap
    reduces to zero, which is exactly the finite-dimensionality witness.
    """
    _validate_presentation(pres)
    arrows_by_source: dict[str, list[int]] = {v: [] for v in pres.vertices}
    for i, a in enumerate(pres.arrows):
        arrows_by_source[a.source].append(i)

    # paths_by_len[l] = list of (source, target, arrow index tuple)
    paths_by_len: list[list[tuple[str, str, tuple[int, ...]]]] = [
        [(v, v, ()) for v in pres.vertices]
    ]
    total = len(pres.vertices)
    for length in range(1, pres.cap + 1):
        nxt = []
        for src, tgt, arr in paths_by_len[length - 1]:
            for i in arrows_by_source[tgt]:
                nxt.append((src, pres.arrows[i].target, arr + (i,)))
        total += len(nxt)
        if total > MAX_PATHS:
            raise AlgebraError("path enumeration exploded; is the cap too large?")
        paths_by_len.append(nxt)

    index_by_len = [
        {path[2]: k for k, path in enumerate(level)} for level in paths_by_len
    ]
    arrow_idx = {a.name: i for i, a in enumerate(pres.arrows)}

    # nf_tables[l]: for each path of length l, its normal form as a dict
    # {position within surviving basis of length l: coeff}; None marks a
    # basis path (normal form is itself).
    nf_tables: list[dict[tuple[int, ...], dict[int, int] | None]] = []
    basis_by_len: list[list[tuple[str, str, tuple[int, ...]]]] = []

    for length in range(0, pres.cap + 1):
        level = paths_by_len[length]
        n = len(level)
        ideal_rows = []
        for rel in pres.relations:
            rel_len = len(rel.terms[0].path)
            if rel_len > length:
                continue
            first = rel.terms[0]
            rel_src = pres.arrows[arrow_idx[first.path[0]]].source
            rel_tgt = pres.arrows[arrow_idx[first.path[-1]]].target
            for s in range(0, length - rel_len + 1):
                t = length - rel_len - s
                for usrc, utgt, uarr in paths_by_len[s]:
                    if utgt != rel_src:
                        continue
                    for vsrc, vtgt, varr in paths_by_len[t]:
                        if vsrc != rel_tgt:
                            continue
                        row = np.zeros(n, dtype=np.int64)
                        for term in rel.terms:
                            full = uarr + tuple(arrow_idx[x] for x in term.path) + varr
                            row[index_by_len[length][full]] += term.coeff
                        ideal_rows.append(row % pres.p)
        if ideal_rows:
            res = rref(Matrix(pres.p, np.array(ideal_rows, dtype=np.int64)))
            red = res.reduced.array
            pivots = list(res.pivots)
        else:
            red = np.zeros((0, n), dtype=np.int64)
            pivots = []
        pivot_set = set(pivots)
        free = [k for k in range(n) if k not in pivot_set]
        if length == pres.cap:
            if free:
                bad = level[free[0]]
                names = ".".join(pres.arrows[i].name for i in bad[2])
                raise AlgebraError(
                    f"not finite-dimensional under cap {pres.cap}: "
                    f"path {names} does not reduce to 0"
                )
            break
        free_pos = {k: idx for idx, k in enumerate(free)}
        table: dict[tuple[int, ...], dict[int, int] | None] = {}
        for idx, k in enumerate(free):
            table[level[k][2]] = None
        for i, c in enumerate(pivots):
            nf = {}
            for k in free:
                coeff = int((-red[i, k]) % pres.p)
                if coeff:
                    nf[free_pos[k]] = coeff
            table[level[c][2]] = nf
        nf_tables.append(table)
        basis_by_len.append([level[k] for k in free])

    basis: list[Path] = []
    basis_pos_by_len: list[dict[tuple[int, ...], int]] = []
    for length, level in enumerate(basis_by_len):
        pos = {}
        for src, tgt, arr in level:
            pos[arr] = len(basis)
            basis.append(Path(src, tgt, arr))
        basis_pos_by_len.append(pos)

    def normal_form(arr: tuple[int, ...]) -> dict[int, int]:
        """Normal form of a composable arrow sequence, as {basis idx: coeff}."""
        length = len(arr)
        if length >= pres.cap:
            return {}
        nf = nf_tables[length][arr]
        if nf is None:
            return {basis_pos_by_len[length][arr]: 1}
        out = {}
        for pos, coeff in nf.items():
            key = basis_by_len[length][pos][2]
            out[basis_pos_by_len[length][key]] = coeff
        return out

    mult: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            if b1.target != b2.source:
                continue
            combo = normal_form(b1.arrows + b2.arrows)
            if combo:
                mult[(i, j)] = tuple(sorted(combo.items()))

    return Algebra(pres, tuple(basis), mult)


# ---------------------------------------------------------------------------
# Modules and module maps


class Module:
    """A finite-dimensional representation of a loaded algebra."""

    __slots__ = ("algebra", "dims", "actions")

    def __init__(self, algebra: Algebra, dims, actions) -> None:
        dims = tuple(int(d) for d in dims)
        actions = tuple(actions)
        if len(dims) != len(algebra.vertices):
            raise AlgebraError("dimension vector length mismatch")
        if any(d < 0 for d in dims):
            raise AlgebraError("negative dimension")
        if len(actions) != len(algebra.arrows):
            raise AlgebraError("one action matrix per arrow required")
        for a, m in zip(algebra.arrows, actions):
            si = algebra.vertex_index[a.source]
            ti = algebra.vertex_index[a.target]
            if m.p != algebra.p or (m.rows, m.cols) != (dims[ti], dims[si]):
                raise AlgebraError(
                    f"action of {a.name!r} must be {dims[ti]}x{dims[si]} over F_{algebra.p}"
                )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "actions", actions)
        self._check_relations()

    def __setattr__(self, name, value):
        raise AttributeError("Module is immutable")

    def _check_relations(self):
        alg = self.algebra
        for rel in alg.presentation.relations:
            acc = None
            for term in rel.terms:
                arr = tuple(alg.arrow_index[x] for x in term.path)
                m = path_action(self, arr).scale(term.coeff)
                acc = m if acc is None else acc + m
            if acc is not None and not acc.is_zero():
                raise AlgebraError("module violates a relation")

    @classmethod
    def zero(cls, algebra: Algebra) -> "Module":
        """The zero module, built once per algebra."""
        if algebra.zero_module is None:
            actions = [Matrix.zeros(0, 0, algebra.p) for _ in algebra.arrows]
            algebra.zero_module = cls(algebra, [0] * len(algebra.vertices), actions)
        return algebra.zero_module

    def dim(self, v: str) -> int:
        return self.dims[self.algebra.vertex_index[v]]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def action(self, name: str) -> Matrix:
        return self.actions[self.algebra.arrow_index[name]]

    def __eq__(self, other):
        if not isinstance(other, Module):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.dims == other.dims
            and self.actions == other.actions
        )

    def __hash__(self):
        return hash((self.dims, self.actions))

    def __repr__(self):
        return f"Module(dims={self.dims})"


def path_action(module: Module, arrow_indices: tuple[int, ...]) -> Matrix:
    """Action of a composable arrow sequence, applied left to right."""
    if not arrow_indices:
        raise AlgebraError("path_action needs at least one arrow")
    m = module.actions[arrow_indices[0]]
    for i in arrow_indices[1:]:
        m = module.actions[i] @ m
    return m


def simple_module(algebra: Algebra, v: str) -> Module:
    dims = [1 if w == v else 0 for w in algebra.vertices]
    actions = []
    for a in algebra.arrows:
        si = algebra.vertex_index[a.source]
        ti = algebra.vertex_index[a.target]
        actions.append(Matrix.zeros(dims[ti], dims[si], algebra.p))
    return Module(algebra, dims, actions)


class ModuleMap:
    """An intertwining family of linear maps between two modules."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Module, target: Module, blocks) -> None:
        if source.algebra != target.algebra:
            raise AlgebraError("module maps need a common algebra")
        blocks = tuple(blocks)
        alg = source.algebra
        if len(blocks) != len(alg.vertices):
            raise AlgebraError("one block per vertex required")
        for i, b in enumerate(blocks):
            if (b.rows, b.cols) != (target.dims[i], source.dims[i]):
                raise AlgebraError(
                    f"block at vertex {alg.vertices[i]!r} has the wrong shape"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", blocks)
        for a in alg.arrows:
            si = alg.vertex_index[a.source]
            ti = alg.vertex_index[a.target]
            lhs = blocks[ti] @ source.action(a.name)
            rhs = target.action(a.name) @ blocks[si]
            if lhs != rhs:
                raise AlgebraError(f"map does not intertwine arrow {a.name!r}")

    def __setattr__(self, name, value):
        raise AttributeError("ModuleMap is immutable")

    @classmethod
    def _by_construction(cls, source: Module, target: Module, blocks) -> "ModuleMap":
        """A map whose blocks have the right shapes and intertwine every
        arrow by construction; only the common algebra is checked."""
        if source.algebra != target.algebra:
            raise AlgebraError("module maps need a common algebra")
        f = object.__new__(cls)
        object.__setattr__(f, "source", source)
        object.__setattr__(f, "target", target)
        object.__setattr__(f, "blocks", tuple(blocks))
        return f

    @classmethod
    def identity(cls, m: Module) -> "ModuleMap":
        return cls._by_construction(m, m, [Matrix.identity(m.algebra.p, d) for d in m.dims])

    @classmethod
    def zero(cls, source: Module, target: Module) -> "ModuleMap":
        p = source.algebra.p
        blocks = [
            Matrix.zeros(dt, ds, p) for dt, ds in zip(target.dims, source.dims)
        ]
        return cls._by_construction(source, target, blocks)

    def block(self, v: str) -> Matrix:
        return self.blocks[self.source.algebra.vertex_index[v]]

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """self after inner."""
        if inner.target != self.source:
            raise AlgebraError("composition endpoint mismatch")
        blocks = [a @ b for a, b in zip(self.blocks, inner.blocks)]
        return ModuleMap(inner.source, self.target, blocks)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.source != other.source or self.target != other.target:
            raise AlgebraError("sum endpoint mismatch")
        return ModuleMap(
            self.source, self.target, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def scale(self, c: int) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [b.scale(c) for b in self.blocks])

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [-b for b in self.blocks])

    def is_injective(self) -> bool:
        return all(rank(b) == b.cols for b in self.blocks)

    def is_surjective(self) -> bool:
        return all(rank(b) == b.rows for b in self.blocks)

    def is_isomorphism(self) -> bool:
        return all(b.is_square() for b in self.blocks) and self.is_injective()

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"ModuleMap({self.source.dims} -> {self.target.dims})"


def _map_layout(a: Module, b: Module) -> tuple[list[int], list[int]]:
    """Offsets and sizes of the vertex blocks of a map a -> b flattened into
    one vector of unknowns (vertices in algebra order, blocks row-major)."""
    sizes = [db * da for da, db in zip(a.dims, b.dims)]
    offsets = [0] * len(sizes)
    for v in range(1, len(sizes)):
        offsets[v] = offsets[v - 1] + sizes[v - 1]
    return offsets, sizes


def _intertwining_rows(a: Module, b: Module, offsets, sizes) -> list[np.ndarray]:
    """One band of equations per arrow making the unknown blocks x_v of a map
    a -> b intertwine: b.act(arrow) @ x_source - x_target @ a.act(arrow) = 0,
    vectorized row-major by vec(P X) = (P (x) I) vec X and
    vec(X Q) = (I (x) Q^T) vec X."""
    alg = a.algebra
    nvars = sum(sizes)
    rows = []
    for ai, arrow in enumerate(alg.arrows):
        sv = alg.vertex_index[arrow.source]
        tv = alg.vertex_index[arrow.target]
        n_eq = b.dims[tv] * a.dims[sv]
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, nvars), dtype=np.int64)
        if sizes[sv]:
            block[:, offsets[sv] : offsets[sv] + sizes[sv]] += np.kron(
                b.actions[ai].array, np.eye(a.dims[sv], dtype=np.int64)
            )
        if sizes[tv]:
            block[:, offsets[tv] : offsets[tv] + sizes[tv]] -= np.kron(
                np.eye(b.dims[tv], dtype=np.int64), a.actions[ai].array.T
            )
        rows.append(block % alg.p)
    return rows


def hom_space(a: Module, b: Module) -> tuple[ModuleMap, ...]:
    """A deterministic basis of Hom(a, b).

    Unknowns are the entries of all vertex blocks (vertices in algebra
    order, blocks flattened row-major); the intertwining condition for each
    arrow contributes one band of linear equations.  The canonical kernel
    basis of that system is unpacked back into module maps.
    """
    if a.algebra != b.algebra:
        raise AlgebraError("hom_space needs a common algebra")
    alg = a.algebra
    p = alg.p
    nvert = len(a.dims)
    offsets, sizes = _map_layout(a, b)
    nvars = sum(sizes)
    n_eq = sum(
        b.dims[alg.vertex_index[x.target]] * a.dims[alg.vertex_index[x.source]]
        for x in alg.arrows
    )
    check_system_cells("hom_space system", nvars * max(n_eq, nvars))
    rows = _intertwining_rows(a, b, offsets, sizes)
    if rows:
        system = Matrix(p, np.vstack(rows))
    else:
        system = Matrix.zeros(0, nvars, p)
    basis = kernel_basis(system)
    out = []
    for k in range(basis.cols):
        col = basis.array[:, k]
        blocks = []
        for v in range(nvert):
            seg = col[offsets[v] : offsets[v] + sizes[v]]
            blocks.append(Matrix(p, seg.reshape(b.dims[v], a.dims[v])))
        out.append(ModuleMap(a, b, blocks))
    return tuple(out)


def kernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    """Vertex-wise kernel with induced actions and its inclusion."""
    alg = f.source.algebra
    incl_blocks = [kernel_basis(b) for b in f.blocks]
    dims = [k.cols for k in incl_blocks]
    actions = []
    for ai, arrow in enumerate(alg.arrows):
        sv = alg.vertex_index[arrow.source]
        tv = alg.vertex_index[arrow.target]
        mapped = f.source.actions[ai] @ incl_blocks[sv]
        act = solve(incl_blocks[tv], mapped)
        if act is None:
            raise AlgebraError("kernel is not a subrepresentation (internal error)")
        actions.append(act)
    k = Module(alg, dims, actions)
    return k, ModuleMap(k, f.source, incl_blocks)


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    """Vertex-wise cokernel with induced actions and its projection.

    The projection at a vertex is the transposed kernel basis of the
    transposed block: its kernel is exactly the image of f, and the choice
    is canonical.
    """
    alg = f.source.algebra
    proj_blocks = [kernel_basis(b.T).T for b in f.blocks]
    dims = [pb.rows for pb in proj_blocks]
    actions = []
    for ai, arrow in enumerate(alg.arrows):
        sv = alg.vertex_index[arrow.source]
        tv = alg.vertex_index[arrow.target]
        rhs = proj_blocks[tv] @ f.target.actions[ai]
        # act @ proj_sv = rhs has a unique solution since proj is surjective.
        act_t = solve(proj_blocks[sv].T, rhs.T)
        if act_t is None:
            raise AlgebraError("cokernel action is ill-defined (internal error)")
        actions.append(act_t.T)
    c = Module(alg, dims, actions)
    return c, ModuleMap(f.target, c, proj_blocks)


def image(f: ModuleMap) -> tuple[Module, ModuleMap, ModuleMap]:
    """Epi-mono factorization: returns (I, mono I -> target, epi source -> I).

    The image basis at each vertex consists of the pivot columns of the
    block, in pivot order.
    """
    alg = f.source.algebra
    p = alg.p
    mono_blocks = []
    for b in f.blocks:
        piv = rref(b).pivots
        mono_blocks.append(Matrix(p, b.array[:, list(piv)]))
    dims = [m.cols for m in mono_blocks]
    epi_blocks = []
    for b, m in zip(f.blocks, mono_blocks):
        coords = solve(m, b)
        if coords is None:
            raise AlgebraError("image factorization failed (internal error)")
        epi_blocks.append(coords)
    actions = []
    for ai, arrow in enumerate(alg.arrows):
        sv = alg.vertex_index[arrow.source]
        tv = alg.vertex_index[arrow.target]
        mapped = f.target.actions[ai] @ mono_blocks[sv]
        act = solve(mono_blocks[tv], mapped)
        if act is None:
            raise AlgebraError("image is not a subrepresentation (internal error)")
        actions.append(act)
    i = Module(alg, dims, actions)
    return i, ModuleMap(i, f.target, mono_blocks), ModuleMap(f.source, i, epi_blocks)


def direct_sum(
    algebra: Algebra, modules: list[Module]
) -> tuple[Module, tuple[ModuleMap, ...], tuple[ModuleMap, ...]]:
    """Direct sum with canonical injections and projections.

    Coordinates at each vertex are the concatenation of the summands'
    coordinates in the given order.
    """
    p = algebra.p
    for m in modules:
        if m.algebra != algebra:
            raise AlgebraError("direct sum needs a common algebra")
    nvert = len(algebra.vertices)
    dims = [sum(m.dims[v] for m in modules) for v in range(nvert)]
    actions = []
    for ai in range(len(algebra.arrows)):
        actions.append(block_diag(p, [m.actions[ai] for m in modules]))
    total = Module(algebra, dims, actions)
    injections = []
    projections = []
    offsets = [0] * nvert
    for m in modules:
        inj_blocks = []
        proj_blocks = []
        for v in range(nvert):
            inj = np.zeros((dims[v], m.dims[v]), dtype=np.int64)
            proj = np.zeros((m.dims[v], dims[v]), dtype=np.int64)
            o = offsets[v]
            inj[o : o + m.dims[v], :] = np.eye(m.dims[v], dtype=np.int64)
            proj[:, o : o + m.dims[v]] = np.eye(m.dims[v], dtype=np.int64)
            inj_blocks.append(Matrix(p, inj))
            proj_blocks.append(Matrix(p, proj))
        injections.append(ModuleMap(m, total, inj_blocks))
        projections.append(ModuleMap(total, m, proj_blocks))
        for v in range(nvert):
            offsets[v] += m.dims[v]
    return total, tuple(injections), tuple(projections)


def indecomposable_projective(algebra: Algebra, v: str) -> Module:
    """The projective on the basis paths starting at v.

    Its dimension at a vertex w is the number of basis paths from v to w;
    an arrow acts by appending itself and taking normal forms.
    """
    if v not in algebra.vertex_index:
        raise AlgebraError(f"unknown vertex {v!r}")
    idxs = algebra.basis_from(v)
    by_vertex: dict[str, list[int]] = {w: [] for w in algebra.vertices}
    for i in idxs:
        by_vertex[algebra.basis[i].target].append(i)
    pos = {}
    for w in algebra.vertices:
        for local, i in enumerate(by_vertex[w]):
            pos[i] = local
    dims = [len(by_vertex[w]) for w in algebra.vertices]
    p = algebra.p
    actions = []
    for a in algebra.arrows:
        sv = algebra.vertex_index[a.source]
        tv = algebra.vertex_index[a.target]
        arr = np.zeros((dims[tv], dims[sv]), dtype=np.int64)
        a_basis = None
        # index of the arrow as a length-1 basis path
        for j, b in enumerate(algebra.basis):
            if b.arrows == (algebra.arrow_index[a.name],):
                a_basis = j
                break
        for col, i in enumerate(by_vertex[a.source]):
            if a_basis is None:
                continue
            for k, coeff in algebra.mult.get((i, a_basis), ()):
                arr[pos[k], col] = (arr[pos[k], col] + coeff) % p
        actions.append(Matrix(p, arr))
    return Module(algebra, dims, actions)


def projective_generator(algebra: Algebra) -> Module:
    """The regular module, as the sum of all indecomposable projectives."""
    mods = [indecomposable_projective(algebra, v) for v in algebra.vertices]
    total, _, _ = direct_sum(algebra, mods)
    return total


def _radical_stack(m: Module, v_idx: int) -> Matrix:
    """Columns spanning rad(m) at the given vertex."""
    alg = m.algebra
    mats = []
    for ai, arrow in enumerate(alg.arrows):
        if alg.vertex_index[arrow.target] == v_idx and m.actions[ai].cols:
            mats.append(m.actions[ai])
    if not mats:
        return Matrix.zeros(m.dims[v_idx], 0, alg.p)
    return hstack(mats)


@dataclass(frozen=True)
class Cover:
    projective: Module
    epi: ModuleMap
    kernel: Module
    inclusion: ModuleMap


def projective_cover(m: Module) -> Cover:
    """Projective cover with its epi, kernel, and kernel inclusion.

    The top is m / rad m with rad m the sum of the images of all arrow
    actions; preimages of top basis vectors are the canonical solve
    solutions, so the cover is deterministic.  The kernel is verified to
    sit inside rad P.
    """
    alg = m.algebra
    p = alg.p
    nvert = len(alg.vertices)
    top_projs = []
    for v in range(nvert):
        stack = _radical_stack(m, v)
        top_projs.append(kernel_basis(stack.T).T)
    mults = [tp.rows for tp in top_projs]
    pieces = []
    gens = []  # (vertex index, preimage column in m at that vertex)
    for v, vertex in enumerate(alg.vertices):
        if mults[v] == 0:
            continue
        pv = indecomposable_projective(alg, vertex)
        for j in range(mults[v]):
            e = Matrix(p, np.eye(mults[v], dtype=np.int64)[:, j : j + 1])
            u = solve(top_projs[v], e)
            if u is None:
                raise AlgebraError("projective cover preimage failed (internal error)")
            pieces.append(pv)
            gens.append((v, u))
    total, _, _ = direct_sum(alg, pieces)
    # epi columns: each basis path q of each piece maps to action(q) applied
    # to the generator preimage.
    cols_by_vertex: list[list[np.ndarray]] = [[] for _ in range(nvert)]
    for (v, u), piece in zip(gens, pieces):
        vertex = alg.vertices[v]
        idxs = alg.basis_from(vertex)
        by_vertex: dict[str, list[int]] = {w: [] for w in alg.vertices}
        for i in idxs:
            by_vertex[alg.basis[i].target].append(i)
        for w_i, w in enumerate(alg.vertices):
            for i in by_vertex[w]:
                path = alg.basis[i]
                if path.length == 0:
                    col = u
                else:
                    col = path_action(m, path.arrows) @ u
                cols_by_vertex[w_i].append(col.array[:, 0])
    epi_blocks = []
    for v in range(nvert):
        if cols_by_vertex[v]:
            arr = np.stack(cols_by_vertex[v], axis=1)
        else:
            arr = np.zeros((m.dims[v], 0), dtype=np.int64)
        epi_blocks.append(Matrix(p, arr))
    epi = ModuleMap(total, m, epi_blocks)
    if not epi.is_surjective():
        raise AlgebraError("projective cover epi is not surjective (internal error)")
    ker, incl = kernel(epi)
    # minimality: the kernel must land inside rad P
    for v in range(nvert):
        stack = _radical_stack(total, v)
        if solve(stack, incl.blocks[v]) is None:
            raise AlgebraError("projective cover is not minimal (internal error)")
    return Cover(total, epi, ker, incl)


def is_projective(m: Module) -> bool:
    return projective_cover(m).kernel.is_zero()


# ---------------------------------------------------------------------------
# Lifting helpers


def solve_left_composition(through: ModuleMap, rhs: ModuleMap) -> ModuleMap | None:
    """Find a module map x with through o x = rhs, if one exists.

    Solved as one linear system over the entries of x: the intertwining
    constraints make x a module map, the composition constraints pin it
    down.  The canonical solution is deterministic.
    """
    if rhs.target != through.target:
        raise AlgebraError("solve_left_composition endpoint mismatch")
    p = through.source.algebra.p
    src, mid = rhs.source, through.source
    nvert = len(src.dims)
    offsets, sizes = _map_layout(src, mid)
    nvars = sum(sizes)
    rows = []
    rhs_entries = []
    # composition: through_v @ x_v = rhs_v
    for v in range(nvert):
        n_eq = through.blocks[v].rows * src.dims[v]
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, nvars), dtype=np.int64)
        if sizes[v]:
            block[:, offsets[v] : offsets[v] + sizes[v]] = np.kron(
                through.blocks[v].array, np.eye(src.dims[v], dtype=np.int64)
            )
        rows.append(block % p)
        rhs_entries.append(rhs.blocks[v].array.reshape(-1))
    # intertwining: x is a module map src -> mid
    for band in _intertwining_rows(src, mid, offsets, sizes):
        rows.append(band)
        rhs_entries.append(np.zeros(band.shape[0], dtype=np.int64))
    if rows:
        system = Matrix(p, np.vstack(rows))
        b = Matrix(p, np.concatenate(rhs_entries).reshape(-1, 1))
    else:
        system = Matrix.zeros(0, nvars, p)
        b = Matrix.zeros(0, 1, p)
    sol = solve(system, b)
    if sol is None:
        return None
    blocks = []
    for v in range(nvert):
        seg = sol.array[offsets[v] : offsets[v] + sizes[v], 0]
        blocks.append(Matrix(p, seg.reshape(mid.dims[v], src.dims[v])))
    return ModuleMap(src, mid, blocks)


def factor_through_mono(f: ModuleMap, mono: ModuleMap) -> ModuleMap:
    """The unique g with mono o g = f; raises if f does not factor."""
    if f.target != mono.target:
        raise AlgebraError("factor_through_mono endpoint mismatch")
    blocks = []
    for fb, mb in zip(f.blocks, mono.blocks):
        g = solve(mb, fb)
        if g is None:
            raise AlgebraError("map does not factor through the mono")
        blocks.append(g)
    return ModuleMap(f.source, mono.source, blocks)
