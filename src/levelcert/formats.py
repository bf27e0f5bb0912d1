"""Line-oriented structured text formats for every serializable object.

The grammar is a tree of blocks:

    begin <kind> [args...]
    <field> <value> [value...]
    ...
    end <kind>

Tokens are whitespace separated; lines starting with '#' are comments;
indentation is ignored on input and emitted for readability on output.
All numeric payloads are integers (field elements are residues in
[0, p)); matrices declare their shape and list rows.  Writing is
deterministic, so every object survives a write/read/write round trip
byte for byte.

Paths in relations are written with dots and compose left to right:
"a.b" means first a, then b.

Each object has one writer and one reader, shared by every format that
embeds it: a module body (dim lines and arrow matrices) appears in module
files, generator files and the term and piece blocks of certificates; a
complex (support line and diff blocks) appears in complex files and in
certificates, which differ only in how they list their terms.

Errors follow one rule.  A syntax fault (a missing or malformed field or
argument, an unknown label, a negative dimension, a matrix entry outside
[0, p)) raises FormatError with a line number.  An object that parses but
breaks its shapes, relations or squares raises AlgebraError.  Decoders of
input files, and of a certificate's algebra and generator blocks, report
it as a FormatError at the object's block; in a certificate's tree it
becomes a CertificateDecodeError naming the node path.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraError,
    Algebra,
    Arrow,
    Matrix,
    Module,
    ModuleMap,
    Presentation,
    Relation,
    RelationTerm,
    direct_sum,
    indecomposable_projective,
    load_algebra,
)
from .complexes import ChainMap, Complex, Piece, ShortExactSequence, assemble_pieces
from .homological import Generator, make_generator
from .levels import Branch, Leaf, Node

__all__ = [
    "MAX_MODULE_DIM",
    "MAX_TREE_DEPTH",
    "FormatError",
    "CertificateDecodeError",
    "parse_document",
    "render_algebra",
    "decode_algebra",
    "render_module",
    "decode_module",
    "render_complex_file",
    "decode_complex_file",
    "render_generator",
    "decode_generator",
    "render_certificate",
    "decode_certificate",
    "load_algebra_file",
    "load_module_file",
    "load_complex_file",
    "load_generator_file",
]

# The largest total dimension a decoded module body may declare, checked
# before any of its matrices is allocated.  The largest body in the
# fixtures, the test suite and the benchmark workloads has dimension 12,
# and the largest module any builder constructs from them 22.
MAX_MODULE_DIM = 256

# The deepest certificate tree the decoder reads.  Honest certificates are
# at most 4 levels deep; the limit keeps decoding and verifying, which
# recurse once per level, far from Python's recursion limit.
MAX_TREE_DEPTH = 64


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CertificateDecodeError(ValueError):
    """A certificate failed to reconstruct; path names the failing node."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@contextmanager
def _in_file(line: int):
    """Report an input file's broken object as a FormatError at line."""
    try:
        yield
    except AlgebraError as exc:
        raise FormatError(str(exc), line) from exc


@contextmanager
def _in_node(path: str):
    """Report a certificate's broken object as a rejection of node path."""
    try:
        yield
    except AlgebraError as exc:
        raise CertificateDecodeError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Generic block grammar


@dataclass
class Block:
    kind: str
    args: list[str]
    fields: list[tuple[str, list[str], int]] = field(default_factory=list)
    children: list["Block"] = field(default_factory=list)
    line: int = 0

    def child(self, kind: str) -> "Block":
        for c in self.children:
            if c.kind == kind:
                return c
        raise FormatError(f"missing required block {kind!r}", self.line)

    def children_of(self, kind: str) -> list["Block"]:
        return [c for c in self.children if c.kind == kind]

    def field_values(self, name: str) -> list[list[str]]:
        return [values for fname, values, _ in self.fields if fname == name]

    def one_field(self, name: str, required: bool = True) -> tuple[list[str], int] | None:
        """The values and line of the one field name, or None when it is
        absent and not required."""
        hits = [(values, line) for fname, values, line in self.fields if fname == name]
        if not hits and not required:
            return None
        if len(hits) != 1:
            raise FormatError(
                f"expected exactly one {name!r} field, found {len(hits)}", self.line
            )
        return hits[0]


# the blocks of a certificate that take no arguments
_BARE_KINDS = {"certificate", "leaf", "branch", "ses", "subject", "sub", "middle",
               "quotient", "presentation", "inclusion", "projection", "link"}


def parse_document(text: str) -> list[Block]:
    root = Block("", [], line=0)
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if tokens[0] == "begin":
            if len(tokens) < 2:
                raise FormatError("begin needs a block kind", lineno)
            if len(tokens) > 2 and tokens[1] in _BARE_KINDS:
                raise FormatError(f"{tokens[1]} block takes no arguments", lineno)
            block = Block(tokens[1], tokens[2:], line=lineno)
            stack[-1].children.append(block)
            stack.append(block)
        elif tokens[0] == "end":
            if len(stack) == 1:
                raise FormatError("end without matching begin", lineno)
            open_block = stack.pop()
            if len(tokens) > 2:
                raise FormatError("end takes only the block kind", lineno)
            if len(tokens) == 2 and tokens[1] != open_block.kind:
                raise FormatError(
                    f"end {tokens[1]!r} does not match open block {open_block.kind!r}",
                    lineno,
                )
        else:
            if len(stack) == 1:
                raise FormatError(
                    f"field {tokens[0]!r} outside of any block", lineno
                )
            stack[-1].fields.append((tokens[0], tokens[1:], lineno))
    if len(stack) != 1:
        raise FormatError(f"unclosed block {stack[-1].kind!r}", stack[-1].line)
    return root.children


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def begin(self, kind: str, *args):
        self.lines.append("  " * self.depth + " ".join(["begin", kind, *map(str, args)]).rstrip())
        self.depth += 1

    def end(self, kind: str):
        self.depth -= 1
        self.lines.append("  " * self.depth + f"end {kind}")

    def put(self, name: str, *values):
        self.lines.append("  " * self.depth + " ".join([name, *map(str, values)]).rstrip())

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _int(values: list[str], index: int, line: int) -> int:
    try:
        return int(values[index])
    except (IndexError, ValueError):
        raise FormatError("expected an integer", line) from None


def _int_field(
    block: Block, name: str, default: int | None = None, choices: tuple[int, ...] = ()
) -> int:
    """The value of a field holding one integer, one of choices if any are
    given.  A missing field gives default, and is an error without one."""
    hit = block.one_field(name, required=default is None)
    if hit is None:
        return default
    values, line = hit
    if len(values) != 1:
        raise FormatError(f"{name} takes one integer", line)
    value = _int(values, 0, line)
    if choices and value not in choices:
        raise FormatError(f"{name} must be {' or '.join(map(str, choices))}", line)
    return value


def _name(block: Block, default: str) -> str:
    """The optional name argument of an algebra, module, complex or
    generator block."""
    if len(block.args) > 1:
        raise FormatError(f"{block.kind} block takes at most one name", block.line)
    return block.args[0] if block.args else default


def _degree(block: Block) -> int:
    """The degree of a term, diff, component or piece block: its last
    argument (a piece block's first argument is its kind)."""
    arity = 2 if block.kind == "piece" else 1
    if len(block.args) != arity:
        what = "a kind and a degree" if arity == 2 else "a degree"
        raise FormatError(f"{block.kind} block takes {what}", block.line)
    return _int(block.args, arity - 1, block.line)


# ---------------------------------------------------------------------------
# Matrices and module maps


def _write_matrix(w: _Writer, label: str, m: Matrix):
    w.begin("matrix", label, m.rows, m.cols)
    for i in range(m.rows):
        w.put("row", *m.array[i].tolist())
    w.end("matrix")


def _read_matrix(block: Block, p: int) -> tuple[str, Matrix]:
    if len(block.args) != 3:
        raise FormatError("matrix needs a label and a shape", block.line)
    label = block.args[0]
    rows, cols = _int(block.args, 1, block.line), _int(block.args, 2, block.line)
    if rows < 0 or cols < 0:
        raise FormatError("matrix shape must be nonnegative", block.line)
    row_fields = [f for f in block.fields if f[0] == "row"]
    if len(row_fields) != rows:
        raise FormatError(
            f"matrix declares {rows} rows but lists {len(row_fields)}", block.line
        )
    data = []
    for _, values, line in row_fields:
        if len(values) != cols:
            raise FormatError(f"row has {len(values)} entries, expected {cols}", line)
        try:
            row = [int(v) for v in values]
        except ValueError:
            raise FormatError("expected an integer", line) from None
        if any(not 0 <= v < p for v in row):
            raise FormatError(f"matrix entries must be residues in [0, {p})", line)
        data.append(row)
    return label, Matrix(p, np.array(data, dtype=np.int64).reshape(rows, cols))


def _read_matrices(block: Block, p: int, labels, shapes, what: str) -> list[Matrix]:
    """One matrix per label (a vertex or arrow name, per what), in order,
    from the block's matrix children; a label without one is zero."""
    mats = {}
    for child in block.children_of("matrix"):
        label, m = _read_matrix(child, p)
        if label not in labels:
            raise FormatError(f"unknown {what} {label!r}", child.line)
        if label in mats:
            raise FormatError(f"duplicate matrix {label!r}", child.line)
        mats[label] = m
    return [
        mats[label] if label in mats else Matrix.zeros(rows, cols, p)
        for label, (rows, cols) in zip(labels, shapes)
    ]


def _write_map(w: _Writer, kind: str, degree: int, f: ModuleMap):
    """A module map as one matrix per vertex (diff and component blocks)."""
    w.begin(kind, degree)
    alg = f.source.algebra
    for v, blockm in zip(alg.vertices, f.blocks):
        _write_matrix(w, v, blockm)
    w.end(kind)


def _read_map(block: Block, alg: Algebra, source: Module, target: Module) -> ModuleMap:
    shapes = zip(target.dims, source.dims)
    blocks = _read_matrices(block, alg.p, alg.vertex_index, shapes, "vertex")
    return ModuleMap(source, target, blocks)


# ---------------------------------------------------------------------------
# Algebras


def render_algebra(name: str, pres: Presentation) -> str:
    w = _Writer()
    _write_algebra(w, name, pres)
    return w.text()


def _write_algebra(w: _Writer, name: str, pres: Presentation):
    w.begin("algebra", name)
    w.put("modulus", pres.p)
    w.put("cap", pres.cap)
    for v in pres.vertices:
        w.put("vertex", v)
    for a in pres.arrows:
        w.put("arrow", a.name, a.source, a.target)
    for rel in pres.relations:
        tokens = []
        for term in rel.terms:
            tokens.append(str(term.coeff))
            tokens.append(".".join(term.path))
        w.put("relation", *tokens)
    w.end("algebra")


def decode_algebra(block: Block) -> tuple[str, Algebra]:
    if block.kind != "algebra":
        raise FormatError(f"expected an algebra block, got {block.kind!r}", block.line)
    name = _name(block, "algebra")
    p = _int_field(block, "modulus")
    cap = _int_field(block, "cap")
    vertices = []
    for values in block.field_values("vertex"):
        if len(values) != 1:
            raise FormatError("vertex takes exactly one name", block.line)
        vertices.append(values[0])
    arrows = []
    for fname, values, line in block.fields:
        if fname != "arrow":
            continue
        if len(values) != 3:
            raise FormatError("arrow takes name, source, target", line)
        arrows.append(Arrow(values[0], values[1], values[2]))
    arrow_names = {a.name for a in arrows}
    relations = []
    for fname, values, line in block.fields:
        if fname != "relation":
            continue
        if not values or len(values) % 2 != 0:
            raise FormatError(
                "relation takes coefficient and dotted-path pairs", line
            )
        terms = []
        for i in range(0, len(values), 2):
            coeff = _int(values, i, line)
            path = tuple(values[i + 1].split("."))
            for arrow_name in path:
                if arrow_name not in arrow_names:
                    raise FormatError(
                        f"relation references unknown arrow {arrow_name!r}", line
                    )
            terms.append(RelationTerm(coeff, path))
        relations.append(Relation(tuple(terms)))
    pres = Presentation(p, tuple(vertices), tuple(arrows), tuple(relations), cap)
    with _in_file(block.line):
        return name, load_algebra(pres)


# ---------------------------------------------------------------------------
# Modules


def render_module(name: str, m: Module) -> str:
    w = _Writer()
    _write_module(w, name, m)
    return w.text()


def _write_module(w: _Writer, name: str, m: Module):
    w.begin("module", name)
    _write_module_body(w, m)
    w.end("module")


def _write_module_body(w: _Writer, m: Module):
    """One dim line per vertex and one matrix per arrow."""
    alg = m.algebra
    for v, d in zip(alg.vertices, m.dims):
        w.put("dim", v, d)
    for a, act in zip(alg.arrows, m.actions):
        _write_matrix(w, a.name, act)


def _read_module_body(block: Block, alg: Algebra) -> Module:
    """The module of a module, term or piece block.  Every vertex needs one
    dim line; an arrow without a matrix acts by zero."""
    dims = {}
    for fname, values, line in block.fields:
        if fname != "dim":
            continue
        if len(values) != 2:
            raise FormatError("dim takes a vertex and a count", line)
        if values[0] not in alg.vertex_index:
            raise FormatError(f"unknown vertex {values[0]!r}", line)
        if values[0] in dims:
            raise FormatError(f"duplicate dimension for vertex {values[0]!r}", line)
        d = _int(values, 1, line)
        if d < 0:
            raise FormatError(f"negative dimension {d}", line)
        dims[values[0]] = d
    for v in alg.vertices:
        if v not in dims:
            raise FormatError(f"missing dimension for vertex {v!r}", block.line)
    total = sum(dims.values())
    if total > MAX_MODULE_DIM:
        raise FormatError(
            f"module dimension {total} exceeds the limit {MAX_MODULE_DIM}", block.line
        )
    shapes = [(dims[a.target], dims[a.source]) for a in alg.arrows]
    actions = _read_matrices(block, alg.p, alg.arrow_index, shapes, "arrow")
    return Module(alg, [dims[v] for v in alg.vertices], actions)


def decode_module(block: Block, alg: Algebra) -> tuple[str, Module]:
    if block.kind != "module":
        raise FormatError(f"expected a module block, got {block.kind!r}", block.line)
    name = _name(block, "module")
    with _in_file(block.line):
        return name, _read_module_body(block, alg)


# ---------------------------------------------------------------------------
# Complexes: complex files name their terms, certificates inline them


def _write_complex(w: _Writer, kind: str, args: tuple, c: Complex, write_term):
    w.begin(kind, *args)
    if not c.is_zero():
        w.put("support", c.lo, c.hi)
        for n in c.support:
            write_term(n, c.term(n))
        for n in range(c.lo + 1, c.hi + 1):
            _write_map(w, "diff", n, c.diff(n))
    w.end(kind)


def _read_complex(block: Block, alg: Algebra, terms: dict[int, Module]) -> Complex:
    """The complex of a block whose terms the caller has gathered: reads the
    support line and the diff blocks.  Every degree of the support needs a
    term, so the work done is bounded by the input's length; a missing diff
    is zero."""
    diff_blocks = {}
    for b in block.children_of("diff"):
        n = _degree(b)
        if n in diff_blocks:
            raise FormatError(f"duplicate diff at degree {n}", b.line)
        diff_blocks[n] = b
    hit = block.one_field("support", required=False)
    if hit is None:
        if terms or diff_blocks:
            raise FormatError("terms or diffs without a support line", block.line)
        return Complex.zero(alg)
    support, _ = hit
    if len(support) != 2:
        raise FormatError("support takes the lowest and the highest degree", block.line)
    lo, hi = _int(support, 0, block.line), _int(support, 1, block.line)
    if hi < lo:
        raise FormatError(f"empty support {lo} {hi}", block.line)
    if any(not lo <= n <= hi for n in terms) or any(
        not lo < n <= hi for n in diff_blocks
    ):
        raise FormatError(f"term or diff degree outside the support {lo} {hi}", block.line)
    if len(terms) != hi - lo + 1:
        raise FormatError(
            f"support {lo} {hi} needs a term at each degree, found {len(terms)}", block.line
        )
    term_list = [terms[n] for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo + 1, hi + 1):
        src = term_list[n - lo]
        tgt = term_list[n - 1 - lo]
        if n in diff_blocks:
            diffs.append(_read_map(diff_blocks[n], alg, src, tgt))
        else:
            diffs.append(ModuleMap.zero(src, tgt))
    return Complex(alg, lo, term_list, diffs)


def render_complex_file(
    name: str, c: Complex, module_names: dict[int, str] | None = None
) -> str:
    """A complex with its term modules inlined above it."""
    w = _Writer()
    names = module_names or {n: f"t{n}" for n in c.support}
    for n in c.support:
        _write_module(w, names[n], c.term(n))
    _write_complex(w, "complex", (name,), c, lambda n, t: w.put("term", n, names[n]))
    return w.text()


def decode_complex_file(blocks: list[Block], alg: Algebra) -> tuple[str, Complex]:
    namespace: dict[str, Module] = {}
    cplx_block = None
    for block in blocks:
        if block.kind == "module":
            name, m = decode_module(block, alg)
            namespace[name] = m
        elif block.kind == "complex":
            cplx_block = block
    if cplx_block is None:
        raise FormatError("no complex block found")
    terms = {}
    for fname, values, line in cplx_block.fields:
        if fname != "term":
            continue
        if len(values) != 2:
            raise FormatError("term takes a degree and a module name", line)
        degree = _int(values, 0, line)
        if degree in terms:
            raise FormatError(f"duplicate term at degree {degree}", line)
        if values[1] == "zero":
            terms[degree] = Module.zero(alg)
        elif values[1] in namespace:
            terms[degree] = namespace[values[1]]
        else:
            raise FormatError(f"unknown module {values[1]!r}", line)
    name = _name(cplx_block, "complex")
    with _in_file(cplx_block.line):
        return name, _read_complex(cplx_block, alg, terms)


# ---------------------------------------------------------------------------
# Generators


def render_generator(name: str, gen: Generator) -> str:
    w = _Writer()
    _write_generator(w, name, gen)
    return w.text()


def _write_generator(w: _Writer, name: str, gen: Generator):
    w.begin("generator", name)
    w.put("semi_resolving", 1 if gen.declared_semi_resolving else 0)
    _write_module(w, "M", gen.module)
    w.end("generator")


def decode_generator(block: Block, alg: Algebra) -> tuple[str, Generator]:
    if block.kind != "generator":
        raise FormatError(f"expected a generator block, got {block.kind!r}", block.line)
    name = _name(block, "generator")
    flag = _int_field(block, "semi_resolving", 1, choices=(0, 1))
    namespace: dict[str, Module] = {}
    for child in block.children_of("module"):
        mod_name, m = decode_module(child, alg)
        namespace[mod_name] = m
    summands: list[Module] = []
    for fname, values, line in block.fields:
        if fname == "use_projectives" and values:
            raise FormatError("use_projectives takes no arguments", line)
    if block.field_values("use_projectives"):
        for v in alg.vertices:
            summands.append(indecomposable_projective(alg, v))
    for values in block.field_values("summand"):
        if len(values) != 1 or values[0] not in namespace:
            raise FormatError("summand must name an inline module", block.line)
        summands.append(namespace[values[0]])
    if not summands and "M" in namespace:
        summands = [namespace["M"]]
    if not summands:
        raise FormatError(
            "generator needs use_projectives, summand lines, or a module M",
            block.line,
        )
    total, _, _ = direct_sum(alg, summands)
    with _in_file(block.line):
        return name, make_generator(total, bool(flag))


# ---------------------------------------------------------------------------
# Certificates (self-contained: algebra + generator + tree)


def _write_complex_inline(w: _Writer, kind: str, c: Complex):
    def write_term(n: int, t: Module):
        w.begin("term", n)
        _write_module_body(w, t)
        w.end("term")

    _write_complex(w, kind, (), c, write_term)


def _read_complex_inline(block: Block, alg: Algebra) -> Complex:
    terms = {}
    for child in block.children_of("term"):
        degree = _degree(child)
        if degree in terms:
            raise FormatError(f"duplicate term at degree {degree}", child.line)
        terms[degree] = _read_module_body(child, alg)
    return _read_complex(block, alg, terms)


def _write_chain_map(w: _Writer, kind: str, f: ChainMap):
    w.begin(kind)
    degrees = sorted(set(f.source.support) | set(f.target.support))
    for n in degrees:
        _write_map(w, "component", n, f.component(n))
    w.end(kind)


def _read_chain_map(block: Block, source: Complex, target: Complex) -> ChainMap:
    comps = {}
    for child in block.children_of("component"):
        degree = _degree(child)
        if degree in comps:
            raise FormatError(f"duplicate component at degree {degree}", child.line)
        comps[degree] = _read_map(
            child, source.algebra, source.term(degree), target.term(degree)
        )
    return ChainMap(source, target, comps)


def _write_piece(w: _Writer, piece: Piece):
    w.begin("piece", piece.kind, piece.degree)
    _write_module_body(w, piece.module)
    w.end("piece")


def _read_piece(block: Block, alg: Algebra) -> Piece:
    degree = _degree(block)
    return Piece(block.args[0], _read_module_body(block, alg), degree)


def _write_node(w: _Writer, node: Node):
    if isinstance(node, Leaf):
        w.begin("leaf")
        w.put("level", node.level)
        _write_complex_inline(w, "subject", node.subject)
        for piece in node.pieces:
            _write_piece(w, piece)
        _write_chain_map(w, "presentation", node.presentation)
        w.end("leaf")
        return
    w.begin("branch")
    w.put("level", node.level)
    w.put("kind", node.link_kind)
    _write_complex_inline(w, "subject", node.subject)
    w.begin("ses")
    _write_complex_inline(w, "sub", node.ses.sub)
    _write_complex_inline(w, "middle", node.ses.middle)
    _write_complex_inline(w, "quotient", node.ses.quotient)
    _write_chain_map(w, "inclusion", node.ses.inclusion)
    _write_chain_map(w, "projection", node.ses.projection)
    w.end("ses")
    _write_chain_map(w, "link", node.link)
    _write_node(w, node.sub)
    _write_node(w, node.rest)
    w.end("branch")


def _read_node(block: Block, alg: Algebra, path: str, depth: int = 1) -> Node:
    """The node of a leaf or branch block (callers pass no other kind); the
    root is at depth 1."""
    if depth > MAX_TREE_DEPTH:
        raise FormatError(
            f"certificate tree is deeper than the limit {MAX_TREE_DEPTH}", block.line
        )
    level = _int_field(block, "level")
    if block.kind == "leaf":
        with _in_node(path):
            subject = _read_complex_inline(block.child("subject"), alg)
            pieces = tuple(_read_piece(b, alg) for b in block.children_of("piece"))
            target = assemble_pieces(alg, pieces)
            presentation = _read_chain_map(block.child("presentation"), subject, target)
        return Leaf(subject, pieces, presentation, level)
    kind_values, line = block.one_field("kind")
    if len(kind_values) != 1:
        raise FormatError("kind takes one link kind", line)
    kind = kind_values[0]
    with _in_node(path):
        subject = _read_complex_inline(block.child("subject"), alg)
    ses_block = block.child("ses")
    with _in_node(path + ".ses"):
        sub_c = _read_complex_inline(ses_block.child("sub"), alg)
        mid_c = _read_complex_inline(ses_block.child("middle"), alg)
        quot_c = _read_complex_inline(ses_block.child("quotient"), alg)
        inclusion = _read_chain_map(ses_block.child("inclusion"), sub_c, mid_c)
        projection = _read_chain_map(ses_block.child("projection"), mid_c, quot_c)
        ses = ShortExactSequence(inclusion, projection)
    linked = mid_c if kind == "middle" else quot_c
    with _in_node(path + ".link"):
        link = _read_chain_map(block.child("link"), linked, subject)
    kids = [b for b in block.children if b.kind in ("leaf", "branch")]
    if len(kids) != 2:
        raise CertificateDecodeError(path, "branch needs exactly two children")
    sub = _read_node(kids[0], alg, path + ".sub", depth + 1)
    rest = _read_node(kids[1], alg, path + ".rest", depth + 1)
    with _in_node(path):
        return Branch(subject, ses, link, kind, sub, rest, level)


def render_certificate(
    algebra_name: str,
    algebra: Algebra,
    generator_name: str,
    gen: Generator,
    node: Node,
    seed: int = 0,
) -> str:
    w = _Writer()
    w.begin("certificate")
    w.put("seed", seed)
    _write_algebra(w, algebra_name, algebra.presentation)
    _write_generator(w, generator_name, gen)
    _write_node(w, node)
    w.end("certificate")
    return w.text()


def decode_certificate(text: str) -> tuple[Algebra, Generator, Node, int]:
    blocks = parse_document(text)
    cert = None
    for b in blocks:
        if b.kind == "certificate":
            cert = b
    if cert is None:
        raise FormatError("no certificate block found")
    seed = _int_field(cert, "seed", 0)
    _, alg = decode_algebra(cert.child("algebra"))
    _, gen = decode_generator(cert.child("generator"), alg)
    node_blocks = [b for b in cert.children if b.kind in ("leaf", "branch")]
    if len(node_blocks) != 1:
        raise FormatError("certificate needs exactly one root node", cert.line)
    node = _read_node(node_blocks[0], alg, "root")
    return alg, gen, node, seed


# ---------------------------------------------------------------------------
# File helpers


def load_algebra_file(path: str) -> tuple[str, Algebra]:
    with open(path) as fh:
        blocks = parse_document(fh.read())
    for b in blocks:
        if b.kind == "algebra":
            return decode_algebra(b)
    raise FormatError("no algebra block found")


def load_module_file(path: str, alg: Algebra) -> tuple[str, Module]:
    with open(path) as fh:
        blocks = parse_document(fh.read())
    for b in blocks:
        if b.kind == "module":
            return decode_module(b, alg)
    raise FormatError("no module block found")


def load_complex_file(path: str, alg: Algebra) -> tuple[str, Complex]:
    with open(path) as fh:
        return decode_complex_file(parse_document(fh.read()), alg)


def load_generator_file(path: str, alg: Algebra) -> tuple[str, Generator]:
    with open(path) as fh:
        blocks = parse_document(fh.read())
    for b in blocks:
        if b.kind == "generator":
            return decode_generator(b, alg)
    raise FormatError("no generator block found")
