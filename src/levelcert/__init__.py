"""Syzygies, relative dimensions and generation-level certificates for
bounded derived categories of finite-dimensional quiver algebras.

The core pipeline: load a presented path algebra over a prime field,
work with its finite-dimensional modules (covers, kernels, syzygies),
compute dimensions relative to an
additive generator, and build or verify explicit triangle-tower
certificates that a bounded complex is generated in a stated number of
layers.
"""

from .algebra import (
    Algebra,
    AlgebraError,
    Arrow,
    Matrix,
    Module,
    ModuleMap,
    Presentation,
    Relation,
    RelationTerm,
    load_algebra,
)
from .complexes import ChainMap, Complex, Piece, ShortExactSequence
from .homological import Generator, XDimReport, make_generator, syzygy, xdim
from .levels import (
    Branch,
    Leaf,
    build_resolution_witness,
    build_split_witness,
    derived_dim_bound,
    reduction_step,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraError",
    "Arrow",
    "Matrix",
    "Module",
    "ModuleMap",
    "Presentation",
    "Relation",
    "RelationTerm",
    "load_algebra",
    "ChainMap",
    "Complex",
    "Piece",
    "ShortExactSequence",
    "Generator",
    "XDimReport",
    "make_generator",
    "syzygy",
    "xdim",
    "Branch",
    "Leaf",
    "build_resolution_witness",
    "build_split_witness",
    "derived_dim_bound",
    "reduction_step",
    "verify_certificate",
    "__version__",
]
