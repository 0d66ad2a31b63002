"""Pseudo-roots of noncommutative polynomials over exact rational matrices,
DU-closures and sufficient edge sets in layered directed graphs."""

from .digraph import Digraph, EdgeSet, GraphError, validate_graph
from .duclosure import completion, is_ample, is_complete, is_sufficient, lemma_witness
from .exact_linalg import RatMatrix, Rational, SingularMatrixError, block_assemble
from .hasse import boolean_lattice, complex_hasse, hasse_from_poset, partition_lattice
from .ncpoly import NCPoly, from_linear_factors
from .pseudoroots import (
    LabeledEdgeSet,
    PseudoRootTable,
    RootSet,
    build_table,
    canonical_polynomial,
    d_op,
    derive_factorization,
    labeled_completion,
    pseudo_root,
    random_generic_rootset,
    scalar_specialize,
    u_op,
    vandermonde_matrix,
    vandermonde_quasidet,
)
from .divisor_graph import build_divisor_graph

__version__ = "0.1.0"
