"""Exact graphical calculus for the three cross-product (super)algebras.

Tangle words evaluate to exact rational tensor maps; a confluent rewriting
system normalizes diagrams into the case's basis; centralizer algebras come
out as structure tables; and a brute-force derivation-algebra oracle
certifies every dimension count independently.
"""

from .algebra import CaseTag, CrossAlgebra, build, check_axioms, dual_bases
from .basis import enumerate_catalan, enumerate_webs, is_basis_diagram, riordan
from .centralizer import brauer_map, matrix_model, structure_constants
from .oracle import derivations, equivariance_check, invariant_dim
from .planar import PlanarDiagram, planar_to_word, word_to_planar
from .rewrite import RewriteTrace, normalize
from .tangle import (Generator, LinComb, TangleWord, compose_tangles,
                     disjoint_union, parse_word, phi_tangle, psi_tangle,
                     transpose_tangle)
from .tensor import (TensorMap, bn, bnt, compose, evaluate, phi, psi,
                     tensor_product, transpose)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
