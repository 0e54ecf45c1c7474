"""Exact-arithmetic toolkit for Cayley hypersurfaces.

Generation of the defining polynomials and their one-parameter deformation,
affine symmetry algebras by exact rational linear algebra, and the geometric
invariants (trace conditions, Pick invariant, signature, Hessian
determinant, ruling) of the resulting graphs.
"""

from .generate import *
from .geometry import *
from .poly import *
from .symmetry import *

__version__ = "0.1.0"

__all__ = sorted(generate.__all__ + geometry.__all__ + poly.__all__ + symmetry.__all__)
