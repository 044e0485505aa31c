"""cubefib: exact-arithmetic toolkit for fibration-method point counts on
cubic hypersurfaces (structural analysis, local densities, lattice counts,
sieve-admissible sets, growth-exponent experiments)."""

from .polynomials import IntPolynomial, VariableSplit
from .linalg import QuadraticPolynomial, rank_signature_over_Q

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial",
    "VariableSplit",
    "QuadraticPolynomial",
    "rank_signature_over_Q",
    "__version__",
]
