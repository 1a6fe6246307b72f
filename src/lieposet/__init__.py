"""Exact-arithmetic Lie poset algebras: construction from finite posets
(types A, B, C, D), index and Frobenius certificates, derived series,
Chevalley-Eilenberg and simplicial cohomology, and a classification
normal form for Frobenius two-step solvable algebras.
"""

from .exactla import BACKEND, SparseMat

__version__ = "0.1.0"

__all__ = ["BACKEND", "SparseMat", "__version__"]
