"""Continuous -1 hypergeometric orthogonal polynomials.

A catalog of every continuous family in the -1 analog of the q-Askey
scheme, together with machinery to generate them from their three-term
recurrences and hypergeometric closed forms, apply their Dunkl-type
eigenoperators, verify orthogonality by singularity-aware quadrature, and
check the web of specializations, limits and Christoffel/Geronimus
transformations that organizes the families into a scheme.
"""

from .precision import PrecisionContext, pochhammer, hyp_terminating
from .polynomials import Poly, RationalFunction

__all__ = [
    "PrecisionContext",
    "pochhammer",
    "hyp_terminating",
    "Poly",
    "RationalFunction",
]

__version__ = "0.1.0"
