"""Verification toolkit for the rank bound on permanents of (-1,1)-matrices.

Each library module's ``__all__`` is its public surface; the package
re-exports all of them.
"""

from .d_family import *
from .errors import *
from .exact_rank import *
from .permanent import *
from .props import *
from .rank_vectors import *
from .reduction import *
from .sign_matrix import *
from .verifier import *

__version__ = "1.0.0"

__all__ = [
    *d_family.__all__,
    *errors.__all__,
    *exact_rank.__all__,
    *permanent.__all__,
    *props.__all__,
    *rank_vectors.__all__,
    *reduction.__all__,
    *sign_matrix.__all__,
    *verifier.__all__,
]
