"""Numerical toolkit around approximating the PSD cone with small PSD blocks.

Submodules:
    linalg     symmetric-matrix primitives and Gaussian sampling
    cones      membership tests and dual support functions of the block relaxations
    widths     Monte Carlo Gaussian-width estimators: draws trials and averages
    bounds     closed-form lower-bound curves and root solves
    hypercube  exact Fourier analysis on sign vertices
    cli        the `psdb` command-line entry point
"""

__version__ = "0.1.0"

from . import bounds, cones, hypercube, linalg, widths  # noqa: F401
from .linalg import SymmetricMatrix  # noqa: F401
