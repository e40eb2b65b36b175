"""Numerical toolkit around approximating the PSD cone with small PSD blocks.

Submodules, each loaded on its first access (PEP 562):
    linalg     symmetric-matrix primitives and Gaussian sampling
    cones      membership tests and dual support functions of the block relaxations
    widths     Monte Carlo Gaussian-width estimators: draws trials and averages
    bounds     closed-form lower-bound curves and root solves
    hypercube  exact Fourier analysis on sign vertices
    cli        the `psdb` command-line entry point
"""

__version__ = "0.1.0"

from .linalg import SymmetricMatrix  # noqa: F401

_SUBMODULES = ("bounds", "cli", "cones", "hypercube", "linalg", "widths")


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return import_module(f"{__name__}.{name}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
