"""Exact-arithmetic workbench for Jacobi theta quotients.

Exact Laurent-Puiseux q-series, arbitrary-precision evaluation of elliptic
integrals and theta quotients, bivariate integer relation mining, algebraic
recognition of high-precision reals, and a verified catalog of evaluation
identities (including the documented errata).
"""

# perfbench/workloads.py's _mods() imports thetaquot.catalog and reads every
# module it times from sys.modules; the catalog does not import recognize,
# so the package does, and recognize imports numeric only when it evaluates
from . import recognize  # noqa: F401

__version__ = "0.1.0"
