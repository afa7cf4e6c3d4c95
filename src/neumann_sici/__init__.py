"""Bessel-series expansions of the sine and cosine integrals.

Exact Neumann coefficients, double-precision special-function kernels,
quadrature for every integral identity, Euler-sum closed forms, and a
verification harness that checks each identity against an independent route.

``import neumann_sici`` loads the library layer only: ``specfun``, ``coeffs``
and ``neumann``.  The verification layer, ``quad``, ``eulersum`` and
``harness``, loads on first use, by attribute access
(``neumann_sici.quad``) or by ``from neumann_sici import quad``; the
``neumann-sici`` command loads every module.
"""

__version__ = "0.1.0"

import importlib

from . import coeffs, neumann, specfun  # noqa: F401

__all__ = ["coeffs", "eulersum", "harness", "neumann", "quad", "specfun"]


def __getattr__(name):
    if name in ("eulersum", "harness", "quad"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
