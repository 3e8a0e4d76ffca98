"""Operator geometric means, relative operator entropies, weighted means.

Every operation routes through the perspective primitive with
``h(t) = t^beta``, mirroring how the inequality chains are proved; the
weighted means additionally have their explicit closed forms here, which
the dual-route tests compare against the perspective route.
"""

from __future__ import annotations

import numpy as np

from .matcore import OperatorError, SymMatrix, _power, mat_pow
from .perspective import PerspectiveSpec, perspective


def geo_mean(a: SymMatrix, b: SymMatrix, alpha: float,
             beta: float = 1.0) -> SymMatrix:
    """Operator weighted geometric mean ``A^{b/2} (A^{-b/2} B A^{-b/2})^a A^{b/2}``.

    Defined for strictly positive ``A`` and ``B`` and arbitrary real
    ``alpha``, ``beta``.  ``beta = 1`` is the Ando alpha-geometric mean;
    ``alpha = 1, beta = 1`` returns ``B`` and ``alpha = 0`` returns
    ``A^beta``.
    """
    return perspective(geo_mean_spec(alpha, beta), b, a)


def geo_mean_spec(alpha: float, beta: float) -> PerspectiveSpec:
    """The perspective ``geo_mean`` evaluates: ``f = t^alpha``, ``h = t^beta``."""
    return PerspectiveSpec(f=_power(alpha), beta=beta,
                           name=f"geo_mean(alpha={alpha})")


def _xalog(alpha: float):
    fn = lambda x: np.power(x, alpha) * np.log(x)  # noqa: E731
    fn.name = f"x**{alpha} * log(x)"
    return fn


def rel_entropy_alpha_beta(a: SymMatrix, b: SymMatrix, alpha: float,
                           beta: float) -> SymMatrix:
    """Relative operator entropy ``A^{b/2} [C^a log C] A^{b/2}``,
    ``C = A^{-b/2} B A^{-b/2}``, for strictly positive ``A``, ``B``."""
    return perspective(rel_entropy_spec(alpha, beta), b, a)


def rel_entropy_spec(alpha: float, beta: float) -> PerspectiveSpec:
    """The perspective ``rel_entropy_alpha_beta`` evaluates:
    ``f = t^alpha log t``, ``h = t^beta``."""
    return PerspectiveSpec(f=_xalog(alpha), beta=beta,
                           name=f"rel_entropy(alpha={alpha},beta={beta})")


def rel_entropy_alpha(a: SymMatrix, b: SymMatrix, alpha: float) -> SymMatrix:
    """Generalized relative operator entropy (``beta = 1``)."""
    return rel_entropy_alpha_beta(a, b, alpha, 1.0)


def rel_entropy(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Relative operator entropy ``A^{1/2} log(A^{-1/2} B A^{-1/2}) A^{1/2}``."""
    return rel_entropy_alpha_beta(a, b, 0.0, 1.0)


def weighted_means(a: SymMatrix, b: SymMatrix,
                   lam: float) -> tuple[SymMatrix, SymMatrix, SymMatrix]:
    """Weighted harmonic, geometric and arithmetic operator means.

    Returns ``((1-l)A^{-1} + l B^{-1})^{-1}``, the weighted geometric mean,
    and ``(1-l)A + l B``; the triple is ascending in the Loewner order for
    every ``lam`` in [0, 1].
    """
    if not 0.0 <= lam <= 1.0:
        raise OperatorError(f"lambda must lie in [0, 1], got {lam!r}")
    ainv = mat_pow(a, -1.0)
    binv = mat_pow(b, -1.0)
    harmonic = mat_pow((1.0 - lam) * ainv + lam * binv, -1.0)
    geometric = geo_mean(a, b, lam, 1.0)
    arithmetic = (1.0 - lam) * a + lam * b
    return harmonic, geometric, arithmetic
