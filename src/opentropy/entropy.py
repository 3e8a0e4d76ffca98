"""Operator geometric means, relative operator entropies, weighted means.

``geo_mean`` and ``rel_entropy_alpha_beta`` are ``bounds.bound`` of the
registry generators ``geometric`` (``t^alpha``) and ``S``
(``t^alpha log t``) against ``h(t) = t^beta``, the perspectives the chain
checker assembles.  ``weighted_means`` and ``bound_explicit`` build the
same operators from closed forms, geometric means, congruences and LU
inverses instead; the dual-route tests compare the two routes.
"""

from __future__ import annotations

import numpy as np

from .bounds import bound
from .matcore import OperatorError, SymMatrix, apply_fn, mat_pow
from .perspective import PowerFrame


def geo_mean(a: SymMatrix, b: SymMatrix, alpha: float,
             beta: float = 1.0) -> SymMatrix:
    """Operator weighted geometric mean ``A^{b/2} (A^{-b/2} B A^{-b/2})^a A^{b/2}``.

    Defined for strictly positive ``A`` and ``B`` and arbitrary real
    ``alpha``, ``beta``.  ``beta = 1`` is the Ando alpha-geometric mean;
    ``alpha = 1, beta = 1`` returns ``B`` and ``alpha = 0`` returns
    ``A^beta``.  This is the ``geometric`` bound at ``lam = alpha``.
    """
    return bound("geometric", a, b, beta=beta, lam=alpha)


def rel_entropy_alpha_beta(a: SymMatrix, b: SymMatrix, alpha: float,
                           beta: float) -> SymMatrix:
    """Relative operator entropy ``A^{b/2} [C^a log C] A^{b/2}``,
    ``C = A^{-b/2} B A^{-b/2}``, for strictly positive ``A``, ``B``: the
    ``S`` bound."""
    return bound("S", a, b, alpha=alpha, beta=beta)


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


def _lu_inv(m: SymMatrix) -> SymMatrix:
    # LU-based inverse: keeps the explicit route off the eigendecomposition
    # path shared with the perspective route.
    return SymMatrix._computed(np.linalg.inv(m.data))


def _mul(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    # product of commuting self-adjoint factors; resymmetrized
    return SymMatrix._computed(x.data @ y.data)


def bound_explicit(kind: str, a: SymMatrix, b: SymMatrix, alpha: float = 0.0,
                   beta: float = 1.0, delta: float = 1.0,
                   lam: float = 0.5) -> SymMatrix:
    """The same operator built from its explicit geometric-mean formula.

    Used by the dual-route checks: lives on geometric means, congruences
    and LU inverses rather than on a single composite functional calculus.
    The second term of the primed lower bound carries coefficient
    ``4*delta`` (resp. ``8*sqrt(delta)``), the one consistent with the
    ``delta = 1`` collapse onto the unprimed bound.
    """
    if kind in ("harmonic", "geometric", "arithmetic"):
        triple = weighted_means(a, b, lam)
        return triple[("harmonic", "geometric", "arithmetic").index(kind)]

    def gm(al):
        return geo_mean(a, b, al, beta)

    if kind == "III":
        return gm(alpha + 0.5) - gm(alpha - 0.5)
    if kind == "V":
        return 0.5 * (gm(alpha + 1.0) - gm(alpha - 1.0))
    if kind == "lower_shift":
        return gm(alpha) - gm(alpha - 1.0)
    if kind == "upper_shift":
        return gm(alpha + 1.0) - gm(alpha)
    if kind == "base_lower":
        return gm(0.0) - gm(-1.0)
    if kind == "III'":
        return (gm(alpha + 0.5) * (1.0 / np.sqrt(delta))
                - np.sqrt(delta) * gm(alpha - 0.5)
                + np.log(delta) * gm(alpha))
    if kind == "V'":
        return (0.5 * (gm(alpha + 1.0) * (1.0 / delta) - delta * gm(alpha - 1.0))
                + np.log(delta) * gm(alpha))

    frame = PowerFrame(a, beta)
    c = frame.whiten(b)
    eye = SymMatrix.identity(a.dim, a.field)
    c_alpha = mat_pow(c, alpha)
    if kind == "I":
        mid = _mul(eye - 2.0 * _lu_inv(eye + c), c_alpha)
        return 2.0 * frame.conjugate(mid)
    if kind == "II":
        mid = _mul(c_alpha, _lu_inv(mat_pow(c, 0.5) + eye))
        return 4.0 * gm(alpha) - 8.0 * frame.conjugate(mid)
    if kind == "S":
        mid = _mul(c_alpha, apply_fn(c, np.log, "log"))
        return frame.conjugate(mid)
    if kind == "I'":
        mid = _mul(_lu_inv(c + delta * eye), c_alpha)
        return (np.log(delta) + 2.0) * gm(alpha) - 4.0 * delta * frame.conjugate(mid)
    if kind == "II'":
        mid = _mul(_lu_inv(mat_pow(c, 0.5) + np.sqrt(delta) * eye), c_alpha)
        return ((np.log(delta) + 4.0) * gm(alpha)
                - 8.0 * np.sqrt(delta) * frame.conjugate(mid))
    raise OperatorError(f"unknown bound kind {kind!r}")
