"""Operator geometric means, relative operator entropies, weighted means.

Each function is ``bounds.bound`` of registry generators: ``geo_mean``
and ``rel_entropy_alpha_beta`` of ``geometric`` (``t^alpha``) and ``S``
(``t^alpha log t``) against ``h(t) = t^beta``, and ``weighted_means`` of
the three ``prop-means`` terms, the perspectives the chain checker
assembles.
"""

from __future__ import annotations

from .bounds import SUITES, ChainParams, bound
from .matcore import SymMatrix


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

    The ``prop-means`` terms at ``lam``: ``((1-l)A^{-1} + l B^{-1})^{-1}``,
    ``geo_mean(A, B, l)`` and ``(1-l)A + l B``, bitwise those of
    ``compute --expr means``.  The triple is ascending in the Loewner
    order for every ``lam`` in [0, 1]; ``SuiteSpec.resolve`` rejects any
    other ``lam`` with a ``HypothesisError``.
    """
    spec = SUITES["prop-means"]
    p = spec.resolve(ChainParams(lam=lam))
    return tuple(bound(kind, a, b, lam=p.lam) for kind in spec.terms)
