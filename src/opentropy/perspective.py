"""Noncommutative perspective functions and congruence maps.

The perspective ``P(X, Y) = h(Y)^{1/2} f(h(Y)^{-1/2} X h(Y)^{-1/2}) h(Y)^{1/2}``
is the single primitive behind every entropy and bound operator in this
package; ``Whitening`` holds its f-independent part, so several ``f`` can
share one pair, and ``congruence`` is its ``h(t) = t^e`` building block.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .matcore import POSITIVE, SpectrumError, SymMatrix, _check_domain, sym_eig


@dataclasses.dataclass(frozen=True)
class PerspectiveSpec:
    """Pair of scalar functions defining a perspective.

    ``f`` and ``h`` are vectorized real functions; ``h`` must be strictly
    positive on the spectrum of the base matrix.  ``f_domain`` is the open
    interval the whitened spectrum must lie in; when omitted, the ``domain``
    attribute of ``f`` is used if present (bounds.ScalarFn carries one).
    """

    f: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    f_domain: tuple[float, float] | None = None
    name: str = ""

    def resolved_domain(self):
        if self.f_domain is not None:
            return self.f_domain
        return getattr(self.f, "domain", None)


class Whitening:
    """The f-independent part of every perspective of one pair ``(X, Y)``.

    Decomposes ``Y``, checks that it and ``h`` on its spectrum are strictly
    positive, builds ``h(Y)^{1/2}`` and decomposes the whitened
    ``C = h(Y)^{-1/2} X h(Y)^{-1/2}``; ``apply`` then evaluates any ``f``
    on ``C``, so perspectives sharing ``h`` and the pair share this work.
    """

    def __init__(self, h: Callable[[np.ndarray], np.ndarray], x: SymMatrix,
                 y: SymMatrix):
        x._same_shape(y)
        pair = sym_eig(y)
        _check_domain(pair.eigenvalues, POSITIVE,
                      "the perspective base, which must be strictly positive")
        hvals = np.asarray(h(pair.eigenvalues), dtype=np.float64)
        if np.min(hvals) <= 0.0:
            raise SpectrumError(
                f"h is not strictly positive on the spectrum of the base "
                f"(min h = {float(np.min(hvals))!r})"
            )
        self.h_half = pair.rebuild(np.sqrt(hvals))
        h_ihalf = pair.rebuild(1.0 / np.sqrt(hvals))
        self.inner = sym_eig(SymMatrix._computed(h_ihalf @ x.data @ h_ihalf))

    def apply(self, spec: PerspectiveSpec) -> SymMatrix:
        """``h(Y)^{1/2} f(C) h(Y)^{1/2}`` for ``spec.f``; ``spec.h`` must be
        the ``h`` this whitening was built with."""
        _check_domain(self.inner.eigenvalues, spec.resolved_domain(),
                      f"{spec.name or 'f'} on the whitened spectrum")
        mid = self.inner.rebuild(spec.f(self.inner.eigenvalues))
        return SymMatrix._computed(self.h_half @ mid @ self.h_half)


def perspective(spec: PerspectiveSpec, x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """Evaluate ``h(Y)^{1/2} f(h(Y)^{-1/2} X h(Y)^{-1/2}) h(Y)^{1/2}``.

    ``x`` is self-adjoint, ``y`` strictly positive, both of one dim and
    field.  The whitened middle matrix is re-symmetrized before its
    eigendecomposition to keep rounding drift out of the eigensolver input;
    its spectrum is validated against the domain of ``f`` at evaluation time.
    """
    return Whitening(spec.h, x, y).apply(spec)


class PowerFrame:
    """Precomputed ``B^{e/2}`` / ``B^{-e/2}`` congruence pair.

    Bound chains conjugate many terms by the same ``A^{beta/2}``; building
    the frame once keeps every term of a trial on identical rounding.
    """

    def __init__(self, base: SymMatrix, exponent: float):
        self.base = base
        self.exponent = float(exponent)
        self.pair = sym_eig(base)
        _check_domain(self.pair.eigenvalues, POSITIVE,
                      "the congruence base, which must be strictly positive")
        half = np.power(self.pair.eigenvalues, self.exponent / 2.0)
        self.half = self.pair.rebuild(half)
        self.ihalf = self.pair.rebuild(1.0 / half)

    def power(self, exponent: float) -> SymMatrix:
        """``base**exponent`` from the cached decomposition."""
        return SymMatrix._computed(
            self.pair.rebuild(np.power(self.pair.eigenvalues, exponent)))

    def conjugate(self, x: SymMatrix) -> SymMatrix:
        """``B^{e/2} X B^{e/2}``; preserves positive semidefiniteness."""
        return SymMatrix._computed(self.half @ x.data @ self.half)

    def whiten(self, x: SymMatrix) -> SymMatrix:
        """``B^{-e/2} X B^{-e/2}``."""
        return SymMatrix._computed(self.ihalf @ x.data @ self.ihalf)


def congruence(x: SymMatrix, b: SymMatrix, exponent: float) -> SymMatrix:
    """Return ``B^{e/2} X B^{e/2}`` for strictly positive ``B``."""
    x._same_shape(b)
    return PowerFrame(b, exponent).conjugate(x)
