"""Noncommutative perspective functions and congruence maps.

The perspective ``P(X, Y) = h(Y)^{1/2} f(h(Y)^{-1/2} X h(Y)^{-1/2}) h(Y)^{1/2}``
is the single primitive behind every entropy and bound operator in this
package.  ``Frame`` builds its congruence ``H = h(Y)^{1/2}`` for one matrix
or a ``(T, n, n)`` stack, and ``Frame.assemble`` builds every stacked
``H f_k(C) H`` the chain checker and the scalar oracle compare;
``perspective``, ``PowerFrame`` and ``congruence`` are its one-matrix cases.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .matcore import (POSITIVE, SpectrumError, SymMatrix, _admit,
                      _check_domain, _eigh)


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


def _rows(fn, *columns) -> np.ndarray:
    """``fn`` on each row of ``columns``, stacked.  Each row sees its own
    parameters as scalars: ``np.power`` special-cases scalar exponents
    such as 0.5, 2 and -1, so a broadcast ``(T, 1)`` exponent would change
    bits."""
    return np.array([fn(*row) for row in zip(*columns)])


def _half_power(eigenvalues: np.ndarray, exponent) -> np.ndarray:
    return np.power(eigenvalues, float(exponent) / 2.0)


class Frame:
    """``H = U diag(v) U*`` and ``H^{-1}`` for a strictly positive base
    ``U diag(lambda) U*``, one ``(n, n)`` matrix or a ``(T, n, n)`` stack;
    ``half`` maps ``lambda`` to ``v`` once the base, called ``name`` in
    errors, passes its positivity check.  ``whiten`` and ``conjugate``
    return raw products, which the caller admits.
    """

    def __init__(self, base: np.ndarray, half: Callable,
                 name: str = "the congruence base"):
        self.pair = _eigh(base)
        _check_domain(self.pair.eigenvalues, POSITIVE,
                      f"{name}, which must be strictly positive")
        v = half(self.pair.eigenvalues)
        self.half = self.pair.rebuild(v)
        self.ihalf = self.pair.rebuild(1.0 / v)

    @classmethod
    def power(cls, base: np.ndarray, exponents) -> "Frame":
        """``v = lambda^{e/2}`` on a stack, each matrix at its own ``e``."""
        return cls(base, lambda w: _rows(_half_power, w, exponents))

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """``H^{-1} X H^{-1}``, raw."""
        return self.ihalf @ x @ self.ihalf

    def conjugate(self, mid: np.ndarray) -> np.ndarray:
        """``H M H``, raw; extra leading axes of ``mid`` broadcast."""
        return self.half @ mid @ self.half

    def assemble(self, x: np.ndarray, fns, name: str) -> np.ndarray:
        """Every ``H f_k(C) H``, ``C = H^{-1} X H^{-1}``, as one
        ``(T, K, n, n)`` stack; ``fns[t]`` lists matrix ``t``'s K functions.
        ``C`` must be strictly positive (``name`` names it in errors); the
        results are admitted in ``chain_check`` order, ``f_0(C)``, term 0,
        ``f_1(C)``, term 1, ..., and returned symmetrized."""
        inner = _eigh(_admit(self.whiten(x)))
        _check_domain(inner.eigenvalues, POSITIVE, name)
        vals = _rows(lambda w, fs: [f(w) for f in fs], inner.eigenvalues,
                     fns)
        # term-major (K, T, n, n), so that each matrix's H broadcasts over K
        mid = inner.rebuild(vals.swapaxes(0, 1))
        return _admit(mid.swapaxes(0, 1),
                      self.conjugate(mid).swapaxes(0, 1))


def perspective(spec: PerspectiveSpec, x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """Evaluate ``h(Y)^{1/2} f(h(Y)^{-1/2} X h(Y)^{-1/2}) h(Y)^{1/2}``.

    ``x`` is self-adjoint, ``y`` strictly positive, both of one dim and
    field, and ``h`` strictly positive and finite on the spectrum of ``y``.
    The whitened middle matrix is re-symmetrized before its
    eigendecomposition to keep rounding drift out of the eigensolver input;
    its spectrum is validated against the domain of ``f`` at evaluation time.
    """
    x._same_shape(y)

    def half(eigenvalues):
        hvals = np.asarray(spec.h(eigenvalues), dtype=np.float64)
        # min and max propagate NaN, which fails both comparisons
        lo, hi = hvals.min(), hvals.max()
        if not 0.0 < lo:
            raise SpectrumError("h is not strictly positive on the spectrum "
                                f"of the base (min h = {float(lo)!r})")
        if not hi < np.inf:
            raise SpectrumError("h is not strictly positive and finite on the "
                                f"spectrum of the base (max h = {float(hi)!r})")
        return np.sqrt(hvals)

    frame = Frame(y.data, half, "the perspective base")
    inner = _eigh(SymMatrix._computed(frame.whiten(x.data)).data)
    _check_domain(inner.eigenvalues, spec.resolved_domain(),
                  f"{spec.name or 'f'} on the whitened spectrum")
    mid = inner.rebuild(spec.f(inner.eigenvalues))
    return SymMatrix._computed(frame.conjugate(mid))


class PowerFrame:
    """``B^{e/2} X B^{e/2}`` and ``B^{-e/2} X B^{-e/2}`` for one strictly
    positive ``B``: the one-matrix case of ``Frame.power``.

    Bound chains conjugate many terms by the same ``A^{beta/2}``; building
    the frame once keeps every term of a trial on identical rounding.
    """

    def __init__(self, base: SymMatrix, exponent: float):
        self.frame = Frame(base.data, lambda w: _half_power(w, exponent))

    def conjugate(self, x: SymMatrix) -> SymMatrix:
        """``B^{e/2} X B^{e/2}``; preserves positive semidefiniteness."""
        return SymMatrix._computed(self.frame.conjugate(x.data))

    def whiten(self, x: SymMatrix) -> SymMatrix:
        """``B^{-e/2} X B^{-e/2}``."""
        return SymMatrix._computed(self.frame.whiten(x.data))


def congruence(x: SymMatrix, b: SymMatrix, exponent: float) -> SymMatrix:
    """Return ``B^{e/2} X B^{e/2}`` for strictly positive ``B``."""
    x._same_shape(b)
    return PowerFrame(b, exponent).conjugate(x)
