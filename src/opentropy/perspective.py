"""Noncommutative perspective functions and congruence maps.

The perspective ``P(X, Y) = Y^{b/2} f(Y^{-b/2} X Y^{-b/2}) Y^{b/2}`` against
``h(t) = t^b`` is the single primitive behind every entropy and bound
operator in this package.  ``Frame`` builds its congruence ``H = Y^{b/2}``
for one matrix or a ``(T, n, n)`` stack, and ``Frame.assemble`` builds
every stacked ``H f_k(C) H`` the chain checker and the scalar oracle
compare; ``perspective`` and ``PowerFrame`` are its one-matrix cases.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .matcore import (POSITIVE, OperatorError, SymMatrix, _admit,
                      _check_domain, _eigh)


@dataclasses.dataclass(frozen=True)
class PerspectiveSpec:
    """A scalar function ``f`` and the exponent ``beta`` of ``h(t) = t^beta``.

    ``f`` is a vectorized real function and ``beta`` a finite real.
    ``f_domain`` is the open interval the whitened spectrum must lie in;
    when omitted, the ``domain`` attribute of ``f`` is used if present
    (bounds.ScalarFn carries one).
    """

    f: Callable[[np.ndarray], np.ndarray]
    beta: float
    f_domain: tuple[float, float] | None = None
    name: str = ""

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise OperatorError(f"beta must be finite, got {self.beta!r}")

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
    """``H = U diag(v) U*`` and ``H^{-1}``, ``v = lambda^{e/2}``, for a
    strictly positive base ``U diag(lambda) U*``: one ``(n, n)`` matrix at
    one exponent ``e``, or a ``(T, n, n)`` stack at one exponent per
    matrix.  The base is called ``name`` in errors.  ``whiten`` and
    ``conjugate`` return raw products, which the caller admits.
    """

    def __init__(self, base: np.ndarray, exponents,
                 name: str = "the congruence base"):
        self.pair = _eigh(base)
        w = self.pair.eigenvalues
        _check_domain(w, POSITIVE, f"{name}, which must be strictly positive")
        v = (_half_power(w, exponents) if w.ndim == 1
             else _rows(_half_power, w, exponents))
        self.half = self.pair.rebuild(v)
        self.ihalf = self.pair.rebuild(1.0 / v)

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
    """Evaluate ``Y^{b/2} f(Y^{-b/2} X Y^{-b/2}) Y^{b/2}``, ``b = spec.beta``.

    ``x`` is self-adjoint and ``y`` strictly positive, both of one dim and
    field.  The frame is ``Frame(y, b)``, the one the chain checker builds,
    so the result is bitwise the term ``Frame.assemble`` builds for ``f``.
    A ``Y^{b/2}`` that over- or underflows is rejected downstream, as a
    non-finite product or a whitened eigenvalue outside the domain of
    ``f``.  The whitened middle matrix is re-symmetrized before its
    eigendecomposition to keep rounding drift out of the eigensolver
    input; its spectrum is validated against the domain of ``f`` at
    evaluation time.
    """
    x._same_shape(y)
    frame = Frame(y.data, spec.beta, "the perspective base")
    inner = _eigh(SymMatrix._computed(frame.whiten(x.data)).data)
    _check_domain(inner.eigenvalues, spec.resolved_domain(),
                  f"{spec.name or 'f'} on the whitened spectrum")
    mid = inner.rebuild(spec.f(inner.eigenvalues))
    return SymMatrix._computed(frame.conjugate(mid))


class PowerFrame:
    """``B^{e/2} X B^{e/2}`` and ``B^{-e/2} X B^{-e/2}`` for one strictly
    positive ``B``: ``Frame(B, e)`` on ``SymMatrix`` values.

    Bound chains conjugate many terms by the same ``A^{beta/2}``; building
    the frame once keeps every term of a trial on identical rounding.
    """

    def __init__(self, base: SymMatrix, exponent: float):
        self.base = base
        self.frame = Frame(base.data, exponent)

    def conjugate(self, x: SymMatrix) -> SymMatrix:
        """``B^{e/2} X B^{e/2}``; preserves positive semidefiniteness."""
        x._same_shape(self.base)
        return SymMatrix._computed(self.frame.conjugate(x.data))

    def whiten(self, x: SymMatrix) -> SymMatrix:
        """``B^{-e/2} X B^{-e/2}``."""
        x._same_shape(self.base)
        return SymMatrix._computed(self.frame.whiten(x.data))
