"""Noncommutative perspective functions and congruence maps.

The perspective ``P(X, Y) = Y^{b/2} f(Y^{-b/2} X Y^{-b/2}) Y^{b/2}`` of a
scalar ``f`` on (0, inf), at strictly positive ``X`` and ``Y``, is the
single primitive behind every entropy and bound operator in this package.
``Frame`` builds its congruence ``H = Y^{b/2}`` for a ``(T, n, n)`` stack,
and ``Frame.assemble`` builds every stacked ``H f_k(C) H`` the chain
checker and the scalar oracle compare, each as the one product
``(H U) diag f_k(lambda) (H U)*`` of ``C = U diag(lambda) U*``: only
``C`` and the terms are formed and admitted, never ``f_k(C)``.
``perspective`` is ``Frame.assemble`` on a stack of one, and
``PowerFrame`` is a stack-of-one ``Frame`` on ``SymMatrix`` values.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from .matcore import (OperatorError, SymMatrix, _admit, _check_domain,
                      _check_finite, _compose, _eigh, _fro)


def _rows(fn, x: np.ndarray, keys) -> np.ndarray:
    """``fn(x[t], keys[t])`` for every row ``t``, stacked, from one call
    ``fn(x[rows], key)`` per distinct key, on the rows that share it,
    scattered back in row order.  Each call sees its key as a scalar:
    ``np.power`` special-cases scalar exponents such as 0.5, 2 and -1, so
    a broadcast ``(T, 1)`` exponent would change bits.  ``fn`` must act on
    each row alone, as numpy's elementwise functions do; that a group then
    gives the bits of its rows one at a time is a property of the numpy
    build, which the tests check."""
    groups: dict = {}
    for t, key in enumerate(keys):
        groups.setdefault(key, []).append(t)
    if not groups:  # no rows: no call
        return np.empty_like(x, dtype=np.float64)
    if len(groups) == 1:
        return fn(x, next(iter(groups)))
    # one gather puts each group's rows together, one scatter undoes it
    order = [t for rows in groups.values() for t in rows]
    grouped, vals, start = x[order], [], 0
    for key, rows in groups.items():
        vals.append(fn(grouped[start:start + len(rows)], key))
        start += len(rows)
    stacked = np.concatenate(vals)
    out = np.empty_like(stacked)
    out[order] = stacked
    return out


def _each(fns, x: np.ndarray) -> np.ndarray:
    """``fns[t](x[t])`` for every row ``t``, stacked: ``_rows`` with one
    call per distinct function object, grouped by identity, so no
    function is hashed or compared."""
    by_id = {id(f): f for f in fns}
    return _rows(lambda rows, key: by_id[key](rows), x, map(id, fns))


class Frame:
    """``H = U diag(v) U*`` and ``H^{-1}``, ``v = lambda^{e/2}``, for each
    strictly positive base ``U diag(lambda) U*`` of a ``(T, n, n)`` stack,
    at one exponent ``e`` per matrix.  The bases are called ``name`` in
    errors.  A ``v`` that over- or underflows, so that ``H`` or ``H^{-1}``
    is not finite, is rejected here.  ``at`` gives the same bases at other
    exponents without decomposing them again.  ``whiten`` and ``conjugate``
    return raw products, which the caller admits.
    """

    def __init__(self, base: np.ndarray, exponents,
                 name: str = "the congruence base"):
        self.pair = _eigh(base)
        self.name = name
        _check_domain(self.pair.eigenvalues,
                      f"{name}, which must be strictly positive")
        self._power(exponents)

    def _power(self, exponents) -> None:
        w = self.pair.eigenvalues
        v = _rows(lambda lam, e: np.power(lam, float(e) / 2.0), w, exponents)
        iv = 1.0 / v  # inf where v underflowed
        finite = np.isfinite(v) & np.isfinite(iv)
        if not finite.all():
            t, k = np.unravel_index(np.argmin(finite), finite.shape)
            raise OperatorError(
                f"the power {float(exponents[t])!r}/2 of eigenvalue "
                f"{float(w[t, k])!r} of {self.name} over- or underflows")
        self.half = self.pair.rebuild(v)
        self.ihalf = self.pair.rebuild(iv)

    def at(self, exponents) -> "Frame":
        """The frame of the same bases at other exponents, built from this
        frame's decomposition: bitwise ``Frame(base, exponents, name)``
        without decomposing the bases again."""
        frame = copy.copy(self)
        frame._power(exponents)
        return frame

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """``H^{-1} X H^{-1}``, raw."""
        return self.ihalf @ x @ self.ihalf

    def conjugate(self, mid: np.ndarray) -> np.ndarray:
        """``H M H``, raw; extra leading axes of ``mid`` broadcast."""
        return self.half @ mid @ self.half

    def assemble(self, x: np.ndarray, fns, name: str) -> np.ndarray:
        """Every ``H f_k(C) H``, ``C = H^{-1} X H^{-1}``, as one
        ``(T, K, n, n)`` stack; ``fns[t]`` lists matrix ``t``'s K functions.
        ``C`` must be strictly positive (``name`` names it in errors).
        Each ``f_k`` is called once per distinct object in column ``k``, on
        the spectra of the matrices that hold it (``_rows``), so equal
        functions are best passed as one object, as
        ``bounds.scalar_generator`` returns them.

        With ``C = U diag(lambda) U*`` and ``M = H U``, each term is the one
        product ``(M diag f_k(lambda)) M*``, as ``H`` is self-adjoint; the
        terms are admitted and returned symmetrized.  ``f_k(C)`` itself is
        never formed, so only the whitened ``C`` and the terms are
        admitted: the first non-finite term, in (trial, term) order, raises
        the error its ``_admit`` raises, unless its own ``f_k(lambda)`` is
        not finite; then the error names ``f_k`` (by its ``name``
        attribute, else ``f``), the eigenvalue and the value.
        """
        inner = _eigh(_admit(self.whiten(x)))
        _check_domain(inner.eigenvalues, name)
        # one column of values per k, laid out as one (T, K, n) array
        vals = np.ascontiguousarray(np.array(
            [_each(column, inner.eigenvalues) for column in zip(*fns)]
        ).swapaxes(0, 1))
        terms = _compose((self.half @ inner.eigenvectors)[:, None], vals)
        try:
            return _admit(terms)
        except OperatorError:
            # the term _admit rejected; an infinite f_k(lambda) reaches it
            # as inf - inf, which would name neither f_k nor the overflow
            finite = np.isfinite(_fro(terms))
            t, k = np.unravel_index(np.argmin(finite), finite.shape)
            bad = ~np.isfinite(vals[t, k])
            if not bad.any():
                raise
            j = np.argmax(bad)
            raise OperatorError(
                f"generator {getattr(fns[t][k], 'name', 'f')} gives the "
                f"non-finite value {float(vals[t, k, j])!r} at eigenvalue "
                f"{float(inner.eigenvalues[t, j])!r} of {name}") from None


def perspective(f: Callable[[np.ndarray], np.ndarray], x: SymMatrix,
                y: SymMatrix, beta: float) -> SymMatrix:
    """Evaluate ``Y^{b/2} f(Y^{-b/2} X Y^{-b/2}) Y^{b/2}``, ``b = beta``.

    ``f`` is an elementwise real function on (0, inf), called on a
    ``(1, n)`` array and named in errors by its ``name`` attribute (else
    ``f``); ``beta`` is the finite exponent of ``h(t) = t^beta``.  ``x``
    and ``y`` are strictly positive, of one dim and field.  This is
    ``Frame.assemble`` of ``f`` on ``Frame(y, [b])``, the frame the chain
    checker builds, on a stack of one, so the result is bitwise the term
    the checker assembles for ``f``.
    """
    _check_finite("beta", beta)
    x._same_shape(y)
    frame = Frame(y.data[None], [beta], "the perspective base")
    name = getattr(f, "name", "f")
    term = frame.assemble(x.data[None], [[f]],
                          f"{name} on the whitened spectrum")
    return SymMatrix._computed(term[0, 0])


class PowerFrame:
    """``B^{e/2} X B^{e/2}`` and ``B^{-e/2} X B^{-e/2}`` for one strictly
    positive ``B``: ``Frame`` on a stack of one, on ``SymMatrix`` values.

    Bound chains conjugate many terms by the same ``A^{beta/2}``; building
    the frame once keeps every term of a trial on identical rounding.
    """

    def __init__(self, base: SymMatrix, exponent: float):
        self.base = base
        self.frame = Frame(base.data[None], [exponent])

    def conjugate(self, x: SymMatrix) -> SymMatrix:
        """``B^{e/2} X B^{e/2}``; preserves positive semidefiniteness."""
        x._same_shape(self.base)
        return SymMatrix._computed(self.frame.conjugate(x.data)[0])

    def whiten(self, x: SymMatrix) -> SymMatrix:
        """``B^{-e/2} X B^{-e/2}``."""
        x._same_shape(self.base)
        return SymMatrix._computed(self.frame.whiten(x.data)[0])
