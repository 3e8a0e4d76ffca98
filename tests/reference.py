"""Reference routes the tests check the package against.

Nothing in ``src/opentropy`` imports this module.  It holds two routes to
the operators that ``opentropy.bound`` evaluates as perspectives, the
one-row-at-a-time scalar evaluation the package groups by parameter, and
the one-trial draw the package stacks:

* the explicit route: the weighted means in closed form
  (``closed_form_means``) and every bound from geometric means,
  congruences and LU inverses (``bound_explicit``), built on the
  package's functional calculus;
* an independent 40-digit ``mpmath`` route (``MpPerspective``): the
  perspective ``A^{b/2} g(A^{-b/2} B A^{-b/2}) A^{b/2}`` with every
  registry generator typed again in mpmath (``MP_GENERATORS``), so it
  shares no code with the package and also pins each generator's
  formula;
* ``rows_one_at_a_time`` and ``oracle_closed_forms``: every scalar
  function called on one matrix's values with that matrix's own
  parameters, as the checker did before it called each function once per
  parameter group (``opentropy.perspective._rows``);
* ``spd_one_trial``: one trial's spectrum and Gaussian drawn from a fresh
  generator on its own stream, with numpy's plain per-array calls, as
  ``opentropy.gen`` drew them before it took two generator calls per
  stream and mapped each stack at once.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from opentropy import (BOUND_KINDS, OperatorError, PowerFrame, ScalarFn,
                       SymMatrix, apply_fn, geo_mean, mat_pow)

# ---------------------------------------------------------------------------
# the explicit route


def _mul(*factors: SymMatrix) -> SymMatrix:
    # a product that is self-adjoint in exact arithmetic, such as one of
    # commuting self-adjoint factors; resymmetrized
    data = factors[0].data
    for m in factors[1:]:
        data = data @ m.data
    return SymMatrix._computed(data)


def closed_form_means(a: SymMatrix, b: SymMatrix,
                      lam: float) -> tuple[SymMatrix, SymMatrix, SymMatrix]:
    """``((1-l)A^{-1} + l B^{-1})^{-1}``, ``A^{1/2} (A^{-1/2} B A^{-1/2})^l
    A^{1/2}`` and ``(1-l)A + l B``, each from ``mat_pow`` and matrix
    products rather than from a perspective."""
    harmonic = mat_pow((1.0 - lam) * mat_pow(a, -1.0)
                       + lam * mat_pow(b, -1.0), -1.0)
    half, ihalf = mat_pow(a, 0.5), mat_pow(a, -0.5)
    geometric = _mul(half, mat_pow(_mul(ihalf, b, ihalf), lam), half)
    arithmetic = (1.0 - lam) * a + lam * b
    return harmonic, geometric, arithmetic


def _lu_inv(m: SymMatrix) -> SymMatrix:
    # LU-based inverse: keeps the explicit route off the eigendecomposition
    # path shared with the perspective route.
    return SymMatrix._computed(np.linalg.inv(m.data))


def bound_explicit(kind: str, a: SymMatrix, b: SymMatrix, alpha: float = 0.0,
                   beta: float = 1.0, delta: float = 1.0,
                   lam: float = 0.5) -> SymMatrix:
    """The bound ``kind`` built from its explicit geometric-mean formula.

    It lives on geometric means, congruences and LU inverses rather than
    on a single composite functional calculus.  The means take
    ``beta = 1``, as ``closed_form_means`` does.  The second term of the
    primed lower bound carries coefficient ``4*delta`` (resp.
    ``8*sqrt(delta)``), the one consistent with the ``delta = 1`` collapse
    onto the unprimed bound.
    """
    if kind in ("harmonic", "geometric", "arithmetic"):
        triple = closed_form_means(a, b, lam)
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


# ---------------------------------------------------------------------------
# the mpmath route

MP_DPS = 40

# each generator g(x, alpha, delta, lambda) of the paper, on mpf arguments
MP_GENERATORS = {
    "I": lambda x, a, d, l: 2 * (1 - 2 / (x + 1)) * x ** a,
    "II": lambda x, a, d, l: 4 * x ** a - 8 * x ** a / (mp.sqrt(x) + 1),
    "S": lambda x, a, d, l: x ** a * mp.log(x),
    "III": lambda x, a, d, l: x ** a * (x - 1) / mp.sqrt(x),
    "V": lambda x, a, d, l: (x ** (a + 1) - x ** (a - 1)) / 2,
    "I'": lambda x, a, d, l: (mp.log(d) + 2 * (1 - 2 * d / (x + d))) * x ** a,
    "II'": lambda x, a, d, l: (mp.log(d) + 4
                               - 8 * mp.sqrt(d) / (mp.sqrt(x) + mp.sqrt(d))
                               ) * x ** a,
    "III'": lambda x, a, d, l: (x ** (a + 0.5) / mp.sqrt(d)
                                - mp.sqrt(d) * x ** (a - 0.5)
                                + x ** a * mp.log(d)),
    "V'": lambda x, a, d, l: (x ** (a + 1) / (2 * d) - d * x ** (a - 1) / 2
                              + x ** a * mp.log(d)),
    "lower_shift": lambda x, a, d, l: x ** a - x ** (a - 1),
    "upper_shift": lambda x, a, d, l: x ** (a + 1) - x ** a,
    "base_lower": lambda x, a, d, l: 1 - 1 / x,
    "harmonic": lambda x, a, d, l: 1 / ((1 - l) + l / x),
    "geometric": lambda x, a, d, l: x ** l,
    "arithmetic": lambda x, a, d, l: (1 - l) + l * x,
}


def _mp_compose(u, values):
    """``U diag(values) U*`` in mpmath."""
    return u * mp.diag(values) * u.transpose_conj()


class MpPerspective:
    """``A^{b/2} g(C) A^{b/2}``, ``C = A^{-b/2} B A^{-b/2}``, at ``MP_DPS``
    digits, for one pair of float matrices.

    ``A`` and ``C`` are each decomposed once, when the object is built;
    ``term`` then costs one product per generator.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, beta: float):
        self.complex = np.iscomplexobj(a)
        eigh = mp.eighe if self.complex else mp.eigsy
        with mp.workdps(MP_DPS):
            w, v = eigh(mp.matrix(a.tolist()))
            e = mp.mpf(beta) / 2
            half = _mp_compose(v, [x ** e for x in w])
            ihalf = _mp_compose(v, [x ** -e for x in w])
            self.spectrum, u = eigh(ihalf * mp.matrix(b.tolist()) * ihalf)
            self.m = half * u

    def term(self, kind: str, alpha: float = 0.0, delta: float = 1.0,
             lam: float = 0.5) -> np.ndarray:
        """The perspective of generator ``kind``, rounded to float."""
        g = MP_GENERATORS[kind]
        with mp.workdps(MP_DPS):
            a, d, l = mp.mpf(alpha), mp.mpf(delta), mp.mpf(lam)
            out = _mp_compose(self.m, [g(x, a, d, l) for x in self.spectrum])
        cast = complex if self.complex else float
        return np.array([[cast(out[i, j]) for j in range(out.cols)]
                         for i in range(out.rows)])


# ---------------------------------------------------------------------------
# one row at a time


def rows_one_at_a_time(fn, x: np.ndarray, keys) -> np.ndarray:
    """``fn(x[t], keys[t])`` for every row ``t``, one call per row,
    stacked: the evaluation ``opentropy.perspective._rows`` groups, and a
    drop-in replacement for it."""
    return np.array([fn(row, key) for row, key in zip(x, keys)])


def oracle_closed_forms(p, avals: np.ndarray, bvals: np.ndarray) -> dict:
    """One trial's oracle closed forms for ``diag(avals)``, ``diag(bvals)``
    at the parameters ``p``, by row name, from scalar parameters and this
    trial's values alone; each bound kind's generator is a fresh
    ``ScalarFn`` of all four parameters."""
    alpha, beta, delta, lam = p.alpha, p.beta, p.delta, p.lam
    x, r = bvals / avals ** beta, bvals / avals
    out = {kind: avals ** beta * ScalarFn(kind, alpha, delta, lam)(x)
           for kind in BOUND_KINDS}
    out["S_ab"] = avals ** beta * x ** alpha * np.log(x)
    out["geomean"] = avals ** beta * x ** alpha
    out["S_a"] = avals * r ** alpha * np.log(r)
    out["S"] = avals * np.log(r)
    out["harmonic_mean"] = 1.0 / ((1.0 - lam) / avals + lam / bvals)
    out["geometric_mean"] = avals ** (1.0 - lam) * bvals ** lam
    out["arithmetic_mean"] = (1.0 - lam) * avals + lam * bvals
    return out


# ---------------------------------------------------------------------------
# one trial's draw


def spd_one_trial(seed: int, trial: int, salt: int, dim: int, field: str,
                  lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The log-uniform spectrum in ``[lo, hi]`` and the ``(dim, dim)``
    Gaussian of trial ``trial``'s stream ``salt``: a fresh ``Philox``
    keyed ``(seed, trial * 4 + salt)``, then ``dim`` uniforms, then one
    ``(dim, dim)`` normal draw, and a second for the imaginary part of a
    complex Gaussian."""
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed, (trial * 4 + salt) % 2 ** 64], dtype=np.uint64)))
    u = rng.uniform(0.0, 1.0, dim)
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    return lo * (hi / lo) ** u, g
