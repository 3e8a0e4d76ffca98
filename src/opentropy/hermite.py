"""Refined Hermite-Hadamard chain for the family ``f(t) = x^alpha / t - 1``.

The five scalar quantities (midpoint value, best lower interpolant, integral
average, best upper interpolant, endpoint average) underpin the operator
sandwich theorems; both spectral branches (``x >= 1`` on ``[1, x]`` and
``x <= 1`` on ``[x, 1]``) are implemented from their separate closed forms
rather than by reflecting the interval, so sign errors cannot cancel.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .matcore import OperatorError, _check_int

# Below this distance from x = 1 the 0/0 integral-average form is replaced
# by its limit; every chain quantity vanishes there.
UNIT_CUTOFF = 1e-12


def _validate(alpha: float, x: float, lam=None):
    if not 0.0 < x < np.inf:
        raise OperatorError(f"x must be positive and finite, got {x!r}")
    if not 0.0 <= alpha < np.inf:
        raise OperatorError(
            f"alpha must be nonnegative and finite, got {alpha!r}")
    if lam is None:
        return None
    lam = np.asarray(lam, dtype=np.float64)
    # written so that NaN fails
    if not np.all((0.0 <= lam) & (lam <= 1.0)):
        raise OperatorError("lambda must lie in [0, 1]")
    return lam


def _interpolants(alpha: float, x: float, lam: np.ndarray):
    """``(l(lam), L(lam))`` on an array ``lam`` in [0, 1] of at least one
    dimension.

    ``lam * |x - 1|`` and ``1 - lam`` are shared and the rest works in
    place, in the operations and order of the closed forms, so every value
    has the bits of its formula:

    ``l = (2 lam) xa / (lam s + c) + (2 (1-lam)) xa / ((lam s + x) + 1) - 1``
    and ``L = 0.5 ((xa / (lam s + d) + lam hi) + (1-lam) lo) - 1``, with
    ``s = |x - 1|`` and ``(c, d, hi, lo)`` ``(2, 1, x^a, x^(a-1))`` for
    ``x >= 1``, ``(2x, x, x^(a-1), x^a)`` for ``x < 1``.
    """
    xa = x ** alpha
    xb = x ** (alpha - 1.0)
    if x >= 1.0:
        s, c, d, hi, lo = x - 1.0, 2.0, 1.0, xa, xb
    else:
        s, c, d, hi, lo = 1.0 - x, 2.0 * x, x, xb, xa
    ls = lam * s
    rest = 1.0 - lam
    den = ls + c
    l = 2.0 * lam
    l *= xa
    l /= den
    term = 2.0 * rest
    term *= xa
    np.add(ls, x, out=den)
    den += 1.0
    term /= den
    l += term
    l -= 1.0
    L = np.add(ls, d, out=ls)
    np.divide(xa, L, out=L)
    L += np.multiply(lam, hi, out=term)
    L += np.multiply(rest, lo, out=rest)
    L *= 0.5
    L -= 1.0
    return l, L


def _pick(alpha: float, x: float, lam, which: int):
    lam = _validate(alpha, x, lam)
    out = _interpolants(alpha, x, np.atleast_1d(lam))[which]
    return float(out[0]) if lam.ndim == 0 else out


def l_of_lambda(alpha: float, x: float, lam):
    """Lower interpolant l(lambda) of the refined chain; vectorized in lam."""
    return _pick(alpha, x, lam, 0)


def L_of_lambda(alpha: float, x: float, lam):
    """Upper interpolant L(lambda) of the refined chain; vectorized in lam."""
    return _pick(alpha, x, lam, 1)


def extremizer(x: float) -> float:
    """The lambda attaining sup l and inf L: ``1/(sqrt(x)+1)`` for
    ``x >= 1``, ``sqrt(x)/(sqrt(x)+1)`` for ``x <= 1`` (both 1/2 at x=1)."""
    if not x > 0.0:
        raise OperatorError(f"x must be positive, got {x!r}")
    r = np.sqrt(x)
    return float(1.0 / (r + 1.0)) if x >= 1.0 else float(r / (r + 1.0))


@dataclasses.dataclass(frozen=True)
class HHRecord:
    """The five quantities of the refined chain at one (alpha, x), ascending:
    midpoint <= sup_l <= integral_avg <= inf_L <= endpoint_avg."""

    x: float
    alpha: float
    midpoint: float
    sup_l: float
    integral_avg: float
    inf_L: float
    endpoint_avg: float
    lambda_star: float

    def chain(self) -> tuple[float, float, float, float, float]:
        return (self.midpoint, self.sup_l, self.integral_avg, self.inf_L,
                self.endpoint_avg)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def hh_record(alpha: float, x: float) -> HHRecord:
    """Closed forms of the five-term chain.

    The integral average ``(x^alpha ln x - (x-1)) / (x-1)`` is
    orientation-correct on both branches; within ``1e-12`` of ``x = 1`` the
    record is the all-zero limit.  A value that overflows raises
    ``OperatorError``.
    """
    _validate(alpha, x)
    if abs(x - 1.0) < UNIT_CUTOFF:
        return HHRecord(x=x, alpha=alpha, midpoint=0.0, sup_l=0.0,
                        integral_avg=0.0, inf_L=0.0, endpoint_avg=0.0,
                        lambda_star=0.5)
    overflow = OperatorError(
        f"the hh record is not finite at alpha={alpha!r}, x={x!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            xa = x ** alpha
            r = np.sqrt(x)
            rec = HHRecord(
                x=x,
                alpha=alpha,
                midpoint=float(2.0 * xa / (x + 1.0) - 1.0),
                sup_l=float(4.0 * xa / (r + 1.0) ** 2 - 1.0),
                integral_avg=float((xa * np.log(x) - (x - 1.0)) / (x - 1.0)),
                inf_L=float(xa / r - 1.0),
                endpoint_avg=float(0.5 * (xa + x ** (alpha - 1.0)) - 1.0),
                lambda_star=extremizer(x),
            )
    except OverflowError:  # float ** raises where numpy would give inf
        raise overflow from None
    if not np.all(np.isfinite(rec.chain())):
        raise overflow
    return rec


@dataclasses.dataclass(frozen=True)
class GridVerdict:
    """Grid confirmation of the extreme-value claims and the sandwich."""

    passed: bool
    n: int
    max_l_grid: float
    min_L_grid: float
    sup_l_closed: float
    inf_L_closed: float
    sandwich_ok: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


GRID_TOL = 1e-10
GRID_CAP = 10**6  # one 8 MB grid at the cap, plus a block's temporaries
# points per block of grid_verify: each float64 temporary takes 64 KB, below
# glibc's 128 KB mmap threshold, so a block reuses heap memory instead of
# mapping and faulting in fresh pages
GRID_BLOCK = 8192


def grid_verify(alpha: float, x: float, n: int = 1001) -> GridVerdict:
    """Check sup/inf closed forms against an ``n``-point lambda grid and the
    pointwise sandwich ``l(lambda) <= integral_avg <= L(lambda)``.

    l and L are evaluated in blocks of ``GRID_BLOCK`` points; only the
    block extremes are kept.  Every l lies below the average exactly when
    the largest does, and ``np.max`` and ``np.min`` propagate NaN, so the
    extremes decide the sandwich as a pointwise test would."""
    n = _check_int("n", n)
    if n < 3:
        raise OperatorError(f"grid needs at least 3 points, got {n!r}")
    if n > GRID_CAP:
        raise OperatorError(f"grid takes at most {GRID_CAP} points, got {n!r}")
    rec = hh_record(alpha, x)
    grid = _validate(alpha, x, np.linspace(0.0, 1.0, n))
    starts = range(0, n, GRID_BLOCK)
    highs, lows = np.empty(len(starts)), np.empty(len(starts))
    for i, start in enumerate(starts):
        lvals, gvals = _interpolants(alpha, x, grid[start:start + GRID_BLOCK])
        highs[i], lows[i] = lvals.max(), gvals.min()
    max_l = float(highs.max())
    min_L = float(lows.min())
    sup_ok = max_l <= rec.sup_l + GRID_TOL
    inf_ok = min_L >= rec.inf_L - GRID_TOL
    sandwich = (max_l <= rec.integral_avg + GRID_TOL
                and min_L >= rec.integral_avg - GRID_TOL)
    return GridVerdict(passed=bool(sup_ok and inf_ok and sandwich), n=n,
                       max_l_grid=max_l, min_L_grid=min_L,
                       sup_l_closed=rec.sup_l, inf_L_closed=rec.inf_L,
                       sandwich_ok=sandwich)
