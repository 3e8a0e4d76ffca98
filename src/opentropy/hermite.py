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

from .matcore import OperatorError

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


def l_of_lambda(alpha: float, x: float, lam):
    """Lower interpolant l(lambda) of the refined chain; vectorized in lam."""
    lam = _validate(alpha, x, lam)
    xa = x ** alpha
    if x >= 1.0:
        out = (2.0 * lam * xa / (lam * (x - 1.0) + 2.0)
               + 2.0 * (1.0 - lam) * xa / (lam * (x - 1.0) + x + 1.0) - 1.0)
    else:
        out = (2.0 * lam * xa / (lam * (1.0 - x) + 2.0 * x)
               + 2.0 * (1.0 - lam) * xa / (lam * (1.0 - x) + x + 1.0) - 1.0)
    return float(out) if out.ndim == 0 else out


def L_of_lambda(alpha: float, x: float, lam):
    """Upper interpolant L(lambda) of the refined chain; vectorized in lam."""
    lam = _validate(alpha, x, lam)
    xa = x ** alpha
    if x >= 1.0:
        out = 0.5 * (xa / (lam * (x - 1.0) + 1.0)
                     + lam * xa + (1.0 - lam) * x ** (alpha - 1.0)) - 1.0
    else:
        out = 0.5 * (xa / (lam * (1.0 - x) + x)
                     + lam * x ** (alpha - 1.0) + (1.0 - lam) * xa) - 1.0
    return float(out) if out.ndim == 0 else out


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
GRID_CAP = 10**6  # a few arrays of this many floats take tens of MB


def grid_verify(alpha: float, x: float, n: int = 1001) -> GridVerdict:
    """Check sup/inf closed forms against an ``n``-point lambda grid and the
    pointwise sandwich ``l(lambda) <= integral_avg <= L(lambda)``."""
    if n < 3:
        raise OperatorError(f"grid needs at least 3 points, got {n!r}")
    if n > GRID_CAP:
        raise OperatorError(f"grid takes at most {GRID_CAP} points, got {n!r}")
    rec = hh_record(alpha, x)
    grid = np.linspace(0.0, 1.0, n)
    lvals = np.asarray(l_of_lambda(alpha, x, grid))
    gvals = np.asarray(L_of_lambda(alpha, x, grid))
    max_l = float(np.max(lvals))
    min_L = float(np.min(gvals))
    sup_ok = max_l <= rec.sup_l + GRID_TOL
    inf_ok = min_L >= rec.inf_L - GRID_TOL
    sandwich = bool(np.all(lvals <= rec.integral_avg + GRID_TOL)
                    and np.all(gvals >= rec.integral_avg - GRID_TOL))
    return GridVerdict(passed=bool(sup_ok and inf_ok and sandwich), n=n,
                       max_l_grid=max_l, min_L_grid=min_L,
                       sup_l_closed=rec.sup_l, inf_L_closed=rec.inf_L,
                       sandwich_ok=sandwich)
