"""Dense self-adjoint matrices, spectral calculus, and the Loewner order.

Everything downstream (perspectives, entropies, bound chains) reduces to the
four operations here: eigendecomposition, functional calculus, positive
semidefiniteness of a difference, and the Jordan-product identity check.
All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Callable

import numpy as np

# Self-adjointness admission tolerance (relative to max(1, Frobenius norm)).
HERMITICITY_TOL = 1e-13
# Sweep limit of the reference Jacobi solver (jacobi_real, jacobi_herm).
MAX_SWEEPS = 64
# Default Loewner comparison tolerance (relative, scale-aware).
DEFAULT_LOEWNER_TOL = 1e-8


class OperatorError(ValueError):
    """Base class for domain and shape violations raised by this package."""


class DimensionError(OperatorError):
    """Operands disagree in dimension or scalar field."""


class SelfAdjointError(OperatorError):
    """Input matrix is not self-adjoint within tolerance."""


class SpectrumError(OperatorError):
    """An eigenvalue lies outside the domain of the requested function."""


class ConvergenceError(OperatorError):
    """The eigensolver did not converge."""


def _resym(arr: np.ndarray) -> np.ndarray:
    """``(M + M*) / 2`` of each matrix in the last two axes."""
    # halve the real and imaginary parts as reals: complex division by 2
    # mixes the parts (a + b*0), which can flip the sign of a zero, so the
    # result would not be a bitwise fixed point of _resym.  A contiguous copy
    # of the adjoint: same bits, 5x faster than a view on (18, 32, 32) stacks
    sym = arr.swapaxes(-1, -2).copy(order="C")
    np.conjugate(sym, out=sym)
    np.add(arr, sym, out=sym)
    parts = sym.view(sym.real.dtype)
    parts *= 0.5
    return sym


@dataclasses.dataclass(frozen=True, eq=False)
class SymMatrix:
    """A dense self-adjoint matrix over the reals or the complex numbers.

    Matrices entering the package get full admission: NaN and infinite
    entries (or an overflowing Frobenius norm) are rejected, and the max
    entrywise asymmetry must not exceed ``1e-13 * max(1, ||M||_F)``.
    Results computed from admitted matrices (``_computed``) are checked for
    finiteness only.  Both store the exactly Hermitian average
    ``(M + M*) / 2`` as a read-only float64/complex128 array; the dtype
    carries the scalar field.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype, order="C")
        self._store(arr)  # a failed check below discards
        asym = float(np.max(np.abs(arr - arr.conj().T)))
        # the bound is at least the tolerance, so only an asymmetry above it
        # needs the norm
        if asym > HERMITICITY_TOL:
            scale = max(1.0, float(_fro(arr)))
            if asym > HERMITICITY_TOL * scale:
                raise SelfAdjointError(
                    f"matrix is not self-adjoint: max asymmetry {asym:.3e} "
                    f"exceeds {HERMITICITY_TOL:.0e} * {scale:.3e}"
                )

    def _store(self, arr: np.ndarray) -> None:
        """``_admit``, then freeze the symmetrized ``arr``."""
        sym = _admit(arr)
        sym.flags.writeable = False
        object.__setattr__(self, "data", sym)

    @classmethod
    def _computed(cls, arr: np.ndarray) -> "SymMatrix":
        """Wrap an array computed from admitted matrices; finiteness only."""
        m = object.__new__(cls)
        m._store(arr)
        return m

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.data) else "real"

    @property
    def fro(self) -> float:
        return float(np.linalg.norm(self.data))

    @classmethod
    def identity(cls, dim: int, field: str = "real") -> "SymMatrix":
        dtype = np.complex128 if field == "complex" else np.float64
        return cls(np.eye(dim, dtype=dtype))

    @classmethod
    def diagonal(cls, values, field: str = "real") -> "SymMatrix":
        dtype = np.complex128 if field == "complex" else np.float64
        return cls(np.diag(np.asarray(values, dtype=dtype)))

    def _same_shape(self, other: "SymMatrix") -> None:
        if self.dim != other.dim or self.field != other.field:
            raise DimensionError(
                f"operands disagree: {self.dim}x{self.dim} {self.field} vs "
                f"{other.dim}x{other.dim} {other.field}"
            )

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._same_shape(other)
        return SymMatrix._computed(self.data + other.data)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._same_shape(other)
        return SymMatrix._computed(self.data - other.data)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix._computed(-self.data)

    def __mul__(self, scalar: float) -> "SymMatrix":
        return SymMatrix._computed(self.data * float(scalar))

    __rmul__ = __mul__


def _fro(arr: np.ndarray) -> np.ndarray:
    """``SymMatrix.fro`` of each matrix in the last two axes, bitwise: the
    dot products ``np.linalg.norm`` takes, of the real and imaginary parts
    as strided views (contiguous copies change the bits)."""
    n = arr.shape[-1]
    flat = arr.reshape(-1, 1, n * n)
    sq = flat.real @ flat.real.swapaxes(-1, -2)
    if np.iscomplexobj(arr):
        sq += flat.imag @ flat.imag.swapaxes(-1, -2)
    return np.sqrt(sq).reshape(arr.shape[:-2])


def _admit(arr: np.ndarray) -> np.ndarray:
    """The finiteness rule of every matrix the package stores or compares,
    for one matrix or a stack: the first matrix over the leading axes, in
    C order, whose Frobenius norm is not finite raises ``OperatorError``.
    An infinite norm would make an infinite Loewner scale, which every
    link passes, so finite entries whose norm overflows are rejected too,
    and named.  Returns ``arr`` symmetrized as ``SymMatrix`` stores it."""
    fro = _fro(arr)
    finite = np.isfinite(fro)
    if not finite.all():
        first = np.unravel_index(np.argmin(finite), finite.shape)
        bad = arr[first]
        if np.isfinite(bad).all():
            raise OperatorError(
                f"matrix Frobenius norm overflows: every entry is finite, "
                f"the largest magnitude is {float(np.abs(bad).max())!r}")
        raise OperatorError(f"matrix entries must be finite: Frobenius norm "
                            f"is {float(fro[first])!r}")
    return _resym(arr)


def _compose(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``U diag(values) U*`` for each matrix in the last two axes, raw;
    leading axes of ``u`` and ``values`` broadcast."""
    return (u * values[..., None, :]) @ u.conj().swapaxes(-1, -2)


@dataclasses.dataclass(frozen=True, eq=False)
class EigenPair:
    """Ascending eigenvalues and an orthonormal eigenvector matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def rebuild(self, values) -> np.ndarray:
        """Assemble ``U diag(values) U*`` (re-symmetrized) as a raw array.

        Leading axes of ``values`` and of the eigenvectors broadcast, so a
        stack of decompositions rebuilds as one ``(..., n, n)`` array.
        """
        return _resym(_compose(self.eigenvectors,
                               np.asarray(values, dtype=np.float64)))


def _lapack(solver, arr: np.ndarray):
    """``solver(arr)`` for a ``numpy.linalg`` eigensolver, with a LAPACK
    failure raised as ``ConvergenceError``: the one place it is turned
    into an error of this package."""
    try:
        return solver(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc


def _eigh(arr: np.ndarray) -> EigenPair:
    """``sym_eig`` of each matrix in the last two axes of a raw array."""
    w, v = _lapack(np.linalg.eigh, arr)
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenPair(eigenvalues=w, eigenvectors=v)


def sym_eig(m: SymMatrix) -> EigenPair:
    """Eigendecompose a self-adjoint matrix with LAPACK ``?syevd``/``?heevd``.

    Eigenvalues come back ascending, with LAPACK's orthonormal
    eigenvectors as they are: the phase of each is LAPACK's, which cancels
    in every ``U f(lambda) U*`` this package forms.  The output is a pure
    function of the input bits on a given numpy/LAPACK build.

    Raises
    ------
    ConvergenceError
        If LAPACK reports that the decomposition did not converge.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    return _eigh(m.data)


def _jacobi(a: np.ndarray, thresh: float, max_sweeps: int):
    """Cyclic Jacobi sweeps on a copy of ``a``, real or complex.

    Each rotation is the unitary block ``[[c, s], [-s conj(u), c conj(u)]]``
    with ``u = a[p, q] / |a[p, q]|``, which zeroes ``a[p, q]``; for real
    input ``u = +-1`` and the arithmetic stays real.
    """
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n, dtype=a.dtype)
    sweeps = 0

    def off(m):
        o = m - np.diag(np.diagonal(m))
        return float(np.sqrt(np.sum((o * o.conj()).real)))

    current = off(a)
    while current > thresh and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                uqp = -s * np.conj(phase)
                uqq = c * np.conj(phase)
                ap = c * a[:, p] + uqp * a[:, q]
                aq = s * a[:, p] + uqq * a[:, q]
                a[:, p] = ap
                a[:, q] = aq
                rp = c * a[p, :] + np.conj(uqp) * a[q, :]
                rq = s * a[p, :] + np.conj(uqq) * a[q, :]
                a[p, :] = rp
                a[q, :] = rq
                vp = c * v[:, p] + uqp * v[:, q]
                vq = s * v[:, p] + uqq * v[:, q]
                v[:, p] = vp
                v[:, q] = vq
        sweeps += 1
        current = off(a)
    return np.diagonal(a).real.copy(), v, sweeps, current


def jacobi_real(a, thresh: float, max_sweeps: int = MAX_SWEEPS):
    """Reference eigensolver for a real symmetric array; ``sym_eig`` does
    not call it, tests check ``sym_eig`` against it.

    Returns ``(diag, vectors, sweeps, offnorm)``: unsorted eigenvalues, the
    accumulated rotations, the sweep count, and the final off-diagonal
    Frobenius norm, which is ``<= thresh`` unless ``max_sweeps`` ran out.
    The input is not modified.
    """
    return _jacobi(np.asarray(a, dtype=np.float64), thresh, max_sweeps)


def jacobi_herm(a, thresh: float, max_sweeps: int = MAX_SWEEPS):
    """Reference eigensolver for a complex Hermitian array; see
    ``jacobi_real`` for the return contract."""
    return _jacobi(np.asarray(a, dtype=np.complex128), thresh, max_sweeps)


def _check_domain(eigenvalues: np.ndarray, name: str) -> None:
    """Name the first eigenvalue outside (0, inf), in C order on stacks:
    every function of this package is taken on that open interval."""
    inside = (0.0 < eigenvalues) & (eigenvalues < np.inf)
    if not inside.all():
        val = np.ravel(eigenvalues)[np.argmin(inside)]
        raise SpectrumError(
            f"eigenvalue {float(val)!r} outside the open domain (0.0, inf) "
            f"of {name or 'the scalar function'}"
        )


def _check_finite(name: str, value: float) -> None:
    """Reject a non-finite number ``value``, naming it ``name``; cheap
    enough for a check per trial."""
    if not math.isfinite(value):
        raise OperatorError(f"{name} must be finite, got {value!r}")


def _check_int(name: str, value) -> None:
    """Reject a ``value`` that is a bool or not integral, naming it
    ``name``; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OperatorError(f"{name} must be an integer, got {value!r}")


def apply_fn(m: SymMatrix, fn: Callable[[np.ndarray], np.ndarray],
             name: str = "") -> SymMatrix:
    """Functional calculus: ``f(M) = U f(diag) U*`` from the spectral form.

    Parameters
    ----------
    m : SymMatrix
        Strictly positive input: an eigenvalue outside (0, inf) raises
        ``SpectrumError`` naming it, as ``name`` (default: ``fn.name``).
    fn : callable
        Vectorized real function evaluated on the eigenvalue vector.
    """
    pair = sym_eig(m)
    _check_domain(pair.eigenvalues, name or getattr(fn, "name", ""))
    return SymMatrix._computed(pair.rebuild(fn(pair.eigenvalues)))


def mat_pow(m: SymMatrix, exponent: float) -> SymMatrix:
    """Real matrix power of a strictly positive matrix."""
    return apply_fn(m, lambda x: np.power(x, exponent), f"x**{exponent}")


@dataclasses.dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a Loewner comparison ``A <= B``.

    ``margin`` is the smallest eigenvalue of ``B - A``; the comparison
    holds when ``margin >= -tol * max(1, ||A||_F, ||B||_F)``.
    """

    holds: bool
    margin: float
    scale: float
    tol: float

    def __bool__(self) -> bool:
        return self.holds


def _loewner(diff: np.ndarray, lhs_fro, rhs_fro):
    """``(margin, scale)`` of ``lhs <= rhs`` for each matrix in the last two
    axes of ``diff = rhs - lhs``, given the operands' ``_fro`` norms: the
    smallest eigenvalue of ``diff``, admitted by ``_admit``, and
    ``max(1, ||lhs||_F, ||rhs||_F)``.  The comparison holds
    at ``tol`` when ``margin >= -tol * scale``.

    The margin comes from LAPACK's eigenvalues-only routine (``eigvalsh``),
    not from ``_eigh``: no eigenvectors are formed, so it can differ from
    ``sym_eig``'s smallest eigenvalue in its last bits.  A LAPACK failure
    raises the ``ConvergenceError`` that ``_eigh`` raises."""
    margin = _lapack(np.linalg.eigvalsh, _admit(diff))[..., 0]
    return margin, np.maximum(np.maximum(1.0, lhs_fro), rhs_fro)


def loewner_leq(a: SymMatrix, b: SymMatrix,
                tol: float = DEFAULT_LOEWNER_TOL) -> OrderVerdict:
    """Decide ``A <= B`` in the Loewner order, with a signed margin; a
    non-finite ``tol`` is rejected, a negative one fails more pairs."""
    _check_finite("tol", tol)
    a._same_shape(b)
    margin, scale = (float(x) for x in _loewner(
        b.data - a.data, _fro(a.data), _fro(b.data)))
    return OrderVerdict(holds=margin >= -tol * scale, margin=margin,
                        scale=scale, tol=tol)


def jordan_check(a: SymMatrix, b: SymMatrix) -> float:
    """Residual of ``ABA = 2(A o B) o A - A^2 o B``, ``X o Y = (XY+YX)/2``.

    Both inputs must be real symmetric; returns the Frobenius norm of the
    difference of the two sides, which stays below
    ``1e-10 * (1 + ||A||_F^2 ||B||_F)`` in floating point.
    """
    if a.field != "real" or b.field != "real":
        raise OperatorError("the Jordan identity check is defined for real "
                            "symmetric matrices")
    a._same_shape(b)
    x, y = a.data, b.data

    def jprod(p, q):
        return (p @ q + q @ p) / 2.0

    lhs = x @ y @ x
    rhs = 2.0 * jprod(jprod(x, y), x) - jprod(x @ x, y)
    return float(np.linalg.norm(lhs - rhs))
