"""Dense self-adjoint matrices, spectral calculus, and the Loewner order.

Everything downstream (perspectives, entropies, bound chains) reduces to the
four operations here: eigendecomposition, functional calculus, positive
semidefiniteness of a difference, and the Jordan-product identity check.
All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

# Self-adjointness admission tolerance (relative to max(1, Frobenius norm)).
HERMITICITY_TOL = 1e-13
# Sweep limit of the reference Jacobi solver (jacobi_real, jacobi_herm).
MAX_SWEEPS = 64
# Default Loewner comparison tolerance (relative, scale-aware).
DEFAULT_LOEWNER_TOL = 1e-8

# The open interval every function of the package is taken on.
POSITIVE = (0.0, np.inf)


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
        scale = max(1.0, self._store(arr))  # a failed check below discards
        asym = float(np.max(np.abs(arr - arr.conj().T)))
        if asym > HERMITICITY_TOL * scale:
            raise SelfAdjointError(
                f"matrix is not self-adjoint: max asymmetry {asym:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e} * {scale:.3e}"
            )

    def _store(self, arr: np.ndarray) -> float:
        """Finiteness check, then freeze (arr + arr*)/2; returns ||arr||_F."""
        fro = float(np.linalg.norm(arr))
        if not np.isfinite(fro):
            # an infinite norm would make an infinite Loewner scale, which
            # every link passes, so finite entries are rejected here too
            if np.isfinite(arr).all():
                raise OperatorError(
                    f"matrix Frobenius norm overflows: every entry is "
                    f"finite, the largest magnitude is "
                    f"{float(np.abs(arr).max())!r}")
            raise OperatorError(
                f"matrix entries must be finite: Frobenius norm is {fro!r}")
        sym = _resym(arr)
        sym.flags.writeable = False
        object.__setattr__(self, "data", sym)
        return fro

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
    parts = (flat.real, flat.imag) if np.iscomplexobj(arr) else (flat,)
    sq = sum(p @ p.swapaxes(-1, -2) for p in parts)
    return np.sqrt(sq).reshape(arr.shape[:-2])


def _admit(*arrays: np.ndarray) -> np.ndarray:
    """The finiteness check of ``SymMatrix._computed`` on stacks of
    matrices: matrix by matrix over the leading axes, and at one position
    ``arrays`` in the order given, so the error raised is the one a loop of
    ``_computed`` calls meets first.  Returns the last array, symmetrized as
    ``_computed`` stores it."""
    bad = np.stack([~np.isfinite(_fro(x)) for x in arrays], axis=-1)
    if bad.any():
        where = np.unravel_index(np.argmax(bad), bad.shape)
        SymMatrix._computed(arrays[where[-1]][where[:-1]])
    return _resym(arrays[-1])


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
        u = self.eigenvectors
        vals = np.asarray(values, dtype=np.float64)[..., None, :]
        return _resym((u * vals) @ u.conj().swapaxes(-1, -2))


def _eigh(arr: np.ndarray) -> EigenPair:
    """``sym_eig`` of each matrix in the last two axes of a raw array."""
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    # the pivot of a column is its first largest-magnitude entry; an
    # orthonormal column has an entry of magnitude >= 1/sqrt(n), so the
    # pivot is never zero
    n = v.shape[-1]
    rows = np.argmax(np.abs(v), axis=-2)
    if v.ndim > 2:  # row numbers in the (-1, n) view of the whole stack
        rows += np.arange(0, v.size // n, n).reshape(v.shape[:-2] + (1,))
    pivot = v.reshape(-1, n)[rows, np.arange(n)]
    v *= (np.conj(pivot) / np.abs(pivot))[..., None, :]
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenPair(eigenvalues=w, eigenvectors=v)


def sym_eig(m: SymMatrix) -> EigenPair:
    """Eigendecompose a self-adjoint matrix with LAPACK ``?syevd``/``?heevd``.

    Eigenvalues come back ascending; each eigenvector is normalized so its
    largest-magnitude component (the first one, on ties) is real and
    positive.  The output is a pure function of the input bits on a given
    numpy/LAPACK build.

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
    """Name the first eigenvalue outside ``POSITIVE``, in C order on
    stacks: every function of this package is taken on (0, inf)."""
    lo, hi = POSITIVE
    inside = (lo < eigenvalues) & (eigenvalues < hi)
    if not inside.all():
        val = np.ravel(eigenvalues)[np.argmin(inside)]
        raise SpectrumError(
            f"eigenvalue {float(val)!r} outside the open domain ({lo}, {hi}) "
            f"of {name or 'the scalar function'}"
        )


def apply_fn(m: SymMatrix, fn: Callable[[np.ndarray], np.ndarray],
             name: str = "") -> SymMatrix:
    """Functional calculus: ``f(M) = U f(diag) U*`` from the spectral form.

    Parameters
    ----------
    m : SymMatrix
        Strictly positive input: an eigenvalue outside ``POSITIVE`` raises
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
    smallest eigenvalue of ``diff``, admitted as ``SymMatrix._computed``
    admits it, and ``max(1, ||lhs||_F, ||rhs||_F)``.  The comparison holds
    at ``tol`` when ``margin >= -tol * scale``.

    The margin comes from LAPACK's eigenvalues-only routine (``eigvalsh``),
    not from ``_eigh``: no eigenvectors are formed, so it can differ from
    ``sym_eig``'s smallest eigenvalue in its last bits.  A LAPACK failure
    raises the ``ConvergenceError`` that ``_eigh`` raises."""
    try:
        margin = np.linalg.eigvalsh(_admit(diff))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return margin, np.maximum(np.maximum(1.0, lhs_fro), rhs_fro)


def loewner_leq(a: SymMatrix, b: SymMatrix,
                tol: float = DEFAULT_LOEWNER_TOL) -> OrderVerdict:
    """Decide ``A <= B`` in the Loewner order, with a signed margin."""
    b._same_shape(a)
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
