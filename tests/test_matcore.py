import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import opentropy as op
from opentropy.gen import GenConfig, random_partner, random_spd
from opentropy.matcore import _admit, _eigh, _fro, _loewner, _resym
from opentropy.perspective import Frame, PowerFrame

RECON_TOL = 1e-10
ORTHO_TOL = 1e-11


def _random_sym(rng, dim, field="real"):
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    return op.SymMatrix((g + g.conj().T) / 2.0)


# ---------------------------------------------------------------------------
# sym_eig

def test_eig_diagonal_is_sorted_permutation():
    pair = op.sym_eig(op.SymMatrix.diagonal([3.0, 1.0]))
    np.testing.assert_allclose(pair.eigenvalues, [1.0, 3.0])
    np.testing.assert_allclose(np.abs(pair.eigenvectors), [[0, 1], [1, 0]])


def test_eig_offdiagonal_symmetry():
    pair = op.sym_eig(op.SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(pair.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eig_matches_characteristic_roots():
    # oracle: roots of det(M - t I) = t^2 - 4t + 3
    roots = np.sort(np.roots([1.0, -4.0, 3.0]).real)
    pair = op.sym_eig(op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    np.testing.assert_allclose(pair.eigenvalues, roots, atol=1e-14)
    np.testing.assert_allclose(pair.eigenvalues, [1.0, 3.0], atol=1e-14)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_eig_matches_lapack_oracle(field):
    rng = np.random.default_rng(11)
    for dim in range(1, 9):
        m = _random_sym(rng, dim, field)
        mine = op.sym_eig(m).eigenvalues
        ref = np.linalg.eigvalsh(m.data)
        np.testing.assert_allclose(mine, ref, atol=1e-12 * max(1.0, m.fro))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_eigenpair_invariants(field):
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 5, 8, 13):
        m = _random_sym(rng, dim, field)
        pair = op.sym_eig(m)
        scale = max(1.0, m.fro)
        recon = pair.rebuild(pair.eigenvalues)
        assert np.linalg.norm(recon - m.data) <= RECON_TOL * scale
        u = pair.eigenvectors
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= ORTHO_TOL
        assert np.all(np.diff(pair.eigenvalues) >= 0.0)


def test_eig_deterministic_for_identical_bits():
    rng = np.random.default_rng(3)
    m = _random_sym(rng, 6, "complex")
    p1 = op.sym_eig(m)
    p2 = op.sym_eig(op.SymMatrix(m.data.copy()))
    assert np.array_equal(p1.eigenvalues, p2.eigenvalues)
    assert np.array_equal(p1.eigenvectors, p2.eigenvectors)


def _jacobi_reference(m):
    kernel = op.matcore.jacobi_herm if m.field == "complex" \
        else op.matcore.jacobi_real
    thresh = 1e-13 * max(1.0, m.fro)
    w, v, sweeps, off = kernel(m.data, thresh)
    assert off <= thresh and sweeps <= op.matcore.MAX_SWEEPS
    return w, v


def _repeated_eigenvalue(rng, field):
    # eigenspaces of dimension 2 and 3 in a random frame
    frame = np.linalg.qr(_random_sym(rng, 7, field).data)[0]
    vals = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 5.0])
    return op.SymMatrix((frame * vals) @ frame.conj().T)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sym_eig_agrees_with_jacobi_reference(field):
    # sym_eig runs LAPACK; the cyclic Jacobi kernels are an independent
    # solver, so eigenvalues and every spectral function must agree
    rng = np.random.default_rng(17)
    cases = [_random_sym(rng, dim, field) for dim in (1, 2, 7, 32)]
    cases.append(_repeated_eigenvalue(rng, field))
    for m in cases:
        scale = max(1.0, m.fro)
        w_ref, v_ref = _jacobi_reference(m)
        pair = op.sym_eig(m)
        np.testing.assert_allclose(pair.eigenvalues, np.sort(w_ref),
                                   rtol=0.0, atol=1e-12 * scale)
        # exp(M / scale) does not depend on the basis of any eigenspace
        f_ref = (v_ref * np.exp(w_ref / scale)) @ v_ref.conj().T
        f_mine = pair.rebuild(np.exp(pair.eigenvalues / scale))
        assert np.linalg.norm(f_mine - f_ref) <= 1e-10 * np.linalg.norm(f_ref)


def test_functional_calculus_ignores_eigenspace_basis():
    # the boundary partner B = delta A^beta whitens to delta I up to
    # rounding; eigh then picks an arbitrary basis of a near-degenerate
    # eigenspace, and every chain term must still be g(delta) A^beta
    delta, beta = 2.0, 1.5
    for field in ("real", "complex"):
        cfg = GenConfig(dim=8, field=field, master_seed=23)
        a = random_spd(cfg, 0)
        b = random_partner(a, beta, delta, "dominating", cfg, 0)
        frame = PowerFrame(a, beta)
        c = frame.whiten(b)
        assert np.linalg.norm(c.data - delta * np.eye(8)) <= 1e-12
        a_beta = op.mat_pow(a, beta)
        for kind in op.SUITES["cor-delta-le"].terms:
            g = op.scalar_generator(kind, delta=delta)
            term = frame.conjugate(op.apply_fn(c, g))
            expected = float(g(np.array([delta]))[0]) * a_beta.data
            assert np.linalg.norm(term.data - expected) \
                <= 1e-10 * max(1.0, np.linalg.norm(expected)), kind


def test_sym_eig_reports_lapack_failure_as_convergence_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(op.matcore.ConvergenceError, match="did not converge"):
        op.sym_eig(op.SymMatrix.identity(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entries(bad):
    for arr in (np.array([[1.0, bad], [bad, 2.0]]),
                np.array([[bad, 0.0], [0.0, 1.0]], dtype=np.complex128)):
        with pytest.raises(op.OperatorError, match="finite"):
            op.SymMatrix(arr)
        with pytest.raises(op.OperatorError, match="finite"):
            op.sym_eig(arr)
        # computed results keep the exception and the message, and the
        # finiteness test runs before any arithmetic that could warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(op.OperatorError) as full:
                op.SymMatrix(arr)
            with pytest.raises(op.OperatorError) as computed:
                op.SymMatrix._computed(arr)
            with pytest.raises(op.OperatorError) as stacked:
                _admit(np.stack([np.eye(2), arr]))
        for err in (computed, stacked):
            assert type(err.value) is type(full.value)
            assert str(err.value) == str(full.value)


def test_overflowing_norm_of_finite_entries_is_named():
    # squares of entries above about 1.34e154 overflow, so the Frobenius
    # norm is inf although every entry is finite; such a matrix is still
    # rejected (an infinite Loewner scale would pass every link), with a
    # message that says the norm overflows, for entering, computed and
    # stacked matrices alike
    arr = np.diag([1.0, 1e160])
    message = ("matrix Frobenius norm overflows: every entry is finite, "
               "the largest magnitude is 1e+160")
    with np.errstate(over="ignore"):
        for admit in (op.SymMatrix, op.SymMatrix._computed,
                      lambda m: _admit(np.stack([np.eye(2), m]))):
            with pytest.raises(op.OperatorError) as err:
                admit(arr)
            assert str(err.value) == message
        with pytest.raises(op.OperatorError,
                           match="entries must be finite: Frobenius norm "
                                 "is inf"):
            op.SymMatrix(np.diag([1e160, np.inf]))


@pytest.mark.parametrize("entries, message", [
    ([[1.0, np.nan], [np.nan, 2.0]],
     "matrix entries must be finite: Frobenius norm is nan"),
    ([[np.inf, 0.0], [0.0, 1.0]],
     "matrix entries must be finite: Frobenius norm is inf"),
    ([[1.0, 0.0], [0.0, 1e160]],
     "matrix Frobenius norm overflows: every entry is finite, the largest "
     "magnitude is 1e+160"),
], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_admission_messages_of_one_matrix_and_of_a_stack(entries, message,
                                                         dtype):
    # one matrix takes the norm fast path, a stack the stacked norms; both
    # name the failure in the same words (squares past 1e308 warn, as
    # test_overflowing_norm_of_finite_entries_is_named allows)
    arr = np.array(entries, dtype=dtype)
    for admitted in (arr, np.stack([np.eye(2, dtype=dtype), arr, arr])):
        with np.errstate(over="ignore"), pytest.raises(
                op.OperatorError) as err:
            _admit(admitted)
        assert str(err.value) == message
    ok = np.array([[2.0, 1.0 + 1e-15], [1.0, 3.0]], dtype=dtype)
    assert _admit(ok).tobytes() == _resym(ok).tobytes()


_ENTRIES = {
    "real": st.floats(-1e6, 1e6),
    "complex": st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                  allow_infinity=False),
}


@st.composite
def _square_arrays(draw):
    field = draw(st.sampled_from(("real", "complex")))
    dim = draw(st.integers(1, 6))
    dtype = np.complex128 if field == "complex" else np.float64
    x = draw(hnp.arrays(dtype, (dim, dim), elements=_ENTRIES[field]))
    if draw(st.booleans()):
        upper = np.triu(x, 1)
        x = upper + upper.conj().T + np.diag(np.diagonal(x).real)
    return x


@settings(max_examples=200, deadline=None)
@given(x=_square_arrays())
# signed zeros: complex division by 2 used to flip the sign of a zero part
@example(x=np.array([[complex(-0.0, 0.0), complex(-0.0, -0.0)],
                     [complex(-0.0, 0.0), complex(-0.0, 0.0)]]))
def test_computed_stores_the_bits_of_full_admission(x):
    # skipping re-admission of computed results cannot change report bytes:
    # _resym output is exactly Hermitian and a bitwise fixed point of _resym
    y = _resym(x)
    assert not np.any(y - y.conj().T)
    assert _resym(y).tobytes() == y.tobytes()
    assert (op.SymMatrix._computed(x).data.tobytes()
            == op.SymMatrix(y).data.tobytes())


@st.composite
def _stacks(draw):
    field = draw(st.sampled_from(("real", "complex")))
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(1, 4))
    dtype = np.complex128 if field == "complex" else np.float64
    x = draw(hnp.arrays(dtype, (count, dim, dim), elements=_ENTRIES[field]))
    vals = draw(hnp.arrays(np.float64, (count, 3, dim),
                           elements=st.floats(-1e3, 1e3)))
    return x, vals


@settings(max_examples=100, deadline=None)
@given(case=_stacks())
def test_stacked_calls_give_the_bits_of_2d_calls(case):
    # a stacked chain check reproduces a per-trial one bit for bit only
    # while these three calls do, slice by slice
    x, vals = case
    sym = _resym(x)
    pair = _eigh(sym)
    # each of the 3 value rows of a slice rebuilds on that slice's vectors,
    # term-major as the chain check builds its terms
    rebuilt = pair.rebuild(vals.swapaxes(0, 1))
    for t in range(len(x)):
        one = _eigh(_resym(x[t]))
        assert sym[t].tobytes() == _resym(x[t]).tobytes()
        assert pair.eigenvalues[t].tobytes() == one.eigenvalues.tobytes()
        assert pair.eigenvectors[t].tobytes() == one.eigenvectors.tobytes()
        for k in range(vals.shape[1]):
            assert (rebuilt[k, t].tobytes()
                    == one.rebuild(vals[t, k]).tobytes())


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_fro_gives_the_bits_of_symmatrix_fro(field):
    # link and hypothesis scales take _fro of (T, K, n, n) stacks; margins
    # keep their bits only while it equals SymMatrix.fro matrix by matrix
    rng = np.random.default_rng(53)
    for dim in range(1, 33):
        x = rng.standard_normal((3, 4, dim, dim))
        if field == "complex":
            x = x + 1j * rng.standard_normal((3, 4, dim, dim))
        sym = _resym(x * np.logspace(-3, 3, 4)[:, None, None])
        want = [[op.SymMatrix._computed(m).fro for m in row] for row in sym]
        assert _fro(sym).tobytes() == np.array(want).tobytes(), dim


def test_rejects_non_self_adjoint():
    with pytest.raises(op.SelfAdjointError, match="max asymmetry"):
        op.SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_rejects_non_square():
    with pytest.raises(op.DimensionError):
        op.SymMatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# admission boundary

_FIELDS = st.sampled_from(("real", "complex"))


def _unitary(rng, dim, field):
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(g)[0]


@settings(max_examples=60, deadline=None)
@given(field=_FIELDS, seed=st.integers(0, 10_000),
       values=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
       counts=st.lists(st.integers(1, 3), min_size=3, max_size=3))
@example(field="complex", seed=0, values=[2.0], counts=[3, 1, 1])
def test_repeated_eigenvalues_are_resolved(field, seed, values, counts):
    # an eigenvalue of multiplicity k comes back k times, and a function of
    # the matrix does not depend on the basis eigh picks in its eigenspace
    lam = np.repeat(values, counts[:len(values)])
    dim = len(lam)
    q = _unitary(np.random.default_rng(seed), dim, field)
    m = op.SymMatrix((q * lam) @ q.conj().T)
    scale = max(1.0, m.fro)
    pair = op.sym_eig(m)
    assert np.abs(pair.eigenvalues - np.sort(lam)).max() <= 1e-12 * scale
    v = pair.eigenvectors
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= ORTHO_TOL
    want = (q * np.sqrt(lam)) @ q.conj().T
    assert np.abs(op.apply_fn(m, np.sqrt).data - want).max() <= (
        RECON_TOL * scale)
    # c * I, a single eigenvalue of full multiplicity, maps exactly
    ci = op.SymMatrix(values[0] * np.eye(dim, dtype=m.data.dtype))
    assert np.array_equal(op.apply_fn(ci, np.log).data,
                          np.log(values[0]) * np.eye(dim))


@settings(max_examples=60, deadline=None)
@given(field=_FIELDS, seed=st.integers(0, 10_000), dim=st.integers(2, 6),
       log_eps=st.floats(-323.5, -6.0))
@example(field="real", seed=0, dim=2, log_eps=-323.5)  # 5e-324
@example(field="complex", seed=1, dim=3, log_eps=-308.3)  # 1/eps overflows
def test_near_singular_input_is_answered_or_rejected(field, seed, dim,
                                                     log_eps):
    # lambda_min -> 0+ is still strictly positive: a diagonal input keeps
    # it exactly and gets its answer, unless a quantity overflows, which
    # is named; zero and negative eigenvalues are rejected
    rng = np.random.default_rng(seed)
    eps = 10.0 ** log_eps
    assert eps > 0.0
    lam = np.concatenate([[eps], 0.1 * 100.0 ** rng.uniform(0.0, 1.0,
                                                             dim - 1)])
    d = op.SymMatrix.diagonal(lam, field)
    assert np.array_equal(op.sym_eig(d).eigenvalues, np.sort(lam))
    log = op.apply_fn(d, np.log)
    assert np.array_equal(log.data, np.diag(np.log(lam)))
    # 1/eps, and the norm of diag(1/lambda), overflow for the smallest eps;
    # as under the CLI, numpy does not warn about values that are rejected
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if np.isfinite(np.linalg.norm(1.0 / lam)):
            assert np.array_equal(op.mat_pow(d, -1.0).data,
                                  np.diag(1.0 / lam))
        else:
            with pytest.raises(op.OperatorError,
                               match="matrix (entries must be finite|"
                                     "Frobenius norm overflows)"):
                op.mat_pow(d, -1.0)
        if np.isfinite(1.0 / eps):
            Frame(d.data[None], [2.0])
        else:
            with pytest.raises(op.OperatorError, match="over- or underflows"):
                Frame(d.data[None], [2.0])
    # rotated, lambda_min sits under the rounding of the other entries;
    # it is found to 1e-13 of the scale, or the matrix is rejected by name
    q = _unitary(rng, dim, field)
    m = op.SymMatrix((q * lam) @ q.conj().T)
    smallest = op.sym_eig(m).eigenvalues[0]
    assert abs(smallest - eps) <= 1e-13 * max(1.0, m.fro)
    if smallest > 0.0:
        assert np.isfinite(op.apply_fn(m, np.log).data).all()
    else:
        with pytest.raises(op.SpectrumError, match="outside the open domain"):
            op.apply_fn(m, np.log)
    for bad in (0.0, -0.0, -eps):
        with pytest.raises(op.SpectrumError, match="outside the open domain"):
            op.apply_fn(op.SymMatrix.diagonal(np.where(lam == eps, bad, lam),
                                              field), np.log)


@settings(max_examples=100, deadline=None)
@given(field=_FIELDS, seed=st.integers(0, 10_000), dim=st.integers(2, 6),
       log_size=st.floats(-8.0, 8.0), imaginary=st.booleans(),
       data=st.data())
def test_hermiticity_tolerance_edge_is_exact(field, seed, dim, log_size,
                                             imaginary, data):
    # an asymmetry of exactly 1e-13 * max(1, ||M||_F) is admitted and one
    # ulp more is not, at every scale, in either part of a complex entry
    i, j = sorted(data.draw(st.lists(st.integers(0, dim - 1), min_size=2,
                                     max_size=2, unique=True)))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) * 10.0 ** log_size
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim)) * 10.0 ** log_size
    base = (g + g.conj().T) / 2.0  # exactly Hermitian
    base[i, j] = base[j, i] = 0.0
    edge = op.matcore.HERMITICITY_TOL * max(1.0, float(np.linalg.norm(base)))
    unit = 1j if field == "complex" and imaginary else 1.0
    for asym, admitted in ((np.nextafter(edge, 0.0), True), (edge, True),
                           (np.nextafter(edge, np.inf), False)):
        arr = base.copy()
        arr[i, j] = unit * asym
        scale = max(1.0, float(np.linalg.norm(arr)))
        # the asymmetry is far below the rounding of the norm
        assume(op.matcore.HERMITICITY_TOL * scale == edge)
        if admitted:
            m = op.SymMatrix(arr)
            assert not np.any(m.data - m.data.conj().T)
            assert m.data[i, j] == unit * asym / 2.0
        else:
            with pytest.raises(op.SelfAdjointError) as err:
                op.SymMatrix(arr)
            assert str(err.value) == (
                f"matrix is not self-adjoint: max asymmetry {asym:.3e} "
                f"exceeds 1e-13 * {scale:.3e}")


# ---------------------------------------------------------------------------
# apply_fn

def test_log_of_identity_is_zero():
    out = op.apply_fn(op.SymMatrix.identity(3), np.log)
    np.testing.assert_allclose(out.data, np.zeros((3, 3)), atol=1e-15)


def test_sqrt_of_diagonal_is_elementwise():
    out = op.apply_fn(op.SymMatrix.diagonal([4.0, 9.0]), np.sqrt)
    np.testing.assert_allclose(out.data, np.diag([2.0, 3.0]), atol=1e-15)


def test_sqrt_closed_form():
    # eigenvalues 1, 3 with +-45 degree eigenvectors give
    # sqrt(M) = [[(s3+1)/2, (s3-1)/2], [(s3-1)/2, (s3+1)/2]]
    s3 = np.sqrt(3.0)
    expected = np.array([[(s3 + 1) / 2, (s3 - 1) / 2],
                         [(s3 - 1) / 2, (s3 + 1) / 2]])
    out = op.apply_fn(op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])),
                      np.sqrt)
    np.testing.assert_allclose(out.data, expected, atol=1e-14)
    np.testing.assert_allclose(out.data[0], [1.36603, 0.36603], atol=5e-6)


def test_apply_fn_domain_error_names_eigenvalue():
    # every function is taken on (0, inf), also one that would be defined
    # on the whole line, such as the identity
    m = op.SymMatrix.diagonal([1.0, -2.0])
    for fn, name in ((np.log, "log"), (lambda x: x, "")):
        with pytest.raises(op.SpectrumError) as err:
            op.apply_fn(m, fn, name)
        assert str(err.value) == (
            f"eigenvalue -2.0 outside the open domain (0.0, inf) of "
            f"{name or 'the scalar function'}")


def test_apply_fn_commutes_with_input():
    rng = np.random.default_rng(7)
    for field in ("real", "complex"):
        m = random_spd(GenConfig(dim=6, field=field, master_seed=1), 0)
        f = op.apply_fn(m, np.sqrt)
        comm = f.data @ m.data - m.data @ f.data
        assert np.linalg.norm(comm) <= 1e-10 * max(1.0, m.fro)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 8),
       alpha=st.floats(0.0, 3.0))
def test_order_preservation_of_functional_calculus(seed, dim, alpha):
    # upper_shift - lower_shift = x^(alpha-1) (x-1)^2 >= 0 on (0, inf),
    # so the calculus must preserve the order at tol 1e-9
    m = random_spd(GenConfig(dim=dim, master_seed=seed), 0)
    lo = op.apply_fn(m, op.scalar_generator("lower_shift", alpha=alpha))
    hi = op.apply_fn(m, op.scalar_generator("upper_shift", alpha=alpha))
    assert op.loewner_leq(lo, hi, 1e-9).holds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 8),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_power_composition(seed, dim, a, b):
    m = random_spd(GenConfig(dim=dim, master_seed=seed), 0)
    two_step = op.mat_pow(op.mat_pow(m, a), b)
    one_step = op.mat_pow(m, a * b)
    scale = max(1.0, one_step.fro)
    assert np.linalg.norm(two_step.data - one_step.data) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# loewner_leq

def test_loewner_identity_vs_double():
    verdict = op.loewner_leq(op.SymMatrix.identity(3),
                             2.0 * op.SymMatrix.identity(3))
    assert verdict.holds
    assert verdict.margin == pytest.approx(1.0, abs=1e-14)


def test_loewner_reflexive():
    m = op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    verdict = op.loewner_leq(m, m)
    assert verdict.holds
    assert verdict.margin == pytest.approx(0.0, abs=1e-15)


def test_loewner_incomparable_pair():
    a = op.SymMatrix.diagonal([1.0, 3.0])
    b = op.SymMatrix.diagonal([2.0, 2.0])
    fwd = op.loewner_leq(a, b)
    rev = op.loewner_leq(b, a)
    assert not fwd.holds and fwd.margin == pytest.approx(-1.0, abs=1e-14)
    assert not rev.holds and rev.margin == pytest.approx(-1.0, abs=1e-14)


def test_loewner_dimension_mismatch():
    with pytest.raises(op.DimensionError):
        op.loewner_leq(op.SymMatrix.identity(2), op.SymMatrix.identity(3))
    with pytest.raises(op.DimensionError):
        op.loewner_leq(op.SymMatrix.identity(2),
                       op.SymMatrix.identity(2, "complex"))


@pytest.mark.parametrize("b, message", [
    (op.SymMatrix.identity(3), "operands disagree: 2x2 real vs 3x3 real"),
    (op.SymMatrix.identity(2, "complex"),
     "operands disagree: 2x2 real vs 2x2 complex"),
], ids=["dim", "field"])
def test_loewner_mismatch_names_a_first(b, message):
    # the error names the operands in the order A <= B states them
    with pytest.raises(op.DimensionError) as err:
        op.loewner_leq(op.SymMatrix.identity(2), b)
    assert str(err.value) == message


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_loewner_rejects_a_non_finite_tolerance(tol):
    # a NaN tolerance would fail A <= 2A and an infinite one pass any pair
    a = op.SymMatrix.identity(2)
    with pytest.raises(op.OperatorError) as err:
        op.loewner_leq(a, 2.0 * a, tol)
    assert str(err.value) == f"tol must be finite, got {tol!r}"


def test_loewner_negative_tolerance_fails_a_holding_pair():
    a = op.SymMatrix.identity(2)
    assert op.loewner_leq(a, 2.0 * a, 0.0)
    assert not op.loewner_leq(a, 2.0 * a, -10.0)


def test_negation_flips_the_loewner_order():
    a = op.SymMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert (-a).data.tobytes() == (-a.data).tobytes()
    assert bool(op.loewner_leq(-a, a)) is True
    assert bool(op.loewner_leq(a, -a)) is False


def _random_pairs(field):
    """Random self-adjoint pairs at dims 1-8, 17 and 32: most differences
    indefinite, and one per dim a singular PSD difference, margin ~0."""
    rng = np.random.default_rng(1901 if field == "real" else 1902)
    for dim in list(range(1, 9)) + [17, 32]:
        for _ in range(4):
            yield _random_sym(rng, dim, field), _random_sym(rng, dim, field)
        a = _random_sym(rng, dim, field)
        g = _random_sym(rng, dim, field).data[:, :max(1, dim - 1)]
        yield a, a + op.SymMatrix._computed(g @ g.conj().T)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_loewner_margin_agrees_with_sym_eig(field):
    # the margin comes from eigenvalues only, so it may differ from
    # sym_eig's smallest eigenvalue in its last bits, never in the verdict
    for a, b in _random_pairs(field):
        verdict = op.loewner_leq(a, b)
        smallest = float(op.sym_eig(b - a).eigenvalues[0])
        assert abs(verdict.margin - smallest) <= 1e-12 * verdict.scale
        assert verdict.holds == (smallest >= -verdict.tol * verdict.scale)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_loewner_gives_the_bits_of_loewner_leq(field):
    # chain_check_stack reproduces chain_check bit for bit only while a
    # stacked margin equals the one-pair margin, matrix by matrix
    pairs = {}
    for a, b in _random_pairs(field):
        pairs.setdefault(a.dim, []).append((a, b))
    for dim, group in pairs.items():
        lhs = np.stack([a.data for a, _ in group]).reshape(-1, 1, dim, dim)
        rhs = np.stack([b.data for _, b in group]).reshape(-1, 1, dim, dim)
        # (T, L, n, n) as _links stacks its link differences
        lhs, rhs = lhs[:, [0, 0]], rhs[:, [0, 0]]
        margin, scale = _loewner(rhs - lhs, _fro(lhs), _fro(rhs))
        for t, (a, b) in enumerate(group):
            one = op.loewner_leq(a, b)
            for k in range(2):
                assert margin[t, k].tobytes() == np.float64(
                    one.margin).tobytes(), dim
                assert scale[t, k] == one.scale


def test_loewner_reports_lapack_failure_as_convergence_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    a = op.SymMatrix.diagonal([2.0, 1.0])
    message = "eigendecomposition failed: Eigenvalues did not converge"
    with pytest.raises(op.matcore.ConvergenceError) as leq:
        op.loewner_leq(a, 2.0 * a)
    with pytest.raises(op.matcore.ConvergenceError) as chain:
        op.chain_check("thm-main1", a, 2.0 * a)
    assert str(leq.value) == str(chain.value) == message
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(op.matcore.ConvergenceError) as eig:
        op.sym_eig(a)
    assert str(eig.value) == message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loewner_checks_finiteness_before_decomposing(monkeypatch):
    # a difference whose norm overflows is rejected as SymMatrix._computed
    # rejects it, and a stack with one non-finite difference decomposes
    # none of them
    calls = []
    real = np.linalg.eigvalsh

    def counting(arr, *args, **kwargs):
        calls.append(arr.shape)
        return real(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    big = op.SymMatrix.diagonal([1e154, 1.0])
    with pytest.raises(op.OperatorError, match="norm overflows") as leq:
        op.loewner_leq(big, -1.0 * big)
    with pytest.raises(op.OperatorError) as computed:
        (-1.0 * big) - big
    assert str(leq.value) == str(computed.value)
    diff = np.stack([np.eye(2), np.diag([1.0, np.inf])])
    with pytest.raises(op.OperatorError, match="entries must be finite"):
        _loewner(diff, _fro(diff), _fro(diff))
    assert calls == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
def test_loewner_transitivity_with_slack(seed, dim):
    tol = 1e-8
    cfg = GenConfig(dim=dim, master_seed=seed)
    a = random_spd(cfg, 1)
    b = random_partner(a, 1.0, 1.0, "dominating", cfg, 1)
    c = random_partner(b, 1.0, 1.0, "dominating", cfg, 2)
    assert op.loewner_leq(a, b, tol).holds
    assert op.loewner_leq(b, c, tol).holds
    assert op.loewner_leq(a, c, 2.0 * tol).holds


# ---------------------------------------------------------------------------
# jordan_check

def test_jordan_identity_trivial():
    eye = op.SymMatrix.identity(4)
    assert op.jordan_check(eye, eye) == 0.0
    rng = np.random.default_rng(2)
    a = _random_sym(rng, 4)
    assert op.jordan_check(a, eye) <= 1e-13 * (1.0 + a.fro ** 2)


def test_jordan_residual_contract_random_pairs():
    rng = np.random.default_rng(9)
    for trial in range(100):
        dim = 1 + trial % 8
        a = _random_sym(rng, dim)
        b = _random_sym(rng, dim)
        bound = 1e-10 * (1.0 + a.fro ** 2 * b.fro)
        assert op.jordan_check(a, b) <= bound


def test_jordan_rejects_complex():
    with pytest.raises(op.OperatorError):
        op.jordan_check(op.SymMatrix.identity(2, "complex"),
                        op.SymMatrix.identity(2, "complex"))
