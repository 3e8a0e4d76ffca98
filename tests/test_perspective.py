import numpy as np
import pytest

import opentropy as op
from opentropy.gen import GenConfig, random_diag_pair, random_spd
from opentropy.matcore import POSITIVE
from opentropy.perspective import PerspectiveSpec, perspective


def _spec(f, h, f_domain=None):
    return PerspectiveSpec(f=f, h=h, f_domain=f_domain)


def test_identity_function_cancels_congruence():
    rng_cfg = GenConfig(dim=5, master_seed=1)
    b = random_spd(rng_cfg, 0)
    g = np.random.default_rng(4).standard_normal((5, 5))
    a = op.SymMatrix((g + g.T) / 2.0)  # self-adjoint, not positive
    out = perspective(_spec(lambda x: x, np.exp), a, b)
    np.testing.assert_allclose(out.data, a.data,
                               atol=1e-10 * max(1.0, a.fro))


def test_identity_base_reduces_to_f():
    out = perspective(_spec(np.square, lambda x: x),
                      op.SymMatrix.diagonal([1.0, 2.0]),
                      op.SymMatrix.identity(2))
    np.testing.assert_allclose(out.data, np.diag([1.0, 4.0]), atol=1e-14)


def test_diagonal_scalar_formula():
    # h(b) f(a/h(b)) entrywise: b * (a/b)^2 = a^2/b
    out = perspective(_spec(np.square, lambda x: x),
                      op.SymMatrix.diagonal([2.0, 6.0]),
                      op.SymMatrix.diagonal([1.0, 3.0]))
    np.testing.assert_allclose(out.data, np.diag([4.0, 12.0]), atol=1e-13)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_commuting_oracle(field):
    # simultaneously diagonal inputs must match the scalar formula to 1e-10
    for trial in range(20):
        cfg = GenConfig(dim=6, field=field, master_seed=17)
        a, b = random_diag_pair(cfg, trial)
        f = op.scalar_generator("II", alpha=0.5)
        h = lambda x: np.power(x, 1.5)  # noqa: E731
        out = perspective(_spec(f, h, POSITIVE), a, b)
        avals = np.diagonal(a.data).real
        bvals = np.diagonal(b.data).real
        expected = h(bvals) * f(avals / h(bvals))
        dev = np.max(np.abs(out.data - np.diag(expected).astype(out.data.dtype)))
        assert dev <= 1e-10 * max(1.0, float(np.max(np.abs(expected))))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_monotone_triple_sample(field):
    # lower_shift <= I-generator <= upper_shift pointwise on (0, inf)
    x = np.logspace(-3, 3, 2001)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        r = op.scalar_generator("lower_shift", alpha=alpha)(x)
        q = op.scalar_generator("I", alpha=alpha)(x)
        k = op.scalar_generator("upper_shift", alpha=alpha)(x)
        assert np.all(r <= q + 1e-12 * np.maximum(1.0, np.abs(q)))
        assert np.all(q <= k + 1e-12 * np.maximum(1.0, np.abs(k)))
    for trial in range(50):
        cfg = GenConfig(dim=1 + trial % 8, field=field, master_seed=23)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        alpha = (0.0, 0.5, 1.0, 2.0)[trial % 4]
        beta = (0.5, 1.0, 2.0)[trial % 3]
        lo = op.bound("lower_shift", a, b, alpha=alpha, beta=beta)
        mid = op.bound("I", a, b, alpha=alpha, beta=beta)
        hi = op.bound("upper_shift", a, b, alpha=alpha, beta=beta)
        assert op.loewner_leq(lo, mid, 1e-8).holds
        assert op.loewner_leq(mid, hi, 1e-8).holds


def test_positivity_transport():
    # f >= 0 on the inner spectrum forces a positive semidefinite output
    for trial in range(20):
        cfg = GenConfig(dim=5, master_seed=29)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        out = perspective(
            _spec(op.scalar_generator("arithmetic", lam=0.3),
                  lambda x: np.power(x, 2.0), POSITIVE), b, a)
        zero = op.SymMatrix(np.zeros((5, 5)))
        assert op.loewner_leq(zero, out, 1e-9).holds


def test_base_must_be_strictly_positive():
    indefinite = op.SymMatrix.diagonal([1.0, -1.0])
    with pytest.raises(op.SpectrumError, match="strictly positive"):
        perspective(_spec(np.square, lambda x: x), op.SymMatrix.identity(2),
                    indefinite)


def test_h_must_be_positive_on_spectrum():
    b = op.SymMatrix.diagonal([1.0, 2.0])
    with pytest.raises(op.SpectrumError, match="h is not strictly positive"):
        perspective(_spec(np.square, lambda x: x - 5.0),
                    op.SymMatrix.identity(2), b)


def test_inner_spectrum_domain_error():
    # indefinite first argument pushed through a positive-domain f
    indefinite = op.SymMatrix.diagonal([1.0, -1.0])
    with pytest.raises(op.SpectrumError, match="eigenvalue"):
        perspective(_spec(np.log, lambda x: x, POSITIVE), indefinite,
                    op.SymMatrix.identity(2))


# ---------------------------------------------------------------------------
# congruence

def test_congruence_identity_base():
    x = op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    out = op.congruence(x, op.SymMatrix.identity(2), 3.0)
    np.testing.assert_allclose(out.data, x.data, atol=1e-14)


def test_congruence_of_identity_recovers_base():
    b = op.SymMatrix.diagonal([4.0, 9.0])
    out = op.congruence(op.SymMatrix.identity(2), b, 1.0)
    np.testing.assert_allclose(out.data, b.data, atol=1e-13)


def test_congruence_negative_exponent():
    b = op.SymMatrix.diagonal([4.0, 9.0])
    out = op.congruence(op.SymMatrix.identity(2), b, -1.0)
    np.testing.assert_allclose(out.data, np.diag([0.25, 1.0 / 9.0]),
                               atol=1e-14)


def test_congruence_preserves_psd():
    cfg = GenConfig(dim=6, master_seed=31)
    x = random_spd(cfg, 0)
    b = random_spd(cfg, 0, salt=1)
    out = op.congruence(x, b, 1.5)
    assert op.sym_eig(out).eigenvalues[0] > 0.0


def test_congruence_rejects_nonpositive_base():
    with pytest.raises(op.SpectrumError):
        op.congruence(op.SymMatrix.identity(2),
                      op.SymMatrix.diagonal([1.0, 0.0]), 1.0)


@pytest.mark.parametrize("b", [op.SymMatrix.identity(3),
                               op.SymMatrix.identity(2, "complex")],
                         ids=["dim", "field"])
def test_congruence_and_perspective_reject_disagreeing_operands(b):
    x = op.SymMatrix.identity(2)
    with pytest.raises(op.DimensionError, match="operands disagree"):
        op.congruence(x, b, 1.0)
    with pytest.raises(op.DimensionError, match="operands disagree"):
        perspective(_spec(np.square, lambda t: t), x, b)
