import numpy as np
import pytest

import opentropy as op
from opentropy import bounds
from opentropy.bounds import BOUND_KINDS, bound_spec
from opentropy.entropy import geo_mean_spec, rel_entropy_spec
from opentropy.gen import (GenConfig, random_diag_pair, random_spd,
                           random_spd_stack)
from opentropy.matcore import POSITIVE
from opentropy.perspective import (Frame, PerspectiveSpec, PowerFrame,
                                   perspective)


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
    # simultaneously diagonal inputs must match the scalar closed form
    # a^beta g(b / a^beta) to 1e-10, for every registry generator through
    # bound, for the relative entropy and for the geometric mean; the
    # oracle command assembles its quantities without perspective(), so
    # this is what checks the compute route
    def check(out, expected):
        dev = np.max(np.abs(out.data
                            - np.diag(expected).astype(out.data.dtype)))
        assert dev <= 1e-10 * max(1.0, float(np.max(np.abs(expected))))

    cfg = GenConfig(dim=6, field=field, master_seed=17)
    for trial in range(9):
        a, b = random_diag_pair(cfg, trial)
        avals = np.diagonal(a.data).real
        bvals = np.diagonal(b.data).real
        alpha, beta = (0.0, 0.5, 2.0)[trial // 3], (0.5, 1.0, 2.0)[trial % 3]
        x = bvals / avals ** beta
        for kind in sorted(bounds._GENERATORS):
            g = op.scalar_generator(kind, alpha=alpha, delta=2.0, lam=0.3)
            check(op.bound(kind, a, b, alpha=alpha, beta=beta, delta=2.0,
                           lam=0.3), avals ** beta * g(x))
        check(op.rel_entropy_alpha_beta(a, b, alpha, beta),
              avals ** beta * x ** alpha * np.log(x))
        check(op.geo_mean(a, b, alpha, beta), avals ** beta * x ** alpha)
        # a generic h, not a power
        f = op.scalar_generator("II", alpha=0.5)
        h = lambda t: np.power(t, 1.5)  # noqa: E731
        check(perspective(_spec(f, h, POSITIVE), a, b),
              h(bvals) * f(avals / h(bvals)))


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


@pytest.mark.parametrize("value,message", [
    (np.nan, "h is not strictly positive on the spectrum of the base "
             "(min h = nan)"),
    (np.inf, "h is not strictly positive and finite on the spectrum of the "
             "base (max h = inf)"),
], ids=["nan", "inf"])
def test_h_must_be_finite_on_spectrum(value, message):
    # a non-finite h is rejected where h is checked, not later as a
    # non-finite result
    b = op.SymMatrix.diagonal([1.0, 2.0])
    with pytest.raises(op.SpectrumError) as err:
        perspective(_spec(np.square, lambda x: np.full_like(x, value)),
                    op.SymMatrix.identity(2), b)
    assert str(err.value) == message


def test_inner_spectrum_domain_error():
    # indefinite first argument pushed through a positive-domain f
    indefinite = op.SymMatrix.diagonal([1.0, -1.0])
    with pytest.raises(op.SpectrumError, match="eigenvalue"):
        perspective(_spec(np.log, lambda x: x, POSITIVE), indefinite,
                    op.SymMatrix.identity(2))


# ---------------------------------------------------------------------------
# one assembly of every H f_k(C) H on a frame

def _bits(m):
    return m.data.tobytes()


def _functions(alpha, beta):
    return ([bound_spec(kind, alpha, beta, 2.0, 0.3).f for kind in BOUND_KINDS]
            + [geo_mean_spec(alpha, beta).f, rel_entropy_spec(alpha, beta).f])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8, 32])
def test_shared_whitening_gives_the_bits_of_each_call(dim, field):
    # Frame.assemble whitens and decomposes once for K functions, which
    # the chain checker and the oracle rely on; each of the K terms must
    # equal, bit for bit, the assembly of its function alone
    cfg = GenConfig(dim=dim, field=field, master_seed=41)
    betas = [0.5, 1.0, 2.0]
    a = random_spd_stack(cfg, range(3))
    b = random_spd_stack(cfg, range(3), salt=1)
    fns = [_functions(alpha, beta)
           for alpha, beta in zip((0.0, 0.5, 2.0), betas)]
    frame = Frame.power(a, betas)
    together = frame.assemble(b, fns, "C")
    assert together.shape == (3, len(fns[0]), dim, dim)
    for k in range(len(fns[0])):
        alone = frame.assemble(b, [[f[k]] for f in fns], "C")
        assert together[:, k].tobytes() == alone[:, 0].tobytes(), k


@pytest.mark.parametrize("field", ["real", "complex"])
def test_shared_whitening_raises_the_domain_error_of_each_call(field):
    # an indefinite X puts negative eigenvalues in the whitened spectrum;
    # the assembly rejects it once, before any function runs, with the
    # error an assembly of that matrix alone raises
    cfg = GenConfig(dim=4, field=field, master_seed=43)
    a = random_spd_stack(cfg, range(3))
    x = random_spd_stack(cfg, range(3), salt=1)
    x[1] -= 5.0 * x[2]

    def never(w):
        raise AssertionError("evaluated a function on a rejected spectrum")

    with pytest.raises(op.SpectrumError) as stacked:
        Frame.power(a, [1.5] * 3).assemble(x, [[never, never]] * 3,
                                           "the whitened X")
    with pytest.raises(op.SpectrumError) as alone:
        Frame.power(a[1:2], [1.5]).assemble(x[1:2], [[never]],
                                            "the whitened X")
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).endswith("of the whitened X")


# ---------------------------------------------------------------------------
# one frame for a stack and for one matrix

@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 2, 8, 32])
def test_stacked_frame_rows_give_the_bits_of_one_matrix_frames(dim, field):
    # the chain check and the partner draw build one frame per stack, at
    # each trial's own exponent; row t must be PowerFrame(A_t, e_t) bit for
    # bit.  np.power special-cases scalar exponents such as 0.5, 1, 2 and
    # -1, which a broadcast exponent array would lose
    exponents = [0.5, 1.0, 2.0, 3.0, -1.0, 4.0, -2.0]
    cfg = GenConfig(dim=dim, field=field, master_seed=47)
    trials = range(len(exponents))
    a = random_spd_stack(cfg, trials)
    x = random_spd_stack(cfg, trials, salt=1)
    stacked = Frame.power(a, exponents)
    whitened = stacked.whiten(x)
    # several matrices per trial broadcast over a leading axis, as the
    # chain check conjugates its terms
    conjugated = stacked.conjugate(np.stack([x, whitened]))
    for t, e in enumerate(exponents):
        one = PowerFrame(op.SymMatrix._computed(a[t]), e)
        xt = op.SymMatrix._computed(x[t])
        assert _bits(one.whiten(xt)) == op.SymMatrix._computed(
            whitened[t]).data.tobytes(), e
        assert _bits(one.conjugate(xt)) == op.SymMatrix._computed(
            conjugated[0, t]).data.tobytes(), e
        for got, want in ((stacked.pair.eigenvalues[t],
                           one.frame.pair.eigenvalues),
                          (stacked.pair.eigenvectors[t],
                           one.frame.pair.eigenvectors),
                          (stacked.half[t], one.frame.half),
                          (stacked.ihalf[t], one.frame.ihalf),
                          (whitened[t], one.frame.whiten(x[t])),
                          (conjugated[0, t], one.frame.conjugate(x[t])),
                          (conjugated[1, t],
                           one.frame.conjugate(whitened[t]))):
            assert got.tobytes() == want.tobytes(), e


def test_stacked_frame_names_the_first_non_positive_base():
    a = np.stack([np.eye(2), np.diag([1.0, -2.0]), np.diag([-3.0, 1.0])])
    with pytest.raises(op.SpectrumError) as stacked:
        Frame.power(a, [1.0, 1.0, 1.0])
    with pytest.raises(op.SpectrumError) as alone:
        PowerFrame(op.SymMatrix(a[1]), 1.0)
    assert str(stacked.value) == str(alone.value)
    assert "-2.0" in str(stacked.value)


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
