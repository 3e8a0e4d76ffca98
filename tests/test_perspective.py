import importlib

import numpy as np
import pytest

import opentropy as op
from opentropy import bounds, cli
from opentropy.bounds import (BOUND_KINDS, ChainParams, _relation_margin,
                              scalar_generator)
from opentropy.gen import (GenConfig, random_diag_pair, random_diag_pair_stack,
                           random_spd, random_spd_stack)
from opentropy.matcore import EigenPair, _eigh
from opentropy.perspective import Frame, PowerFrame, perspective
from reference import oracle_closed_forms, rows_one_at_a_time


def test_identity_function_cancels_congruence():
    rng_cfg = GenConfig(dim=5, master_seed=1)
    b = random_spd(rng_cfg, 0)
    a = random_spd(rng_cfg, 0, salt=1)
    out = perspective(lambda x: x, a, b, 1.5)
    np.testing.assert_allclose(out.data, a.data,
                               atol=1e-10 * max(1.0, a.fro))


def test_identity_base_reduces_to_f():
    out = perspective(np.square, op.SymMatrix.diagonal([1.0, 2.0]),
                      op.SymMatrix.identity(2), 1.0)
    np.testing.assert_allclose(out.data, np.diag([1.0, 4.0]), atol=1e-14)


def test_diagonal_scalar_formula():
    # h(b) f(a/h(b)) entrywise: b * (a/b)^2 = a^2/b
    out = perspective(np.square, op.SymMatrix.diagonal([2.0, 6.0]),
                      op.SymMatrix.diagonal([1.0, 3.0]), 1.0)
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
        # a perspective called directly, at an exponent off the suites' grid
        f = op.scalar_generator("II", alpha=0.5)
        h = bvals ** 1.5
        check(perspective(f, a, b, 1.5), h * f(avals / h))


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
        out = perspective(op.scalar_generator("arithmetic", lam=0.3), b, a,
                          2.0)
        zero = op.SymMatrix(np.zeros((5, 5)))
        assert op.loewner_leq(zero, out, 1e-9).holds


def test_base_must_be_strictly_positive():
    indefinite = op.SymMatrix.diagonal([1.0, -1.0])
    with pytest.raises(op.SpectrumError, match="strictly positive"):
        perspective(np.square, op.SymMatrix.identity(2), indefinite, 1.0)


def test_h_must_be_positive_on_spectrum():
    # h = t^beta is positive and finite on a strictly positive base in
    # exact arithmetic, but lambda^{beta/2} can under- or overflow, so that
    # the frame's H or H^{-1} is not finite.  The frame rejects such a
    # base when it is built, naming the first such eigenvalue and the
    # exponent, before anything is whitened.  The command line ignores
    # numpy's warnings about these values, as this does.  (A base entry
    # above about 1e154 is rejected sooner: its Frobenius norm overflows.)
    x = op.SymMatrix.identity(2)
    for base, blamed in (([1e-200, 1.0], "1e-200"), ([1.0, 1e100], "1e+100"),
                         ([1e-200, 1e100], "1e-200")):
        y = op.SymMatrix.diagonal(base)
        for call in (lambda: op.bound("I", y, x, alpha=0.5, beta=8.0),
                     lambda: op.geo_mean(y, x, 0.5, 8.0),
                     lambda: op.rel_entropy_alpha_beta(y, x, 0.5, 8.0),
                     lambda: perspective(np.square, x, y, 8.0)):
            with np.errstate(over="ignore", divide="ignore"):
                with pytest.raises(op.OperatorError) as err:
                    call()
            assert str(err.value) == (
                f"the power 8.0/2 of eigenvalue {blamed} of the perspective "
                f"base over- or underflows")
            assert type(err.value) is op.OperatorError


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_h_must_be_finite_on_spectrum(value):
    # h = t^beta needs a finite beta; a non-finite one is rejected before
    # the perspective builds its frame, naming beta, not later as a
    # non-finite result
    a = op.SymMatrix.diagonal([1.0, 2.0])
    b = op.SymMatrix.identity(2)
    for beta in (value, -value):
        for call in (lambda: perspective(np.square, a, b, beta),
                     lambda: op.bound("I", a, b, beta=beta),
                     lambda: op.geo_mean(a, b, 0.5, beta),
                     lambda: op.rel_entropy_alpha_beta(a, b, 0.5, beta)):
            with pytest.raises(op.OperatorError) as err:
                call()
            assert str(err.value) == f"beta must be finite, got {beta!r}"


def test_inner_spectrum_domain_error():
    # an indefinite first argument is rejected for every f, also for one
    # defined on the whole line, such as the square
    indefinite = op.SymMatrix.diagonal([1.0, -2.0])
    for f in (np.log, np.square):
        with pytest.raises(op.SpectrumError) as err:
            perspective(f, indefinite, op.SymMatrix.identity(2), 1.0)
        assert str(err.value) == ("eigenvalue -2.0 outside the open domain "
                                  "(0.0, inf) of f on the whitened spectrum")


# ---------------------------------------------------------------------------
# one assembly of every H f_k(C) H on a frame

def _bits(m):
    return m.data.tobytes()


def _functions(alpha):
    return ([scalar_generator(kind, alpha, 2.0, 0.3) for kind in BOUND_KINDS]
            + [scalar_generator("geometric", lam=alpha),
               scalar_generator("S", alpha=alpha)])


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
    fns = [_functions(alpha) for alpha in (0.0, 0.5, 2.0)]
    frame = Frame(a, betas)
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
        Frame(a, [1.5] * 3).assemble(x, [[never, never]] * 3,
                                     "the whitened X")
    with pytest.raises(op.SpectrumError) as alone:
        Frame(a[1:2], [1.5]).assemble(x[1:2], [[never]], "the whitened X")
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).endswith("of the whitened X")


# Frame.assemble builds H f(C) H as the one product (H U) f(lambda) (H U)*;
# the three-product formula rebuilds f(C) = U f(lambda) U* and conjugates it
# by H.  Both round at about n eps |H|_2^2 max |f(lambda)|.  Over 36000
# terms (seeds 20-79, dims 1/3/8/32, both fields, every registry kind, the
# betas and alphas below; numpy 2.4.6 with OpenBLAS 0.3.31) the largest
# entry of |one - three| measured 7.4e-16 of that scale (median 8.6e-18;
# always 0 at dim 1).  The bound is 2e-15, about 9 ulps; it is not to be
# raised to let a case pass
ONE_PRODUCT_BOUND = 2e-15


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8, 32])
def test_one_product_term_is_the_three_product_term_within_rounding(
        dim, field):
    kinds = sorted(bounds._GENERATORS)
    betas = [0.5, 1.0, 1.5, 2.0, 3.0]
    alphas = [0.0, 0.5, 2.0, 1.0, 0.5]
    fns = [[scalar_generator(kind, alpha, 1.5, 0.3) for kind in kinds]
           for alpha in alphas]
    cfg = GenConfig(dim=dim, field=field, master_seed=53)
    a = random_spd_stack(cfg, range(len(betas)))
    b = random_spd_stack(cfg, range(len(betas)), salt=1)
    frame = Frame(a, betas)
    new = frame.assemble(b, fns, "C")
    for t, fs in enumerate(fns):
        inner = op.sym_eig(op.SymMatrix._computed(frame.whiten(b)[t]))
        h_norm = frame.pair.eigenvalues[t].max() ** (betas[t] / 2.0)
        for k, f in enumerate(fs):
            vals = f(inner.eigenvalues)
            old = op.SymMatrix._computed(frame.conjugate(
                inner.rebuild(vals)[None])[t])
            scale = h_norm ** 2 * np.abs(vals).max()
            gap = np.abs(new[t, k] - old.data).max()
            assert gap <= ONE_PRODUCT_BOUND * scale, (kinds[k], betas[t],
                                                      gap / scale)


# An eigenvector's phase cancels in U f(lambda) U* and in (HU) f(lambda)
# (HU)*, so no result may depend on the phases LAPACK returns.  In the real
# field a phase is +-1 and a sign flip is exact, so results are bitwise the
# same.  In the complex field the phase product rounds: with the other
# operands fixed, over 68400 Frame, Frame.assemble and _relation_margin
# values (seeds 20-199, dims 1/3/8/32, every registry kind, the betas,
# alphas and deltas below; numpy 2.4.6 with OpenBLAS 0.3.31) the largest
# entry of |rephased - plain| measured 1.28e-15 of its scale (median
# 1.4e-17 to 1.3e-16 by quantity).  The scale is |H|_2 for H, |H^{-1}|_2
# for H^{-1}, |H|_2^2 max |f(lambda)| for a term and the Loewner scale for
# a margin and for that scale itself.  The bound is 4e-15, about 18 ulps; it is not to be raised to
# let a case pass
PHASE_BOUND = 4e-15


def _rephased(rng, field):
    """``_eigh`` with each eigenvector times a random unit phase."""
    def eigh(arr):
        pair = _eigh(arr)
        u = pair.eigenvectors
        shape = u.shape[:-2] + (1, u.shape[-1])
        phase = (rng.choice([-1.0, 1.0], size=shape) if field == "real"
                 else np.exp(2j * np.pi * rng.uniform(size=shape)))
        return EigenPair(pair.eigenvalues, u * phase)
    return eigh


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8, 32])
def test_results_do_not_depend_on_eigenvector_phases(monkeypatch, dim,
                                                     field):
    kinds = sorted(bounds._GENERATORS)
    betas = [0.5, 1.0, 1.5, 2.0, 3.0]
    alphas = [0.0, 0.5, 2.0, 1.0, 0.5]
    deltas = [0.5, 1.0, 1.5, 1.0, 2.0]
    fns = [[scalar_generator(kind, alpha, 1.5, 0.3) for kind in kinds]
           for alpha in alphas]
    cfg = GenConfig(dim=dim, field=field, master_seed=61)
    a = random_spd_stack(cfg, range(len(betas)))
    b = random_spd_stack(cfg, range(len(betas)), salt=1)
    plain = Frame(a, betas)
    terms = plain.assemble(b, fns, "C")
    margin, scale = _relation_margin(plain.pair, b, betas, deltas,
                                     "dominating")
    monkeypatch.setattr(importlib.import_module("opentropy.perspective"),
                        "_eigh", _rephased(np.random.default_rng(dim), field))
    turned = Frame(a, betas)
    # the frame's phases, then the whitened spectrum's with the frame fixed
    turned_margin, turned_scale = _relation_margin(turned.pair, b, betas,
                                                   deltas, "dominating")
    turned_terms = plain.assemble(b, fns, "C")
    if field == "real":
        for new, old in ((turned.half, plain.half),
                         (turned.ihalf, plain.ihalf),
                         (turned_terms, terms),
                         (turned.assemble(b, fns, "C"), terms),
                         (turned_margin, margin),
                         (turned_scale, scale)):
            assert new.tobytes() == old.tobytes()
        return
    v = plain.pair.eigenvalues ** (np.array(betas)[:, None] / 2.0)
    inner = _eigh(plain.whiten(b))
    for t, fs in enumerate(fns):
        for new, old, unit in ((turned.half, plain.half, v[t].max()),
                               (turned.ihalf, plain.ihalf,
                                (1.0 / v[t]).max())):
            assert np.abs(new[t] - old[t]).max() <= PHASE_BOUND * unit
        for k, f in enumerate(fs):
            unit = v[t].max() ** 2 * np.abs(f(inner.eigenvalues[t])).max()
            gap = np.abs(turned_terms[t, k] - terms[t, k]).max()
            assert gap <= PHASE_BOUND * unit, (kinds[k], betas[t])
        for new, old in ((turned_margin, margin), (turned_scale, scale)):
            assert abs(new[t] - old[t]) <= PHASE_BOUND * scale[t]


def _first_term_error(a, exponents, x, fns):
    """The first error of assembling each term H f_k(C) H alone, on a
    stack of one, in (trial, term) order."""
    for t, fs in enumerate(fns):
        frame = Frame(a[t:t + 1], exponents[t:t + 1])
        for f in fs:
            frame.assemble(x[t:t + 1], [[f]], "C")
    raise AssertionError("no term is non-finite")


def _diagonal_stacks(*diags):
    return (np.stack([np.diag(d) for d in stack]) for stack in diags)


@pytest.mark.parametrize("a, x, fns, message", [
    # term 0 of trial 0 overflows (H = diag(1e100, 1)) before trial 0's
    # term 1 and trial 1's term 0, both infinite
    ([[1e100, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
     [[np.ones_like, lambda w: np.full_like(w, np.inf)],
      [lambda w: np.full_like(w, np.inf), np.ones_like]],
     "matrix Frobenius norm overflows: every entry is finite, the largest "
     "magnitude is 1e+200"),
    # trial 0's f_0(C) = diag(1e200, 1) would overflow, but it is never
    # formed and its term H f_0(C) H, H = diag(1e-100, 1), is the
    # identity; trial 1's term diag(1e250, 1) is the first to overflow
    ([[1e-100, 1.0], [1e125, 1.0]], [[2e-200, 1.0], [1.0, 1.0]],
     [[lambda w: np.where(w > 1.5, 1e200, 1.0), np.ones_like],
      [np.ones_like, np.ones_like]],
     "matrix Frobenius norm overflows: every entry is finite, the largest "
     "magnitude is 1e+250"),
    ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
     [[np.ones_like, np.ones_like],
      [np.ones_like, lambda w: np.full_like(w, np.nan)]],
     "generator f gives the non-finite value nan at eigenvalue 1.0 of C"),
    # trial 0's term 1 is the first non-finite term: its generator gives
    # inf at eigenvalue 10, and is named; trial 1's term 0 overflows later
    ([[1.0, 1.0], [1e125, 1.0]], [[10.0, 1.0], [1.0, 1.0]],
     [[np.ones_like, scalar_generator("I", alpha=400.0)],
      [np.ones_like, np.ones_like]],
     "generator I gives the non-finite value inf at eigenvalue 10.0 of C"),
], ids=["term-first", "spectrum-first", "nan", "generator-first"])
def test_assembly_raises_the_first_non_finite_term(a, x, fns, message):
    # only the terms are formed, so only a term can fail, and the first
    # non-finite one in (trial, term) order raises its admission error
    a, x = _diagonal_stacks(a, x)
    exponents = [2.0, 2.0]
    with np.errstate(all="ignore"):
        with pytest.raises(op.OperatorError) as alone:
            _first_term_error(a, exponents, x, fns)
        with pytest.raises(op.OperatorError) as stacked:
            Frame(a, exponents).assemble(x, fns, "C")
    assert str(stacked.value) == str(alone.value) == message


def test_assembly_admits_finite_terms_of_a_huge_spectrum():
    # trial 0's spectrum 2^500 and trial 1's f_1(C) = diag(1e200, 1), whose
    # norm overflows, both reach finite terms: 2^500 I, and the identity
    # for H = diag(1e-100, 1)
    a, x = _diagonal_stacks([[1.0, 1.0], [1e-100, 1.0]],
                            [[1.0, 1.0], [2e-200, 1.0]])
    fns = [[lambda w: np.full_like(w, 2.0 ** 500), np.ones_like],
           [np.ones_like, lambda w: np.where(w > 1.5, 1e200, 1.0)]]
    terms = Frame(a, [2.0, 2.0]).assemble(x, fns, "C")
    assert terms[0, 0].tobytes() == (2.0 ** 500 * np.eye(2)).tobytes()
    assert terms[1, 1].tobytes() == np.eye(2).tobytes()


def test_frame_at_other_exponents_gives_the_bits_of_a_new_frame():
    # the oracle builds its t^1 frame from its t^beta frame's decomposition
    cfg = GenConfig(dim=5, field="complex", master_seed=59)
    a = random_spd_stack(cfg, range(3))
    first = Frame(a, [0.5, 2.0, 3.0], "A")
    moved = first.at([1.0, 1.0, -1.0])
    fresh = Frame(a, [1.0, 1.0, -1.0], "A")
    for name in ("half", "ihalf"):
        assert getattr(moved, name).tobytes() == getattr(fresh,
                                                         name).tobytes()
    assert moved.pair is first.pair
    assert first.half.tobytes() == Frame(a, [0.5, 2.0, 3.0]).half.tobytes()
    with np.errstate(all="ignore"):
        with pytest.raises(op.OperatorError) as err:
            moved.at([1.0, 1e300, 1.0])
    assert str(err.value).startswith("the power 1e+300/2 of eigenvalue")
    assert str(err.value).endswith("of A over- or underflows")


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
    stacked = Frame(a, exponents)
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
        Frame(a, [1.0, 1.0, 1.0])
    with pytest.raises(op.SpectrumError) as alone:
        PowerFrame(op.SymMatrix(a[1]), 1.0)
    assert str(stacked.value) == str(alone.value)
    assert "-2.0" in str(stacked.value)
    # and the first base whose lambda^{e/2} over- or underflows at its own
    # exponent: 1e100 at e = 2 is fine, 1e-200 at e = 8 underflows
    a = np.stack([np.eye(2), np.diag([1.0, 1e100]), np.diag([1e-200, 1.0])])
    with np.errstate(divide="ignore"):
        with pytest.raises(op.OperatorError) as stacked:
            Frame(a, [1.0, 2.0, 8.0])
        with pytest.raises(op.OperatorError) as alone:
            PowerFrame(op.SymMatrix(a[2]), 8.0)
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).startswith("the power 8.0/2 of eigenvalue 1e-200")


# ---------------------------------------------------------------------------
# one scalar call per parameter group, bitwise one call per row

def _scalar_sites(a, b, params):
    """The bits of every site that groups rows by parameter: the frame's
    powers, the relation margin's A^beta and the generator values of
    ``Frame.assemble``, on the stack ``a``, ``b`` at ``params``."""
    betas = [p.beta for p in params]
    frame = Frame(a, betas)
    margin, scale = _relation_margin(frame.pair, b, betas,
                                     [p.delta for p in params], "dominating")
    fns = [[scalar_generator(kind, p.alpha, p.delta, p.lam)
            for kind in sorted(bounds._GENERATORS)] for p in params]
    return {"half": frame.half, "ihalf": frame.ihalf, "margin": margin,
            "scale": scale, "terms": frame.assemble(b, fns, "C")}


def _assert_grouped_is_row_by_row(monkeypatch, dim, field, params):
    cfg = GenConfig(dim=dim, field=field, master_seed=67)
    trials = range(len(params))
    a = random_spd_stack(cfg, trials)
    b = random_spd_stack(cfg, trials, salt=1)
    grouped = _scalar_sites(a, b, params)
    with monkeypatch.context() as m:
        for module in (importlib.import_module("opentropy.perspective"),
                       bounds):
            m.setattr(module, "_rows", rows_one_at_a_time)
        alone = _scalar_sites(a, b, params)
    for key, value in grouped.items():
        assert value.tobytes() == alone[key].tobytes(), key
    # and the frame's lambda^{e/2}, from each row's own scalar exponent
    frame = Frame(a, [p.beta for p in params])
    v = rows_one_at_a_time(lambda w, beta: np.power(w, beta / 2.0),
                           frame.pair.eigenvalues, [p.beta for p in params])
    assert grouped["half"].tobytes() == frame.pair.rebuild(v).tobytes()
    assert grouped["ihalf"].tobytes() == frame.pair.rebuild(1.0 / v).tobytes()
    # the oracle's stacked closed forms, one stack per row layout as
    # cli._oracle_check draws them, against each trial's own formulas
    da, db = random_diag_pair_stack(cfg, trials)
    for layout in (True, False):
        rows = [t for t, p in enumerate(params) if (p.beta == 1.0) == layout]
        if not rows:
            continue
        table = cli._oracle_table([params[t] for t in rows], da[rows],
                                  db[rows])
        assert table[0][0] == [params[t].beta for t in rows]
        for i, t in enumerate(rows):
            want = oracle_closed_forms(params[t], np.diagonal(da[t]).real,
                                       np.diagonal(db[t]).real)
            got = {name: closed[i, k] for _, names, _, closed in table
                   for k, name in enumerate(names)}
            assert sorted(got) == sorted(want)
            for name, closed in got.items():
                assert closed.tobytes() == want[name].tobytes(), (name, t)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8, 32])
def test_grouped_evaluation_gives_the_bits_of_row_by_row(dim, field,
                                                         monkeypatch):
    # 12 trials share 3 alphas, 4 betas and 2 (delta, lambda) pairs, so
    # every site calls its scalar function on groups of several rows; the
    # exponents 0.5, 1 and 2, which np.power special-cases when they are
    # scalars, catch a site that broadcasts its parameter instead
    params = [ChainParams(alpha=(0.0, 0.5, 2.0)[t % 3],
                          beta=(0.5, 1.0, 2.0, 1.5)[t % 4],
                          delta=(1.5, 2.0)[t % 2], lam=(0.5, 0.7)[t % 2])
              for t in range(12)]
    _assert_grouped_is_row_by_row(monkeypatch, dim, field, params)
    # and each generator runs once per distinct value of what it reads
    calls = []
    real_call = bounds.ScalarFn.__call__

    def counting(self, x):
        calls.append(self.kind)
        return real_call(self, x)

    monkeypatch.setattr(bounds.ScalarFn, "__call__", counting)
    cfg = GenConfig(dim=dim, field=field, master_seed=67)
    _scalar_sites(random_spd_stack(cfg, range(12)),
                  random_spd_stack(cfg, range(12), salt=1), params)
    for kind, reads in bounds._READS.items():
        groups = {tuple(getattr(p, name) for name in reads) for p in params}
        assert calls.count(kind) == len(groups), kind


@pytest.mark.parametrize("beta", [1.0, 1.5])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 4, 32])
def test_grouped_evaluation_on_a_stack_of_one_changes_nothing(
        dim, field, beta, monkeypatch):
    # perspective, bound and compute run on stacks of one
    _assert_grouped_is_row_by_row(monkeypatch, dim, field,
                                  [ChainParams(0.5, beta, 2.0, 0.3)])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [2, 8])
def test_one_trial_per_group_gives_the_bits_of_row_by_row(dim, field,
                                                          monkeypatch):
    # no two trials share an alpha, beta, delta or lambda, so every group
    # is one row; trial 2's beta is 1, the oracle's one-frame layout
    params = [ChainParams(alpha=t / 4, beta=0.5 + t / 4, delta=1.0 + t / 8,
                          lam=t / 8) for t in range(6)]
    _assert_grouped_is_row_by_row(monkeypatch, dim, field, params)


# ---------------------------------------------------------------------------
# compute's perspective is the checker's term

@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8, 32])
def test_perspective_gives_the_bits_of_the_checker_terms(dim, field):
    # compute evaluates every expression through perspective(), whose frame
    # is the chain checker's: each bound is, bit for bit, the term
    # bounds._terms assembles on a stacked frame for the same pair and
    # parameters, and the entropy and the geometric mean are the
    # Frame.assemble terms of their f.  A failing trial replays through
    # compute on the checker's own bits
    every_kind = bounds.SuiteSpec("every-kind",
                                  tuple(sorted(bounds._GENERATORS)), (),
                                  "none", ("alpha", "beta", "delta", "lam"))
    betas = [0.5, 1.0, 1.5, 2.0, 3.0]
    alphas = [0.0, 0.5, 2.0, 1.0, 0.5]
    params = [bounds.ChainParams(alpha, beta, 1.5, 0.3)
              for alpha, beta in zip(alphas, betas)]
    cfg = GenConfig(dim=dim, field=field, master_seed=53)
    a = random_spd_stack(cfg, range(len(betas)))
    b = random_spd_stack(cfg, range(len(betas)), salt=1)
    frame = Frame(a, betas)
    terms = bounds._terms(every_kind, params, frame, b)
    means = frame.assemble(b, [[scalar_generator("S", alpha=p.alpha),
                                scalar_generator("geometric", lam=p.alpha)]
                               for p in params], "C")
    for t, p in enumerate(params):
        at = op.SymMatrix._computed(a[t])
        bt = op.SymMatrix._computed(b[t])
        for kind, term in zip(every_kind.terms, terms[t]):
            got = op.bound(kind, at, bt, alpha=p.alpha, beta=p.beta,
                           delta=p.delta, lam=p.lam)
            assert _bits(got) == term.tobytes(), (kind, p.beta)
        assert _bits(op.rel_entropy_alpha_beta(at, bt, p.alpha, p.beta)) \
            == means[t, 0].tobytes(), p.beta
        assert _bits(op.geo_mean(at, bt, p.alpha, p.beta)) \
            == means[t, 1].tobytes(), p.beta


# ---------------------------------------------------------------------------
# PowerFrame: one congruence B^{e/2} X B^{e/2}

def test_congruence_identity_base():
    x = op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    out = PowerFrame(op.SymMatrix.identity(2), 3.0).conjugate(x)
    np.testing.assert_allclose(out.data, x.data, atol=1e-14)


def test_congruence_of_identity_recovers_base():
    b = op.SymMatrix.diagonal([4.0, 9.0])
    out = PowerFrame(b, 1.0).conjugate(op.SymMatrix.identity(2))
    np.testing.assert_allclose(out.data, b.data, atol=1e-13)


def test_congruence_negative_exponent():
    b = op.SymMatrix.diagonal([4.0, 9.0])
    out = PowerFrame(b, -1.0).conjugate(op.SymMatrix.identity(2))
    np.testing.assert_allclose(out.data, np.diag([0.25, 1.0 / 9.0]),
                               atol=1e-14)


def test_congruence_preserves_psd():
    cfg = GenConfig(dim=6, master_seed=31)
    x = random_spd(cfg, 0)
    b = random_spd(cfg, 0, salt=1)
    out = PowerFrame(b, 1.5).conjugate(x)
    assert op.sym_eig(out).eigenvalues[0] > 0.0


def test_congruence_rejects_nonpositive_base():
    with pytest.raises(op.SpectrumError):
        PowerFrame(op.SymMatrix.diagonal([1.0, 0.0]), 1.0)


@pytest.mark.parametrize("b", [op.SymMatrix.identity(3),
                               op.SymMatrix.identity(2, "complex")],
                         ids=["dim", "field"])
def test_congruence_and_perspective_reject_disagreeing_operands(b):
    x = op.SymMatrix.identity(2)
    frame = PowerFrame(b, 1.0)
    for congruence in (frame.conjugate, frame.whiten):
        with pytest.raises(op.DimensionError, match="operands disagree"):
            congruence(x)
    with pytest.raises(op.DimensionError, match="operands disagree"):
        perspective(np.square, x, b, 1.0)
