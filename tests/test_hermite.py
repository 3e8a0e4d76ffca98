import numpy as np
import pytest

import opentropy as op
from opentropy.hermite import (
    GridVerdict,
    L_of_lambda,
    extremizer,
    grid_verify,
    hh_record,
    l_of_lambda,
)


def _simpson_average(alpha, x, panels=2048):
    # composite Simpson quadrature of f(t) = x^alpha/t - 1, divided by the
    # interval length; independent of the closed form it checks
    a, b = (1.0, x) if x >= 1.0 else (x, 1.0)
    t = np.linspace(a, b, 2 * panels + 1)
    f = x ** alpha / t - 1.0
    h = (b - a) / (2 * panels)
    integral = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum()
                          + 2.0 * f[2:-1:2].sum())
    return integral / (b - a)


# ---------------------------------------------------------------------------
# l and L

def test_l_endpoints_reduce_to_midpoint_value():
    for alpha, x in ((0.0, 4.0), (1.0, 0.3), (2.5, 7.0)):
        mid = 2.0 * x ** alpha / (x + 1.0) - 1.0
        assert l_of_lambda(alpha, x, 0.0) == pytest.approx(mid, abs=1e-13)
        assert l_of_lambda(alpha, x, 1.0) == pytest.approx(mid, abs=1e-13)


def test_L_endpoints_reduce_to_endpoint_average():
    for alpha, x in ((0.0, 4.0), (1.0, 0.3), (2.5, 7.0)):
        end = 0.5 * (x ** alpha + x ** (alpha - 1.0)) - 1.0
        assert L_of_lambda(alpha, x, 0.0) == pytest.approx(end, abs=1e-13)
        assert L_of_lambda(alpha, x, 1.0) == pytest.approx(end, abs=1e-13)


def test_displayed_formula_values_alpha0_x4():
    assert l_of_lambda(0.0, 4.0, 1.0 / 3.0) == pytest.approx(-5.0 / 9.0,
                                                             abs=1e-14)
    assert L_of_lambda(0.0, 4.0, 1.0 / 3.0) == pytest.approx(-0.5, abs=1e-14)


def test_lambda_outside_unit_interval_rejected():
    with pytest.raises(op.OperatorError):
        l_of_lambda(0.0, 4.0, 1.2)
    with pytest.raises(op.OperatorError):
        L_of_lambda(0.0, 4.0, -0.1)
    for fn in (l_of_lambda, L_of_lambda):
        with pytest.raises(op.OperatorError, match="lambda"):
            fn(0.0, 4.0, float("nan"))
        with pytest.raises(op.OperatorError, match="lambda"):
            fn(0.0, 0.25, [0.5, float("nan")])


# ---------------------------------------------------------------------------
# extremizer

def test_extremizer_values():
    assert extremizer(1.0) == pytest.approx(0.5, abs=1e-15)
    assert extremizer(4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert extremizer(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
def test_extremizer_rejects_non_positive_x(x):
    with pytest.raises(op.OperatorError, match="x must be positive"):
        extremizer(x)


def test_extremizer_attains_closed_forms():
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.5):
        for x in (0.04, 0.3, 0.9, 1.7, 4.0, 81.0):
            lam = extremizer(x)
            sup_l = 4.0 * x ** alpha / (np.sqrt(x) + 1.0) ** 2 - 1.0
            inf_L = x ** alpha / np.sqrt(x) - 1.0
            assert l_of_lambda(alpha, x, lam) == pytest.approx(
                sup_l, abs=1e-12 * max(1.0, abs(sup_l)))
            assert L_of_lambda(alpha, x, lam) == pytest.approx(
                inf_L, abs=1e-12 * max(1.0, abs(inf_L)))


def test_extremizer_stationarity_central_difference():
    step = 1e-5
    for alpha, x in ((0.0, 4.0), (1.0, 9.0), (2.0, 0.3), (0.5, 0.04)):
        lam = extremizer(x)
        dl = (l_of_lambda(alpha, x, lam + step)
              - l_of_lambda(alpha, x, lam - step)) / (2.0 * step)
        dL = (L_of_lambda(alpha, x, lam + step)
              - L_of_lambda(alpha, x, lam - step)) / (2.0 * step)
        assert abs(dl) <= 1e-6
        assert abs(dL) <= 1e-6


# ---------------------------------------------------------------------------
# hh_record

def test_record_at_unit_x_is_all_zero():
    rec = hh_record(3.0, 1.0)
    assert rec.chain() == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert rec.lambda_star == 0.5


def test_record_alpha0_x4_reference_point():
    rec = hh_record(0.0, 4.0)
    expected = (-0.6, -5.0 / 9.0, -0.537902, -0.5, -0.375)
    for got, want in zip(rec.chain(), expected):
        assert got == pytest.approx(want, abs=1e-6)
    # the integral term double-checked by quadrature
    assert rec.integral_avg == pytest.approx(_simpson_average(0.0, 4.0),
                                             abs=1e-12)


def test_record_alpha1_x_e():
    rec = hh_record(1.0, np.e)
    assert rec.midpoint == pytest.approx(2.0 * np.e / (np.e + 1.0) - 1.0,
                                         abs=1e-14)
    assert rec.midpoint == pytest.approx(0.462117, abs=1e-6)
    assert rec.inf_L == pytest.approx(np.sqrt(np.e) - 1.0, abs=1e-14)
    assert rec.inf_L == pytest.approx(0.648721, abs=1e-6)


def test_classical_and_refined_chain_random_sample():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        alpha = float(rng.uniform(0.0, 4.0))
        x = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        rec = hh_record(alpha, x)
        chain = rec.chain()
        scale = max(1.0, max(abs(v) for v in chain))
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + 1e-12 * scale, (alpha, x, chain)


def test_quadrature_agreement():
    rng = np.random.default_rng(29)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 4.0))
        x = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        if abs(x - 1.0) < 1e-6:
            continue
        rec = hh_record(alpha, x)
        quad = _simpson_average(alpha, x)
        assert rec.integral_avg == pytest.approx(
            quad, rel=1e-9, abs=1e-9)


def test_record_input_validation():
    with pytest.raises(op.OperatorError):
        hh_record(0.0, -1.0)
    with pytest.raises(op.OperatorError):
        hh_record(-0.5, 2.0)


# ---------------------------------------------------------------------------
# grid_verify

def test_grid_verify_reference_cases():
    assert grid_verify(0.0, 4.0, 1001).passed
    assert grid_verify(2.0, 0.3, 1001).passed


def test_grid_verify_degenerate_grid():
    verdict = grid_verify(1.0, 4.0, 3)
    assert isinstance(verdict, GridVerdict)
    assert verdict.passed


def test_grid_verify_rejects_tiny_grid():
    with pytest.raises(op.OperatorError):
        grid_verify(0.0, 4.0, 2)
