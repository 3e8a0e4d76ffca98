import numpy as np
import pytest

import opentropy as op
from opentropy.gen import (
    BOUNDARY_EVERY,
    GenConfig,
    GenerationError,
    random_diag_pair,
    random_partner,
    random_spd,
)


def test_dim_one_degenerate_spectrum():
    cfg = GenConfig(dim=1, spectrum_lo=1.0, spectrum_hi=1.0, master_seed=0)
    m = random_spd(cfg, 5)
    np.testing.assert_allclose(m.data, [[1.0]], atol=1e-15)


def test_bit_identical_reproduction():
    cfg = GenConfig(dim=6, field="complex", master_seed=99)
    first = random_spd(cfg, 7)
    second = random_spd(cfg, 7)
    assert np.array_equal(first.data, second.data)
    assert not np.array_equal(first.data, random_spd(cfg, 8).data)
    assert not np.array_equal(first.data, random_spd(cfg, 7, salt=1).data)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_spectrum_within_declared_interval(field):
    cfg = GenConfig(dim=4, field=field, spectrum_lo=0.5, spectrum_hi=50.0,
                    master_seed=1)
    for trial in range(20):
        vals = op.sym_eig(random_spd(cfg, trial)).eigenvalues
        assert np.all(vals >= 0.5 * (1.0 - 1e-10))
        assert np.all(vals <= 50.0 * (1.0 + 1e-10))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("direction", ["dominating", "dominated"])
def test_partner_relation_margins(field, direction):
    cfg = GenConfig(dim=3, field=field, master_seed=2)
    for trial in range(1, 15):
        beta = (0.5, 1.0, 2.0)[trial % 3]
        delta = 2.0 if direction == "dominating" else 0.5
        a = random_spd(cfg, trial)
        b = random_partner(a, beta, delta, direction, cfg, trial)
        ref = delta * op.mat_pow(a, beta)
        lo, hi = (ref, b) if direction == "dominating" else (b, ref)
        verdict = op.loewner_leq(lo, hi, 1e-10)
        assert verdict.margin >= -1e-10 * verdict.scale


def test_boundary_trials_hit_exact_equality():
    cfg = GenConfig(dim=4, master_seed=3)
    equal = 0
    for trial in range(2 * BOUNDARY_EVERY):
        a = random_spd(cfg, trial)
        b = random_partner(a, 1.0, 2.0, "dominating", cfg, trial)
        ref = 2.0 * op.mat_pow(a, 1.0)
        if np.max(np.abs(b.data - ref.data)) <= 1e-12 * max(1.0, ref.fro):
            equal += 1
    assert equal >= 2  # trials 0 and 20
    assert equal / (2 * BOUNDARY_EVERY) >= 0.05


def test_partner_rejects_bad_arguments():
    cfg = GenConfig(dim=2, master_seed=4)
    a = random_spd(cfg, 1)
    with pytest.raises(op.OperatorError):
        random_partner(a, 1.0, 1.0, "sideways", cfg, 1)
    with pytest.raises(op.OperatorError):
        random_partner(a, 1.0, -1.0, "dominating", cfg, 1)
    with pytest.raises(op.OperatorError, match="delta must be positive"):
        random_partner(a, 1.0, float("nan"), "dominated", cfg, 1)


def test_config_validation():
    with pytest.raises(op.OperatorError):
        GenConfig(dim=0)
    with pytest.raises(op.OperatorError):
        GenConfig(dim=64)
    with pytest.raises(op.OperatorError):
        GenConfig(field="quaternion")
    with pytest.raises(op.OperatorError):
        GenConfig(spectrum_lo=0.0)
    with pytest.raises(op.OperatorError):
        GenConfig(spectrum_lo=1e-4, spectrum_hi=1e2)  # cond 1e6 > cap


def test_diag_pair_is_diagonal_and_positive():
    cfg = GenConfig(dim=5, field="complex", master_seed=6)
    a, b = random_diag_pair(cfg, 3)
    for m in (a, b):
        off = m.data - np.diag(np.diagonal(m.data))
        assert np.max(np.abs(off)) == 0.0
        assert np.all(np.diagonal(m.data).real > 0.0)


def test_generation_error_is_operator_error():
    assert issubclass(GenerationError, op.OperatorError)
