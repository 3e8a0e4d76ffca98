import json

import numpy as np
import pytest

import opentropy as op
from opentropy.cli import EXIT_OK, main
from opentropy.gen import GenConfig, random_diag_pair, random_spd
from reference import closed_form_means


def _pair(trial, dim=5, field="real", seed=37):
    cfg = GenConfig(dim=dim, field=field, master_seed=seed)
    return random_spd(cfg, trial), random_spd(cfg, trial, salt=1)


# ---------------------------------------------------------------------------
# geometric mean

def test_geo_mean_of_matched_power_is_that_power():
    a, _ = _pair(0)
    b = op.mat_pow(a, 2.0)  # so the whitened middle matrix is I
    out = op.geo_mean(a, b, 0.7, beta=2.0)
    np.testing.assert_allclose(out.data, b.data, atol=1e-10 * max(1.0, b.fro))


def test_geo_mean_identity_left():
    _, b = _pair(1)
    out = op.geo_mean(op.SymMatrix.identity(5), b, 0.5)
    expected = op.mat_pow(b, 0.5)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_geo_mean_scalar_closed_form():
    # a^(1-alpha) b^alpha at a=4, b=2, alpha=1/2
    out = op.geo_mean(op.SymMatrix.diagonal([4.0]),
                      op.SymMatrix.diagonal([2.0]), 0.5)
    assert out.data[0, 0] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert out.data[0, 0] == pytest.approx(2.828427, abs=1e-6)


def test_geo_mean_identity_reductions():
    for field in ("real", "complex"):
        a, b = _pair(2, field=field)
        one = op.geo_mean(a, b, 1.0, 1.0)
        np.testing.assert_allclose(one.data, b.data,
                                   atol=1e-10 * max(1.0, b.fro))
        for beta in (0.5, 1.0, 2.0):
            zero = op.geo_mean(a, b, 0.0, beta)
            ab = op.mat_pow(a, beta)
            np.testing.assert_allclose(zero.data, ab.data,
                                       atol=1e-10 * max(1.0, ab.fro))


def test_geo_mean_rejects_nonpositive():
    with pytest.raises(op.SpectrumError):
        op.geo_mean(op.SymMatrix.diagonal([1.0, -1.0]),
                    op.SymMatrix.identity(2), 0.5)


# ---------------------------------------------------------------------------
# relative operator entropies

def test_entropy_of_self_is_zero():
    a, _ = _pair(3)
    out = op.rel_entropy(a, a)
    assert out.fro <= 1e-10 * max(1.0, a.fro)


def test_entropy_scalar_a_log_b_over_a():
    out = op.rel_entropy(op.SymMatrix.diagonal([2.0]),
                         op.SymMatrix.diagonal([2.0 * np.e ** 2]))
    assert out.data[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_entropy_alpha_scalar_example():
    # S_{2,1}(1 | e) = b^alpha ln b = e^2
    out = op.rel_entropy_alpha(op.SymMatrix.diagonal([1.0]),
                               op.SymMatrix.diagonal([np.e]), 2.0)
    assert out.data[0, 0] == pytest.approx(np.e ** 2, abs=1e-10)
    assert out.data[0, 0] == pytest.approx(7.389056, abs=1e-6)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_specialization_coherence(field):
    for trial in range(10):
        a, b = _pair(trial, field=field)
        alpha = (0.0, 0.5, 1.0, 2.0)[trial % 4]
        scale = max(1.0, a.fro, b.fro)
        via_ab = op.rel_entropy_alpha_beta(a, b, alpha, 1.0)
        via_a = op.rel_entropy_alpha(a, b, alpha)
        np.testing.assert_allclose(via_ab.data, via_a.data,
                                   atol=1e-11 * scale)
        np.testing.assert_allclose(
            op.rel_entropy_alpha_beta(a, b, 0.0, 1.0).data,
            op.rel_entropy(a, b).data, atol=1e-11 * scale)


# ---------------------------------------------------------------------------
# weighted means

def test_means_degenerate_lambdas():
    a, b = _pair(4)
    for lam, ref in ((0.0, a), (1.0, b)):
        har, geo, ari = op.weighted_means(a, b, lam)
        for m in (har, geo, ari):
            np.testing.assert_allclose(m.data, ref.data,
                                       atol=1e-10 * max(1.0, ref.fro))


def test_means_classical_scalars():
    har, geo, ari = op.weighted_means(op.SymMatrix.diagonal([1.0]),
                                      op.SymMatrix.diagonal([4.0]), 0.5)
    assert har.data[0, 0] == pytest.approx(1.6, abs=1e-12)
    assert geo.data[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert ari.data[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_means_chain_sample():
    for trial in range(30):
        a, b = _pair(trial, dim=1 + trial % 8,
                     field="complex" if trial % 2 else "real")
        lam = (trial % 11) / 10.0
        har, geo, ari = op.weighted_means(a, b, lam)
        scale = max(1.0, a.fro, b.fro)
        assert op.loewner_leq(har, geo, 1e-8).margin >= -1e-8 * scale
        assert op.loewner_leq(geo, ari, 1e-8).margin >= -1e-8 * scale


def test_means_reject_bad_lambda():
    # prop-means's rule, the one the CLI applies
    a, b = _pair(5)
    for lam in (1.5, -0.1, float("nan")):
        with pytest.raises(op.HypothesisError,
                           match=f"^suite prop-means: lambda must lie in "
                                 f"\\[0, 1\\], got {lam!r}$"):
            op.weighted_means(a, b, lam)


def test_means_dual_route_matches_perspective_generators():
    # the closed forms of the reference vs the registry generators through
    # h(x) = x
    for trial in range(10):
        a, b = _pair(trial, field="complex" if trial % 2 else "real")
        lam = (trial % 11) / 10.0
        triple = closed_form_means(a, b, lam)
        for kind, explicit in zip(("harmonic", "geometric", "arithmetic"),
                                  triple):
            routed = op.bound(kind, a, b, beta=1.0, lam=lam)
            scale = max(1.0, explicit.fro)
            assert np.max(np.abs(routed.data - explicit.data)) <= 1e-9 * scale


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_weighted_means_are_compute_means_bitwise(tmp_path, field, dim, lam):
    # one route for the means: the library gives the bits of
    # `compute --expr means` on the same matrix files
    paths = []
    for name, m in zip("ab", _pair(6, dim=dim, field=field)):
        paths.append(str(tmp_path / f"{name}.json"))
        op.save_matrix(m, paths[-1])
    out = tmp_path / "means.json"
    assert main(["compute", "--expr", "means", "--lam", repr(lam), "--A",
                 paths[0], "--B", paths[1], "--out", str(out)]) == EXIT_OK
    triple = op.weighted_means(*map(op.load_matrix, paths), lam)
    expected = {kind: json.loads(json.dumps(op.matrix_to_obj(m)))
                for kind, m in zip(("harmonic", "geometric", "arithmetic"),
                                   triple)}
    assert json.loads(out.read_text()) == expected


@pytest.mark.parametrize("field", ["real", "complex"])
def test_diagonal_oracle_all_operations(field):
    cfg = GenConfig(dim=7, field=field, master_seed=41)
    for trial in range(10):
        a, b = random_diag_pair(cfg, trial)
        av = np.diagonal(a.data).real
        bv = np.diagonal(b.data).real
        alpha, beta, lam = 1.5, 2.0, 0.3
        x = bv / av ** beta
        cases = [
            (op.geo_mean(a, b, alpha, beta), av ** beta * x ** alpha),
            (op.rel_entropy_alpha_beta(a, b, alpha, beta),
             av ** beta * x ** alpha * np.log(x)),
            (op.rel_entropy(a, b), av * np.log(bv / av)),
        ]
        har, geo, ari = op.weighted_means(a, b, lam)
        cases += [
            (har, 1.0 / ((1.0 - lam) / av + lam / bv)),
            (geo, av ** (1.0 - lam) * bv ** lam),
            (ari, (1.0 - lam) * av + lam * bv),
        ]
        for got, expected in cases:
            dev = np.max(np.abs(got.data
                                - np.diag(expected).astype(got.data.dtype)))
            assert dev <= 1e-10 * max(1.0, float(np.max(np.abs(expected))))
