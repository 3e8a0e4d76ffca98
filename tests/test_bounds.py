import dataclasses
import gc
import itertools
import json
import weakref

import numpy as np
import pytest

import opentropy as op
from opentropy import bounds
from opentropy.bounds import (
    SUITES,
    ChainParams,
    HypothesisError,
    SuiteSpec,
    _relation_margin,
    chain_check,
    scalar_generator,
)
from opentropy.gen import (GenConfig, random_partner, random_spd,
                           random_spd_stack)
from opentropy.matcore import ConvergenceError
from opentropy.perspective import Frame, PowerFrame
from reference import bound_explicit


def _slack(values):
    return 1e-12 * np.maximum(1.0, np.abs(values))


# ---------------------------------------------------------------------------
# scalar generators: frozen values and the pointwise chain oracles

def test_generator_reference_values():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert scalar_generator("I", alpha=alpha)(np.array([1.0]))[0] == 0.0
    v = scalar_generator("V", alpha=0.0)(np.array([2.0]))[0]
    assert v == pytest.approx(0.5 * (2.0 - 0.5), abs=1e-15)  # 0.75
    base = scalar_generator("base_lower")(np.array([2.0]))[0]
    assert base == pytest.approx(0.5, abs=1e-15)


def test_primed_collapse_at_delta_one():
    x = np.logspace(-2, 2, 500)
    for alpha in (0.0, 1.0, 2.5):
        for plain, primed in (("I", "I'"), ("II", "II'"),
                              ("III", "III'"), ("V", "V'")):
            a = scalar_generator(plain, alpha=alpha)(x)
            b = scalar_generator(primed, alpha=alpha, delta=1.0)(x)
            np.testing.assert_allclose(a, b, atol=1e-12 * max(1.0, np.max(np.abs(a))))


def test_scalar_chain_ascending_for_x_above_one():
    # the five-generator chain r <= s <= q <= j <= k on [1, inf)
    x = np.logspace(0.0, 2.0, 2000)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        gens = [scalar_generator(k, alpha=alpha)(x)
                for k in ("I", "II", "S", "III", "V")]
        for lo, hi in zip(gens, gens[1:]):
            assert np.all(lo <= hi + _slack(hi))


def test_scalar_chain_descending_for_x_below_one():
    x = np.logspace(-2.0, 0.0, 2000)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        gens = [scalar_generator(k, alpha=alpha)(x)
                for k in ("I", "II", "S", "III", "V")]
        for lo, hi in zip(gens, gens[1:]):
            assert np.all(lo >= hi - _slack(hi))


@pytest.mark.parametrize("delta", [1.0, 1.5, 3.0])
def test_primed_scalar_chain_on_x_above_delta(delta):
    x = np.logspace(np.log10(delta), 2.0, 2000)
    for alpha in (0.0, 1.0, 2.0):
        gens = [scalar_generator(k, alpha=alpha, delta=delta)(x)
                for k in ("I'", "II'", "S", "III'", "V'")]
        for lo, hi in zip(gens, gens[1:]):
            assert np.all(lo <= hi + _slack(hi))


@pytest.mark.parametrize("delta", [1.0, 1.0 / 1.5, 1.0 / 3.0])
def test_primed_scalar_chain_reversed_below_delta(delta):
    x = np.logspace(-2.0, np.log10(delta), 2000)
    for alpha in (0.0, 1.0, 2.0):
        gens = [scalar_generator(k, alpha=alpha, delta=delta)(x)
                for k in ("I'", "II'", "S", "III'", "V'")]
        for lo, hi in zip(gens, gens[1:]):
            assert np.all(lo >= hi - _slack(hi))


def test_tightening_monotonicities_on_t_grid():
    # Gamma(t) = (ln t + 4 - 8 sqrt(t)/(sqrt(x)+sqrt(t))) x^a increasing,
    # Omega(t) = x^(a+1/2)/sqrt(t) - sqrt(t) x^(a-1/2) + x^a ln t decreasing
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = float(rng.uniform(0.05, 50.0))
        delta = float(rng.uniform(1.0, 4.0))
        t = np.linspace(1.0, delta, 100)
        gamma = (np.log(t) + 4.0
                 - 8.0 * np.sqrt(t) / (np.sqrt(x) + np.sqrt(t)))
        omega = (np.sqrt(x) / np.sqrt(t) - np.sqrt(t) / np.sqrt(x)
                 + np.log(t))
        assert np.all(np.diff(gamma) >= -1e-12)
        assert np.all(np.diff(omega) <= 1e-12)


# ---------------------------------------------------------------------------
# bound operators

def test_bounds_vanish_when_b_is_a_to_beta():
    cfg = GenConfig(dim=5, master_seed=3)
    a = random_spd(cfg, 1)
    for beta in (0.5, 1.0, 2.0):
        b = op.mat_pow(a, beta)
        scale = max(1.0, b.fro)
        for kind in ("I", "II", "S", "III", "V"):
            out = op.bound(kind, a, b, alpha=1.0, beta=beta)
            assert out.fro <= 1e-10 * scale
        s = op.rel_entropy_alpha_beta(a, b, 1.0, beta)
        assert s.fro <= 1e-10 * scale


def test_scalar_term_table_a1_b4():
    a = op.SymMatrix.diagonal([1.0])
    b = op.SymMatrix.diagonal([4.0])
    expected = {
        "I": 2.0 * (1.0 - 2.0 / 5.0),      # 1.2
        "II": 4.0 - 8.0 / 3.0,             # 1.333...
        "S": np.log(4.0),                  # 1.386...
        "III": 1.5,
        "V": 0.5 * (4.0 - 0.25),           # 1.875
    }
    for kind, val in expected.items():
        got = op.bound(kind, a, b, alpha=0.0, beta=1.0).data[0, 0]
        assert got == pytest.approx(val, abs=1e-12)
    assert op.rel_entropy(a, b).data[0, 0] == pytest.approx(np.log(4.0),
                                                            abs=1e-12)


def test_primed_equals_unprimed_at_delta_one():
    for trial in range(10):
        field = "complex" if trial % 2 else "real"
        cfg = GenConfig(dim=1 + trial % 8, field=field, master_seed=7)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        alpha, beta = (0.0, 0.5, 1.0, 2.0)[trial % 4], (0.5, 1.0, 2.0)[trial % 3]
        for plain, primed in (("I", "I'"), ("II", "II'"),
                              ("III", "III'"), ("V", "V'")):
            p = op.bound(plain, a, b, alpha=alpha, beta=beta)
            q = op.bound(primed, a, b, alpha=alpha, beta=beta, delta=1.0)
            assert np.max(np.abs(p.data - q.data)) <= 1e-10 * max(1.0, p.fro)


def test_dual_route_sample():
    kinds = op.BOUND_KINDS + ("S",)
    for trial in range(15):
        field = "complex" if trial % 2 else "real"
        cfg = GenConfig(dim=1 + trial % 8, field=field, master_seed=11)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        alpha = (0.0, 0.5, 1.0, 2.0)[trial % 4]
        beta = (0.5, 1.0, 2.0)[trial % 3]
        delta = (1.0, 1.5, 3.0)[trial % 3]
        for kind in kinds:
            via_perspective = op.bound(kind, a, b, alpha=alpha, beta=beta,
                                       delta=delta)
            via_formula = bound_explicit(kind, a, b, alpha=alpha, beta=beta,
                                         delta=delta)
            scale = max(1.0, via_perspective.fro)
            assert np.max(np.abs(via_perspective.data - via_formula.data)) \
                <= 1e-9 * scale


def test_alpha_monotonicity_of_shift():
    # base_lower <= lower_shift for alpha >= 0 (Loewner form of the
    # proposition's third part)
    for trial in range(15):
        cfg = GenConfig(dim=1 + trial % 6, master_seed=19)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        alpha = (0.0, 0.5, 1.0, 2.0, 3.0)[trial % 5]
        beta = (0.5, 1.0, 2.0)[trial % 3]
        base = op.bound("base_lower", a, b, beta=beta)
        shift = op.bound("lower_shift", a, b, alpha=alpha, beta=beta)
        assert op.loewner_leq(base, shift, 1e-8).holds


def test_unknown_kind_rejected():
    a = op.SymMatrix.identity(2)
    with pytest.raises(op.OperatorError, match="unknown bound kind"):
        op.bound("IV", a, a)
    with pytest.raises(op.OperatorError, match="delta"):
        op.bound("I'", a, a, delta=0.0)
    with pytest.raises(op.OperatorError, match="delta must be positive"):
        scalar_generator("I'", delta=float("nan"))


def test_generators_finite_across_positive_axis():
    x = np.array([1e-6, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e6])
    for kind in op.BOUND_KINDS + ("S", "harmonic", "geometric", "arithmetic"):
        for alpha in (0.0, 0.5, 2.0):
            vals = scalar_generator(kind, alpha=alpha, delta=1.5,
                                    lam=0.3)(x)
            assert np.all(np.isfinite(vals)), (kind, alpha)


@pytest.mark.parametrize("kind", sorted(bounds._GENERATORS))
def test_each_generator_reads_exactly_its_listed_parameters(kind):
    # scalar_generator shares one object per kind and values read, and
    # Frame.assemble calls it once for every matrix that holds it; a
    # parameter read but not listed would merge two different functions
    assert sorted(bounds._READS) == sorted(bounds._GENERATORS)
    x = np.logspace(-2, 2, 41)
    base = {"alpha": 0.5, "delta": 1.5, "lam": 0.3}
    moved = {"alpha": 2.0, "delta": 3.0, "lam": 0.8}
    g = scalar_generator(kind, **base)
    assert scalar_generator(kind, **base) is g
    for name in base:
        given = {**base, name: moved[name]}
        other = scalar_generator(kind, **given)
        direct = bounds._GENERATORS[kind](x, *given.values())
        if name in bounds._READS[kind]:
            assert other is not g
            assert direct.tobytes() != g(x).tobytes(), name
        else:
            assert other is g
            assert direct.tobytes() == g(x).tobytes(), name
    # a delta is checked where it is not read too
    with pytest.raises(op.OperatorError, match="delta must be positive"):
        scalar_generator(kind, delta=0.0)


def test_scalar_generator_keeps_its_object_after_the_caller_drops_it():
    # each CLI call builds its generators anew; a cache that lived only as
    # long as some caller held the object missed on every call
    g = scalar_generator("I'", alpha=0.75, delta=2.5)
    kept = weakref.ref(g)
    del g
    gc.collect()
    assert kept() is not None
    assert scalar_generator("I'", alpha=0.75, delta=2.5) is kept()


# ---------------------------------------------------------------------------
# chain_check

def test_chain_check_rejects_a_nan_the_suite_reads():
    # a nan lies in no parameter range, so a suite rejects it where it
    # reads it, and rests it where it does not
    a, b = op.SymMatrix.identity(2), op.SymMatrix.diagonal([2.0, 3.0])
    nan = float("nan")
    for name, params, message in (
            ("thm-main1", ChainParams(beta=nan), "requires beta > 0, got nan"),
            ("thm-main1", ChainParams(alpha=nan),
             "requires alpha >= 0, got nan"),
            ("cor-delta-le", ChainParams(delta=nan),
             "requires delta >= 1, got nan"),
            ("cor-delta-ge", ChainParams(delta=nan),
             "requires 0 < delta <= 1, got nan"),
            ("prop-means", ChainParams(lam=nan),
             "lambda must lie in [0, 1], got nan")):
        with pytest.raises(HypothesisError) as err:
            chain_check(name, a, b, params)
        assert str(err.value) == f"suite {name}: {message}"
    report = chain_check("cor-entropy-le", a, b,
                         ChainParams(alpha=nan, beta=nan, delta=nan))
    assert report.passed and report.params == ChainParams()


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["prop-bounds", "thm-main1"])
def test_chain_check_rejects_a_non_finite_tolerance(name, tol):
    # a NaN tolerance would fail links and hypotheses that hold, and an
    # infinite one pass every link; a negative finite one still fails links
    a, b = op.SymMatrix.identity(2), op.SymMatrix.diagonal([2.0, 3.0])
    assert chain_check(name, a, b).passed
    assert not chain_check("prop-bounds", a, b, tol=-10.0).passed
    with pytest.raises(op.OperatorError) as err:
        chain_check(name, a, b, tol=tol)
    assert not isinstance(err.value, HypothesisError)
    assert str(err.value) == f"tol must be finite, got {tol!r}"


def test_identity_pair_passes_every_suite_with_zero_margins():
    eye = op.SymMatrix.identity(3)
    for name, spec in SUITES.items():
        report = chain_check(name, eye, eye, ChainParams(alpha=1.0))
        assert report.passed, name
        for link in report.links:
            assert abs(link.margin) <= 1e-12, (name, link)


def test_entropy_corollary_on_commuting_example():
    # A = I, B = diag(2, 3): every term is diagonal with entries given by
    # the scalar seven-term chain at x = 2 and x = 3
    a = op.SymMatrix.identity(2)
    b = op.SymMatrix.diagonal([2.0, 3.0])
    report = chain_check("cor-entropy-le", a, b)
    assert report.passed
    x = np.array([2.0, 3.0])
    terms = ("lower_shift", "I", "II", "S", "III", "V", "upper_shift")
    scalar = {k: scalar_generator(k, alpha=0.0)(x) for k in terms}
    for k in terms:
        got = np.diagonal(op.bound(k, a, b).data)
        np.testing.assert_allclose(got, scalar[k], atol=1e-12)
    for lo, hi in zip(terms, terms[1:]):
        assert np.all(scalar[lo] <= scalar[hi] + 1e-14)


def test_delta_corollary_on_commuting_example():
    # hypothesis 2I <= diag(2, 3) holds with a zero margin
    a = op.SymMatrix.identity(2)
    b = op.SymMatrix.diagonal([2.0, 3.0])
    report = chain_check("cor-delta-le", a, b, ChainParams(delta=2.0))
    assert report.passed
    assert report.params.delta == 2.0


def test_hypothesis_violation_is_rejected_not_skipped():
    a = op.SymMatrix.identity(2)
    b = op.SymMatrix.diagonal([2.0, 3.0])
    with pytest.raises(HypothesisError, match="margin"):
        chain_check("cor-delta-le", a, b, ChainParams(delta=3.0))
    with pytest.raises(HypothesisError, match="alpha"):
        chain_check("thm-main1", a, b, ChainParams(alpha=-1.0))
    with pytest.raises(HypothesisError, match="beta"):
        chain_check("thm-main1", a, b, ChainParams(beta=0.0))
    with pytest.raises(HypothesisError, match="delta"):
        chain_check("thm-primed-le", a, b, ChainParams(delta=0.5))
    with pytest.raises(HypothesisError, match="lambda"):
        chain_check("prop-means", a, b, ChainParams(lam=1.5))


def test_corollary_suites_pin_alpha_beta():
    a = op.SymMatrix.identity(2)
    report = chain_check("cor-entropy-le", a, 2.0 * a,
                         ChainParams(alpha=2.0, beta=0.5))
    assert report.params.alpha == 0.0
    assert report.params.beta == 1.0


def test_failing_link_reported_with_embedded_inputs():
    # a deliberately reversed chain must fail and embed the inputs
    reversed_spec = SuiteSpec("test-reversed", ("upper_shift", "lower_shift"),
                              ((0, 1),), "dominating", ("alpha", "beta"))
    cfg = GenConfig(dim=3, master_seed=5)
    a = random_spd(cfg, 1)
    b = random_partner(a, 1.0, 1.0, "dominating", cfg, 1)
    report = chain_check(reversed_spec, a, b, ChainParams(alpha=1.0))
    assert not report.passed
    assert report.verdict == "fail"
    assert report.matrices is not None
    replay_a = op.matrix_from_obj(report.matrices["A"])
    np.testing.assert_allclose(replay_a.data, a.data)


def test_report_json_schema_exact():
    a = op.SymMatrix.identity(2)
    report = chain_check("thm-main1", a, a, ChainParams(alpha=0.5))
    obj = report.to_json_dict()
    assert set(obj) == {"suite", "trial_seed", "params", "links", "verdict"}
    assert set(obj["params"]) == {"alpha", "beta", "delta", "lambda"}
    for link in obj["links"]:
        assert set(link) == {"lhs", "rhs", "margin"}
    json.dumps(obj)  # serializable


@pytest.mark.parametrize("name,relation,deltas", [
    ("thm-main1", "dominating", (1.0,)),
    ("thm-main2", "dominated", (1.0,)),
    ("cor-entropy-le", "dominating", (1.0,)),
    ("cor-entropy-ge", "dominated", (1.0,)),
    ("thm-primed-le", "dominating", (1.0, 1.5, 3.0)),
    ("thm-primed-ge", "dominated", (1.0, 1.0 / 1.5, 1.0 / 3.0)),
    ("prop-tighten", "dominating", (1.0, 1.5, 3.0)),
    ("prop-tighten-ge", "dominated", (1.0, 1.0 / 1.5, 1.0 / 3.0)),
    ("cor-delta-le", "dominating", (1.0, 1.5, 3.0)),
    ("cor-delta-ge", "dominated", (1.0, 1.0 / 1.5, 1.0 / 3.0)),
])
def test_partnered_suites_random_sample(name, relation, deltas):
    spec = SUITES[name]
    for trial in range(24):
        field = "complex" if trial % 2 else "real"
        cfg = GenConfig(dim=1 + trial % 8, field=field, master_seed=101)
        params = ChainParams(alpha=(0.0, 0.5, 1.0, 2.0)[trial % 4],
                             beta=(0.5, 1.0, 2.0)[trial % 3],
                             delta=deltas[trial % len(deltas)])
        eff = spec.resolve(params)
        a = random_spd(cfg, trial)
        b = random_partner(a, eff.beta, eff.delta, relation, cfg, trial)
        report = chain_check(name, a, b, params)
        assert report.passed, (name, trial, report.to_json_dict())


@pytest.mark.parametrize("name", ["prop-bounds", "prop-means"])
def test_free_suites_random_sample(name):
    for trial in range(24):
        field = "complex" if trial % 2 else "real"
        cfg = GenConfig(dim=1 + trial % 8, field=field, master_seed=103)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        params = ChainParams(alpha=(0.0, 0.5, 1.0, 2.0)[trial % 4],
                             beta=(0.5, 1.0, 2.0)[trial % 3],
                             lam=(trial % 11) / 10.0)
        report = chain_check(name, a, b, params)
        assert report.passed, (name, trial, report.to_json_dict())


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_500_instances_per_field(name):
    # 63 trials at each of dims 1-8, 504 per field, cycling only the
    # parameters the suite reads over alpha {0,1/2,1,2}, beta {1/2,1,2},
    # delta {1,1.5,3} (reciprocals for the reversed suites) and lambda
    # {0,0.1,...,1}, so every value named here runs at every dim
    from opentropy.cli import RunConfig, run_suite

    values = {"alpha": (0.0, 0.5, 1.0, 2.0), "beta": (0.5, 1.0, 2.0),
              "delta": ((1.0, 1.0 / 1.5, 1.0 / 3.0) if name.endswith("-ge")
                        else (1.0, 1.5, 3.0)),
              "lam": tuple(i / 10 for i in range(11))}
    lists = {key: vals if key in SUITES[name].axes
             else (RESTING.get(key, 0.5),) for key, vals in values.items()}
    dims = range(1, 9)
    for field in ("real", "complex"):
        realized = set()
        for dim in dims:
            cfg = RunConfig(suite=name, trials=63, dims=(dim,), field=field,
                            seed=4096, alphas=lists["alpha"],
                            betas=lists["beta"], deltas=lists["delta"],
                            lams=lists["lam"])
            report = run_suite(cfg)
            assert report["summary"]["all_pass"], (name, field, dim,
                                                   report["summary"])
            realized |= {(dim, *trial["params"].values())
                         for trial in report["trials"]}
        assert realized == set(itertools.product(dims, *lists.values())), (
            field)


# ---------------------------------------------------------------------------
# stacked checks: the same bits and the same first error as one at a time

def _serial_margins(spec, a, b, params, tol):
    # the chain as 2-D library calls, one matrix at a time: with
    # C = U diag(lambda) U* and M = A^{beta/2} U, each term is the one
    # product (M diag g(lambda)) M*; g(C) itself is never formed
    p = spec.resolve(params)
    frame = PowerFrame(a, p.beta)
    cp = op.sym_eig(frame.whiten(b))
    m = frame.frame.half[0] @ cp.eigenvectors
    terms = []
    for label in spec.terms:
        g = scalar_generator(label, alpha=p.alpha, delta=p.delta, lam=p.lam)
        vals = g(cp.eigenvalues)
        terms.append(op.SymMatrix._computed((m * vals) @ m.conj().T))
    return [op.loewner_leq(terms[i], terms[j], tol).margin
            for i, j in spec.links]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_stacked_run_matches_per_trial_chain_check(name, field, monkeypatch,
                                                   draw_alone):
    # both runs span two chunks (trials 63/64) and hold the exact-boundary
    # trials 0, 20, 40 and 60; with dims outermost in the parameter cycle,
    # the first run's 73 trials all fall on dim 1, and the second run's 9
    # combos per dim put trials 0-71 on dims 1-8
    from opentropy import cli

    deltas = ((1.0, 1.0 / 1.5, 1.0 / 3.0) if name.endswith("-ge")
              else (1.0, 1.5, 3.0))
    dims = tuple(range(1, 9))
    configs = (
        cli.RunConfig(suite=name, trials=cli.CHUNK_TRIALS + 9, dims=dims,
                      field=field, seed=77, alphas=(0.0, 0.5, 2.0),
                      betas=(0.5, 1.0, 2.0), deltas=deltas,
                      lams=(0.0, 0.3, 1.0)),
        cli.RunConfig(suite=name, trials=cli.CHUNK_TRIALS + 9, dims=dims,
                      field=field, seed=78, alphas=(0.0, 0.5, 2.0),
                      betas=(0.5, 1.0, 2.0), deltas=deltas[1:2],
                      lams=(0.3,)))
    stack_draw, stacked = cli._draw, {}

    def draw(cfg, trials):
        out = stack_draw(cfg, trials)
        for group, a, b, *_ in out:
            stacked.update(zip(group, zip(a, b)))
        return out

    monkeypatch.setattr(cli, "_draw", draw)
    for cfg in configs:
        stacked.clear()
        got = cli.run_suite(cfg)["trials"]
        assert sorted(stacked) == list(range(cfg.trials))
        for trial in range(cfg.trials):
            a, b, params = draw_alone(cfg, trial)
            assert stacked[trial][0].tobytes() == a.data.tobytes(), trial
            assert stacked[trial][1].tobytes() == b.data.tobytes(), trial
            one = chain_check(name, a, b, params, tol=cfg.tol,
                              trial_seed=trial)
            want = [float(link.margin).hex() for link in one.links]
            assert [float(link["margin"]).hex()
                    for link in got[trial]["links"]] == want, trial
            assert got[trial]["verdict"] == one.verdict
            serial = _serial_margins(SUITES[name], a, b, params, cfg.tol)
            assert [float(m).hex() for m in serial] == want, trial
    assert {stacked[t][0].shape[-1] for t in range(72)} == set(dims)


def _first_error_batch(non_positive_at, violating_at):
    cfg = GenConfig(dim=3, master_seed=21)
    pairs = []
    for trial in range(5):
        a = random_spd(cfg, trial)
        b = random_partner(a, 1.0, 1.0, "dominating", cfg, trial)
        if trial == non_positive_at:
            a = op.SymMatrix.diagonal([2.0, -1.0, 3.0])
        if trial == violating_at:
            b = 0.5 * a  # A <= B fails
        pairs.append((a, b))
    return pairs


def _run_fixed(plant_draws, pairs, params):
    # run_suite with trial t drawn as (*pairs[t], params[t])
    from opentropy import cli

    plant_draws(lambda cfg, trial: (*pairs[trial], params[trial]))
    return cli.run_suite(cli.RunConfig(suite="thm-main1", trials=len(pairs),
                                       dims=(3,)))


@pytest.mark.parametrize("first,second", [("frame", "hypothesis"),
                                          ("hypothesis", "frame")])
def test_stacked_check_raises_the_first_serial_error(plant_draws, first,
                                                     second):
    # trial 1 fails at one stage and trial 3 at the other; either way the
    # run must fail as chain_check fails on trial 1 alone
    at = {first: 1, second: 3}
    pairs = _first_error_batch(at["frame"], at["hypothesis"])
    params = [ChainParams(alpha=0.5)] * len(pairs)
    with pytest.raises(op.OperatorError) as run:
        _run_fixed(plant_draws, pairs, params)
    with pytest.raises(op.OperatorError) as alone:
        chain_check("thm-main1", *pairs[1], params[1], trial_seed=1)
    assert type(run.value) is type(alone.value)
    assert str(run.value) == str(alone.value)


def test_stacked_linalg_failure_blames_the_lowest_trial(monkeypatch,
                                                       plant_draws):
    # LAPACK fails on any stack holding trial 2's or trial 4's A; the run
    # must fail on trial 2, the lowest trial whose own decomposition fails
    real_eigh = np.linalg.eigh
    raised = []

    def eigh(arr):
        if np.any(arr[..., 0, 0] == 7.25):
            raised.append(np.array(arr))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(arr)

    pairs = _first_error_batch(None, None)
    for trial, second in ((2, 1.0), (4, 2.0)):
        a = op.SymMatrix.diagonal([7.25, second, 1.0])
        pairs[trial] = (a, 2.0 * a)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(ConvergenceError) as run:
        _run_fixed(plant_draws, pairs, [ChainParams()] * len(pairs))
    assert str(run.value) == ("eigendecomposition failed: "
                              "Eigenvalues did not converge")
    assert raised[-1].shape == (1, 3, 3)
    assert np.array_equal(raised[-1][0], pairs[2][0].data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_term_fails_as_the_serial_chain_does():
    # x**400 overflows: on both routes the first non-finite matrix is the
    # first term (M diag g_0(lambda)) M*, as g_0(C) is never formed; the
    # stacked route names g_0 and its first infinite value
    cfg = GenConfig(dim=3, master_seed=1)
    a = random_spd(cfg, 2)
    b = random_partner(a, 1.0, 1.0, "dominating", cfg, 2)
    params = ChainParams(alpha=400.0)
    spec = SUITES["thm-main1"]
    with pytest.raises(op.OperatorError, match="entries must be finite"):
        _serial_margins(spec, a, b, params, 1e-8)
    with pytest.raises(op.OperatorError) as stacked:
        chain_check("thm-main1", a, b, params)
    g = scalar_generator(spec.terms[0], alpha=params.alpha)
    lam = op.sym_eig(PowerFrame(a, params.beta).whiten(b)).eigenvalues
    vals = g(lam)
    j = np.argmax(~np.isfinite(vals))
    assert str(stacked.value) == (
        f"generator {g.name} gives the non-finite value {float(vals[j])!r} "
        f"at eigenvalue {float(lam[j])!r} of the whitened B of suite "
        f"thm-main1, which must be strictly positive")


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("relation", ["dominating", "dominated"])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_relation_margin_is_the_per_matrix_comparison_bit_for_bit(
        dim, relation, field):
    # the delta scaling is one broadcast product over the stack; each
    # trial's margin and scale must be bitwise those loewner_leq gives on
    # delta * mat_pow(A, beta) and B, with betas and deltas mixed in the
    # stack and a diagonal A, whose power has zero entries
    cfg = GenConfig(dim=dim, field=field, master_seed=17)
    trials = range(12)
    betas = [(0.5, 1.0, 2.0)[t % 3] for t in trials]
    deltas = [(1.0 / 3.0, 0.5, 1.5, 3.0)[t % 4] for t in trials]
    a = np.array(random_spd_stack(cfg, trials))
    a[0] = np.diag(np.linspace(0.5, 4.0, dim))
    b = random_spd_stack(cfg, trials, salt=1)
    margin, scale = _relation_margin(Frame(a, betas).pair, b, betas, deltas,
                                     relation)
    for t in trials:
        power = deltas[t] * op.mat_pow(op.SymMatrix._computed(a[t]),
                                       betas[t])
        other = op.SymMatrix._computed(b[t])
        one = (op.loewner_leq(power, other) if relation == "dominating"
               else op.loewner_leq(other, power))
        assert margin[t].tobytes() == np.float64(one.margin).tobytes(), t
        assert scale[t].tobytes() == np.float64(one.scale).tobytes(), t


# the parameters each suite's statement leaves free, and the side of 1 its
# hypothesis puts a free delta on: ">=" with delta A^beta <= B, "<=" with
# B <= delta A^beta; typed from the theorem statements, not from
# SuiteSpec.axes
STATEMENTS = {
    "thm-main1": ("alpha beta", None),
    "thm-main2": ("alpha beta", None),
    "prop-bounds": ("alpha beta", None),
    "prop-means": ("lam", None),
    "cor-entropy-le": ("", None),
    "cor-entropy-ge": ("", None),
    "thm-primed-le": ("alpha beta delta", ">="),
    "thm-primed-ge": ("alpha beta delta", "<="),
    "prop-tighten": ("alpha beta delta", ">="),
    "prop-tighten-ge": ("alpha beta delta", "<="),
    "cor-delta-le": ("delta", ">="),
    "cor-delta-ge": ("delta", "<="),
}
# where an unread parameter rests; lambda passes through unread
RESTING = {"alpha": 0.0, "beta": 1.0, "delta": 1.0}


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_each_suite_reads_exactly_its_parameters(name):
    assert sorted(STATEMENTS) == sorted(SUITES)
    reads, side = STATEMENTS[name]
    reads = reads.split()
    spec = SUITES[name]

    def resolved(given):
        # repr, so that a nan compares equal to itself
        return repr(dataclasses.asdict(spec.resolve(ChainParams(**given))))

    def expected(given):
        return repr({key: value if key in reads or key == "lam"
                     else RESTING[key] for key, value in given.items()})

    given = {"alpha": 0.7, "beta": 1.3, "delta": 0.5 if side == "<=" else 1.5,
             "lam": 0.3}
    assert resolved(given) == expected(given)
    nan = float("nan")
    wrong_side = {">=": (0.5, "requires delta >= 1, got 0.5"),
                  "<=": (1.5, "requires 0 < delta <= 1, got 1.5")}
    # (slot, a value the paper forbids, the message where the slot is
    # read); a nan lies in no range, so each read nan is rejected with its
    # slot's message, and an unread one rests or, as lambda, passes on
    cases = [
        ("alpha", -1.0, "requires alpha >= 0, got -1.0"),
        ("beta", 0.0, "requires beta > 0, got 0.0"),
        ("delta", *wrong_side.get(side, (0.5, None))),
        ("lam", 1.5, "lambda must lie in [0, 1], got 1.5"),
        ("alpha", nan, "requires alpha >= 0, got nan"),
        ("beta", nan, "requires beta > 0, got nan"),
        ("delta", nan, {">=": "requires delta >= 1, got nan",
                        "<=": "requires 0 < delta <= 1, got nan"}.get(side)),
        ("lam", nan, "lambda must lie in [0, 1], got nan"),
    ]
    for slot, value, message in cases:
        bad = {**given, slot: value}
        if slot in reads and message is not None:
            with pytest.raises(HypothesisError) as err:
                spec.resolve(ChainParams(**bad))
            assert str(err.value) == f"suite {name}: {message}"
        else:
            assert resolved(bad) == expected(bad), (slot, value)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_resolve_is_idempotent(name):
    # chain_check_stack resolves parameters that the CLI draw has already
    # resolved; the second pass must change nothing
    spec = SUITES[name]
    deltas = (1.0, 0.5) if spec.relation == "dominated" else (1.0, 3.0)
    for alpha, beta, delta in itertools.product((0.0, 2.0), (0.5, 1.0),
                                                deltas):
        once = spec.resolve(ChainParams(alpha, beta, delta, 0.3))
        assert spec.resolve(once) == once
