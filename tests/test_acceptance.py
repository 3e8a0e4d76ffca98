"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass/fail lines.
"""

import time

import numpy as np

import opentropy as op
from opentropy.bounds import ChainParams, chain_check, scalar_generator
from opentropy.cli import RunConfig, _emit, run_suite
from opentropy.gen import GenConfig, random_diag_pair, random_spd
from opentropy.hermite import (
    L_of_lambda,
    extremizer,
    grid_verify,
    hh_record,
    l_of_lambda,
)
from reference import bound_explicit

GRID_ALPHAS = (0.0, 0.5, 1.0, 2.0)
GRID_BETAS = (0.5, 1.0, 2.0)
DIMS = tuple(range(1, 9))


def _verdict(num, name, ok, detail):
    print(f"[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _suite_config(suite, trials, field, deltas=(1.0,), lams=(0.5,), seed=2024):
    return RunConfig(suite=suite, trials=trials, dims=DIMS, field=field,
                     seed=seed, alphas=GRID_ALPHAS, betas=GRID_BETAS,
                     deltas=deltas, lams=lams)


def test_criterion_1_perspective_monotonicity():
    # lower_shift <= I-generator <= upper_shift pointwise on (0, inf); the
    # perspective must transport the order for 500 trials per scalar field
    started = time.perf_counter()
    worst = np.inf
    for field in ("real", "complex"):
        for trial in range(500):
            cfg = GenConfig(dim=DIMS[trial % len(DIMS)], field=field,
                            master_seed=512)
            a = random_spd(cfg, trial)
            b = random_spd(cfg, trial, salt=1)
            alpha = GRID_ALPHAS[trial % 4]
            beta = GRID_BETAS[trial % 3]
            low = op.bound("lower_shift", a, b, alpha=alpha, beta=beta)
            mid = op.bound("I", a, b, alpha=alpha, beta=beta)
            high = op.bound("upper_shift", a, b, alpha=alpha, beta=beta)
            for lo, hi in ((low, mid), (mid, high)):
                v = op.loewner_leq(lo, hi, 1e-8)
                worst = min(worst, v.margin / v.scale)
                assert v.holds
    elapsed = time.perf_counter() - started
    _verdict(1, "perspective monotonicity", elapsed < 30.0,
             f"1000 trials, worst scaled margin {worst:+.2e}, "
             f"{elapsed:.1f}s < 30s")


def _run_split_fields(suite, deltas=(1.0,), lams=(0.5,), trials_per_field=250):
    reports = {}
    for field in ("real", "complex"):
        reports[field] = run_suite(
            _suite_config(suite, trials_per_field, field, deltas, lams))
    return reports


def _assert_all_pass(reports, suite):
    for field, report in reports.items():
        assert report["summary"]["all_pass"], (suite, field,
                                               report["summary"])


def test_criterion_2_main_sandwich_and_reverse():
    boundary_links = 0
    for suite in ("thm-main1", "thm-main2"):
        reports = _run_split_fields(suite)
        _assert_all_pass(reports, suite)
        for field, report in reports.items():
            boundary = [t for t in report["trials"]
                        if t["trial_seed"] % 20 == 0]
            assert len(boundary) / len(report["trials"]) >= 0.05
            for trial in boundary:
                # B = A^beta exactly: every term vanishes, margins at
                # rounding level (scale >= 1, so 1e-9 absolute is stricter
                # than 1e-9 * scale)
                for link in trial["links"]:
                    assert abs(link["margin"]) <= 1e-9, (suite, field, trial)
                    boundary_links += 1
    _verdict(2, "main sandwich + reverse", True,
             f"2x500 trials pass at tol 1e-8; {boundary_links} boundary "
             f"links all within 1e-9")


def test_criterion_3_entropy_corollaries():
    for suite in ("cor-entropy-le", "cor-entropy-ge"):
        reports = _run_split_fields(suite)
        _assert_all_pass(reports, suite)
        for field, report in reports.items():
            for trial in report["trials"]:
                assert len(trial["links"]) == 6

    # commuting instances: every term matches the scalar chain eigenvalue
    # by eigenvalue to 1e-10 relative
    rng = np.random.default_rng(77)
    worst = 0.0
    for direction in ("le", "ge"):
        terms = (("lower_shift", "I", "II", "S", "III", "V", "upper_shift")
                 if direction == "le" else
                 ("lower_shift", "V", "III", "S", "II", "I", "upper_shift"))
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            avals = np.exp(rng.uniform(np.log(0.1), np.log(10.0), dim))
            factor = (rng.uniform(1.0, 4.0, dim) if direction == "le"
                      else rng.uniform(0.25, 1.0, dim))
            bvals = avals * factor
            a = op.SymMatrix.diagonal(avals)
            b = op.SymMatrix.diagonal(bvals)
            report = chain_check(f"cor-entropy-{direction}", a, b)
            assert report.passed
            x = bvals / avals
            for kind in terms:
                scalar = avals * scalar_generator(kind, alpha=0.0)(x)
                got = np.diagonal(op.bound(kind, a, b).data)
                dev = np.max(np.abs(got - scalar)
                             / np.maximum(1.0, np.abs(scalar)))
                worst = max(worst, float(dev))
                assert dev <= 1e-10
    _verdict(3, "seven-term entropy corollaries", True,
             f"2x500 trials pass, six links each; commuting per-eigenvalue "
             f"worst rel dev {worst:.2e} <= 1e-10")


def test_criterion_4_delta_refinements():
    runs = (
        ("thm-primed-le", (1.0, 1.5, 3.0)),
        ("thm-primed-ge", (1.0, 1.0 / 1.5, 1.0 / 3.0)),
        ("prop-tighten", (1.0, 1.5, 3.0)),
        ("cor-delta-le", (1.0, 1.5, 3.0)),
        ("cor-delta-ge", (1.0, 1.0 / 1.5, 1.0 / 3.0)),
    )
    for suite, deltas in runs:
        reports = _run_split_fields(suite, deltas=deltas)
        _assert_all_pass(reports, suite)

    # at delta = 1 every primed bound collapses onto its unprimed twin
    worst = 0.0
    for trial in range(50):
        field = "complex" if trial % 2 else "real"
        cfg = GenConfig(dim=DIMS[trial % len(DIMS)], field=field,
                        master_seed=640)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        alpha, beta = GRID_ALPHAS[trial % 4], GRID_BETAS[trial % 3]
        for plain, primed in (("I", "I'"), ("II", "II'"), ("III", "III'"),
                              ("V", "V'")):
            u = op.bound(plain, a, b, alpha=alpha, beta=beta)
            v = op.bound(primed, a, b, alpha=alpha, beta=beta, delta=1.0)
            dev = float(np.max(np.abs(u.data - v.data)) / max(1.0, u.fro))
            worst = max(worst, dev)
            assert dev <= 1e-10
    _verdict(4, "delta refinements", True,
             f"5x500 trials pass over delta grids; delta=1 collapse worst "
             f"dev {worst:.2e} <= 1e-10")


def test_criterion_5_weighted_means():
    lam_grid = tuple(i / 10.0 for i in range(11))
    worst = np.inf
    for trial in range(500):
        field = "complex" if trial % 2 else "real"
        cfg = GenConfig(dim=DIMS[trial % len(DIMS)], field=field,
                        master_seed=768)
        a = random_spd(cfg, trial)
        b = random_spd(cfg, trial, salt=1)
        scale = max(1.0, a.fro, b.fro)
        for lam in lam_grid:
            report = chain_check("prop-means", a, b, ChainParams(lam=lam))
            assert report.passed, (trial, lam)
            worst = min(worst, min(l.margin for l in report.links) / scale)

    har, geo, ari = op.weighted_means(op.SymMatrix.diagonal([1.0]),
                                      op.SymMatrix.diagonal([4.0]), 0.5)
    classical = (har.data[0, 0], geo.data[0, 0], ari.data[0, 0])
    for got, want in zip(classical, (1.6, 2.0, 2.5)):
        assert abs(got - want) <= 1e-12
    _verdict(5, "weighted means", True,
             f"500 trials x 11 lambdas pass; worst scaled margin "
             f"{worst:+.2e}; classical scalar triple exact to 1e-12")


def test_criterion_6_hermite_hadamard():
    rng = np.random.default_rng(88)
    worst_gap = 0.0
    for i in range(1000):
        alpha = float(rng.uniform(0.0, 4.0))
        # force both branches: odd indices below 1, even above
        x = float(np.exp(rng.uniform(0.0, np.log(100.0))))
        if i % 2:
            x = 1.0 / x
        rec = hh_record(alpha, x)
        chain = rec.chain()
        scale = max(1.0, max(abs(v) for v in chain))
        for lo, hi in zip(chain, chain[1:]):
            gap = (lo - hi) / scale
            worst_gap = max(worst_gap, gap)
            assert lo <= hi + 1e-12 * scale, (alpha, x, chain)
        verdict = grid_verify(alpha, x, 1001)
        assert verdict.passed, (alpha, x, verdict)
        lam = extremizer(x)
        assert abs(l_of_lambda(alpha, x, lam) - rec.sup_l) \
            <= 1e-10 * max(1.0, abs(rec.sup_l))
        assert abs(L_of_lambda(alpha, x, lam) - rec.inf_L) \
            <= 1e-10 * max(1.0, abs(rec.inf_L))

    # quadrature oracle on a subsample
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 4.0))
        x = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        if abs(x - 1.0) < 1e-6:
            continue
        a_end, b_end = (1.0, x) if x >= 1.0 else (x, 1.0)
        t = np.linspace(a_end, b_end, 2 * 2048 + 1)
        f = x ** alpha / t - 1.0
        h = (b_end - a_end) / (2 * 2048)
        quad = (h / 3.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum()
                           + 2.0 * f[2:-1:2].sum())) / (b_end - a_end)
        rec = hh_record(alpha, x)
        assert abs(rec.integral_avg - quad) \
            <= 1e-9 * max(1.0, abs(quad)), (alpha, x)

    ref = hh_record(0.0, 4.0).chain()
    expected = (-0.6, -5.0 / 9.0, -0.537902, -0.5, -0.375)
    for got, want in zip(ref, expected):
        assert abs(got - want) <= 1e-6
    _verdict(6, "Hermite-Hadamard refinement", True,
             f"1000 records ordered (worst scaled inversion "
             f"{worst_gap:+.2e}), grids + quadrature + reference point ok")


def test_criterion_7_jordan_identity():
    rng = np.random.default_rng(99)
    worst_ratio = 0.0
    for trial in range(1000):
        dim = 1 + trial % 8
        g1 = rng.standard_normal((dim, dim))
        g2 = rng.standard_normal((dim, dim))
        a = op.SymMatrix((g1 + g1.T) / 2.0)
        b = op.SymMatrix((g2 + g2.T) / 2.0)
        residual = op.jordan_check(a, b)
        limit = 1e-10 * (1.0 + a.fro ** 2 * b.fro)
        worst_ratio = max(worst_ratio, residual / limit)
        assert residual <= limit
    _verdict(7, "Jordan identity", True,
             f"1000 real symmetric pairs, worst residual at "
             f"{worst_ratio:.2e} of the contract bound")


def test_criterion_8_dual_route_equality():
    kinds = op.BOUND_KINDS + ("S", "harmonic", "geometric", "arithmetic")
    worst = 0.0
    for kind in kinds:
        for trial in range(200):
            field = "complex" if trial % 2 else "real"
            cfg = GenConfig(dim=DIMS[trial % len(DIMS)], field=field,
                            master_seed=896)
            a = random_spd(cfg, trial)
            b = random_spd(cfg, trial, salt=1)
            alpha = GRID_ALPHAS[trial % 4]
            beta = GRID_BETAS[trial % 3]
            delta = (1.0, 1.5, 3.0)[trial % 3]
            lam = (trial % 11) / 10.0
            if kind in ("harmonic", "geometric", "arithmetic"):
                beta = 1.0
            via_perspective = op.bound(kind, a, b, alpha=alpha, beta=beta,
                                       delta=delta, lam=lam)
            via_formula = bound_explicit(kind, a, b, alpha=alpha, beta=beta,
                                         delta=delta, lam=lam)
            scale = max(1.0, via_perspective.fro)
            dev = float(np.max(np.abs(via_perspective.data
                                      - via_formula.data)) / scale)
            worst = max(worst, dev)
            assert dev <= 1e-9, (kind, trial, dev)
    _verdict(8, "dual-route bound equality", True,
             f"{len(kinds)} kinds x 200 trials, worst scaled deviation "
             f"{worst:.2e} <= 1e-9")


def test_criterion_9_determinism(tmp_path):
    # the bytes the CLI writes, from two runs
    cfg = _suite_config("thm-main1", 60, "complex", seed=31337)
    paths = [tmp_path / f"r{i}.json" for i in range(2)]
    for path in paths:
        _emit(run_suite(cfg), str(path))
    baseline, repeat = (path.read_bytes() for path in paths)
    assert baseline == repeat
    _verdict(9, "byte-identical reports", True,
             f"{len(baseline)} bytes identical across reruns")
