import itertools
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import opentropy as op
from opentropy import bounds
from opentropy.cli import (EXIT_FAIL, EXIT_OK, EXIT_USAGE, ORACLE_CONTRACT,
                           RunConfig, _emit, _oracle_trial, build_parser, main)
from opentropy.gen import random_diag_pair
from opentropy.matio import load_matrix, save_matrix
from opentropy.perspective import Frame


@pytest.fixture
def spd_json(tmp_path):
    m = op.SymMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    path = tmp_path / "a.json"
    save_matrix(m, path)
    return path, m


# ---------------------------------------------------------------------------
# matrix files

def test_json_roundtrip_real(tmp_path, spd_json):
    path, m = spd_json
    back = load_matrix(path)
    assert back.field == "real"
    np.testing.assert_allclose(back.data, m.data)


def test_json_roundtrip_complex(tmp_path):
    m = op.SymMatrix(np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.0]]))
    path = tmp_path / "c.json"
    save_matrix(m, path)
    obj = json.loads(path.read_text())
    assert obj["field"] == "complex"
    assert obj["data"][0][1] == [0.5, 0.25]  # [re, im] pairs
    back = load_matrix(path)
    np.testing.assert_allclose(back.data, m.data)


def test_text_roundtrip_real(tmp_path):
    m = op.SymMatrix(np.array([[1.5, -0.25], [-0.25, 3.0]]))
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    assert path.read_text().splitlines()[0] == "2"
    back = load_matrix(path)
    np.testing.assert_allclose(back.data, m.data)


def test_text_format_rejects_complex(tmp_path):
    m = op.SymMatrix.identity(2, "complex")
    with pytest.raises(op.OperatorError, match="text format"):
        save_matrix(m, tmp_path / "m.txt")


def test_malformed_files_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    for body in (
            '{"field": "real", "dim": 3, "data": [[1, 0], [0, 1]]}',
            '{"field": "real", "dim": 2, "data": 5}',
            '{"field": "real", "dim": "abc", "data": [[1]]}',
            '{"field": "real", "dim": 1.7, "data": [[1]]}',
            '{"field": "real", "dim": 2, "data": [[1, 0], [0, "x"]]}',
            '{"field": "complex", "dim": 1, "data": [[["a", 1]]]}'):
        bad.write_text(body)
        with pytest.raises(op.OperatorError):
            load_matrix(bad)
    garbled = tmp_path / "g.txt"
    for body in ("2\n1.0 2.0\n3.0\n", "-1\n5.0\n"):
        garbled.write_text(body)
        with pytest.raises(op.OperatorError):
            load_matrix(garbled)
    deep = 100_000
    for body in ('{"data": ' + "[" * deep + "]" * deep + "}",
                 '{"field": "real", "dim": 1, "data": [[' + "7" * 5000
                 + "]]}"):
        bad.write_text(body)
        with pytest.raises(op.OperatorError):
            load_matrix(bad)
    bad.write_bytes(b'{"field": "real", "dim": 1, "data": [[\xff]]}')
    with pytest.raises(op.OperatorError):
        load_matrix(bad)


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "thm-main1", "--trials", "100",
                 "--dim", "4", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "100/100 trials pass" in stdout
    report = json.loads(out.read_text())
    assert set(report) == {"tool_version", "config", "summary", "trials"}
    assert report["summary"]["all_pass"] is True
    assert len(report["trials"]) == 100
    first = report["trials"][0]
    assert set(first) == {"suite", "trial_seed", "params", "links", "verdict"}
    assert set(first["params"]) == {"alpha", "beta", "delta", "lambda"}


def test_verify_zero_trials_vacuous_pass(tmp_path, capsys):
    out = tmp_path / "empty.json"
    code = main(["verify", "--suite", "thm-main1", "--trials", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "0 trials" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["summary"]["note"].startswith("0 trials")
    assert report["trials"] == []


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "thm-main99"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "thm-main1", "--trials", "3", "--alpha", "nan"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--beta", "1,inf"],
    ["verify", "--suite", "cor-delta-le", "--trials", "3", "--delta", "-inf"],
    ["verify", "--suite", "prop-means", "--trials", "3", "--lam", "nan"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--tol", "nan"],
    ["verify", "--suite", "thm-main1", "--trials", "-3"],
    ["oracle", "--trials", "3", "--spec-lo", "nan"],
    ["oracle", "--trials", "3", "--spec-hi", "inf"],
    ["oracle", "--trials", "3", "--alpha", "0,nan"],
    ["oracle", "--trials", "-1"],
    ["oracle", "--trials", "3", "--delta", "0"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--dim", "x"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--dim", "2-y"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--alpha", "1,x"],
    ["verify", "--suite", "thm-main1", "--trials", "4", "--dim", "1,99",
     "--alpha", "0,1,2,3"],
    ["verify", "--suite", "thm-main1", "--trials", "0", "--dim", "0",
     "--spec-lo", "5", "--spec-hi", "1"],
    ["hh", "--alpha", "nan", "--x", "4"],
    ["hh", "--alpha", "0", "--x", "inf"],
    # the record overflows: x ** alpha itself, or x^alpha log x
    ["hh", "--alpha", "600", "--x", "4"],
    ["hh", "--alpha", "511.9", "--x", "4"],
    # the generators overflow to inf; the finiteness check of computed
    # results must turn that into a usage error, not a counterexample, and
    # numpy must not warn about the same values on stderr
    ["verify", "--suite", "thm-main1", "--trials", "3", "--dim", "4",
     "--alpha", "400"],
    ["oracle", "--trials", "3", "--dim", "4", "--alpha", "400"],
    # too large to allocate: rejected before any array or list is built
    ["hh", "--alpha", "0", "--x", "4", "--grid", "100000000000"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--dim",
     "1-10000000000"],
    ["oracle", "--trials", "3", "--dim", "2,40-10000000000"],
    # A^beta underflows to 0: B / A^beta divides by zero before the
    # whitened B overflows and is rejected as not finite
    ["oracle", "--trials", "2", "--dim", "2", "--spec-lo", "1e-300",
     "--spec-hi", "1e-297", "--beta", "2"],
    # the oracle's weighted means need lambda in [0, 1]
    ["oracle", "--trials", "2", "--dim", "2", "--lam", "2"],
    ["oracle", "--trials", "2", "--dim", "2", "--lam=-0.5"],
    # Philox keys take 64 bits; a wider seed would alias another seed's
    # instances under a different report seed
    ["verify", "--suite", "thm-main1", "--trials", "3",
     "--seed", "18446744073709551616"],
    ["verify", "--suite", "thm-main1", "--trials", "3", "--seed", "-1"],
])
def test_malformed_flags_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    # one error line: argparse prints its usage block before its own, and
    # every other error is stderr's only line, with no numpy warning
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if not captured.err.startswith("usage:"):
        assert captured.err == errors[0] + "\n"
        assert captured.err.startswith("error:")
    assert "trials pass" not in captured.out


@pytest.mark.parametrize("dims, first", [
    ("1-10000000000", 33), ("40-10000000000", 40), ("0-3", 0), ("30-33", 33),
    ("3,50", 50)])
def test_dim_range_names_its_first_dim_past_the_cap(dims, first, capsys):
    # a range is cut at its first dim outside 1..32 before it is expanded;
    # that dim gets the error a single dim gets
    argv = ["verify", "--suite", "thm-main1", "--trials", "1", "--dim", dims]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: dim must be in 1..32, got {first}\n")


@given(lengths=st.tuples(*[st.integers(1, 4)] * 5),
       k=st.integers(0, 10_000))
def test_decode_follows_product_order(lengths, k):
    # reports stay byte-identical only while trial k gets the k-th item of
    # the product, cycled; distinct values per list expose any swapped digit
    dims, alphas, betas, deltas, lams = (
        tuple(range(1, lengths[0] + 1)),
        tuple(float(i) for i in range(lengths[1])),
        tuple(10.0 + i for i in range(lengths[2])),
        tuple(1.0 + 0.5 * i for i in range(lengths[3])),
        tuple(0.25 * i for i in range(lengths[4])))
    cfg = RunConfig(trials=1, dims=dims, alphas=alphas, betas=betas,
                    deltas=deltas, lams=lams)
    combos = list(itertools.product(dims, alphas, betas, deltas, lams))
    gcfg, p = cfg.decode(k)
    assert ((gcfg.dim, p.alpha, p.beta, p.delta, p.lam)
            == combos[k % len(combos)])


def test_reports_never_carry_nan_tokens(tmp_path):
    with pytest.raises(ValueError):
        _emit({"margin": float("nan")}, str(tmp_path / "r.json"))


@pytest.mark.parametrize("bad,draw_fails_at,message", [
    ((2, 4), None, "eigenvalue -2.0 outside"),
    ((1, 5), None, "eigenvalue -1.0 outside"),
    ((2, 4), 3, "eigenvalue -2.0 outside"),
    ((2, 4), 1, "draw failed at 1"),
])
def test_chunk_raises_the_lowest_failing_trial(plant_draws, draw_alone, bad,
                                               draw_fails_at, message):
    # dims cycle 1, 2, 3 and each dim is checked in its own stack, so the
    # two trials with a non-positive A fail in different stacks; the run
    # must fail as the serial loop does, on the lower one, unless drawing
    # an earlier trial fails first
    from opentropy import cli

    cfg = RunConfig(suite="thm-main1", trials=6, dims=(1, 2, 3))
    def draw_trial(cfg, trial):
        if trial == draw_fails_at:
            raise op.OperatorError(f"draw failed at {trial}")
        a, b, params = draw_alone(cfg, trial)
        if trial in bad:
            a = op.SymMatrix.diagonal([-float(trial)] + [1.0] * (a.dim - 1))
        return a, b, params

    plant_draws(draw_trial)
    with pytest.raises(op.OperatorError, match=message):
        cli.run_suite(cfg)


def test_broken_partner_is_a_generation_error(monkeypatch, capsys):
    # a spread below 1 puts every drawn middle eigenvalue of a dominated
    # partner above delta, so B misses B <= delta*A^beta by far more than
    # CONFIRM_TOL from trial 1 on: a broken generator, which must fail as
    # one and not as a user's hypothesis
    from opentropy import cli, gen

    monkeypatch.setattr(gen, "DOMINATED_SPREAD", 0.5)
    argv = ["verify", "--suite", "thm-main2", "--trials", "5", "--dim", "3"]
    with pytest.raises(gen.GenerationError) as run:
        cli.run_suite(cli._config_from_args(
            cli.build_parser().parse_args(argv), suite="thm-main2"))
    assert not isinstance(run.value, op.HypothesisError)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {run.value}\n"
    assert err.startswith("error: partner construction violated its own "
                          "hypothesis (dominated, delta=1.0, beta=1.0): "
                          "margin -")


def test_negative_tolerance_is_a_hypothesis_error(capsys, draw_alone):
    # a negative --tol demands a positive hypothesis margin, which the
    # exact-boundary trial 0 lacks: the user's hypothesis fails, at the
    # suite tolerance, with the message chain_check gives on that trial
    from opentropy import cli

    cfg = RunConfig(suite="thm-main1", trials=70, dims=(3,), seed=5,
                    tol=-1e-3)
    with pytest.raises(op.HypothesisError) as run:
        cli.run_suite(cfg)
    a, b, params = draw_alone(cfg, 0)
    with pytest.raises(op.HypothesisError) as alone:
        op.chain_check("thm-main1", a, b, params, cfg.tol)
    assert str(run.value) == str(alone.value)
    assert re.fullmatch(
        r"suite thm-main1: hypothesis delta\*A\^beta <= B \(delta=1\.0, "
        r"beta=1\.0\) fails with margin \S+ \(tolerance -1e-03 \* \S+\)",
        str(run.value))
    assert main(["verify", "--suite", "thm-main1", "--trials", "70",
                 "--dim", "3", "--seed", "5", "--tol=-1e-3"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {run.value}\n"


def _count_solvers(monkeypatch, counts):
    """Make ``np.linalg.eigh`` and ``eigvalsh`` add the number of matrices
    of each call to ``counts()[name]``."""
    def counting(name, real):
        def solver(arr, *args, **kwargs):
            counts()[name] += int(np.prod(arr.shape[:-2]))
            return real(arr, *args, **kwargs)
        return solver

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))


def test_passing_run_never_reruns(monkeypatch):
    # a passing run draws and checks each (chunk, dim) as one stack, hands
    # the draw's A frame and hypothesis margins to the checker, and never
    # falls back to the one-trial-at-a-time rerun, which would give the
    # same bytes more slowly
    from opentropy import cli

    draws, stacked = [], []
    decomposed = {"eigh": 0, "eigvalsh": 0}
    draw, stack_check = cli._draw, cli.chain_check_stack

    def counting_draw(cfg, trials):
        draws.append(list(trials))
        return draw(cfg, trials)

    def chain_check_stack(suite, a, b, params, tol, trial_seeds, frame,
                          hypothesis):
        assert frame is not None and hypothesis is not None
        stacked.append((trial_seeds[0] // cli.CHUNK_TRIALS, a.shape[-1]))
        return stack_check(suite, a, b, params, tol, trial_seeds, frame,
                           hypothesis)

    monkeypatch.setattr(cli, "_draw", counting_draw)
    monkeypatch.setattr(cli, "chain_check_stack", chain_check_stack)
    _count_solvers(monkeypatch, lambda: decomposed)
    cfg = RunConfig(suite="cor-delta-le", trials=cli.CHUNK_TRIALS + 9,
                    dims=(2, 3, 4), field="complex", seed=3,
                    deltas=(1.0, 2.0))
    assert cli.run_suite(cfg)["summary"]["all_pass"]
    assert draws == [list(range(cli.CHUNK_TRIALS)),
                     list(range(cli.CHUNK_TRIALS, cfg.trials))]
    assert sorted(stacked) == [(c, d) for c in (0, 1) for d in (2, 3, 4)]
    # per trial, full decompositions: W's top eigenvalue (skipped on the
    # 4 exact-boundary trials 0, 20, 40, 60), A's frame and the whitened
    # B; eigenvalues only: the hypothesis margin and the 8 links
    assert decomposed == {"eigh": 73 * 3 - 4, "eigvalsh": 73 * 9}


def test_failing_chunk_reruns_each_trial_through_the_stacked_path(
        monkeypatch):
    # trial 5's B is negated after its draw, so its whitened B is negative
    # definite; trial 7's handed-over hypothesis margin is planted at -1,
    # which fails an earlier stage, so the 9-trial stack raises trial 7's
    # error. The rerun must check trials 0-5 one at a time, each through
    # the stacked draw and check with the draw's frame and hypothesis, and
    # raise trial 5's error
    from opentropy import cli, gen

    draws, seen, decomposed = [], [], []
    draw, stack_check = cli._draw, cli.chain_check_stack

    def plant(stacks):
        planted = []
        for group, a, b, params, frame, (margin, scale) in stacks:
            b, margin = b.copy(), margin.copy()
            if 5 in group:
                b[group.index(5)] *= -1.0
            if 7 in group:
                margin[group.index(7)] = -1.0
            planted.append((group, a, b, params, frame, (margin, scale)))
        return planted

    def planted_draw(cfg, trials):
        draws.append(list(trials))
        decomposed.append({"eigh": 0, "eigvalsh": 0})
        return plant(draw(cfg, trials))

    def chain_check_stack(suite, a, b, params, tol, trial_seeds, frame,
                          hypothesis):
        seen.append((list(trial_seeds), frame is not None,
                     hypothesis is not None))
        return stack_check(suite, a, b, params, tol, trial_seeds, frame,
                           hypothesis)

    def check_alone(trials):
        group, a, b, params, frame, hypothesis = plant(draw(cfg, trials))[0]
        return stack_check(cfg.suite, a, b, params, cfg.tol, group, frame,
                           hypothesis)

    cfg = RunConfig(suite="cor-delta-le", trials=9, dims=(3,), seed=4,
                    deltas=(1.0, 2.0))
    with pytest.raises(op.HypothesisError, match=r"margin -1\.0+e\+00"):
        check_alone(list(range(9)))
    with pytest.raises(op.SpectrumError) as alone:
        check_alone([5])
    monkeypatch.setattr(cli, "_draw", planted_draw)
    monkeypatch.setattr(cli, "chain_check_stack", chain_check_stack)
    _count_solvers(monkeypatch, lambda: decomposed[-1])
    with pytest.raises(op.OperatorError) as run:
        cli.run_suite(cfg)
    assert draws == [list(range(9))] + [[t] for t in range(6)]
    assert seen == [(list(range(9)), True, True)] + [
        ([t], True, True) for t in range(6)]
    # a passing trial checked again, in full: W's top eigenvalue (skipped
    # on the exact-boundary trial 0), A's frame and the whitened B;
    # eigenvalues only: the hypothesis margin and the 8 links
    assert decomposed[1:6] == [
        {"eigh": 3 - (t % gen.BOUNDARY_EVERY == 0), "eigvalsh": 9}
        for t in range(5)]
    assert type(run.value) is type(alone.value)
    assert str(run.value) == str(alone.value)


def test_verify_reports_are_byte_identical(tmp_path):
    args = ["verify", "--suite", "cor-delta-le", "--trials", "40",
            "--dim", "1-6", "--seed", "11", "--delta", "1,1.5,3",
            "--field", "complex"]
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert main(args + ["--jobs", "4", "--out", str(out3)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


def test_verify_all_suites_smoke(tmp_path):
    for suite in op.SUITE_NAMES:
        deltas = "1,0.5" if suite.endswith("-ge") else "1,2"
        code = main(["verify", "--suite", suite, "--trials", "6",
                     "--dim", "1-4", "--delta", deltas, "--seed", "3",
                     "--lam", "0,0.5,1"])
        assert code == EXIT_OK, suite


# ---------------------------------------------------------------------------
# compute

def test_compute_entropy_of_self_is_zero(tmp_path, spd_json, capsys):
    path, _ = spd_json
    out = tmp_path / "s.json"
    code = main(["compute", "--expr", "S", "--A", str(path), "--B", str(path),
                 "--out", str(out)])
    assert code == EXIT_OK
    result = op.matrix_from_obj(json.loads(out.read_text()))
    assert result.fro <= 1e-10


def test_compute_bound_kind_stdout(tmp_path, capsys):
    a = tmp_path / "one.json"
    b = tmp_path / "four.json"
    save_matrix(op.SymMatrix.diagonal([1.0]), a)
    save_matrix(op.SymMatrix.diagonal([4.0]), b)
    code = main(["compute", "--expr", "V", "--A", str(a), "--B", str(b)])
    assert code == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["data"][0][0] == pytest.approx(1.875, abs=1e-12)


def test_compute_means_payload(tmp_path, spd_json):
    path, _ = spd_json
    out = tmp_path / "means.json"
    code = main(["compute", "--expr", "means", "--A", str(path),
                 "--B", str(path), "--lam", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"harmonic", "geometric", "arithmetic"}


def test_compute_perspective_requires_f(tmp_path, spd_json, capsys):
    path, _ = spd_json
    code = main(["compute", "--expr", "perspective", "--A", str(path),
                 "--B", str(path)])
    assert code == EXIT_USAGE
    assert "--f" in capsys.readouterr().err
    code = main(["compute", "--expr", "perspective", "--f", "II",
                 "--A", str(path), "--B", str(path), "--out",
                 str(tmp_path / "p.json")])
    assert code == EXIT_OK


def test_compute_domain_error_exit_code(tmp_path, capsys):
    # an indefinite A fails the positivity check of the frame, an
    # indefinite B the check of the whitened spectrum; each exits 2 with
    # one error line that names the eigenvalue and what it belongs to
    bad = str(tmp_path / "indefinite.json")
    eye = str(tmp_path / "identity.json")
    save_matrix(op.SymMatrix.diagonal([1.0, -1.0]), bad)
    save_matrix(op.SymMatrix.identity(2), eye)
    for flags, blamed in (
            (["--expr", "S", "--A", bad, "--B", eye],
             "the perspective base, which must be strictly positive"),
            (["--expr", "perspective", "--f", "S", "--A", eye, "--B", bad],
             "S on the whitened spectrum"),
            # the entropy and the geometric mean are the registry's S and
            # geometric bounds, and are named so
            (["--expr", "S_ab", "--A", eye, "--B", bad],
             "S on the whitened spectrum"),
            (["--expr", "geomean", "--A", eye, "--B", bad],
             "geometric on the whitened spectrum")):
        code = main(["compute"] + flags)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: eigenvalue -1.0 outside the open domain (0.0, inf) "
            f"of {blamed}\n")


@pytest.mark.parametrize("expr", ["S", "V", "geomean", "means"])
@pytest.mark.parametrize("b", [op.SymMatrix.identity(1),
                               op.SymMatrix.identity(2, "complex")],
                         ids=["dim", "field"])
def test_compute_rejects_disagreeing_operands(tmp_path, spd_json, capsys,
                                              expr, b):
    a_path, _ = spd_json
    b_path = tmp_path / "b.json"
    save_matrix(b, b_path)
    code = main(["compute", "--expr", expr, "--A", str(a_path),
                 "--B", str(b_path)])
    assert code == EXIT_USAGE
    assert "operands disagree" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--expr", "I'", "--delta", "nan"],
    ["--expr", "S_a", "--alpha", "nan"],
    ["--expr", "geomean", "--beta", "inf"],
    ["--expr", "means", "--lam", "nan"],
])
def test_compute_rejects_non_finite_flags(spd_json, capsys, flags):
    # the message must blame the flag, not the matrices computed from it
    a_path, _ = spd_json
    code = main(["compute", *flags, "--A", str(a_path), "--B", str(a_path)])
    assert code == EXIT_USAGE
    assert f"error: {flags[2]} must be finite" in capsys.readouterr().err


def test_compute_missing_file_exit_code(capsys):
    code = main(["compute", "--expr", "S", "--A", "/no/such/file.json",
                 "--B", "/no/such/file.json"])
    assert code == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# hh and oracle

def test_hh_command_payload(tmp_path):
    out = tmp_path / "hh.json"
    code = main(["hh", "--alpha", "0", "--x", "4", "--grid", "1001",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    rec = payload["record"]
    assert rec["midpoint"] == pytest.approx(-0.6, abs=1e-12)
    assert rec["sup_l"] == pytest.approx(-5.0 / 9.0, abs=1e-12)
    assert rec["inf_L"] == pytest.approx(-0.5, abs=1e-12)
    assert rec["endpoint_avg"] == pytest.approx(-0.375, abs=1e-12)
    assert rec["lambda_star"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert payload["grid"]["passed"] is True


def test_oracle_command(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    # 18 (alpha, beta, delta) combos per dim, dims outermost: 8 x 18
    # trials reach every dim of 1-8
    code = main(["oracle", "--trials", "144", "--dim", "1-8",
                 "--alpha", "0,1,2", "--beta", "0.5,1,2",
                 "--delta", "1,1.5", "--out", str(out)])
    assert code == EXIT_OK
    assert "max relative deviation" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["summary"]["max_rel_dev"] <= 1e-10
    assert {t["params"]["dim"] for t in report["trials"]} == set(range(1, 9))
    table = report["reference_table"]["terms"]
    assert table["I"] == pytest.approx(1.2, abs=1e-12)
    assert table["II"] == pytest.approx(4.0 - 8.0 / 3.0, abs=1e-12)
    assert table["S"] == pytest.approx(np.log(4.0), abs=1e-12)
    assert table["III"] == pytest.approx(1.5, abs=1e-12)
    assert table["V"] == pytest.approx(1.875, abs=1e-12)


def test_oracle_has_no_tolerance_flag(tmp_path, capsys):
    # the oracle's verdict is its fixed ORACLE_CONTRACT, which no --tol
    # moved; the flag is a usage error, and the report keeps the default
    # tol in its config
    assert main(["oracle", "--trials", "2", "--tol", "5"]) == EXIT_USAGE
    assert "unrecognized arguments: --tol 5" in capsys.readouterr().err
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--trials", "2", "--out", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert config["tol"] == op.matcore.DEFAULT_LOEWNER_TOL


def test_oracle_records_the_delta_asked_for(tmp_path):
    # the primed generators take any delta > 0, so a delta below 1 runs
    # as given, within the contract
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--trials", "3", "--dim", "2",
                 "--delta", "0.5,2", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert [t["params"]["delta"] for t in report["trials"]] == [0.5, 2.0, 0.5]
    assert report["summary"]["max_rel_dev"] <= ORACLE_CONTRACT


@pytest.mark.parametrize("beta, count", [(1.0, 2), (0.5, 4), (2.0, 4)])
def test_oracle_trial_whitens_once_per_h(beta, count, monkeypatch):
    # per h exponent, one eigh of A for its frame and one of the whitened
    # B: t^beta, and t^1 unless beta is 1; the weighted means reuse t^1
    real_eigh, calls = np.linalg.eigh, []

    def counting_eigh(arr, *args, **kwargs):
        calls.append(arr.shape)
        return real_eigh(arr, *args, **kwargs)

    cfg = RunConfig(dims=(8,), alphas=(0.5,), betas=(beta,),
                    deltas=(2.0,), lams=(0.3,))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _oracle_trial(cfg, 0)
    assert len(calls) == count


@pytest.mark.parametrize("kind", ["harmonic", "geometric", "arithmetic", "S"])
def test_oracle_pins_the_mean_generators(kind, monkeypatch):
    # the oracle's means, its geomean and its S come from the registry
    # generators that prop-means checks and compute evaluates, and their
    # expected values from closed forms that do not call the registry, so
    # a generator off by a relative 1e-6 breaks the contract
    rows = {"geometric": ("geometric_mean", "geomean"),
            "S": ("S_ab", "S_a", "S")}.get(kind, (f"{kind}_mean",))
    real = bounds._GENERATORS[kind]
    monkeypatch.setitem(bounds._GENERATORS, kind,
                        lambda *args: real(*args) * (1.0 + 1e-6))
    cfg = RunConfig(dims=(3,), alphas=(0.5,), betas=(2.0,), deltas=(2.0,),
                    lams=(0.3,))
    devs = _oracle_trial(cfg, 0)["deviations"]
    for row in rows:
        assert devs[row] > ORACLE_CONTRACT, row


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_oracle_terms_are_the_checker_terms(beta, field, monkeypatch):
    # the oracle's matrix for each bound kind is, bit for bit, the term the
    # chain checker assembles for the same diagonal pair and parameters
    real_assemble, built = Frame.assemble, []

    def recording(self, x, fns, name):
        terms = real_assemble(self, x, fns, name)
        built.extend(zip(fns[0], terms[0]))
        return terms

    monkeypatch.setattr(Frame, "assemble", recording)
    cfg = RunConfig(dims=(5,), field=field, alphas=(0.5,), betas=(beta,),
                    deltas=(2.0,), lams=(0.3,))
    _oracle_trial(cfg, 0)
    oracle = {f.kind: term for f, term in built
              if getattr(f, "kind", None) in bounds.BOUND_KINDS}
    built.clear()
    every_kind = bounds.SuiteSpec(
        "every-kind", bounds.BOUND_KINDS,
        tuple((i, i + 1) for i in range(len(bounds.BOUND_KINDS) - 1)),
        "none", "ge1")
    a, b = random_diag_pair(cfg.decode(0)[0], 0)
    bounds.chain_check_stack(every_kind, a.data[None], b.data[None],
                             [bounds.ChainParams(0.5, beta, 2.0, 0.3)],
                             1e-8, [0])
    checker = {f.kind: term for f, term in built}
    assert sorted(oracle) == sorted(checker) == sorted(bounds.BOUND_KINDS)
    for kind in bounds.BOUND_KINDS:
        assert oracle[kind].tobytes() == checker[kind].tobytes(), kind


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "opentropy", "verify", "--suite",
         "prop-means", "--trials", "5", "--dim", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0
    assert "5/5 trials pass" in result.stdout


def test_readme_commands_parse():
    # every `opentropy ...` line of the README's sh blocks, continuations
    # joined and comments stripped, must stay a valid command line
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text("utf-8"),
                        flags=re.M | re.S)
    parser = build_parser()
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["opentropy"]:
                commands.append(parser.parse_args(words[1:]).command)
    assert sorted(set(commands)) == ["compute", "hh", "oracle", "verify"]
