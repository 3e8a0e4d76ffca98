import itertools
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import opentropy as op
from opentropy.cli import (EXIT_FAIL, EXIT_OK, EXIT_USAGE, RunConfig, _emit,
                           _oracle_trial, main)
from opentropy.matio import load_matrix, save_matrix


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
    # results must turn that into a usage error, not a counterexample
    pytest.param(["verify", "--suite", "thm-main1", "--trials", "3", "--dim",
                  "4", "--alpha", "400"],
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    pytest.param(["oracle", "--trials", "3", "--dim", "4", "--alpha", "400"],
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_malformed_flags_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "trials pass" not in captured.out


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
def test_chunk_raises_the_lowest_failing_trial(monkeypatch, bad,
                                               draw_fails_at, message):
    # dims cycle 1, 2, 3 and each dim is checked in its own stack, so the
    # two trials with a non-positive A fail in different stacks; the run
    # must fail as the serial loop does, on the lower one, unless drawing
    # an earlier trial fails first
    from opentropy import cli

    cfg = RunConfig(suite="thm-main1", trials=6, dims=(1, 2, 3))
    drawn = cli._run_trial

    def run_trial(cfg, trial):
        if trial == draw_fails_at:
            raise op.OperatorError(f"draw failed at {trial}")
        a, b, params = drawn(cfg, trial)
        if trial in bad:
            a = op.SymMatrix.diagonal([-float(trial)] + [1.0] * (a.dim - 1))
        return a, b, params

    monkeypatch.setattr(cli, "_run_trial", run_trial)
    with pytest.raises(op.OperatorError, match=message):
        cli.run_suite(cfg)


def test_passing_run_never_reruns(monkeypatch):
    # a passing run checks each (chunk, dim) in one stacked call and never
    # falls back to the one-trial-at-a-time rerun, which would give the
    # same bytes more slowly
    from opentropy import cli

    stacked, serial = [], []
    stack_check, one_check = cli.chain_check_stack, cli.chain_check

    def chain_check_stack(suite, pairs, params, tol, trial_seeds):
        stacked.append((trial_seeds[0] // cli.CHUNK_TRIALS, pairs[0][0].dim))
        return stack_check(suite, pairs, params, tol, trial_seeds)

    def chain_check(*args, **kwargs):
        serial.append(args)
        return one_check(*args, **kwargs)

    monkeypatch.setattr(cli, "chain_check_stack", chain_check_stack)
    monkeypatch.setattr(cli, "chain_check", chain_check)
    cfg = RunConfig(suite="cor-delta-le", trials=cli.CHUNK_TRIALS + 9,
                    dims=(2, 3, 4), field="complex", seed=3,
                    deltas=(1.0, 2.0))
    assert cli.run_suite(cfg)["summary"]["all_pass"]
    assert sorted(stacked) == [(c, d) for c in (0, 1) for d in (2, 3, 4)]
    assert serial == []


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
    bad = tmp_path / "indefinite.json"
    save_matrix(op.SymMatrix.diagonal([1.0, -1.0]), bad)
    code = main(["compute", "--expr", "S", "--A", str(bad), "--B", str(bad)])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("beta, most", [(1.0, 7), (0.5, 9), (2.0, 9)])
def test_oracle_trial_whitens_once_per_h(beta, most, monkeypatch):
    # 2 eigh for the t^beta whitening, 2 more for t^1 unless beta is 1,
    # and 5 in weighted_means (three inverses, one geometric mean)
    real_eigh, calls = np.linalg.eigh, []

    def counting_eigh(arr, *args, **kwargs):
        calls.append(arr.shape)
        return real_eigh(arr, *args, **kwargs)

    cfg = RunConfig(dims=(8,), alphas=(0.5,), betas=(beta,),
                    deltas=(2.0,), lams=(0.3,))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _oracle_trial(cfg, 0)
    assert len(calls) <= most


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "opentropy", "verify", "--suite",
         "prop-means", "--trials", "5", "--dim", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0
    assert "5/5 trials pass" in result.stdout
