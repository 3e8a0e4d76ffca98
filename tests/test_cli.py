import dataclasses
import itertools
import json
import os
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
from opentropy.gen import GenConfig, random_diag_pair, random_spd_stack
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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_saved_matrix_is_one_line_of_sorted_compact_json(tmp_path, field):
    # a library-written matrix file takes the reports' byte form, so it is
    # byte for byte what compute --out writes, and it loads back bitwise
    m = op.SymMatrix._computed(random_spd_stack(
        GenConfig(3, field, master_seed=7), [0])[0])
    path = tmp_path / "m.json"
    save_matrix(m, path)
    text = path.read_bytes()
    assert text == (json.dumps(op.matrix_to_obj(m), sort_keys=True,
                               allow_nan=False, separators=(",", ":"))
                    + "\n").encode()
    assert text.count(b"\n") == 1
    assert load_matrix(path).data.tobytes() == m.data.tobytes()


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


def test_malformed_files_rejected(tmp_path, capsys):
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
    # an entry must be a JSON number (complex: or an [re, im] pair of two);
    # numpy alone would read true as 1.0 and "1_0" as 10.0
    for body, message in (
            ('{"field": "real", "dim": 2, '
             '"data": [[true, false], [false, true]]}',
             r"entry \[0\]\[0\] must be a JSON number, got true$"),
            ('{"field": "real", "dim": 2, "data": [[1, 0], [0, "1_0"]]}',
             r"entry \[1\]\[1\] must be a JSON number, got \"1_0\"$"),
            ('{"field": "real", "dim": 1, "data": [[null]]}',
             r"entry \[0\]\[0\] must be a JSON number, got null$"),
            ('{"field": "complex", "dim": 1, "data": ["1"]}',
             r"entry \[0\]\[0\] must be a JSON number or an \[re, im\] "
             r"pair of numbers, got \"1\"$"),
            ('{"field": "complex", "dim": 2, '
             '"data": [[1, [0, 1]], [[0, false], 1]]}',
             r"entry \[1\]\[0\] .* got \[0, false\]$"),
            ('{"field": "complex", "dim": 1, "data": [[[1, 2, 3]]]}',
             r"entry \[0\]\[0\] .* got \[1, 2, 3\]$"),
            ('{"field": "real", "dim": 1, "data": [[1' + "0" * 400 + ']]}',
             "int too large to convert to float")):
        bad.write_text(body)
        with pytest.raises(op.OperatorError, match=message):
            load_matrix(bad)
    bad.write_text('{"field": "real", "dim": 1, "data": [[true]]}')
    assert main(["compute", "--expr", "S", "--A", str(bad),
                 "--B", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: matrix entry [0][0] must be a "
                                       "JSON number, got true\n")
    # a text matrix's numbers are plain ASCII: Python's int and float alone
    # would read "1_0" as 10 and an Arabic-Indic digit one as 1
    for body, token in (("1\n1_0\n", "'1_0'"), ("1_0\n" + "1 " * 100, "'1_0'"),
                        ("2\n1 0\n0 2_5e-1\n", "'2_5e-1'"),
                        ("1\n\u0661\n", "'\u0661'")):
        garbled.write_text(body, encoding="utf-8")
        with pytest.raises(op.OperatorError) as err:
            load_matrix(garbled)
        assert str(err.value) == (f"malformed text matrix: not a plain "
                                  f"number: {token}")
    garbled.write_text("1\n1_0\n")
    assert main(["compute", "--expr", "S", "--A", str(garbled),
                 "--B", str(garbled)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: malformed text matrix: not a "
                                       "plain number: '1_0'\n")


@pytest.mark.parametrize("body, message", [
    (" \n\n", "empty matrix file"),
    ("2\n1 x\n0 1\n",
     "malformed text matrix: could not convert string to float: 'x'"),
    ('{"field": "quaternion", "dim": 1, "data": [[1]]}',
     "field must be 'real' or 'complex', got 'quaternion'"),
    ('{"dim": 1, "data": [[1]]}', "malformed matrix object: 'field'"),
], ids=["empty", "text-token", "field", "no-field"])
def test_malformed_file_exits_2_with_its_message(body, message, tmp_path,
                                                 capsys):
    bad = tmp_path / "bad"
    bad.write_text(body)
    with pytest.raises(op.OperatorError) as err:
        load_matrix(bad)
    assert str(err.value) == message
    assert main(["compute", "--expr", "S", "--A", str(bad),
                 "--B", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_verify_admits_finite_terms_whose_unformed_f_C_overflows(tmp_path,
                                                                 field):
    # at alpha 60 on a tiny spectrum, f(C) would have an overflowing norm,
    # but it is never formed and every term it would reach is finite
    out = tmp_path / "edge.json"
    code = main(["verify", "--suite", "prop-bounds", "--field", field,
                 "--trials", "30", "--dim", "3", "--alpha", "60",
                 "--spec-lo", "1e-110", "--spec-hi", "1e-106",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["summary"]["all_pass"] is True
    assert len(report["trials"]) == 30


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


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "thm-main1", "--dim", "4-2"],
     "bad dim range '4-2'"),
    (["verify", "--suite", "thm-main1", "--dim", ","], "no dims in ','"),
    (["oracle", "--alpha", ","], "no values in ','"),
    (["oracle", "--spec-lo", "2", "--spec-hi", "1"],
     "spectrum_hi must be >= spectrum_lo"),
    # a tolerance of -1 asks for a hypothesis margin of at least the scale
    (["verify", "--suite", "thm-main2", "--trials", "2", "--dim", "3",
      "--tol=-1"],
     "suite thm-main2: hypothesis B <= delta*A^beta (delta=1.0, beta=1.0) "
     "fails with margin "),
], ids=["dim-range", "no-dims", "no-values", "spectrum", "dominated"])
def test_rejected_flags_exit_2_with_their_message(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    # a message cut after "margin " is checked up to its numbers
    if not message.endswith(" "):
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, name", [
    (["verify", "--suite", "thm-main1", "--field", "real", "--dim", "4"],
     "the whitened B of suite thm-main1, which must be strictly positive"),
    (["verify", "--suite", "thm-main1", "--field", "complex", "--dim", "4"],
     "the whitened B of suite thm-main1, which must be strictly positive"),
    (["oracle", "--dim", "2"], "the whitened B"),
], ids=["verify-real", "verify-complex", "oracle"])
def test_overflowing_generator_is_named(argv, name, capsys):
    # x**400 overflows on the whitened spectrum; the product that builds
    # the term would turn inf into inf - inf = nan entries, so the error
    # names the generator, its eigenvalue and its value instead
    assert main(argv + ["--trials", "3", "--alpha", "400"]) == EXIT_USAGE
    err = capsys.readouterr().err
    found = re.fullmatch(r"error: generator I gives the non-finite value "
                         r"inf at eigenvalue (\S+) of (.*)\n", err)
    assert found and found[2] == name
    with np.errstate(over="ignore"):
        value = bounds.scalar_generator("I", alpha=400.0)(float(found[1]))
    assert value == np.inf


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


@pytest.mark.parametrize("fields, message", [
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"dims": (2.5,)}, "dim must be an integer, got 2.5"),
], ids=["trials-float", "trials-bool", "seed-float", "dim-float"])
def test_run_config_rejects_non_integral_counts(fields, message):
    with pytest.raises(op.OperatorError) as err:
        RunConfig(suite="thm-main1", **fields)
    assert str(err.value) == message


def test_run_config_keeps_its_range_messages_for_integers():
    from opentropy import cli

    cfg = RunConfig(suite="thm-main1", trials=np.int64(2), seed=np.int64(3),
                    dims=(np.int64(3),))
    assert cli.run_suite(cfg)["summary"]["passed"] == 2
    for fields, message in (
            ({"trials": -1}, "trials must be nonnegative, got -1"),
            ({"seed": -1}, f"seed must be in 0..{2 ** 64 - 1}, got -1"),
            ({"dims": (0,)}, "dim must be in 1..32, got 0")):
        with pytest.raises(op.OperatorError) as err:
            RunConfig(suite="thm-main1", **fields)
        assert str(err.value) == message


def test_config_json_is_every_field_with_lists():
    # the report's config block: each field by name, each tuple as a list
    cfg = RunConfig(suite="thm-main1", trials=7, dims=(2, 5), seed=3,
                    alphas=(0.0, 0.5), betas=(1.0, 2.0), deltas=(1.5,),
                    lams=(0.3, 0.7))
    out = cfg.to_json_dict()
    assert out == {key: list(value) if isinstance(value, tuple) else value
                   for key, value in dataclasses.asdict(cfg).items()}
    assert [type(out[key]) for key in ("dims", "alphas", "lams")] == [list] * 3
    assert sorted(out) == sorted(field.name
                                 for field in dataclasses.fields(RunConfig))


def test_reports_never_carry_nan_tokens(tmp_path):
    with pytest.raises(ValueError):
        _emit({"margin": float("nan")}, str(tmp_path / "r.json"))


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "thm-main1", "--trials", "3", "--dim", "2-3",
     "--field", "complex"],
    ["oracle", "--trials", "3", "--dim", "2", "--beta", "0.5,1"],
    ["compute", "--expr", "means"],
    ["hh", "--alpha", "0.5", "--x", "2", "--grid", "11"],
], ids=["verify", "oracle", "compute", "hh"])
def test_reports_are_one_line_of_sorted_compact_json(tmp_path, spd_json,
                                                     capsys, argv):
    # the byte contract of every report: sorted keys, no whitespace, one
    # trailing newline; what compute and hh print is the same bytes
    if argv[0] == "compute":
        argv = argv + ["--A", str(spd_json[0]), "--B", str(spd_json[0])]
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    text = out.read_bytes()
    assert text == (json.dumps(json.loads(text), sort_keys=True,
                               separators=(",", ":")) + "\n").encode()
    assert text.count(b"\n") == 1
    if argv[0] in ("compute", "hh"):
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == text


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


def test_chunk_that_fails_only_as_a_chunk_raises_its_own_error(monkeypatch):
    # every trial passes alone, so no rerun raises, and the chunk's own
    # error is the one the run raises
    from opentropy import cli

    check = cli._check

    def fails_as_a_chunk(cfg, trials):
        if len(trials) > 1:
            raise op.OperatorError("the chunk failed")
        return check(cfg, trials)

    monkeypatch.setattr(cli, "_check", fails_as_a_chunk)
    cfg = RunConfig(suite="thm-main1", trials=3, dims=(2,))
    assert cli._run_trial(cfg, 2).passed
    with pytest.raises(op.OperatorError, match="^the chunk failed$"):
        cli.run_suite(cfg)


def test_broken_partner_is_a_generation_error(monkeypatch, capsys):
    # a spread below 1 puts every drawn middle eigenvalue of a dominated
    # partner above delta, and of a dominating one below delta, so B
    # misses its relation by far more than CONFIRM_TOL from trial 1 on: a
    # broken generator, which must fail as one and not as a user's
    # hypothesis
    from opentropy import cli, gen

    monkeypatch.setattr(gen, "PARTNER_SPREAD", 0.5)
    for suite, direction in (("thm-main2", "dominated"),
                             ("thm-main1", "dominating")):
        argv = ["verify", "--suite", suite, "--trials", "5", "--dim", "3"]
        with pytest.raises(gen.GenerationError) as run:
            cli.run_suite(cli._config_from_args(
                cli.build_parser().parse_args(argv), suite=suite))
        assert not isinstance(run.value, op.HypothesisError)
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {run.value}\n"
        assert err.startswith("error: partner construction violated its "
                              f"own hypothesis ({direction}, delta=1.0, "
                              "beta=1.0): margin -")


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


@pytest.mark.parametrize("suite, delta, stated", [
    ("thm-primed-le", "-1", "requires delta >= 1, got -1.0"),
    ("thm-primed-ge", "0", "requires 0 < delta <= 1, got 0.0"),
])
def test_forbidden_parameter_is_rejected_before_the_draw(
        suite, delta, stated, monkeypatch, capsys):
    # a delta the suite forbids gets the suite's own message, not the
    # generator's, and nothing is drawn or decomposed before it
    from opentropy import cli

    def drawn(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    decomposed = {"eigh": 0, "eigvalsh": 0}
    _count_solvers(monkeypatch, lambda: decomposed)
    monkeypatch.setattr(cli, "random_spd_stack", drawn)
    assert main(["verify", "--suite", suite, "--delta", delta,
                 "--trials", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: suite {suite}: {stated}\n"
    assert decomposed == {"eigh": 0, "eigvalsh": 0}


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
    # per trial, exact-boundary or not, full decompositions: A's frame and
    # the whitened B; eigenvalues only: the hypothesis margin and the 8
    # links
    assert decomposed == {"eigh": 73 * 2, "eigvalsh": 73 * 9}


@pytest.mark.parametrize("field", ["real", "complex"])
def test_large_dim_run_chunks_by_matrix_entries(field, monkeypatch):
    # verify cuts its chunks by the oracle's rule: at dim 32 a chunk holds
    # CHUNK_ENTRIES / 32**2 = 4 trials, whatever smaller dims it mixes in,
    # and each report keeps the bits of checking its trial alone
    from opentropy import cli

    draws, draw = [], cli._draw

    def counting_draw(cfg, trials):
        draws.append(list(trials))
        return draw(cfg, trials)

    monkeypatch.setattr(cli, "_draw", counting_draw)
    cfg = RunConfig(suite="cor-delta-le", trials=9, dims=(2, 32),
                    field=field, seed=5, deltas=(1.0, 2.0))
    report = cli.run_suite(cfg)
    assert report["summary"]["all_pass"]
    assert draws == [[0, 1, 2, 3], [4, 5, 6, 7], [8]]
    monkeypatch.undo()
    for trial, record in enumerate(report["trials"]):
        alone = cli._run_trial(cfg, trial).to_json_dict()
        assert json.dumps(record, sort_keys=True) == json.dumps(
            alone, sort_keys=True), trial


def test_failing_chunk_reruns_each_trial_through_the_stacked_path(
        monkeypatch):
    # trial 5's B is negated after its draw, so its whitened B is negative
    # definite; trial 7's handed-over hypothesis margin is planted at -1,
    # which fails an earlier stage, so the 9-trial stack raises trial 7's
    # error. The rerun must check trials 0-5 one at a time, each through
    # the stacked draw and check with the draw's frame and hypothesis, and
    # raise trial 5's error
    from opentropy import cli

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
    # a passing trial checked again, in full: A's frame and the whitened
    # B; eigenvalues only: the hypothesis margin and the 8 links
    assert decomposed[1:6] == [{"eigh": 2, "eigvalsh": 9}] * 5
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


@pytest.mark.parametrize("name", sorted(op.SUITES))
def test_verify_is_covariant_under_dyadic_spectrum_scaling(name):
    # (A, B) -> (sA, s^beta B) leaves C = A^{-beta/2} B A^{-beta/2} as it
    # is and scales every term by s^beta.  For s a power of 4, s^{1/2} is
    # a power of 2 and every rounding scales with s, so a run at
    # [s lo, s hi] must give margins bitwise s^beta times those at
    # [lo, hi], and the same verdicts.  A partner is drawn as C, whatever
    # the spectrum, so this holds at beta 1 and 2; a suite without a
    # hypothesis draws B on A's range, which scales it by s, so there it
    # holds at beta 1 only.  Trials 0 and 20 are exact-boundary trials
    from opentropy import cli

    spec = op.SUITES[name]
    betas = ((1.0, 2.0) if "beta" in spec.axes
             and spec.relation != "none" else (1.0,))
    deltas = (1.0, 1.0 / 3.0) if spec.relation == "dominated" else (1.0, 3.0)
    for field in ("real", "complex"):
        def run(s):
            return cli.run_suite(RunConfig(
                suite=name, trials=24, dims=(2, 4), field=field, seed=29,
                spectrum_lo=0.1 * s, spectrum_hi=10.0 * s,
                alphas=(0.0, 0.5), betas=betas, deltas=deltas))["trials"]

        base = run(1.0)
        for s in (4.0 ** -10, 4.0 ** -30, 4.0 ** -60):
            for old, new in zip(base, run(s), strict=True):
                gain = s ** old["params"]["beta"]
                assert new["verdict"] == old["verdict"]
                assert [float(link["margin"]).hex()
                        for link in new["links"]] == [
                    float(gain * link["margin"]).hex()
                    for link in old["links"]], (field, s, old["trial_seed"])


@pytest.mark.parametrize("name", sorted(op.SUITES))
def test_reversed_chain_fails_on_a_small_spectrum(name, monkeypatch):
    # a partner's C is drawn on a window set by delta alone, so a spectrum
    # far below 1 does not pull C to delta I and make the run vacuous:
    # with its links reversed, a suite passes at most on the
    # exact-boundary trials, where C = delta I.  delta is kept off 1,
    # where the primed and unprimed terms coincide
    import dataclasses

    from opentropy import cli, gen

    spec = op.SUITES[name]
    monkeypatch.setitem(op.SUITES, name, dataclasses.replace(
        spec, links=tuple((j, i) for i, j in spec.links)))
    delta = 1.0 / 3.0 if spec.relation == "dominated" else 3.0
    for field in ("real", "complex"):
        report = cli.run_suite(RunConfig(
            suite=name, trials=64, dims=(4,), field=field, seed=31,
            spectrum_lo=1e-4, spectrum_hi=1e-2, alphas=(0.0, 0.5),
            betas=(1.0, 2.0), deltas=(delta,)))
        assert not report["summary"]["all_pass"]
        passing = {record["trial_seed"] for record in report["trials"]
                   if record["verdict"] == "pass"}
        assert passing <= set(range(0, 64, gen.BOUNDARY_EVERY)), field


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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_compute_output_reads_back_as_a_matrix_file(tmp_path, field):
    # a computed matrix is a matrix file: it loads, and compute reads it
    a, b = (random_spd_stack(GenConfig(dim=3, field=field, master_seed=5),
                             [0], salt=salt)[0] for salt in (0, 1))
    paths = [tmp_path / name for name in ("a.json", "b.json", "m.json")]
    for path, m in zip(paths, (a, b)):
        save_matrix(op.SymMatrix(m), path)
    pair = ["--A", str(paths[0]), "--B", str(paths[1])]
    assert main(["compute", "--expr", "geomean", "--alpha", "0.5"] + pair
                + ["--out", str(paths[2])]) == EXIT_OK
    mean = load_matrix(paths[2])
    assert mean.field == field
    assert mean.data.tobytes() == op.bound(
        "geometric", op.SymMatrix(a), op.SymMatrix(b),
        lam=0.5).data.tobytes()
    assert main(["compute", "--expr", "S", "--A", str(paths[2]),
                 "--B", str(paths[1])]) == EXIT_OK


def test_compute_means_payload(tmp_path, spd_json):
    path, _ = spd_json
    out = tmp_path / "means.json"
    code = main(["compute", "--expr", "means", "--A", str(path),
                 "--B", str(path), "--lam", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"harmonic", "geometric", "arithmetic"}


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_compute_means_gives_the_bits_of_the_prop_means_terms(tmp_path, dim,
                                                             field):
    # compute returns prop-means's terms at the parameters that suite
    # resolves, so a failing prop-means trial replays through compute on
    # the checker's own bits
    cfg = GenConfig(dim=dim, field=field, master_seed=61)
    a = random_spd_stack(cfg, [0])
    b = random_spd_stack(cfg, [0], salt=1)
    paths = []
    for name, m in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        save_matrix(op.SymMatrix._computed(m[0]), path)
        assert load_matrix(path).data.tobytes() == m[0].tobytes()
        paths.append(str(path))
    out = tmp_path / "means.json"
    assert main(["compute", "--expr", "means", "--lam", "0.3", "--A",
                 paths[0], "--B", paths[1], "--out", str(out)]) == EXIT_OK
    spec = bounds.SUITES["prop-means"]
    terms = bounds._terms(spec, [spec.resolve(bounds.ChainParams(lam=0.3))],
                          Frame(a, [1.0]), b)
    payload = json.loads(out.read_text())
    assert set(payload) == set(spec.terms)
    for kind, term in zip(spec.terms, terms[0]):
        got = op.matrix_from_obj(payload[kind]).data
        assert got.tobytes() == term.tobytes(), kind


def test_compute_reads_only_the_flags_of_its_expression(tmp_path, spd_json,
                                                        capsys):
    # a flag an expression does not read keeps its default: --delta 0,
    # which every delta-reading generator rejects, changes no byte of the
    # entropies, the geometric mean or the means; the means check lambda
    # by prop-means's rule
    a_path, _ = spd_json
    b_path = tmp_path / "b.json"
    save_matrix(op.SymMatrix(np.array([[3.0, -0.5], [-0.5, 0.5]])), b_path)
    operands = ["--A", str(a_path), "--B", str(b_path), "--alpha", "0.5",
                "--beta", "2"]
    for expr in ("S", "S_a", "S_ab", "geomean", "means"):
        outputs = []
        for extra in ([], ["--delta", "0"]):
            assert main(["compute", "--expr", expr, *operands,
                         *extra]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], expr
    assert main(["compute", "--expr", "I'", *operands, "--delta",
                 "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: delta must be positive, got 0.0\n"
    for lam in ("2", "-0.5"):
        assert main(["compute", "--expr", "means", *operands,
                     f"--lam={lam}"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: suite prop-means: lambda must lie in [0, 1], "
            f"got {float(lam)!r}\n")


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
    # A is named first, whichever operator meets the mismatch
    assert capsys.readouterr().err == (
        f"error: operands disagree: 2x2 real vs {b.dim}x{b.dim} {b.field}\n")


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


@pytest.mark.parametrize("beta, count", [(1.0, 2), (0.5, 3), (2.0, 3)])
def test_oracle_trial_whitens_once_per_h(beta, count, monkeypatch):
    # one eigh of A, whose frames at t^beta and t^1 share it, and per h
    # exponent one of the whitened B: t^beta, and t^1 unless beta is 1;
    # the weighted means reuse t^1
    real_eigh, calls = np.linalg.eigh, []

    def counting_eigh(arr, *args, **kwargs):
        calls.append(arr.shape)
        return real_eigh(arr, *args, **kwargs)

    cfg = RunConfig(dims=(8,), alphas=(0.5,), betas=(beta,),
                    deltas=(2.0,), lams=(0.3,))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _oracle_trial(cfg, 0)
    assert len(calls) == count


def _spy_oracle_chunks(monkeypatch):
    """Record the trials of every ``cli._oracle_check`` call."""
    from opentropy import cli

    chunks, check = [], cli._oracle_check

    def spy(cfg, trials):
        chunks.append(list(trials))
        return check(cfg, trials)

    monkeypatch.setattr(cli, "_oracle_check", spy)
    return chunks


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dims, trials, size, betas", [
    # the dim-32 cap keeps 4 trials per chunk, each of dims 2, 5 and 32
    ((2, 5, 32), 30, 4, (0.5, 1.0, 2.0)),
    # at dims up to 8 the chunks hold 64 trials, as verify's do
    ((2, 5), 70, 64, (0.5, 1.0, 2.0)),
    # every beta 1: each stack puts all its rows on one frame
    ((2, 5), 12, 64, (1.0,)),
], ids=["dims0-30-4", "dims1-70-64", "all-beta-1"])
def test_stacked_oracle_gives_the_bits_of_one_trial_at_a_time(
        field, dims, trials, size, betas, monkeypatch):
    from opentropy import cli

    cfg = RunConfig(trials=trials, dims=dims, field=field, alphas=(0.5, 2.0),
                    betas=betas, deltas=(2.0,), lams=(0.3,))
    chunks = _spy_oracle_chunks(monkeypatch)
    report = cli.oracle_compare(cfg)
    assert chunks == [list(range(start, min(start + size, trials)))
                      for start in range(0, trials, size)]
    assert {t["params"]["dim"] for t in report["trials"]} == set(dims)
    monkeypatch.undo()
    for trial, record in enumerate(report["trials"]):
        alone = _oracle_trial(cfg, trial)
        assert json.dumps(record, sort_keys=True) == json.dumps(
            alone, sort_keys=True), trial
    assert report["summary"]["max_rel_dev"] <= ORACLE_CONTRACT


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_oracle_deviation_gives_the_bits_of_the_scalar_formula(
        field):
    # the one-matrix formula the stacked deviation replaces; a NaN closed
    # form makes both NaN, whichever max takes it
    from opentropy.cli import _oracle_deviation

    def one_at_a_time(term, expected):
        diff = np.abs(term - np.diag(expected).astype(term.dtype)).max()
        return float(diff / max(1.0, float(np.abs(expected).max())))

    rng = np.random.default_rng(29)
    for dim in (1, 2, 5, 32):
        terms = rng.standard_normal((3, 4, dim, dim))
        if field == "complex":
            terms = terms + 1j * rng.standard_normal((3, 4, dim, dim))
        expected = np.diagonal(terms, axis1=-2, axis2=-1).real * (
            1.0 + 1e-9 * rng.standard_normal((3, 4, dim)))
        expected *= np.logspace(-2, 2, 4)[:, None]
        expected[0, 0] = 1.0
        expected[2, 3, 0] = np.nan
        dev = _oracle_deviation(terms, expected)
        for t, k in itertools.product(range(3), range(4)):
            want = one_at_a_time(terms[t, k], expected[t, k])
            assert np.array(float(dev[t, k])).tobytes() == np.array(
                want).tobytes(), (dim, t, k)


@pytest.mark.parametrize("trials", [3, 12, 64])
def test_oracle_chunk_decomposes_one_stack_per_frame(trials, monkeypatch):
    # a chunk draws one stack per dim, whatever its betas, and makes a
    # fixed number of eigh calls on (T, n, n) stacks however many trials
    # it holds: A, whose frames at t^beta and at t^1 share it, then the
    # whitened B at t^beta and at t^1, or, when every beta is 1, A and the
    # whitened B on the one frame; so a trial at beta 1 in a stack that
    # mixes betas takes 3 decompositions, not 2
    from opentropy import cli

    real_eigh, calls = np.linalg.eigh, []

    def counting_eigh(arr, *args, **kwargs):
        calls.append(arr.shape)
        return real_eigh(arr, *args, **kwargs)

    chunks = _spy_oracle_chunks(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for betas, count in (((0.5, 1.0, 2.0), 3), ((1.0,), 2)):
        cfg = RunConfig(trials=trials, dims=(3,), alphas=(0.5,),
                        betas=betas, deltas=(2.0,), lams=(0.3,))
        chunks.clear()
        calls.clear()
        cli.oracle_compare(cfg)
        assert chunks == [list(range(trials))]
        assert calls == [(trials, 3, 3)] * count, betas


@pytest.mark.parametrize("flags, plant, failing", [
    # trial 1's A^400 whitening overflows inside a chunk whose trial 0
    # passes
    (["--beta", "0.5,400"], None, 1),
    (["--lam", "0.5,1.5"], None, 1),
    # the chunk meets trial 3's lambda before it draws anything, but the
    # lowest failing trial is 1, whose whitened B is negative definite
    (["--lam", "0.5,0.5,0.5,1.5"], 1, 1),
])
def test_oracle_chunk_raises_the_lowest_failing_trial(flags, plant, failing,
                                                      monkeypatch, capsys):
    from opentropy import cli

    argv = ["oracle", "--trials", "6", "--dim", "2"] + flags
    cfg = cli._config_from_args(build_parser().parse_args(argv))
    draw = cli.random_diag_pair_stack

    def planted(gcfg, trials):
        # the B of trial `plant`, if any, becomes negative definite
        a, b = draw(gcfg, trials)
        b = b.copy()
        b[[i for i, t in enumerate(trials) if t == plant]] *= -1.0
        return a, b

    monkeypatch.setattr(cli, "random_diag_pair_stack", planted)
    # as under main, numpy does not warn about the values that are rejected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for trial in range(failing):
            _oracle_trial(cfg, trial)
        with pytest.raises(op.OperatorError) as alone:
            _oracle_trial(cfg, failing)
        chunks = _spy_oracle_chunks(monkeypatch)
        with pytest.raises(op.OperatorError) as run:
            cli.oracle_compare(cfg)
    assert chunks == [list(range(6))] + [[t] for t in range(failing + 1)]
    assert type(run.value) is type(alone.value)
    assert str(run.value) == str(alone.value)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {alone.value}\n"


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
        "none", ("alpha", "beta", "delta"))
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
    # the child imports the package this test imported, also when only
    # pytest's pythonpath setting put it on sys.path
    src = os.path.dirname(os.path.dirname(op.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "opentropy", "verify", "--suite",
         "prop-means", "--trials", "5", "--dim", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
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
