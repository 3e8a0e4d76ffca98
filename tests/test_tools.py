"""The maintenance scripts under ``tools/`` must keep matching the CLI."""

import importlib.util
import json
import os
import sys

import pytest

from opentropy.cli import build_parser

SAME_ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "tools", "same_answers.py")


@pytest.fixture
def same_answers():
    if not os.path.exists(SAME_ANSWERS):
        pytest.skip("tools not in this checkout")
    spec = importlib.util.spec_from_file_location("_same_answers",
                                                  SAME_ANSWERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_same_answers_command_line_parses(same_answers):
    parser = build_parser()
    runs = same_answers.argvs()
    assert {argv[0] for argv in runs} == {"verify", "oracle", "compute", "hh"}
    for argv in runs:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        assert args.out == argv[-1]


def _run(margin, verdict="pass", passed=3, exit_status=0, stderr=""):
    report = {"summary": {"passed": passed, "all_pass": verdict == "pass"},
              "trials": [{"verdict": verdict,
                          "links": [{"lhs": "I", "rhs": "S",
                                     "margin": margin, "holds": True}]}]}
    stdout = (f"suite thm-main1: {passed}/3 trials pass (tol 1e-08)\n"
              f"  worst I <= S {margin:+.6e}\n")
    return exit_status, stdout, stderr, json.dumps(report).encode()


def test_same_answers_tells_moved_numbers_from_moved_verdicts(same_answers):
    numbers_only, verdict_moved = (same_answers.NUMBERS_ONLY,
                                   same_answers.VERDICT_MOVED)
    old = _run(-1.25e-15)
    assert same_answers.compare(old, _run(-1.25e-15)) == ([], None, 0.0)
    notes, kind, gap = same_answers.compare(old, _run(-1.5e-15))
    assert kind == numbers_only
    assert notes == ["stdout differs",
                     "out: 1 values differ, max scaled change 2.5e-16, "
                     "keys margin"]
    assert gap == pytest.approx(2.5e-16, rel=1e-12)
    # one moved string, bool or integer, or a moved exit status or stderr,
    # makes the run a moved verdict, whatever floats moved with it
    for new in (_run(-1.25e-15, verdict="fail"),
                _run(-1.5e-15, verdict="fail"),
                _run(-1.25e-15, passed=2),
                _run(-1.25e-15, exit_status=1),
                _run(-1.25e-15, stderr="error: x\n")):
        assert same_answers.compare(old, new)[1] == verdict_moved
    stdout = old[1].replace("pass", "fail")
    assert same_answers.compare(old, (0, stdout) + old[2:])[1] == verdict_moved
    assert same_answers.compare(old, old[:3] + (None,))[1] == verdict_moved
    assert same_answers.compare(old, old[:3] + (b"{",))[1] == verdict_moved
