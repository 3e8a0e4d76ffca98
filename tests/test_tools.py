"""The maintenance scripts under ``tools/`` must keep matching the CLI."""

import importlib.util
import json
import os
import sys

import pytest

from opentropy.cli import build_parser

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools")


def _tool(name):
    path = os.path.join(TOOLS, f"{name}.py")
    if not os.path.exists(path):
        pytest.skip("tools not in this checkout")
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def same_answers():
    return _tool("same_answers")


@pytest.fixture
def code_lines():
    return _tool("code_lines")


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
    numbers_only, message_moved, verdict_moved = (
        same_answers.NUMBERS_ONLY, same_answers.MESSAGE_MOVED,
        same_answers.VERDICT_MOVED)
    old = _run(-1.25e-15)
    assert same_answers.compare(old, _run(-1.25e-15)) == ([], None, 0.0)
    notes, kind, gap = same_answers.compare(old, _run(-1.5e-15))
    assert kind == numbers_only
    assert notes == ["stdout differs",
                     "out: 1 values differ, max scaled change 2.5e-16, "
                     "keys margin"]
    assert gap == pytest.approx(2.5e-16, rel=1e-12)
    # one moved string, bool or integer, or a moved exit status, makes the
    # run a moved verdict, whatever floats or stderr moved with it
    for new in (_run(-1.25e-15, verdict="fail"),
                _run(-1.5e-15, verdict="fail"),
                _run(-1.25e-15, passed=2),
                _run(-1.25e-15, exit_status=1),
                _run(-1.25e-15, exit_status=2, stderr="error: x\n"),
                _run(-1.25e-15, passed=2, stderr="error: x\n")):
        assert same_answers.compare(old, new)[1] == verdict_moved
    # stderr is compared with its floats masked, as stdout is: at one exit
    # status, moved floats in an error line are numbers, moved words a
    # moved message
    failing = _run(-1.25e-15, exit_status=2,
                   stderr="error: fails with margin -6.6e-17 (tolerance "
                          "1e-08 * 1.000e+00)\n")
    notes, kind, gap = same_answers.compare(failing, failing[:2] + (
        failing[2].replace("-6.6e-17", "-5.2e-17"),) + failing[3:])
    assert kind == numbers_only and gap == 0.0
    assert notes == ["stderr 'error: fails with margin -6.6e-17 (tolerance "
                     "1e-08 * 1.000e+00)\\n' -> 'error: fails with margin "
                     "-5.2e-17 (tolerance 1e-08 * 1.000e+00)\\n'"]
    for new in (_run(-1.25e-15, stderr="error: x\n"),
                _run(-1.5e-15, stderr="error: x\n"),
                failing[:2] + (failing[2].replace("margin", "gap"),)
                + failing[3:]):
        base = failing if new[0] == 2 else old
        assert same_answers.compare(base, new)[1] == message_moved
    stdout = old[1].replace("pass", "fail")
    assert same_answers.compare(old, (0, stdout) + old[2:])[1] == verdict_moved
    assert same_answers.compare(old, old[:3] + (None,))[1] == verdict_moved
    assert same_answers.compare(old, old[:3] + (b"{",))[1] == verdict_moved


def _reformat(run, **kwargs):
    return run[:3] + (json.dumps(json.loads(run[3]), **kwargs).encode(),)


def test_same_answers_tells_reformatted_reports_from_moved_values(
        same_answers):
    # the same report indented and compact is a format change; a value
    # that moves with it, or a zero whose sign flips, is not
    compact = {"sort_keys": True, "separators": (",", ":")}
    old = _reformat(_run(-1.25e-15), indent=2, sort_keys=True)
    new = _reformat(_run(-1.25e-15), **compact)
    assert old[3] != new[3]
    assert same_answers.compare(old, new) == (
        ["out: bytes differ, parsed JSON equal"], same_answers.FORMAT_ONLY,
        0.0)
    notes, kind, gap = same_answers.compare(
        old, _reformat(_run(-1.5e-15), **compact))
    assert kind == same_answers.NUMBERS_ONLY
    assert notes == ["stdout differs",
                     "out: 1 values differ, max scaled change 2.5e-16, "
                     "keys margin"]
    assert gap == pytest.approx(2.5e-16, rel=1e-12)
    assert same_answers.compare(
        _reformat(_run(0.0), **compact),
        _reformat(_run(-0.0), **compact))[1] == same_answers.NUMBERS_ONLY
    # a reformatted report keeps the kind of what moved beside it
    assert same_answers.compare(old, _reformat(
        _run(-1.25e-15, exit_status=1), **compact))[1] == (
        same_answers.VERDICT_MOVED)
    assert same_answers.compare(old, _reformat(
        _run(-1.25e-15, stderr="error: x\n"), **compact))[1] == (
        same_answers.MESSAGE_MOVED)


def test_same_answers_tallies_differing_runs_per_field(same_answers):
    runs = same_answers.argvs()
    fields = [same_answers.field_of(run) for run in runs]
    for run, field in zip(runs, fields):
        if run[0] == "hh":
            assert field == "none"
        elif run[0] == "compute":
            operands = [run[run.index(flag) + 1] for flag in ("--A", "--B")]
            assert (field == "complex") == any(
                name.endswith("c.json") for name in operands)
        else:
            assert field == (run[run.index("--field") + 1]
                             if "--field" in run else "real")
    # every field occurs, and the rejected verify runs default to real
    assert set(fields) == {"real", "complex", "none"}
    assert same_answers.field_of(["verify", "--suite", "thm-primed-le",
                                  "--delta", "-1"]) == "real"
    assert same_answers.field_of(["compute", "--expr", "S", "--A",
                                  "a2r.json", "--B", "b2c.json"]) == "complex"
    assert same_answers.field_tally(runs) == (
        f"differing runs per field: real {fields.count('real')}, "
        f"complex {fields.count('complex')}, none {fields.count('none')}")
    assert same_answers.field_tally([]) == (
        "differing runs per field: real 0, complex 0, none 0")


# nine code lines: blank lines, comments and the module, class and
# function docstrings do not count; a string that is not a docstring
# counts on every line it spans
SYNTHETIC = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = 1


def f():
    """Function
    docstring."""
    text = """a string
    that is code"""
    "a later string statement"
    return text


def g(): """a one-line body"""
'''


def test_code_lines_counts_only_code(code_lines, tmp_path, capsys):
    assert code_lines.code_lines(SYNTHETIC) == 9
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ("     1 b.py\n"
                                       "     9 pkg/a.py\n"
                                       "    10 total\n")
