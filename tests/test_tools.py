"""The maintenance scripts under ``tools/`` must keep matching the CLI."""

import importlib.util
import os
import sys

import pytest

from opentropy.cli import build_parser

SAME_ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "tools", "same_answers.py")


@pytest.mark.skipif(not os.path.exists(SAME_ANSWERS),
                    reason="tools not in this checkout")
def test_every_same_answers_command_line_parses():
    spec = importlib.util.spec_from_file_location("_same_answers",
                                                  SAME_ANSWERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    parser = build_parser()
    runs = module.argvs()
    assert {argv[0] for argv in runs} == {"verify", "oracle", "compute", "hh"}
    for argv in runs:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        assert args.out == argv[-1]
