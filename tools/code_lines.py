"""Count the code lines of the Python files under a directory.

    python3 tools/code_lines.py [DIR]

DIR defaults to ``src/opentropy``.  The script prints the code lines of
each ``.py`` file under DIR, by path relative to DIR, then their total.

A code line holds a token other than a comment.  Blank lines, comment
lines and the docstrings of modules, classes and functions do not count;
any other string, over however many lines, does.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> set[tuple[int, int]]:
    """The start ``(row, col)`` of every module, class and function
    docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = _docstrings(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir", nargs="?",
                        default=os.path.join(REPO, "src", "opentropy"),
                        help="the directory to count (default "
                             "src/opentropy)")
    args = parser.parse_args(argv)
    total = 0
    for root, dirs, files in os.walk(args.dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    count = code_lines(fh.read())
                total += count
                print(f"{count:6d} {os.path.relpath(path, args.dir)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
