"""Matrix file formats consumed and produced by the CLI.

JSON: ``{"field": "real"|"complex", "dim": n, "data": [[...], ...]}`` with
complex entries written as ``[re, im]`` pairs, in the one byte form of
``json_text``, which every CLI report also takes.  Plain text (real
only): ``n`` on the first line, then ``n`` whitespace-separated rows of
ASCII numbers without digit separators.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .matcore import OperatorError, SymMatrix


def json_text(obj) -> str:
    """The one byte form of every JSON file the package writes: sorted,
    compact JSON and a newline.  One ``json.dumps`` call without indent
    runs the C encoder; any indent, or ``json.dump`` streaming to a file,
    runs the pure-Python one."""
    return json.dumps(obj, sort_keys=True, allow_nan=False,
                      separators=(",", ":")) + "\n"


def matrix_to_obj(m: SymMatrix) -> dict:
    data = m.data
    if m.field == "complex":
        data = np.stack([data.real, data.imag], -1)
    return {"field": m.field, "dim": m.dim, "data": data.tolist()}


# the types json gives a number; bool, a subclass of int, is not one
_NUMBER = {int, float}


def _check_numbers(rows, field: str) -> None:
    """Name the first entry of ``rows`` that is not a JSON number, nor, in
    the complex field, an ``[re, im]`` pair of two: numpy alone would read
    ``true`` as 1.0 and the string ``"1_0"`` as 10.0.  A row that is not a
    list is left to the conversion, which rejects it."""
    try:
        entries = list(itertools.chain.from_iterable(rows))
    except TypeError:
        return
    kinds = set(map(type, entries))
    complex_field = field == "complex"
    if complex_field and kinds == {list} and set(map(len, entries)) == {2}:
        kinds = set(map(type, itertools.chain.from_iterable(entries)))
    if kinds <= _NUMBER:
        return
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if type(entry) not in _NUMBER and not (
                    complex_field and type(entry) is list and len(entry) == 2
                    and set(map(type, entry)) <= _NUMBER):
                pair = " or an [re, im] pair of numbers" * complex_field
                raise OperatorError(f"matrix entry [{i}][{j}] must be a JSON "
                                    f"number{pair}, got {json.dumps(entry)}")


def matrix_from_obj(obj: dict) -> SymMatrix:
    try:
        field, dim, rows = obj["field"], obj["dim"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise OperatorError(f"malformed matrix object: {exc}") from exc
    if field not in ("real", "complex"):
        raise OperatorError(f"field must be 'real' or 'complex', got {field!r}")
    if type(dim) is not int:
        raise OperatorError(f"dim must be an integer, got {dim!r}")
    _check_numbers(rows, field)
    try:
        if field == "complex":
            rows = [[complex(*e) if type(e) is list else e for e in row]
                    for row in rows]
        arr = np.asarray(rows, dtype=np.complex128 if field == "complex"
                         else np.float64)
    except (ValueError, TypeError, OverflowError) as exc:
        # OverflowError: an integer too large for a float
        raise OperatorError(f"malformed matrix data: {exc}") from exc
    if arr.shape != (dim, dim):
        raise OperatorError(f"data is not a {dim}x{dim} matrix")
    return SymMatrix(arr)


def _load_text(text: str) -> SymMatrix:
    tokens = text.split()
    if not tokens:
        raise OperatorError("empty matrix file")
    if "_" in text or not text.isascii():
        # Python's int and float read "1_0" as 10 and other scripts' digits
        # as ASCII ones; a matrix file's numbers are plain ASCII
        bad = next(t for t in tokens if "_" in t or not t.isascii())
        raise OperatorError(f"malformed text matrix: not a plain number: "
                            f"{bad!r}")
    try:
        dim = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise OperatorError(f"malformed text matrix: {exc}") from exc
    if dim < 1 or len(values) != dim * dim:
        raise OperatorError(
            f"text matrix declares dim {dim} but carries {len(values)} entries")
    return SymMatrix(np.asarray(values, dtype=np.float64).reshape(dim, dim))


def load_matrix(path: str | os.PathLike) -> SymMatrix:
    """Load a matrix file, sniffing JSON versus text by the first character."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise OperatorError(f"{path} is not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer past the digit limit, or nesting
            # deeper than the decoder's recursion limit
            raise OperatorError(f"invalid JSON in {path}: {exc}") from exc
        return matrix_from_obj(obj)
    return _load_text(text)


def save_matrix(m: SymMatrix, path: str | os.PathLike) -> None:
    """Write JSON for ``.json`` paths, the text format otherwise (real only)."""
    path = os.fspath(path)
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text(matrix_to_obj(m)))
        return
    if m.field == "complex":
        raise OperatorError("the text format only carries real matrices; "
                            "use a .json path")
    lines = [str(m.dim)]
    lines += [" ".join(repr(float(v)) for v in row) for row in m.data]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
