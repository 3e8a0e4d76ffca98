"""Matrix file formats consumed and produced by the CLI.

JSON: ``{"field": "real"|"complex", "dim": n, "data": [[...], ...]}`` with
complex entries written as ``[re, im]`` pairs.  Plain text (real only):
``n`` on the first line, then ``n`` whitespace-separated rows.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .matcore import OperatorError, SymMatrix


def matrix_to_obj(m: SymMatrix) -> dict:
    if m.field == "complex":
        data = [[[float(z.real), float(z.imag)] for z in row]
                for row in m.data]
    else:
        data = [[float(z) for z in row] for row in m.data]
    return {"field": m.field, "dim": m.dim, "data": data}


def _complex_entry(entry) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(entry[0], entry[1])
    return complex(entry)  # a bare number; any other list is malformed


def matrix_from_obj(obj: dict) -> SymMatrix:
    try:
        field, dim, rows = obj["field"], obj["dim"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise OperatorError(f"malformed matrix object: {exc}") from exc
    if field not in ("real", "complex"):
        raise OperatorError(f"field must be 'real' or 'complex', got {field!r}")
    if type(dim) is not int:
        raise OperatorError(f"dim must be an integer, got {dim!r}")
    try:
        if field == "complex":
            rows = [[_complex_entry(e) for e in row] for row in rows]
        arr = np.asarray(rows, dtype=np.complex128 if field == "complex"
                         else np.float64)
    except (ValueError, TypeError) as exc:
        raise OperatorError(f"malformed matrix data: {exc}") from exc
    if arr.shape != (dim, dim):
        raise OperatorError(f"data is not a {dim}x{dim} matrix")
    return SymMatrix(arr)


def _load_text(text: str) -> SymMatrix:
    tokens = text.split()
    if not tokens:
        raise OperatorError("empty matrix file")
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
            json.dump(matrix_to_obj(m), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if m.field == "complex":
        raise OperatorError("the text format only carries real matrices; "
                            "use a .json path")
    lines = [str(m.dim)]
    lines += [" ".join(repr(float(v)) for v in row) for row in m.data]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
