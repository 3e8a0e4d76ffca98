"""The four benchmark workloads, as lists of ``opentropy`` CLI calls.

A workload is a *cycle* of calls that the closed loop in ``child.py``
repeats until its time is up; the loop only ever stops after a whole cycle,
so every run measures the same mix of calls.  Each cycle is a pure function
of ``(seed, cycle index)``: ``verify`` and ``oracle`` calls get a fresh
program seed per cycle, and ``compute-files`` draws fresh expression
parameters per cycle against the matrix files written at set-up.

Every ``verify``/``oracle`` call pins exactly one ``--dim`` and one
``--field`` (``RunConfig.combos()`` puts dims outermost, so a dim range
with long parameter lists realizes only its first dims), and each suite
gets parameter lists that satisfy its hypothesis, so no call should fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable

import numpy as np

FIELDS = ("real", "complex")

# (alphas, betas, deltas, lams) per suite; every combination satisfies the
# suite's hypothesis (alpha >= 0, beta > 0, delta >= 1 for the "ge1"
# suites, 0 < delta <= 1 for the "le1" suites, lambda in [0, 1]).  Suites
# that fix alpha/beta/delta get only the lists they read.
_FREE = ("0,0.5,1,2", "0.5,1,2", "1", "0.5")
_GE1 = ("0,1", "0.5,2", "1,1.5,3", "0.5")
_LE1 = ("0,1", "0.5,2", "1,0.5,0.25", "0.5")
SUITE_PARAMS = {
    "thm-main1": _FREE,
    "thm-main2": _FREE,
    "prop-bounds": _FREE,
    "prop-means": ("0", "1", "1", "0,0.25,0.5,0.75,1"),
    "cor-entropy-le": ("0", "1", "1", "0.5"),
    "cor-entropy-ge": ("0", "1", "1", "0.5"),
    "thm-primed-le": _GE1,
    "thm-primed-ge": _LE1,
    "prop-tighten": _GE1,
    "prop-tighten-ge": _LE1,
    "cor-delta-le": ("0", "1", "1,1.5,3", "0.5"),
    "cor-delta-ge": ("0", "1", "1,0.5,0.25", "0.5"),
}

# every --expr the compute command accepts; "perspective" also takes --f
COMPUTE_EXPRS = ("S", "S_a", "S_ab", "geomean", "means", "perspective",
                 "I", "II", "III", "V", "I'", "II'", "III'", "V'",
                 "lower_shift", "upper_shift", "base_lower")
PERSPECTIVE_KINDS = ("I", "II", "S", "III", "V", "I'", "II'", "III'", "V'",
                     "lower_shift", "upper_shift", "base_lower",
                     "harmonic", "geometric", "arithmetic")
# (label, field, file extension) of the matrix files compute-files reads
FILE_KINDS = (("json-real", "real", ".json"),
              ("json-complex", "complex", ".json"),
              ("text-real", "real", ".txt"))
HH_GRID = 100001
ORACLE_CONTRACT = 1e-10


@dataclasses.dataclass(frozen=True)
class Call:
    """One ``opentropy`` invocation; ``--out PATH`` is appended at run time.

    ``units`` is the work it stands for in ``trials_per_s`` (trials for
    ``verify``/``oracle``, 1 for ``compute``/``hh``); ``cell`` is the
    declared (suite, dim, field) the report must realize.
    """

    kind: str
    argv: tuple[str, ...]
    units: int
    cell: tuple | None = None


def cycle_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


def _gen_args(trials, dim, field, seed, params) -> tuple[str, ...]:
    alphas, betas, deltas, lams = params
    return ("--trials", str(trials), "--dim", str(dim), "--field", field,
            "--seed", str(seed), "--alpha", alphas, "--beta", betas,
            "--delta", deltas, "--lam", lams, "--jobs", "1")


def _verify_calls(suites, dims, trials, seed) -> list[Call]:
    return [Call("verify", ("verify", "--suite", suite)
                 + _gen_args(trials, dim, field, seed, SUITE_PARAMS[suite]),
                 trials, (suite, dim, field))
            for suite in suites for dim in dims for field in FIELDS]


def verify_small(seed, cycle, tiny, files_dir):
    dims = (2, 3) if tiny else (2, 3, 4)
    return _verify_calls(tuple(SUITE_PARAMS), dims, 1 if tiny else 12,
                         cycle_seed(seed, cycle))


def verify_dim32(seed, cycle, tiny, files_dir):
    # two trials per call: trial 0 is always the exact-boundary instance
    return _verify_calls(("thm-main1", "cor-delta-le"), (4 if tiny else 32,),
                         2, cycle_seed(seed, cycle))


_ORACLE_PARAMS = ("0,1,2", "0.5,1,2", "1,2", "0.25,0.5")


def oracle_diag(seed, cycle, tiny, files_dir):
    trials = 2 if tiny else 18
    return [Call("oracle", ("oracle",) + _gen_args(
                trials, dim, field, cycle_seed(seed, cycle), _ORACLE_PARAMS),
                 trials, ("oracle", dim, field))
            for dim in ((2, 3) if tiny else (2, 8, 32)) for field in FIELDS]


def file_dims(tiny: bool) -> tuple[int, ...]:
    # three sizes, so the median and 90th-percentile calls fall inside the
    # dim-8 and dim-16 groups rather than on the edge between two groups
    return (2, 3) if tiny else (4, 8, 16)


def matrix_paths(files_dir: str, tiny: bool):
    """(label, dim, A path, B path) for every matrix-file pair."""
    return [(label, dim,
             os.path.join(files_dir, f"{label}-{dim}-A{ext}"),
             os.path.join(files_dir, f"{label}-{dim}-B{ext}"))
            for label, _, ext in FILE_KINDS for dim in file_dims(tiny)]


def compute_files(seed, cycle, tiny, files_dir):
    rng = np.random.default_rng([seed, cycle])
    calls = []
    fields = {label: field for label, field, _ in FILE_KINDS}
    pairs = matrix_paths(files_dir, tiny)
    for pair, (label, dim, a_path, b_path) in enumerate(pairs):
        for expr in COMPUTE_EXPRS:
            argv = ("compute", "--expr", expr, "--A", a_path, "--B", b_path,
                    "--alpha", str(rng.choice([0.0, 0.5, 1.0, 2.0])),
                    "--beta", str(rng.choice([0.5, 1.0, 2.0])),
                    "--delta", str(rng.choice([0.5, 1.0, 2.0])),
                    "--lam", str(rng.choice([0.25, 0.5, 0.75])))
            if expr == "perspective":
                kind = PERSPECTIVE_KINDS[(cycle * len(pairs) + pair)
                                         % len(PERSPECTIVE_KINDS)]
                argv += ("--f", kind)
            calls.append(Call("compute", argv, 1, (label, dim, fields[label])))
        x = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        calls.append(Call("hh", ("hh", "--alpha", repr(rng.uniform(0.0, 4.0)),
                                 "--x", repr(x), "--grid", str(HH_GRID)), 1))
    return calls


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, bool, str], list[Call]]  # seed, cycle, tiny, files_dir
    writes_files: bool = False  # compute-files reads matrix files set-up writes


WORKLOADS = {w.name: w for w in (
    Workload("verify-small", verify_small),
    Workload("verify-dim32", verify_dim32),
    Workload("oracle-diag", oracle_diag),
    Workload("compute-files", compute_files, writes_files=True),
)}


# ---------------------------------------------------------------------------
# matrix files for compute-files, in the two formats matio documents

def random_spd_array(rng, dim: int, field: str) -> np.ndarray:
    """Self-adjoint array with a log-uniform spectrum in [0.1, 10]."""
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    vals = 0.1 * 100.0 ** rng.uniform(0.0, 1.0, size=dim)
    m = (q * vals) @ q.conj().T
    return (m + m.conj().T) / 2.0  # exactly self-adjoint


def _file_text(m: np.ndarray, field: str, ext: str) -> str:
    if ext == ".txt":
        rows = [" ".join(repr(float(v)) for v in row) for row in m.real]
        return "\n".join([str(m.shape[0])] + rows) + "\n"
    if field == "complex":
        data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    else:
        data = [[float(z) for z in row] for row in m.real]
    return json.dumps({"field": field, "dim": m.shape[0], "data": data},
                      indent=2, sort_keys=True) + "\n"


def write_matrix_files(seed: int, files_dir: str, tiny: bool) -> None:
    """Write one strictly positive (A, B) pair per file kind and dim."""
    os.makedirs(files_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    fields = {label: (field, ext) for label, field, ext in FILE_KINDS}
    for label, dim, a_path, b_path in matrix_paths(files_dir, tiny):
        field, ext = fields[label]
        for path in (a_path, b_path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_file_text(random_spd_array(rng, dim, field), field, ext))
