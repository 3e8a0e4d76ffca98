"""Check that this working tree gives the same answers as a git revision.

    python3 tools/same_answers.py REV

REV is unpacked with ``git archive`` into a temporary directory.  Every
command line of ``argvs()`` then runs as ``python -m opentropy ARGV`` once
per tree, with ``PYTHONPATH`` set to that tree's ``src`` and in a fresh
working directory per tree holding the same seeded matrix files.  Each
run's exit status, stdout, stderr (tree and working-directory paths
normalized) and ``--out`` bytes are compared.

The script prints one line per differing run, with the JSON values that
moved when both reports parse and the largest scaled change
``|new - old| / max(1, |old|, |new|)`` of a moved float.  Each differing
run is of one kind:

- ``verdict moved``: the exit status, a report value that is not a float,
  the presence of the report, or stdout (its floats aside) moved;
- ``message moved``: only stderr moved, in more than its floats, at the
  same exit status;
- ``numbers only``: only floats moved, in the report, stdout or stderr;
- ``format only``: only the report bytes moved, and both parse to the
  same JSON (equal when re-encoded as sorted compact JSON).

It then prints the count of runs per exit status on each side, of
differing runs of each kind and of differing runs per scalar field
(``field_of``).  It exits 0 when every run agrees and 1 otherwise.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUITES = ("thm-main1", "thm-main2", "prop-bounds", "prop-means",
          "cor-entropy-le", "cor-entropy-ge", "thm-primed-le",
          "thm-primed-ge", "prop-tighten", "prop-tighten-ge",
          "cor-delta-le", "cor-delta-ge")
BOUND_KINDS = ("I", "II", "III", "V", "I'", "II'", "III'", "V'",
               "lower_shift", "upper_shift", "base_lower")
EXPRS = ("S", "S_a", "S_ab", "geomean", "means") + BOUND_KINDS
MAX_SEED = str(2 ** 64 - 1)
JOBS = 2  # runs at a time; each is one small python process

# shapes shared by verify and oracle: the spectrum, tolerance and
# overflow edges, an empty run and the largest seed
EDGES = (
    ["--trials", "3", "--dim", "4", "--alpha", "400"],
    ["--trials", "3", "--dim", "4", "--beta", "400"],
    ["--trials", "3", "--dim", "3", "--spec-lo", "1e150",
     "--spec-hi", "1e154"],
    ["--trials", "0"],
    ["--trials", "4", "--seed", MAX_SEED],
)
VERIFY = (
    ["--trials", "30", "--dim", "2-4", "--seed", "7"],
    ["--trials", "20", "--dim", "1,3", "--alpha", "0,0.5,2",
     "--beta", "0.5,1,2", "--delta", "1,1.5", "--seed", "11"],
    ["--trials", "20", "--dim", "2", "--alpha", "0,1", "--beta", "0.5,2",
     "--delta", "0.5,1", "--seed", "12"],
    ["--trials", "20", "--dim", "3", "--lam", "0,0.3,1", "--seed", "13"],
    # crosses the 64-trial chunk boundary
    ["--trials", "70", "--dim", "2", "--seed", "3"],
    ["--trials", "3", "--dim", "32", "--seed", "5"],
    # at dim 32 a chunk holds 4 trials, so 9 trials make 3 chunks
    ["--trials", "9", "--dim", "32", "--seed", "5"],
    # a negative tolerance fails links, or the hypothesis
    ["--trials", "5", "--dim", "3", "--tol=-1e-3"],
    ["--trials", "5", "--dim", "3", "--spec-lo", "1e-300",
     "--spec-hi", "1e-297"],
    # a spectrum far below 1: the window a partner's C is drawn on is set
    # by delta alone, and a move of that window shows here
    ["--trials", "21", "--dim", "4", "--spec-lo", "1e-4", "--spec-hi",
     "1e-2", "--seed", "31"],
    # at tolerance 0 a dominance suite fails by rounding: on the
    # hypothesis of the exact-boundary trial 0 when its margin is negative
    # (exit 2), else on a link (exit 1)
    ["--trials", "21", "--dim", "3", "--tol", "0"],
    # f(C) would have an overflowing norm at alpha 60, but it is never
    # formed; the terms it would reach are finite for prop-bounds
    ["--trials", "30", "--dim", "3", "--alpha", "60", "--spec-lo",
     "1e-110", "--spec-hi", "1e-106"],
    # a value the paper forbids: exit 2 where the suite reads the
    # parameter; where it does not, the run goes on at alpha 0 or beta 1,
    # and an unread lambda is not checked
    ["--trials", "2", "--dim", "2", "--alpha=-1"],
    ["--trials", "2", "--dim", "2", "--beta", "0"],
    ["--trials", "2", "--dim", "2", "--lam", "1.5"],
    # one 64-trial dim-8 chunk over 27 parameter sets, so every scalar
    # function runs on several groups of several trials
    ["--trials", "64", "--dim", "8", "--alpha", "0,0.5,2", "--beta",
     "0.5,1,1.5", "--lam", "0,0.3,1", "--seed", "17"],
) + EDGES
# a delta the suite forbids, rejected before anything is drawn
REJECTED = (
    ["--suite", "thm-primed-le", "--delta", "-1"],
    ["--suite", "thm-primed-ge", "--delta", "0"],
)
ORACLE = (
    # the README command
    ["--trials", "100", "--dim", "1-8", "--alpha", "0,1,2",
     "--beta", "0.5,1,2"],
    ["--trials", "144", "--dim", "1-8", "--alpha", "0,1,2",
     "--beta", "0.5,1,2", "--delta", "1,1.5"],
    ["--trials", "108", "--dim", "1,2,3", "--alpha", "0,0.5,2",
     "--beta", "0.5,1,2", "--delta", "0.5,2", "--lam", "0,0.3,1"],
    ["--trials", "6", "--dim", "32", "--beta", "0.5,1,2"],
    ["--trials", "20", "--dim", "2-4", "--seed", "5", "--beta", "0.5"],
    ["--trials", "3", "--delta", "0"],
    ["--trials", "2", "--dim", "2", "--spec-lo", "1e-300",
     "--spec-hi", "1e-297", "--beta", "2"],
    # A^beta under- and overflows in one pair
    ["--trials", "3", "--dim", "2", "--beta", "400"],
    ["--trials", "2", "--dim", "2", "--lam", "2"],
    ["--trials", "2", "--dim", "2", "--lam=-0.5"],
    # dims 2 and 32 share each 4-trial chunk, and 70 trials make 18 chunks
    ["--trials", "70", "--dim", "2,32", "--beta", "0.5,1,2"],
    # trial 1 fails inside a chunk whose trial 0 passes
    ["--trials", "6", "--dim", "2", "--beta", "0.5,400"],
    # one 64-trial dim-8 chunk over 36 parameter sets, as in verify
    ["--trials", "64", "--dim", "8", "--alpha", "0,0.5,2", "--beta",
     "0.5,1,2", "--delta", "1,1.5", "--lam", "0.3,1", "--seed", "19"],
) + EDGES
HH = (
    ["--alpha", "0", "--x", "4"],
    ["--alpha", "0.5", "--x", "2"],
    ["--alpha", "2", "--x", "0.5", "--grid", "11"],
    ["--alpha", "1", "--x", "4", "--grid", "1001"],
    ["--alpha", "600", "--x", "4"],
    ["--alpha", "nan", "--x", "4"],
    ["--alpha", "0", "--x", "4", "--grid", "100000000000"],
)
# beta 2, and two betas whose half exponents 0.25 and 0.75 np.power
# computes without a special case
PARAMS = tuple(["--alpha", "0.5", "--beta", beta, "--delta", "1.5",
                "--lam", "0.3"] for beta in ("2", "0.5", "1.5"))


def _pair(dim: int, field: str) -> list[str]:
    return ["--A", f"a{dim}{field[0]}.json", "--B", f"b{dim}{field[0]}.json"]


def _compute() -> list[list[str]]:
    runs = []
    for field in ("real", "complex"):
        for dim in (2, 4):
            for expr in EXPRS:
                runs += [["--expr", expr] + _pair(dim, field) + params
                         for params in PARAMS]
            runs.append(["--expr", "perspective", "--f", "II'",
                         "--delta", "2"] + _pair(dim, field))
    runs += [
        ["--expr", "V", "--A", "a2r.txt", "--B", "b2r.json"],
        ["--expr", "S", "--A", "a2r.json", "--B", "a2r.json"],
        ["--expr", "perspective", "--A", "a2r.json", "--B", "b2r.json"],
        ["--expr", "S", "--A", "a2r.json", "--B", "b4r.json"],
        ["--expr", "S", "--A", "a2r.json", "--B", "b2c.json"],
        ["--expr", "S", "--A", "a2r.json", "--B", "missing.json"],
        ["--expr", "I'", "--delta", "nan"] + _pair(2, "real"),
        ["--expr", "S", "--A", "indefinite.json", "--B", "a2r.json"],
        ["--expr", "perspective", "--f", "S", "--A", "indefinite.json",
         "--B", "indefinite.json"],
        ["--expr", "means", "--A", "indefinite.json", "--B", "a2r.json"],
        ["--expr", "means", "--lam", "2"] + _pair(2, "real"),
        # JSON true and false are not matrix entries
        ["--expr", "S", "--A", "boolean.json", "--B", "a2r.json"],
    ]
    # a flag an expression does not read keeps its default, so a delta
    # the generators reject is no error here
    runs += [["--expr", expr, "--delta", "0"] + _pair(2, "real")
             for expr in ("S", "S_a", "S_ab", "geomean", "means")]
    # an indefinite B fails the check of the whitened spectrum, which
    # names the generator
    runs += [["--expr", expr, "--A", "a2r.json", "--B", "indefinite.json"]
             for expr in ("S", "S_a", "S_ab", "geomean")]
    # A^{beta/2} overflows at beta 8 on the base diag(1, 1e100)
    for field in ("real", "complex"):
        runs += [["--expr", expr, "--beta", "8", "--A",
                  f"overflow2{field[0]}.json", "--B", f"a2{field[0]}.json"]
                 for expr in ("I", "S_ab", "geomean")]
    return runs


def argvs() -> list[list[str]]:
    """Every command line of the matrix, ``--out`` included; run ``i``
    writes ``out-i.json`` in its tree's working directory."""
    runs = [["verify", "--suite", suite, "--field", field] + shape
            for suite in SUITES for field in ("real", "complex")
            for shape in VERIFY]
    runs += [["verify"] + argv for argv in REJECTED]
    runs += [["oracle", "--field", field] + shape
             for field in ("real", "complex") for shape in ORACLE]
    runs += [["compute"] + argv for argv in _compute()]
    runs += [["hh"] + argv for argv in HH]
    return [argv + ["--out", f"out-{i}.json"] for i, argv in enumerate(runs)]


def _matrix_obj(m: np.ndarray) -> dict:
    if np.iscomplexobj(m):
        data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        return {"field": "complex", "dim": len(m), "data": data}
    return {"field": "real", "dim": len(m),
            "data": [[float(z) for z in row] for row in m]}


def _write_inputs(workdir: str) -> None:
    """The seeded matrix files the compute runs read."""
    rng = np.random.default_rng(20201)
    for field in ("real", "complex"):
        for dim in (2, 4):
            for name in "ab":
                g = rng.standard_normal((dim, dim))
                if field == "complex":
                    g = g + 1j * rng.standard_normal((dim, dim))
                m = g @ g.conj().T + dim * np.eye(dim)
                m = (m + m.conj().T) / 2.0
                with open(os.path.join(workdir, f"{name}{dim}{field[0]}.json"),
                          "w", encoding="utf-8") as fh:
                    json.dump(_matrix_obj(m), fh)
    with open(os.path.join(workdir, "a2r.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["data"]
    with open(os.path.join(workdir, "a2r.txt"), "w", encoding="utf-8") as fh:
        fh.write("2\n" + "\n".join(" ".join(repr(v) for v in row)
                                   for row in rows) + "\n")
    for name, m in (("indefinite.json", np.diag([1.0, -1.0])),
                    ("overflow2r.json", np.diag([1.0, 1e100])),
                    ("overflow2c.json", np.diag([1.0, 1e100 + 0j]))):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(_matrix_obj(m), fh)
    with open(os.path.join(workdir, "boolean.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"field": "real", "dim": 2,
                   "data": [[True, False], [False, True]]}, fh)


def _run(tree: str, workdir: str, argv: list[str]) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "opentropy"] + argv,
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=600)
    out_path = os.path.join(workdir, argv[-1])
    out = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            out = fh.read()

    def normalized(text):
        return text.replace(workdir, "<work>").replace(tree, "<tree>")

    return (proc.returncode, normalized(proc.stdout),
            normalized(proc.stderr), out)


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


NUMBERS_ONLY, MESSAGE_MOVED, VERDICT_MOVED, FORMAT_ONLY = (
    "numbers only", "message moved", "verdict moved", "format only")
FORMAT_NOTE = "out: bytes differ, parsed JSON equal"
# a float as the CLI prints it; integers (trial counts) stay literal
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
                    r"|\b(?:inf|nan)\b)")


def _canonical(obj) -> str:
    """``obj`` as sorted compact JSON: two reports that parse to the same
    ``_canonical`` differ in whitespace or key order only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report_diff(old: bytes, new: bytes) -> tuple[str, list[float] | None]:
    """A phrase naming the report values that moved, and the scaled
    change ``|new - old| / max(1, |old|, |new|)`` of each when every moved
    value is a float on both sides (``None`` when another value moved, or
    a report does not parse); ``FORMAT_NOTE`` and no change when both
    parse to the same JSON."""
    try:
        old_obj, new_obj = json.loads(old), json.loads(new)
    except ValueError:
        return "out bytes differ", None
    if _canonical(old_obj) == _canonical(new_obj):
        return FORMAT_NOTE, []
    a, b = dict(_leaves(old_obj)), dict(_leaves(new_obj))
    moved = [k for k in a.keys() | b.keys() if a.get(k) != b.get(k)]
    gaps = [abs(a[k] - b[k]) / max(1.0, abs(a[k]), abs(b[k])) for k in moved
            if isinstance(a.get(k), float) and isinstance(b.get(k), float)]
    names = sorted({k.rsplit(".", 1)[-1].split("[")[0] for k in moved})
    worst = f", max scaled change {max(gaps):.3g}" if gaps else ""
    return (f"out: {len(moved)} values differ{worst}, keys {','.join(names)}",
            gaps if len(gaps) == len(moved) else None)


def compare(old: tuple, new: tuple) -> tuple[list[str], str | None, float]:
    """What differs between two ``_run`` results: one phrase each, the
    kind of difference (``None`` when they agree) and the largest scaled
    change of a moved report float."""
    notes, verdict, message, gaps = [], False, False, []
    if old[0] != new[0]:
        notes.append(f"exit {old[0]} -> {new[0]}")
        verdict = True
    if old[1] != new[1]:
        notes.append("stdout differs")
        verdict |= _FLOAT.sub("#", old[1]) != _FLOAT.sub("#", new[1])
    if old[2] != new[2]:
        notes.append(f"stderr {old[2]!r} -> {new[2]!r}")
        message = _FLOAT.sub("#", old[2]) != _FLOAT.sub("#", new[2])
    if old[3] != new[3]:
        if old[3] is None or new[3] is None:
            notes.append("out present only on one side")
            verdict = True
        else:
            phrase, gaps = _report_diff(old[3], new[3])
            notes.append(phrase)
            verdict |= gaps is None
    if not notes:
        return notes, None, 0.0
    kind = (VERDICT_MOVED if verdict else MESSAGE_MOVED if message
            else FORMAT_ONLY if notes == [FORMAT_NOTE] else NUMBERS_ONLY)
    return notes, kind, max(gaps or [0.0])


def field_of(argv: list[str]) -> str:
    """The scalar field of a run: ``--field`` of ``verify`` and ``oracle``
    (default real), complex for a ``compute`` with a ``...c.json``
    operand, and ``none`` for ``hh``, which has no field."""
    if argv[0] == "hh":
        return "none"
    if argv[0] == "compute":
        return ("complex" if any(arg.endswith("c.json") for arg in argv)
                else "real")
    return argv[argv.index("--field") + 1] if "--field" in argv else "real"


def field_tally(runs: list[list[str]]) -> str:
    """The line counting ``runs`` per ``field_of``."""
    counts = dict.fromkeys(("real", "complex", "none"), 0)
    for run in runs:
        counts[field_of(run)] += 1
    return "differing runs per field: " + ", ".join(
        f"{field} {n}" for field, n in counts.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    runs = argvs()
    with tempfile.TemporaryDirectory(prefix="same-answers-") as tmp:
        old_tree = os.path.join(tmp, "rev")
        os.mkdir(old_tree)
        archive = subprocess.run(["git", "archive", args.rev], cwd=REPO,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", old_tree], input=archive,
                       check=True)
        sides = []
        for tree, name in ((old_tree, "rev-work"), (REPO, "tree-work")):
            workdir = os.path.join(tmp, name)
            os.mkdir(workdir)
            _write_inputs(workdir)
            sides.append((tree, workdir))
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            results = [[pool.submit(_run, tree, workdir, run) for run in runs]
                       for tree, workdir in sides]
            old, new = ([f.result() for f in side] for side in results)
    kinds, worst = dict.fromkeys((FORMAT_ONLY, NUMBERS_ONLY, MESSAGE_MOVED,
                                  VERDICT_MOVED), 0), 0.0
    differing = []
    for run, a, b in zip(runs, old, new):
        notes, kind, gap = compare(a, b)
        if kind:
            kinds[kind] += 1
            differing.append(run)
            worst = max(worst, gap)
            print(f"DIFF [{kind}] {' '.join(run[:-2])}: {'; '.join(notes)}")
    for label, side in ((args.rev, old), ("tree", new)):
        counts = {}
        for result in side:
            counts[result[0]] = counts.get(result[0], 0) + 1
        print(f"{label}: " + ", ".join(f"exit {code}: {n}"
                                       for code, n in sorted(counts.items())))
    print(f"{kinds[FORMAT_ONLY]} runs differ in report format only, with "
          f"the same parsed JSON")
    print(f"{kinds[NUMBERS_ONLY]} runs differ in numbers only, max scaled "
          f"change {worst:.3g}")
    print(f"{kinds[MESSAGE_MOVED]} runs differ in stderr text only, at the "
          f"same exit status")
    print(f"{kinds[VERDICT_MOVED]} runs differ with a verdict moved")
    print(f"{len(differing)} of {len(runs)} runs differ")
    print(field_tally(differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
