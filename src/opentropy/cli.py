"""Command-line harness: generate instances, run suites, cross-check oracles.

Commands
--------
verify   run an inequality suite on random hypothesis-satisfying instances
compute  evaluate one operator expression on matrices from files
hh       emit the refined Hermite-Hadamard record and its grid verdict
oracle   compare the matrix pipeline against scalar closed forms on
         simultaneously diagonal inputs

Exit status: 0 when every check passes, 1 on a chain/oracle failure, 2 on
usage or domain errors.  Every report is one line of sorted, compact JSON
and a newline, byte-reproducible for fixed flags on one build; seeds are
explicit flags only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import operator
import sys

import numpy as np

from . import __version__
from .bounds import (
    BOUND_KINDS,
    SUITE_NAMES,
    SUITES,
    ChainParams,
    bound,
    chain_check_stack,
    scalar_generator,
)
from .gen import (
    DIM_CAP,
    GenConfig,
    random_diag_pair_stack,
    random_partner_stack,
    random_spd_stack,
)
from .hermite import grid_verify, hh_record
from .matcore import (DEFAULT_LOEWNER_TOL, OperatorError, _check_finite,
                      _check_int)
from .matio import json_text, load_matrix, matrix_to_obj
from .perspective import Frame, _each, _rows

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

ORACLE_CONTRACT = 1e-10
# trials per stacked check, and matrix entries T * n**2 per stack at the
# run's largest dim n: 64 trials up to dim 8, 4 at dim 32; bounds the
# (T, K, n, n) term stacks
CHUNK_TRIALS = 64
CHUNK_ENTRIES = 4096


def _number(cast, token: str):
    try:
        return cast(token)
    except ValueError:
        raise OperatorError(f"not a number: {token!r}") from None


def _parse_dims(text: str) -> list[int]:
    dims: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = _number(int, lo_s), _number(int, hi_s)
            if hi < lo:
                raise OperatorError(f"bad dim range {part!r}")
            # cut at the first dim past DIM_CAP, which RunConfig rejects
            dims.extend(range(lo, max(lo, min(hi, DIM_CAP + 1)) + 1))
        elif part:
            dims.append(_number(int, part))
    if not dims:
        raise OperatorError(f"no dims in {text!r}")
    return dims


def _parse_floats(text: str) -> list[float]:
    vals = [_number(float, p) for p in text.split(",") if p.strip()]
    if not vals:
        raise OperatorError(f"no values in {text!r}")
    return vals


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved flags for ``verify`` / ``oracle`` runs."""

    suite: str = ""
    trials: int = 100
    tol: float = DEFAULT_LOEWNER_TOL
    dims: tuple[int, ...] = (4,)
    field: str = "real"
    seed: int = 0
    spectrum_lo: float = 0.1
    spectrum_hi: float = 10.0
    alphas: tuple[float, ...] = (0.0,)
    betas: tuple[float, ...] = (1.0,)
    deltas: tuple[float, ...] = (1.0,)
    lams: tuple[float, ...] = (0.5,)

    def __post_init__(self):
        for name in ("trials", "seed"):
            _check_int(name, getattr(self, name))
        if self.trials < 0:
            raise OperatorError(
                f"trials must be nonnegative, got {self.trials!r}")
        for name in ("tol", "spectrum_lo", "spectrum_hi", "alphas", "betas",
                     "deltas", "lams"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise OperatorError(f"{name} must be finite, got {value!r}")
        # one validated GenConfig per dims entry, which decode hands out;
        # an attribute, not a field, so equality and to_json_dict ignore it
        object.__setattr__(self, "_gen_configs", tuple(
            GenConfig(dim, self.field, spectrum_lo=self.spectrum_lo,
                      spectrum_hi=self.spectrum_hi, master_seed=self.seed)
            for dim in self.dims))

    def decode(self, k: int) -> tuple[GenConfig, ChainParams]:
        """Trial ``k``'s inputs: item ``k % n`` of ``itertools.product(dims,
        alphas, betas, deltas, lams)``, read in mixed radix, last fastest."""
        picks = []
        for axis in (self.lams, self.deltas, self.betas, self.alphas,
                     self._gen_configs):
            k, digit = divmod(k, len(axis))
            picks.append(axis[digit])
        lam, delta, beta, alpha, gen_config = picks
        return gen_config, ChainParams(alpha, beta, delta, lam)

    def to_json_dict(self) -> dict:
        """The fields by name, each tuple as a list; built directly, as
        ``dataclasses.asdict`` deep-copies every value."""
        out = {field.name: getattr(self, field.name)
               for field in dataclasses.fields(self)}
        for key in ("dims", "alphas", "betas", "deltas", "lams"):
            out[key] = list(out[key])
        return out


def _config_from_args(args, suite: str = "",
                      tol: float = DEFAULT_LOEWNER_TOL) -> RunConfig:
    """``verify`` passes its suite and ``--tol``; ``oracle``, whose verdict
    is ``ORACLE_CONTRACT``, keeps the default ``tol`` in its config."""
    return RunConfig(
        suite=suite,
        trials=args.trials,
        tol=tol,
        dims=tuple(_parse_dims(args.dim)),
        field=args.field,
        seed=args.seed,
        spectrum_lo=args.spec_lo,
        spectrum_hi=args.spec_hi,
        alphas=tuple(_parse_floats(args.alpha)),
        betas=tuple(_parse_floats(args.beta)),
        deltas=tuple(_parse_floats(args.delta)),
        lams=tuple(_parse_floats(args.lam)),
    )


def _by_dim(cfg: RunConfig, trials, resolve) -> list:
    """Decode ``trials`` and group them by ``GenConfig``, in first-seen
    order: one ``(gcfg, group, params)`` per dim, its trials and what
    ``resolve`` returns for each trial's parameters.  Every trial is
    resolved before the caller draws anything, so a parameter that
    ``resolve`` rejects raises first."""
    by_dim: dict[GenConfig, list] = {}
    for trial in trials:
        gcfg, params = cfg.decode(trial)
        by_dim.setdefault(gcfg, []).append((trial, resolve(params)))
    return [(gcfg, *map(list, zip(*drawn))) for gcfg, drawn in by_dim.items()]


def _draw(cfg: RunConfig, trials) -> list:
    """Draw ``trials`` as one ``_by_dim`` stack per dim; each trial's A and
    B are bitwise those of the one-trial ``gen.random_spd`` and
    ``gen.random_partner``.

    Each trial's parameters are resolved by ``SuiteSpec.resolve``, so a
    value the suite forbids raises ``HypothesisError`` before any matrix
    is drawn.  Returns one ``(group, a, b, params, frame, hypothesis)``
    per dim: the group's trials, their A and B as ``(T, n, n)`` arrays,
    their resolved parameters and, for a suite with a dominance
    hypothesis, the A frame and hypothesis margins the partner draw
    computed (``None`` otherwise), for ``chain_check_stack``.
    """
    spec = SUITES[cfg.suite]
    stacks = []
    for gcfg, group, params in _by_dim(cfg, trials, spec.resolve):
        a = random_spd_stack(gcfg, group)
        if spec.relation == "none":
            b = random_spd_stack(gcfg, group, salt=1)
            frame = hypothesis = None
        else:
            b, frame, hypothesis = random_partner_stack(
                a, [p.beta for p in params], [p.delta for p in params],
                spec.relation, gcfg, group)
        stacks.append((group, a, b, params, frame, hypothesis))
    return stacks


def _check(cfg: RunConfig, trials) -> list:
    """Draw ``trials`` as one stack per dim and check each stack in one
    ``chain_check_stack`` call; one report per trial, in order."""
    reports = {}
    for group, a, b, params, frame, hypothesis in _draw(cfg, trials):
        reports.update(zip(group, chain_check_stack(
            cfg.suite, a, b, params, cfg.tol, group, frame, hypothesis)))
    return [reports[t] for t in trials]


def _run_trial(cfg: RunConfig, trial: int):
    """Draw and check trial ``trial`` alone: ``_check`` on a chunk of one."""
    return _check(cfg, [trial])[0]


def _chunked(cfg: RunConfig, check, alone) -> list:
    """``check(cfg, chunk)`` on each run of consecutive trials, results
    concatenated in trial order.  A chunk holds at most ``CHUNK_TRIALS``
    trials, and at most ``CHUNK_ENTRIES / n**2`` at the run's largest dim
    ``n``.  ``check`` must give the bits of ``alone(cfg, trial)`` on each
    trial.  When a chunk raises ``OperatorError``, its trials are run again
    one at a time through ``alone`` and the first error is raised: that of
    the lowest failing trial."""
    size = min(CHUNK_TRIALS, CHUNK_ENTRIES // max(cfg.dims) ** 2)
    results = []
    for start in range(0, cfg.trials, size):
        chunk = range(start, min(start + size, cfg.trials))
        try:
            results.extend(check(cfg, chunk))
        except OperatorError:
            for trial in chunk:
                alone(cfg, trial)
            raise
    return results


def run_suite(cfg: RunConfig) -> dict:
    """Run ``cfg.trials`` instances through one suite; aggregate a report.

    Each trial is a pure function of ``(seed, trial index)``.  Each
    ``_chunked`` chunk of consecutive trials is drawn and checked as
    stacked per-dim batches, and a failing chunk is rerun one trial at a
    time.  The report is byte-identical for fixed flags on one build.
    """
    reports = _chunked(cfg, _check, _run_trial)
    passed = sum(1 for r in reports if r.passed)
    worst: dict[str, float] = {}
    for r in reports:
        for link in r.links:
            key = f"{link.lhs} <= {link.rhs}"
            if key not in worst or link.margin < worst[key]:
                worst[key] = link.margin
    summary = {
        "suite": cfg.suite,
        "trials": cfg.trials,
        "passed": passed,
        "failed": cfg.trials - passed,
        "worst_margins": worst,
        "all_pass": passed == cfg.trials,
    }
    if cfg.trials == 0:
        summary["note"] = "0 trials requested; vacuous pass"
    return {
        "tool_version": __version__,
        "config": cfg.to_json_dict(),
        "summary": summary,
        "trials": [r.to_json_dict() for r in reports],
    }


# ---------------------------------------------------------------------------
# oracle: diagonal pairs, matrix pipeline vs scalar closed forms

# the oracle's rows at h = t^beta and at h = t^1
_AT_BETA_ROWS = BOUND_KINDS + ("S_ab", "geomean")
_AT_ONE_ROWS = ("S_a", "S", "harmonic_mean", "geometric_mean",
                 "arithmetic_mean")


def _oracle_generators(alpha: float, delta: float, lam: float):
    """The registry generators of the ``_AT_BETA_ROWS`` and the
    ``_AT_ONE_ROWS`` rows at one trial's alpha, delta and lambda."""
    s_alpha = scalar_generator("S", alpha=alpha)
    return ([scalar_generator(kind, alpha, delta, lam)
             for kind in BOUND_KINDS]
            + [s_alpha, scalar_generator("geometric", lam=alpha)],
            [s_alpha, scalar_generator("S")]
            + [scalar_generator(kind, lam=lam)
               for kind in ("harmonic", "geometric", "arithmetic")])


def _oracle_table(params: list[ChainParams], a: np.ndarray,
                  b: np.ndarray) -> list:
    """The oracle rows of a stack of diagonal pairs ``a[t]``, ``b[t]`` at
    ``params[t]``, grouped by h exponent: ``[(exponents, names, fns,
    closed)]``, the ``t^beta`` rows, then the ``t^1`` rows, as one group
    when every trial's beta is 1.  In a stack that mixes betas, a trial at
    beta 1 takes both groups, each on a frame of its own.  Row ``k``'s
    matrix ``A^{e/2} f(C) A^{e/2}``, ``C = A^{-e/2} B A^{-e/2}``, is
    assembled with trial ``t``'s ``f = fns[t][k]`` as
    ``chain_check_stack`` assembles terms, and compared with its closed
    form ``closed[t, k]`` on the diagonal.

    The closed forms are elementwise on the ``(T, n)`` diagonals, each
    power one ``**`` per distinct exponent and each generator one call per
    distinct object (``_rows``), bitwise each trial's own.  The means,
    ``S_ab``, ``geomean``, ``S_a`` and ``S`` are written without the
    registry generators that ``compute`` evaluates for them."""
    avals = np.diagonal(a, axis1=-2, axis2=-1).real
    bvals = np.diagonal(b, axis1=-2, axis2=-1).real
    alphas, betas, lams = ([getattr(p, name) for p in params]
                           for name in ("alpha", "beta", "lam"))
    keys = [(p.alpha, p.delta, p.lam) for p in params]
    gens = {key: _oracle_generators(*key) for key in dict.fromkeys(keys)}
    at_beta_fns, at_one_fns = zip(*(gens[key] for key in keys))
    a_beta = _rows(operator.pow, avals, betas)
    x, r = bvals / a_beta, bvals / avals
    x_alpha = _rows(operator.pow, x, alphas)
    lam = np.array(lams)[:, None]
    at_beta = [a_beta * _each([fns[k] for fns in at_beta_fns], x)
               for k in range(len(BOUND_KINDS))]
    at_beta += [a_beta * x_alpha * np.log(x), a_beta * x_alpha]
    at_one = [avals * _rows(operator.pow, r, alphas) * np.log(r),
              avals * np.log(r),
              1.0 / ((1.0 - lam) / avals + lam / bvals),
              _rows(lambda v, l: v ** (1.0 - l), avals, lams)
              * _rows(operator.pow, bvals, lams),
              (1.0 - lam) * avals + lam * bvals]
    rows = [(betas, _AT_BETA_ROWS, at_beta_fns, at_beta),
            ([1.0] * len(params), _AT_ONE_ROWS, at_one_fns, at_one)]
    if all(beta == 1.0 for beta in betas):
        rows = [(betas, _AT_BETA_ROWS + _AT_ONE_ROWS,
                 [f + g for f, g in zip(at_beta_fns, at_one_fns)],
                 at_beta + at_one)]
    # (K, T, n) read as (T, K, n): the deviation is exact in any layout
    return [(exponents, names, fns, np.array(closed).swapaxes(0, 1))
            for exponents, names, fns, closed in rows]


def _oracle_deviation(terms: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """``max |term - diag(expected)| / max(1, max |expected|)`` for each
    matrix of a ``(T, K, n, n)`` stack and its ``(T, K, n)`` closed forms.
    Off the diagonal ``|term - 0|`` is ``|term|``, so no second complex
    stack is built."""
    diag = range(terms.shape[-1])
    dev = np.abs(terms)
    dev[..., diag, diag] = np.abs(terms[..., diag, diag] - expected)
    return dev.max(axis=(-2, -1)) / np.maximum(
        1.0, np.abs(expected).max(axis=-1))


def _admit_lam(params: ChainParams) -> ChainParams:
    """``params`` unchanged, once ``prop-means``'s ``resolve`` admits its
    lambda."""
    SUITES["prop-means"].resolve(params)
    return params


def _oracle_check(cfg: RunConfig, trials) -> list:
    """Check ``trials`` as one ``_by_dim`` stack per dim, as ``verify``
    draws them; one record per trial, in order.

    Each stack is drawn by one ``random_diag_pair_stack`` call and gets
    one ``Frame`` of its A's per ``_oracle_table`` group, ``t^beta`` then
    ``t^1`` (one frame when every beta is 1), both from one decomposition
    of A, and one ``Frame.assemble`` call on each, on the stacked rows as
    they are; the records are bitwise those of checking each trial alone,
    as every stage acts on each trial's rows alone.  The mean rows are
    ``prop-means``'s terms, so that suite's ``resolve`` admits each
    trial's lambda; the records keep the parameters as decoded.
    """
    records = {}
    for gcfg, group, params in _by_dim(cfg, trials, _admit_lam):
        a, b = random_diag_pair_stack(gcfg, group)
        devs: list[dict[str, float]] = [{} for _ in group]
        # one frame stack and one assembly per h = t^e: t^beta, then t^1,
        # both from one decomposition of the A stack
        frame = None
        for exponents, names, fns, closed in _oracle_table(params, a, b):
            frame = Frame(a, exponents) if frame is None else frame.at(
                exponents)
            dev = _oracle_deviation(
                frame.assemble(b, fns, "the whitened B"), closed)
            for d, row in zip(devs, dev.tolist()):
                d.update(zip(names, row))
        for trial, p, d in zip(group, params, devs):
            records[trial] = {
                "trial_seed": trial,
                "params": {**p.to_json_dict(), "dim": gcfg.dim},
                "max_rel_dev": max(d.values()),
                "deviations": d,
            }
    return [records[trial] for trial in trials]


def _oracle_trial(cfg: RunConfig, trial: int) -> dict:
    """Check trial ``trial`` alone: ``_oracle_check`` on a chunk of one."""
    return _oracle_check(cfg, [trial])[0]


def _reference_table() -> dict:
    # scalar bound values at a=1, b=4, alpha=0, beta=1 (x = 4)
    table = {}
    for kind in ("I", "II", "S", "III", "V"):
        table[kind] = float(scalar_generator(kind, alpha=0.0)(np.array([4.0]))[0])
    return {"a": 1.0, "b": 4.0, "alpha": 0.0, "beta": 1.0, "terms": table}


def oracle_compare(cfg: RunConfig) -> dict:
    """Diagonal-pair oracle: matrix path vs scalar closed forms.

    Each ``_chunked`` chunk of consecutive trials is checked as
    ``_oracle_check`` stacks, and a failing chunk is rerun one trial at a
    time, as ``verify`` does.
    """
    trials = _chunked(cfg, _oracle_check, _oracle_trial)
    max_dev = max((t["max_rel_dev"] for t in trials), default=0.0)
    return {
        "tool_version": __version__,
        "config": cfg.to_json_dict(),
        "summary": {
            "trials": cfg.trials,
            "max_rel_dev": max_dev,
            "contract": ORACLE_CONTRACT,
            "all_pass": max_dev <= ORACLE_CONTRACT,
        },
        "reference_table": _reference_table(),
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# compute

COMPUTE_EXPRS = ("S", "S_a", "S_ab", "geomean", "means",
                 "perspective") + BOUND_KINDS


def _compute(args) -> dict:
    alpha, beta = args.alpha_f, args.beta_f
    flags = {"alpha": alpha, "beta": beta, "delta": args.delta_f,
             "lam": args.lam_f}
    for flag, value in flags.items():
        _check_finite(f"--{flag}", value)
    a = load_matrix(args.A)
    b = load_matrix(args.B)
    if args.expr == "means":
        # prop-means's terms at the parameters it resolves, so a failing
        # prop-means trial replays through compute on the checker's bits
        spec = SUITES["prop-means"]
        p = dataclasses.asdict(spec.resolve(ChainParams(**flags)))
        return {kind: matrix_to_obj(bound(kind, a, b, **p))
                for kind in spec.terms}
    if args.expr == "perspective" and args.f is None:
        raise OperatorError("--expr perspective needs --f KIND "
                            "(a registry generator; h is t**beta)")
    # each expression's registry generator and the flags it reads; a flag
    # it does not read keeps bound()'s default, so that --delta 0, which
    # scalar_generator rejects, is no error where delta is not read
    kind, read = {
        "S": ("S", {}),
        "S_a": ("S", {"alpha": alpha}),
        "S_ab": ("S", {"alpha": alpha, "beta": beta}),
        "geomean": ("geometric", {"beta": beta, "lam": alpha}),
        "perspective": (args.f, flags),
    }.get(args.expr, (args.expr, flags))
    return matrix_to_obj(bound(kind, a, b, **read))


# ---------------------------------------------------------------------------
# wiring

def _emit(payload: dict, out_path: str | None) -> None:
    text = json_text(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_verify_summary(report: dict) -> None:
    s = report["summary"]
    print(f"suite {s['suite']}: {s['passed']}/{s['trials']} trials pass "
          f"(tol {report['config']['tol']:.0e})")
    if "note" in s:
        print(f"  note: {s['note']}")
    for key in sorted(s["worst_margins"]):
        print(f"  worst {key:<32s} {s['worst_margins'][key]:+.6e}")


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim", default="4",
                   help="dimension list: '4', '1-8', or '2,4,8'")
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (explicit; no environment fallback)")
    p.add_argument("--spec-lo", type=float, default=0.1, dest="spec_lo")
    p.add_argument("--spec-hi", type=float, default=10.0, dest="spec_hi")
    p.add_argument("--alpha", default="0")
    p.add_argument("--beta", default="1")
    p.add_argument("--delta", default="1")
    p.add_argument("--lam", "--lambda", default="0.5", dest="lam")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored; trials always run serially")
    p.add_argument("--out", default=None, help="write the JSON report here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``opentropy`` parser, built once per process; ``parse_args``
    does not mutate it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="opentropy",
        description="Verify operator entropy inequality chains in the "
                    "Loewner order on random positive definite matrices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an inequality suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_LOEWNER_TOL)
    _add_gen_flags(p_verify)

    p_compute = sub.add_parser("compute", help="evaluate one expression")
    p_compute.add_argument("--expr", required=True, choices=COMPUTE_EXPRS)
    p_compute.add_argument("--A", required=True, help="matrix file")
    p_compute.add_argument("--B", required=True, help="matrix file")
    p_compute.add_argument("--alpha", type=float, default=0.0, dest="alpha_f")
    p_compute.add_argument("--beta", type=float, default=1.0, dest="beta_f")
    p_compute.add_argument("--delta", type=float, default=1.0, dest="delta_f")
    p_compute.add_argument("--lam", "--lambda", type=float, default=0.5,
                           dest="lam_f")
    p_compute.add_argument("--f", default=None,
                           help="generator kind for --expr perspective")
    p_compute.add_argument("--out", default=None)

    p_hh = sub.add_parser("hh", help="refined Hermite-Hadamard record")
    p_hh.add_argument("--alpha", type=float, required=True)
    p_hh.add_argument("--x", type=float, required=True)
    p_hh.add_argument("--grid", type=int, default=1001)
    p_hh.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="diagonal scalar-oracle check")
    _add_gen_flags(p_oracle)

    return parser


# an overflowing generator, or a division by an underflowed value, makes
# inf or nan, which the finiteness check of every computed result turns
# into one error line; numpy's warnings about the same values would only
# repeat it on stderr, with source paths
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else int(code)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args, args.suite, args.tol)
            report = run_suite(cfg)
            _print_verify_summary(report)
            if args.out:
                _emit(report, args.out)
            return EXIT_OK if report["summary"]["all_pass"] else EXIT_FAIL
        if args.command == "compute":
            payload = _compute(args)
            _emit(payload, args.out)
            return EXIT_OK
        if args.command == "hh":
            rec = hh_record(args.alpha, args.x)
            verdict = grid_verify(args.alpha, args.x, args.grid)
            payload = {"record": rec.to_json_dict(),
                       "grid": verdict.to_json_dict()}
            _emit(payload, args.out)
            return EXIT_OK if verdict.passed else EXIT_FAIL
        if args.command == "oracle":
            cfg = _config_from_args(args)
            report = oracle_compare(cfg)
            s = report["summary"]
            print(f"oracle: {s['trials']} diagonal trials, max relative "
                  f"deviation {s['max_rel_dev']:.3e} "
                  f"(contract {s['contract']:.0e})")
            if args.out:
                _emit(report, args.out)
            return EXIT_OK if s["all_pass"] else EXIT_FAIL
    except OperatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    sys.exit(main())
