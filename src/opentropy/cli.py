"""Command-line harness: generate instances, run suites, cross-check oracles.

Commands
--------
verify   run an inequality suite on random hypothesis-satisfying instances
compute  evaluate one operator expression on matrices from files
hh       emit the refined Hermite-Hadamard record and its grid verdict
oracle   compare the matrix pipeline against scalar closed forms on
         simultaneously diagonal inputs

Exit status: 0 when every check passes, 1 on a chain/oracle failure, 2 on
usage or domain errors.  Reports are byte-reproducible for fixed flags;
seeds are explicit flags only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .bounds import (
    BOUND_KINDS,
    SUITE_NAMES,
    SUITES,
    ChainParams,
    bound,
    bound_spec,
    chain_check,
    chain_check_stack,
    scalar_generator,
)
from .entropy import (
    geo_mean,
    geo_mean_spec,
    rel_entropy,
    rel_entropy_alpha,
    rel_entropy_alpha_beta,
    rel_entropy_spec,
    weighted_means,
)
from .gen import GenConfig, random_diag_pair, random_partner, random_spd
from .hermite import grid_verify, hh_record
from .matcore import DEFAULT_LOEWNER_TOL, OperatorError
from .matio import load_matrix, matrix_to_obj
from .perspective import Whitening

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

ORACLE_CONTRACT = 1e-10
# trials per stacked check; bounds the (T, K, n, n) term stacks at dim 32
CHUNK_TRIALS = 64


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
            dims.extend(range(lo, hi + 1))
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
        if self.trials < 0:
            raise OperatorError(
                f"trials must be nonnegative, got {self.trials!r}")
        for name in ("tol", "spectrum_lo", "spectrum_hi", "alphas", "betas",
                     "deltas", "lams"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise OperatorError(f"{name} must be finite, got {value!r}")
        for dim in self.dims:
            self._gen_config(dim)

    def _gen_config(self, dim: int) -> GenConfig:
        return GenConfig(dim, self.field, spectrum_lo=self.spectrum_lo,
                         spectrum_hi=self.spectrum_hi, master_seed=self.seed)

    def decode(self, k: int) -> tuple[GenConfig, ChainParams]:
        """Trial ``k``'s inputs: item ``k % n`` of ``itertools.product(dims,
        alphas, betas, deltas, lams)``, read in mixed radix, last fastest."""
        picks = []
        for axis in (self.lams, self.deltas, self.betas, self.alphas,
                     self.dims):
            k, digit = divmod(k, len(axis))
            picks.append(axis[digit])
        lam, delta, beta, alpha, dim = picks
        return self._gen_config(dim), ChainParams(alpha, beta, delta, lam)

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("dims", "alphas", "betas", "deltas", "lams"):
            out[key] = list(out[key])
        return out


def _config_from_args(args, suite: str = "") -> RunConfig:
    return RunConfig(
        suite=suite,
        trials=args.trials,
        tol=args.tol,
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


def _run_trial(cfg: RunConfig, trial: int):
    """Draw trial ``trial``'s pair ``(A, B)`` on its own Philox streams."""
    spec = SUITES[cfg.suite]
    gcfg, params = cfg.decode(trial)
    eff = spec.effective(params)
    a = random_spd(gcfg, trial)
    if spec.relation == "none":
        b = random_spd(gcfg, trial, salt=1)
    else:
        b = random_partner(a, eff.beta, eff.delta, spec.relation, gcfg, trial)
    return a, b, params


def _check_chunk(cfg: RunConfig, trials: range) -> list:
    """Draw ``trials`` one at a time, then check them in one stacked
    ``chain_check_stack`` call per dim.  When anything fails, draw and
    check the trials again one at a time and raise the first error, the
    one the serial loop meets: that of the lowest failing trial."""
    try:
        drawn = {trial: _run_trial(cfg, trial) for trial in trials}
        by_dim: dict[int, list[int]] = {}
        for trial, (a, _, _) in drawn.items():
            by_dim.setdefault(a.dim, []).append(trial)
        reports = {}
        for group in by_dim.values():
            reports.update(zip(group, chain_check_stack(
                cfg.suite, [drawn[t][:2] for t in group],
                [drawn[t][2] for t in group], cfg.tol, group)))
        return [reports[t] for t in trials]
    except OperatorError:
        for trial in trials:
            a, b, params = _run_trial(cfg, trial)
            chain_check(cfg.suite, a, b, params, cfg.tol, trial)
        raise


def run_suite(cfg: RunConfig) -> dict:
    """Run ``cfg.trials`` instances through one suite; aggregate a report.

    Each trial is drawn alone, a pure function of ``(seed, trial index)``;
    every ``CHUNK_TRIALS`` consecutive trials are then checked as stacked
    per-dim batches, which give the same bits as checking them one at a
    time.  The report is byte-identical for fixed flags on one build.
    """
    reports = []
    for start in range(0, cfg.trials, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, cfg.trials)
        reports.extend(_check_chunk(cfg, range(start, stop)))

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

_ORACLE_ENTROPIES = ("S", "S_a", "S_ab", "geomean")


def _scalar_means(a: float, b: float, lam: float):
    return (1.0 / ((1.0 - lam) / a + lam / b),
            a ** (1.0 - lam) * b ** lam,
            (1.0 - lam) * a + lam * b)


def _oracle_deviation(mat, expected: np.ndarray) -> float:
    diff = np.max(np.abs(mat.data - np.diag(expected).astype(mat.data.dtype)))
    return float(diff / max(1.0, float(np.max(np.abs(expected)))))


def _oracle_trial(cfg: RunConfig, trial: int) -> dict:
    gcfg, p = cfg.decode(trial)
    alpha, beta, delta, lam = p.alpha, p.beta, p.delta, p.lam
    if 0.0 < delta < 1.0:
        delta = 1.0 / delta  # primed generators only need delta > 0
    a, b = random_diag_pair(gcfg, trial)
    avals = np.diagonal(a.data).real
    bvals = np.diagonal(b.data).real
    x = bvals / avals ** beta
    # one whitening of (A, B) per h = t^e, built at its first use so the
    # first failing step is the one the per-call functions would fail at
    whitenings: dict[float, Whitening] = {}

    def whitened(spec, exponent: float):
        if exponent not in whitenings:
            whitenings[exponent] = Whitening(spec.h, b, a)
        return whitenings[exponent].apply(spec)

    devs: dict[str, float] = {}
    for kind in BOUND_KINDS:
        spec = bound_spec(kind, alpha, beta, delta, lam)
        expected = avals ** beta * spec.f(x)
        devs[kind] = _oracle_deviation(whitened(spec, beta), expected)
    devs["S_ab"] = _oracle_deviation(
        whitened(rel_entropy_spec(alpha, beta), beta),
        avals ** beta * scalar_generator("S", alpha=alpha)(x))
    devs["S_a"] = _oracle_deviation(
        whitened(rel_entropy_spec(alpha, 1.0), 1.0),
        avals * scalar_generator("S", alpha=alpha)(bvals / avals))
    devs["S"] = _oracle_deviation(whitened(rel_entropy_spec(0.0, 1.0), 1.0),
                                  avals * np.log(bvals / avals))
    devs["geomean"] = _oracle_deviation(
        whitened(geo_mean_spec(alpha, beta), beta),
        avals ** beta * x ** alpha)
    har, geo, ari = weighted_means(a, b, lam)
    eh, eg, ea = _scalar_means(avals, bvals, lam)
    devs["harmonic_mean"] = _oracle_deviation(har, eh)
    devs["geometric_mean"] = _oracle_deviation(geo, eg)
    devs["arithmetic_mean"] = _oracle_deviation(ari, ea)
    return {
        "trial_seed": trial,
        "params": {"alpha": alpha, "beta": beta, "delta": delta,
                   "lambda": lam, "dim": gcfg.dim},
        "max_rel_dev": max(devs.values()),
        "deviations": devs,
    }


def _reference_table() -> dict:
    # scalar bound values at a=1, b=4, alpha=0, beta=1 (x = 4)
    table = {}
    for kind in ("I", "II", "S", "III", "V"):
        table[kind] = float(scalar_generator(kind, alpha=0.0)(np.array([4.0]))[0])
    return {"a": 1.0, "b": 4.0, "alpha": 0.0, "beta": 1.0, "terms": table}


def oracle_compare(cfg: RunConfig) -> dict:
    """Diagonal-pair oracle: matrix path vs scalar closed forms."""
    trials = [_oracle_trial(cfg, t) for t in range(cfg.trials)]
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
    for flag in ("alpha", "beta", "delta", "lam"):
        value = getattr(args, f"{flag}_f")
        if not np.isfinite(value):
            raise OperatorError(f"--{flag} must be finite, got {value!r}")
    a = load_matrix(args.A)
    b = load_matrix(args.B)
    alpha, beta = args.alpha_f, args.beta_f
    delta, lam = args.delta_f, args.lam_f
    expr = args.expr
    if expr == "S":
        return matrix_to_obj(rel_entropy(a, b))
    if expr == "S_a":
        return matrix_to_obj(rel_entropy_alpha(a, b, alpha))
    if expr == "S_ab":
        return matrix_to_obj(rel_entropy_alpha_beta(a, b, alpha, beta))
    if expr == "geomean":
        return matrix_to_obj(geo_mean(a, b, alpha, beta))
    if expr == "means":
        har, geo, ari = weighted_means(a, b, lam)
        return {"harmonic": matrix_to_obj(har), "geometric": matrix_to_obj(geo),
                "arithmetic": matrix_to_obj(ari)}
    if expr == "perspective":
        if args.f is None:
            raise OperatorError("--expr perspective needs --f KIND "
                                "(a registry generator; h is t**beta)")
        return matrix_to_obj(bound(args.f, a, b, alpha=alpha, beta=beta,
                                   delta=delta, lam=lam))
    return matrix_to_obj(bound(expr, a, b, alpha=alpha, beta=beta,
                               delta=delta, lam=lam))


# ---------------------------------------------------------------------------
# wiring

def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
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
    p.add_argument("--tol", type=float, default=DEFAULT_LOEWNER_TOL)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else int(code)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args, suite=args.suite)
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
