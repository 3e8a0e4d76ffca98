"""Scalar-function registry, bound operators, and inequality-chain suites.

Each bound operator is the perspective of one scalar generator against
``h(t) = t^beta``; the registry below is the single source of truth for
those generators, the relative entropy ``S`` and the geometric mean
``geometric`` included (``entropy.rel_entropy_alpha_beta`` and
``entropy.geo_mean`` are ``bound`` of them).  A suite is data: an ordered
list of term labels, the index pairs to compare, and a dominance
hypothesis.  One checker walks any suite link by link in the Loewner
order.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .matcore import (
    DEFAULT_LOEWNER_TOL,
    EigenPair,
    OperatorError,
    SymMatrix,
    _admit,
    _fro,
    _loewner,
)
from .matio import matrix_to_obj
from .perspective import Frame, _rows, perspective


class HypothesisError(OperatorError):
    """A suite precondition failed; distinct from a chain-link failure."""


# ---------------------------------------------------------------------------
# scalar generator registry

def _g_i(x, a, d, l):
    return 2.0 * (1.0 - 2.0 / (x + 1.0)) * np.power(x, a)


def _g_ii(x, a, d, l):
    return 4.0 * np.power(x, a) - 8.0 * np.power(x, a) / (np.sqrt(x) + 1.0)


def _g_s(x, a, d, l):
    return np.power(x, a) * np.log(x)


def _g_iii(x, a, d, l):
    return np.power(x, a) * (x - 1.0) / np.sqrt(x)


def _g_v(x, a, d, l):
    return 0.5 * (np.power(x, a + 1.0) - np.power(x, a - 1.0))


def _g_i_primed(x, a, d, l):
    return (np.log(d) + 2.0 * (1.0 - 2.0 * d / (x + d))) * np.power(x, a)


def _g_ii_primed(x, a, d, l):
    return (np.log(d) + 4.0
            - 8.0 * np.sqrt(d) / (np.sqrt(x) + np.sqrt(d))) * np.power(x, a)


def _g_iii_primed(x, a, d, l):
    return (np.power(x, a + 0.5) / np.sqrt(d)
            - np.sqrt(d) * np.power(x, a - 0.5)
            + np.power(x, a) * np.log(d))


def _g_v_primed(x, a, d, l):
    return (np.power(x, a + 1.0) / (2.0 * d)
            - 0.5 * d * np.power(x, a - 1.0)
            + np.power(x, a) * np.log(d))


def _g_lower_shift(x, a, d, l):
    return np.power(x, a) - np.power(x, a - 1.0)


def _g_upper_shift(x, a, d, l):
    return np.power(x, a + 1.0) - np.power(x, a)


def _g_base_lower(x, a, d, l):
    return 1.0 - 1.0 / x


def _g_harmonic(x, a, d, l):
    return 1.0 / ((1.0 - l) + l / x)


def _g_geometric(x, a, d, l):
    return np.power(x, l)


def _g_arithmetic(x, a, d, l):
    return (1.0 - l) + l * x


_GENERATORS = {
    "I": _g_i,
    "II": _g_ii,
    "S": _g_s,
    "III": _g_iii,
    "V": _g_v,
    "I'": _g_i_primed,
    "II'": _g_ii_primed,
    "III'": _g_iii_primed,
    "V'": _g_v_primed,
    "lower_shift": _g_lower_shift,
    "upper_shift": _g_upper_shift,
    "base_lower": _g_base_lower,
    "harmonic": _g_harmonic,
    "geometric": _g_geometric,
    "arithmetic": _g_arithmetic,
}

# the label "IV" is intentionally absent; the roman names follow the
# literature these bounds come from, which skips it
BOUND_KINDS = ("I", "II", "III", "V", "I'", "II'", "III'", "V'",
               "lower_shift", "upper_shift", "base_lower")


@dataclasses.dataclass(frozen=True)
class ScalarFn:
    """A named scalar generator on (0, inf), parameterized by the suite
    parameters.  Vectorized."""

    kind: str
    alpha: float = 0.0
    delta: float = 1.0
    lam: float = 0.5

    @property
    def name(self) -> str:
        return self.kind

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return _GENERATORS[self.kind](x, self.alpha, self.delta, self.lam)


def scalar_generator(kind: str, alpha: float = 0.0, delta: float = 1.0,
                     lam: float = 0.5) -> ScalarFn:
    """Look up a generator by kind name; total over the registry."""
    if kind not in _GENERATORS:
        raise OperatorError(
            f"unknown bound kind {kind!r}; expected one of "
            f"{sorted(_GENERATORS)}")
    if not delta > 0.0:
        raise OperatorError(f"delta must be positive, got {delta!r}")
    return ScalarFn(kind=kind, alpha=alpha, delta=delta, lam=lam)


def bound(kind: str, a: SymMatrix, b: SymMatrix, alpha: float = 0.0,
          beta: float = 1.0, delta: float = 1.0,
          lam: float = 0.5) -> SymMatrix:
    """Evaluate a bound operator as the perspective of its generator.

    ``bound(kind, A, B, ...) = A^{beta/2} g(A^{-beta/2} B A^{-beta/2})
    A^{beta/2}`` for the registry generator ``g``; domain errors from
    non-positive inputs propagate from the perspective.
    """
    g = scalar_generator(kind, alpha=alpha, delta=delta, lam=lam)
    return perspective(g, b, a, beta)


# ---------------------------------------------------------------------------
# chain suites

@dataclasses.dataclass(frozen=True)
class ChainParams:
    """Suite parameters; ``lam`` serializes under the key "lambda"."""

    alpha: float = 0.0
    beta: float = 1.0
    delta: float = 1.0
    lam: float = 0.5

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta,
                "delta": self.delta, "lambda": self.lam}


@dataclasses.dataclass(frozen=True)
class SuiteSpec:
    """An inequality suite: labeled terms, links to compare, hypothesis."""

    name: str
    terms: tuple[str, ...]
    links: tuple[tuple[int, int], ...]
    relation: str          # "dominating" (delta*A^beta <= B), "dominated", "none"
    delta_mode: str        # "fixed1", "ge1", "le1"
    fixed_alpha: float | None = None
    fixed_beta: float | None = None
    uses_lambda: bool = False

    def effective(self, params: ChainParams) -> ChainParams:
        alpha = self.fixed_alpha if self.fixed_alpha is not None else params.alpha
        beta = self.fixed_beta if self.fixed_beta is not None else params.beta
        delta = 1.0 if self.delta_mode == "fixed1" else params.delta
        return ChainParams(alpha=alpha, beta=beta, delta=delta, lam=params.lam)


def _adjacent(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


SUITES: dict[str, SuiteSpec] = {s.name: s for s in (
    SuiteSpec("thm-main1", ("I", "II", "S", "III", "V"), _adjacent(5),
              "dominating", "fixed1"),
    SuiteSpec("thm-main2", ("V", "III", "S", "II", "I"), _adjacent(5),
              "dominated", "fixed1"),
    SuiteSpec("prop-bounds",
              ("base_lower", "lower_shift", "I", "V", "upper_shift"),
              ((1, 2), (2, 4), (1, 3), (3, 4), (0, 1)),
              "none", "fixed1"),
    SuiteSpec("prop-means", ("harmonic", "geometric", "arithmetic"),
              _adjacent(3), "none", "fixed1",
              fixed_alpha=0.0, fixed_beta=1.0, uses_lambda=True),
    SuiteSpec("cor-entropy-le",
              ("lower_shift", "I", "II", "S", "III", "V", "upper_shift"),
              _adjacent(7), "dominating", "fixed1",
              fixed_alpha=0.0, fixed_beta=1.0),
    SuiteSpec("cor-entropy-ge",
              ("lower_shift", "V", "III", "S", "II", "I", "upper_shift"),
              _adjacent(7), "dominated", "fixed1",
              fixed_alpha=0.0, fixed_beta=1.0),
    SuiteSpec("thm-primed-le", ("I'", "II'", "S", "III'", "V'"), _adjacent(5),
              "dominating", "ge1"),
    SuiteSpec("thm-primed-ge", ("V'", "III'", "S", "II'", "I'"), _adjacent(5),
              "dominated", "le1"),
    SuiteSpec("prop-tighten", ("II", "II'", "III'", "III"),
              ((0, 1), (2, 3)), "dominating", "ge1"),
    SuiteSpec("prop-tighten-ge", ("II'", "II", "III", "III'"),
              ((0, 1), (2, 3)), "dominated", "le1"),
    SuiteSpec("cor-delta-le",
              ("lower_shift", "I", "I'", "II'", "S", "III'", "V'", "V",
               "upper_shift"),
              _adjacent(9), "dominating", "ge1",
              fixed_alpha=0.0, fixed_beta=1.0),
    SuiteSpec("cor-delta-ge",
              ("lower_shift", "V", "V'", "III'", "S", "II'", "I'", "I",
               "upper_shift"),
              _adjacent(9), "dominated", "le1",
              fixed_alpha=0.0, fixed_beta=1.0),
)}

SUITE_NAMES = tuple(SUITES)


@dataclasses.dataclass
class LinkMargin:
    lhs: str
    rhs: str
    margin: float
    holds: bool

    def to_json_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


@dataclasses.dataclass
class ChainReport:
    """Per-trial outcome of one suite: the signed margin of every link."""

    suite: str
    trial_seed: int
    params: ChainParams
    links: list[LinkMargin]
    verdict: str
    matrices: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "trial_seed": self.trial_seed,
            "params": self.params.to_json_dict(),
            "links": [link.to_json_dict() for link in self.links],
            "verdict": self.verdict,
        }
        if self.matrices is not None:
            out["matrices"] = self.matrices
        return out


def _validate_params(spec: SuiteSpec, p: ChainParams) -> None:
    if spec.uses_lambda:
        if not 0.0 <= p.lam <= 1.0:
            raise HypothesisError(
                f"suite {spec.name}: lambda must lie in [0, 1], got {p.lam!r}")
        return
    if p.alpha < 0.0:
        raise HypothesisError(
            f"suite {spec.name}: requires alpha >= 0, got {p.alpha!r}")
    if p.beta <= 0.0:
        raise HypothesisError(
            f"suite {spec.name}: requires beta > 0, got {p.beta!r}")
    if spec.delta_mode == "ge1" and p.delta < 1.0:
        raise HypothesisError(
            f"suite {spec.name}: requires delta >= 1, got {p.delta!r}")
    if spec.delta_mode == "le1" and not 0.0 < p.delta <= 1.0:
        raise HypothesisError(
            f"suite {spec.name}: requires 0 < delta <= 1, got {p.delta!r}")


def _relation_margin(pair: EigenPair, b: np.ndarray, betas, deltas,
                     relation: str) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's dominance hypothesis as ``loewner_leq`` measures it:
    the ``matcore._loewner`` margin and scale of ``delta A^beta <= B``
    (``dominating``) or of ``B <= delta A^beta`` (``dominated``).
    ``pair`` is ``A``'s, from its ``Frame``."""
    power = _admit(pair.rebuild(_rows(np.power, pair.eigenvalues, betas)))
    a_beta = _admit(_rows(lambda m, delta: m * float(delta), power, deltas))
    lhs, rhs = (a_beta, b) if relation == "dominating" else (b, a_beta)
    return _loewner(rhs - lhs, _fro(lhs), _fro(rhs))


def _check_relation(spec: SuiteSpec, params: list[ChainParams], tol: float,
                    margin: np.ndarray, scale: np.ndarray) -> None:
    """The dominance hypothesis at the suite tolerance, from the margins
    and scales of ``_relation_margin``."""
    fails = ~(margin >= -tol * scale)
    if fails.any():
        trial = int(np.argmax(fails))
        p = params[trial]
        if spec.relation == "dominating":
            stated = f"delta*A^beta <= B (delta={p.delta}, beta={p.beta})"
        else:
            stated = f"B <= delta*A^beta (delta={p.delta}, beta={p.beta})"
        raise HypothesisError(
            f"suite {spec.name}: hypothesis {stated} fails with margin "
            f"{float(margin[trial]):.6e} (tolerance {tol:.0e} * "
            f"{float(scale[trial]):.3e})")


def _terms(spec: SuiteSpec, params: list[ChainParams], frame: Frame,
           b: np.ndarray) -> np.ndarray:
    """Every term ``A^{beta/2} g_k(C) A^{beta/2}`` as a ``(T, K, n, n)``
    stack: ``Frame.assemble`` of each trial's suite generators."""
    gens: dict[ChainParams, list[ScalarFn]] = {}
    for p in params:
        if p not in gens:
            gens[p] = [scalar_generator(label, alpha=p.alpha, delta=p.delta,
                                        lam=p.lam) for label in spec.terms]
    return frame.assemble(b, [gens[p] for p in params],
                          f"the whitened B of suite {spec.name}, which must "
                          f"be strictly positive")


def _links(spec: SuiteSpec, terms: np.ndarray, tol: float):
    """Margin and verdict of every link, from one ``(T, L, n, n)`` stack.

    All link differences are checked for finiteness before any is
    decomposed, so a trial whose link 0 fails to converge while a later
    link is not finite fails on the finiteness check.
    """
    left, right = map(list, zip(*spec.links))
    fro = _fro(terms)
    margin, scale = _loewner(terms[:, right] - terms[:, left],
                             fro[:, left], fro[:, right])
    return margin, margin >= -tol * scale


def chain_check_stack(suite: str | SuiteSpec, a: np.ndarray, b: np.ndarray,
                      params: list[ChainParams], tol: float,
                      trial_seeds: list[int], frame=None,
                      hypothesis=None) -> list[ChainReport]:
    """Check one suite on a stack of trials, each stage on all at once.

    ``a[t]``, ``b[t]``, ``params[t]`` and ``trial_seeds[t]`` are trial
    ``t``'s inputs; ``a`` and ``b`` are ``(T, n, n)`` arrays of one dtype,
    each matrix self-adjoint as ``SymMatrix`` stores it.  Each stage runs
    as stacked ``eigh``/``eigvalsh``/``matmul`` calls, and each trial's
    results are bitwise those of ``chain_check`` on that trial alone.

    A caller that has already decomposed ``A`` passes ``frame``, the
    ``Frame`` of ``a`` at each trial's effective beta, and, for a suite
    with a dominance hypothesis, ``hypothesis``, the ``_relation_margin``
    of the stack; ``gen.random_partner_stack`` returns both.  They are
    computed here otherwise.

    Returns one report per trial, or raises the first failure of the
    first stage that fails.  Each stage checks every trial at once and
    raises the first failure it finds in ``chain_check`` order: lowest
    trial, then position, then array.  On a stack of one that is exactly
    the error ``chain_check`` raises; a longer stack may fail at an
    earlier stage on a later trial, so callers that must blame the lowest
    failing trial check the trials again one at a time.
    """
    spec = SUITES[suite] if isinstance(suite, str) else suite
    effective = []
    for p in params:
        p = spec.effective(p)
        _validate_params(spec, p)
        effective.append(p)
    betas = [p.beta for p in effective]
    frame = frame or Frame(a, betas)
    if spec.relation != "none":
        _check_relation(spec, effective, tol, *(hypothesis or _relation_margin(
            frame.pair, b, betas, [p.delta for p in effective],
            spec.relation)))
    margins, holds = _links(spec, _terms(spec, effective, frame, b), tol)

    reports = []
    for trial, p in enumerate(effective):
        links = [LinkMargin(lhs=spec.terms[i], rhs=spec.terms[j],
                            margin=float(margins[trial, k]),
                            holds=bool(holds[trial, k]))
                 for k, (i, j) in enumerate(spec.links)]
        ok = all(link.holds for link in links)
        report = ChainReport(suite=spec.name, trial_seed=trial_seeds[trial],
                             params=p, links=links,
                             verdict="pass" if ok else "fail")
        if not ok:
            report.matrices = {
                "A": matrix_to_obj(SymMatrix._computed(a[trial])),
                "B": matrix_to_obj(SymMatrix._computed(b[trial]))}
        reports.append(report)
    return reports


def chain_check(suite: str | SuiteSpec, a: SymMatrix, b: SymMatrix,
                params: ChainParams | None = None,
                tol: float = DEFAULT_LOEWNER_TOL,
                trial_seed: int = 0) -> ChainReport:
    """Verify one suite on one pair ``(A, B)`` and report every margin.

    The suite hypothesis (parameter constraints plus the dominance
    relation, whose smallest-eigenvalue margin must reach ``-tol`` times
    the scale, as for the links) is a precondition: violations raise
    ``HypothesisError`` instead of producing a failing report.  Failing
    reports embed the inputs so the trial can be replayed from the report
    alone.  This is ``chain_check_stack`` on a stack of one.
    """
    a._same_shape(b)
    return chain_check_stack(suite, a.data[None], b.data[None],
                             [params or ChainParams()], tol, [trial_seed])[0]
