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
import functools

import numpy as np

from .matcore import (
    DEFAULT_LOEWNER_TOL,
    EigenPair,
    OperatorError,
    SymMatrix,
    _admit,
    _check_finite,
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

# the parameters each generator reads; beta enters only through the
# congruence, so a generator is one function per value of these
_READS = {**dict.fromkeys(("I", "II", "S", "III", "V", "lower_shift",
                           "upper_shift"), ("alpha",)),
          **dict.fromkeys(("I'", "II'", "III'", "V'"), ("alpha", "delta")),
          "base_lower": (),
          **dict.fromkeys(("harmonic", "geometric", "arithmetic"), ("lam",))}

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


@functools.lru_cache(maxsize=1024)
def _shared(kind: str, alpha: float, delta: float, lam: float) -> ScalarFn:
    return ScalarFn(kind, alpha, delta, lam)


def scalar_generator(kind: str, alpha: float = 0.0, delta: float = 1.0,
                     lam: float = 0.5) -> ScalarFn:
    """Look up a generator by kind name; total over the registry.

    The parameters ``kind`` does not read rest at ``ScalarFn``'s defaults,
    and calls for the same kind and values read return one shared object,
    kept in a bounded cache across calls, so that ``Frame.assemble``
    evaluates it once on every matrix that uses it.  An object the cache
    has dropped is built anew, equal and with the same values, so sharing
    saves work and never changes bits.  Every delta is checked, read or
    not."""
    if kind not in _GENERATORS:
        raise OperatorError(
            f"unknown bound kind {kind!r}; expected one of "
            f"{sorted(_GENERATORS)}")
    if not delta > 0.0:
        raise OperatorError(f"delta must be positive, got {delta!r}")
    reads = _READS[kind]
    return _shared(kind, alpha if "alpha" in reads else 0.0,
                   delta if "delta" in reads else 1.0,
                   lam if "lam" in reads else 0.5)


def bound(kind: str, a: SymMatrix, b: SymMatrix, alpha: float = 0.0,
          beta: float = 1.0, delta: float = 1.0,
          lam: float = 0.5) -> SymMatrix:
    """Evaluate a bound operator as the perspective of its generator.

    ``bound(kind, A, B, ...) = A^{beta/2} g(A^{-beta/2} B A^{-beta/2})
    A^{beta/2}`` for the registry generator ``g``; domain errors from
    non-positive inputs propagate from the perspective.
    """
    a._same_shape(b)  # a mismatch names A first, as the means do
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
    """An inequality suite: labeled terms, links to compare, hypothesis,
    and ``axes``, the ``ChainParams`` fields its statement leaves free."""

    name: str
    terms: tuple[str, ...]
    links: tuple[tuple[int, int], ...]
    relation: str          # "dominating" (delta*A^beta <= B), "dominated", "none"
    axes: tuple[str, ...]  # of "alpha", "beta", "delta", "lam"

    def resolve(self, params: ChainParams) -> ChainParams:
        """The parameters the suite runs at: ``params`` with alpha 0, beta
        1 and delta 1 wherever the suite does not read them; lambda passes
        through.  A value the suite forbids raises ``HypothesisError``:
        alpha < 0, beta <= 0, lambda outside [0, 1] where it is read, and
        delta outside the range the relation sets (delta >= 1 dominating,
        0 < delta <= 1 dominated); a nan the suite reads is outside every
        range.  Resolving twice changes nothing."""
        axes = self.axes
        p = ChainParams(params.alpha if "alpha" in axes else 0.0,
                        params.beta if "beta" in axes else 1.0,
                        params.delta if "delta" in axes else 1.0,
                        params.lam)
        if "lam" in axes and not 0.0 <= p.lam <= 1.0:
            forbidden = f"lambda must lie in [0, 1], got {p.lam!r}"
        elif not p.alpha >= 0.0:
            forbidden = f"requires alpha >= 0, got {p.alpha!r}"
        elif not p.beta > 0.0:
            forbidden = f"requires beta > 0, got {p.beta!r}"
        elif self.relation == "dominating" and not p.delta >= 1.0:
            forbidden = f"requires delta >= 1, got {p.delta!r}"
        elif self.relation == "dominated" and not 0.0 < p.delta <= 1.0:
            forbidden = f"requires 0 < delta <= 1, got {p.delta!r}"
        else:
            return p
        raise HypothesisError(f"suite {self.name}: {forbidden}")


def _adjacent(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


_AB = ("alpha", "beta")
_ABD = ("alpha", "beta", "delta")
SUITES: dict[str, SuiteSpec] = {s.name: s for s in (
    SuiteSpec("thm-main1", ("I", "II", "S", "III", "V"), _adjacent(5),
              "dominating", _AB),
    SuiteSpec("thm-main2", ("V", "III", "S", "II", "I"), _adjacent(5),
              "dominated", _AB),
    SuiteSpec("prop-bounds",
              ("base_lower", "lower_shift", "I", "V", "upper_shift"),
              ((1, 2), (2, 4), (1, 3), (3, 4), (0, 1)), "none", _AB),
    SuiteSpec("prop-means", ("harmonic", "geometric", "arithmetic"),
              _adjacent(3), "none", ("lam",)),
    SuiteSpec("cor-entropy-le",
              ("lower_shift", "I", "II", "S", "III", "V", "upper_shift"),
              _adjacent(7), "dominating", ()),
    SuiteSpec("cor-entropy-ge",
              ("lower_shift", "V", "III", "S", "II", "I", "upper_shift"),
              _adjacent(7), "dominated", ()),
    SuiteSpec("thm-primed-le", ("I'", "II'", "S", "III'", "V'"), _adjacent(5),
              "dominating", _ABD),
    SuiteSpec("thm-primed-ge", ("V'", "III'", "S", "II'", "I'"), _adjacent(5),
              "dominated", _ABD),
    SuiteSpec("prop-tighten", ("II", "II'", "III'", "III"),
              ((0, 1), (2, 3)), "dominating", _ABD),
    SuiteSpec("prop-tighten-ge", ("II'", "II", "III", "III'"),
              ((0, 1), (2, 3)), "dominated", _ABD),
    SuiteSpec("cor-delta-le",
              ("lower_shift", "I", "I'", "II'", "S", "III'", "V'", "V",
               "upper_shift"),
              _adjacent(9), "dominating", ("delta",)),
    SuiteSpec("cor-delta-ge",
              ("lower_shift", "V", "V'", "III'", "S", "II'", "I'", "I",
               "upper_shift"),
              _adjacent(9), "dominated", ("delta",)),
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


def _relation_margin(pair: EigenPair, b: np.ndarray, betas, deltas,
                     relation: str) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's dominance hypothesis as ``loewner_leq`` measures it:
    the ``matcore._loewner`` margin and scale of ``delta A^beta <= B``
    (``dominating``) or of ``B <= delta A^beta`` (``dominated``).
    ``pair`` is ``A``'s, from its ``Frame``.  The powers go through
    ``_rows``, one ``np.power`` call per distinct beta on the rows that
    share it, each with its scalar exponent; the delta scaling is one
    broadcast product, bitwise the per-matrix one."""
    power = _admit(pair.rebuild(_rows(np.power, pair.eigenvalues, betas)))
    a_beta = _admit(power * np.asarray(deltas)[:, None, None])
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
    stack: ``Frame.assemble`` of each trial's suite generators, one list
    per distinct (alpha, delta, lambda), as beta enters only through the
    frame."""
    keys = [(p.alpha, p.delta, p.lam) for p in params]
    gens = {key: [scalar_generator(label, *key) for label in spec.terms]
            for key in dict.fromkeys(keys)}
    return frame.assemble(b, [gens[key] for key in keys],
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
    trial, then position, then array.  The terms stage admits the whitened
    B, then the terms in (trial, term) order; ``g_k(C)`` is never formed,
    so it is never what fails.  On a stack of one that is exactly
    the error ``chain_check`` raises; a longer stack may fail at an
    earlier stage on a later trial, so callers that must blame the lowest
    failing trial check the trials again one at a time.  A non-finite
    ``tol`` raises ``OperatorError`` before any stage; a negative one
    fails more links.
    """
    _check_finite("tol", tol)
    spec = SUITES[suite] if isinstance(suite, str) else suite
    effective = [spec.resolve(p) for p in params]
    betas = [p.beta for p in effective]
    frame = frame or Frame(a, betas)
    if spec.relation != "none":
        _check_relation(spec, effective, tol, *(hypothesis or _relation_margin(
            frame.pair, b, betas, [p.delta for p in effective],
            spec.relation)))
    margins, holds = _links(spec, _terms(spec, effective, frame, b), tol)

    reports = []
    names = [(spec.terms[i], spec.terms[j]) for i, j in spec.links]
    for trial, (p, row_margin, row_holds) in enumerate(
            zip(effective, margins.tolist(), holds.tolist())):
        links = [LinkMargin(lhs, rhs, margin, held)
                 for (lhs, rhs), margin, held in zip(names, row_margin,
                                                     row_holds)]
        ok = all(row_holds)
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
