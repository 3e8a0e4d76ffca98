"""Scalar-function registry, bound operators, and inequality-chain suites.

Each bound operator is the perspective of one scalar generator against
``h(t) = t^beta``; the registry below is the single source of truth for
those generators.  A suite is data: an ordered list of term labels, the
index pairs to compare, and a dominance hypothesis.  One checker walks any
suite link by link in the Loewner order.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .entropy import geo_mean, weighted_means
from .matcore import (
    DEFAULT_LOEWNER_TOL,
    POSITIVE,
    EigenPair,
    OperatorError,
    SymMatrix,
    _check_domain,
    _eigh,
    _fro,
    _nonfinite,
    _power,
    _resym,
    apply_fn,
    mat_pow,
)
from .perspective import PerspectiveSpec, PowerFrame, perspective


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
    parameters.  Vectorized; ``domain`` feeds the functional-calculus
    domain checks."""

    kind: str
    alpha: float = 0.0
    delta: float = 1.0
    lam: float = 0.5

    domain = POSITIVE

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
    return perspective(bound_spec(kind, alpha, beta, delta, lam), b, a)


def bound_spec(kind: str, alpha: float = 0.0, beta: float = 1.0,
               delta: float = 1.0, lam: float = 0.5) -> PerspectiveSpec:
    """The perspective ``bound`` evaluates: the registry generator of
    ``kind`` against ``h = t^beta``."""
    g = scalar_generator(kind, alpha=alpha, delta=delta, lam=lam)
    return PerspectiveSpec(f=g, h=_power(beta), name=kind)


def _lu_inv(m: SymMatrix) -> SymMatrix:
    # LU-based inverse: keeps the explicit route off the eigendecomposition
    # path shared with the perspective route.
    return SymMatrix._computed(np.linalg.inv(m.data))


def _mul(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    # product of commuting self-adjoint factors; resymmetrized
    return SymMatrix._computed(x.data @ y.data)


def bound_explicit(kind: str, a: SymMatrix, b: SymMatrix, alpha: float = 0.0,
                   beta: float = 1.0, delta: float = 1.0,
                   lam: float = 0.5) -> SymMatrix:
    """The same operator built from its explicit geometric-mean formula.

    Used by the dual-route checks: lives on geometric means, congruences
    and LU inverses rather than on a single composite functional calculus.
    The second term of the primed lower bound carries coefficient
    ``4*delta`` (resp. ``8*sqrt(delta)``), the one consistent with the
    ``delta = 1`` collapse onto the unprimed bound.
    """
    if kind in ("harmonic", "geometric", "arithmetic"):
        triple = weighted_means(a, b, lam)
        return triple[("harmonic", "geometric", "arithmetic").index(kind)]

    def gm(al):
        return geo_mean(a, b, al, beta)

    if kind == "III":
        return gm(alpha + 0.5) - gm(alpha - 0.5)
    if kind == "V":
        return 0.5 * (gm(alpha + 1.0) - gm(alpha - 1.0))
    if kind == "lower_shift":
        return gm(alpha) - gm(alpha - 1.0)
    if kind == "upper_shift":
        return gm(alpha + 1.0) - gm(alpha)
    if kind == "base_lower":
        return gm(0.0) - gm(-1.0)
    if kind == "III'":
        return (gm(alpha + 0.5) * (1.0 / np.sqrt(delta))
                - np.sqrt(delta) * gm(alpha - 0.5)
                + np.log(delta) * gm(alpha))
    if kind == "V'":
        return (0.5 * (gm(alpha + 1.0) * (1.0 / delta) - delta * gm(alpha - 1.0))
                + np.log(delta) * gm(alpha))

    frame = PowerFrame(a, beta)
    c = frame.whiten(b)
    eye = SymMatrix.identity(a.dim, a.field)
    c_alpha = mat_pow(c, alpha)
    if kind == "I":
        mid = _mul(eye - 2.0 * _lu_inv(eye + c), c_alpha)
        return 2.0 * frame.conjugate(mid)
    if kind == "II":
        mid = _mul(c_alpha, _lu_inv(mat_pow(c, 0.5) + eye))
        return 4.0 * gm(alpha) - 8.0 * frame.conjugate(mid)
    if kind == "S":
        mid = _mul(c_alpha, apply_fn(c, np.log, domain=POSITIVE, name="log"))
        return frame.conjugate(mid)
    if kind == "I'":
        mid = _mul(_lu_inv(c + delta * eye), c_alpha)
        return (np.log(delta) + 2.0) * gm(alpha) - 4.0 * delta * frame.conjugate(mid)
    if kind == "II'":
        mid = _mul(_lu_inv(mat_pow(c, 0.5) + np.sqrt(delta) * eye), c_alpha)
        return ((np.log(delta) + 4.0) * gm(alpha)
                - 8.0 * np.sqrt(delta) * frame.conjugate(mid))
    raise OperatorError(f"unknown bound kind {kind!r}")


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


class _Stack:
    """The trials of one stacked chain check: the suite, each trial's
    effective parameters, and the tolerance.

    Each stage checks every trial at once and raises the first failure it
    finds in ``chain_check`` order: lowest trial, then position, then
    array.  On a stack of one that is exactly the error ``chain_check``
    raises; a longer stack may fail at an earlier stage on a later trial,
    so callers that must blame the lowest failing trial rerun the trials
    one at a time.
    """

    def __init__(self, spec: SuiteSpec, params: list[ChainParams],
                 tol: float):
        self.spec, self.params, self.tol = spec, params, tol

    def admit(self, *arrays: np.ndarray) -> np.ndarray:
        """The finiteness check of ``SymMatrix._computed`` on every matrix:
        trial by trial, within a trial position by position (the axes after
        the trial axis), and at one position ``arrays`` in the order given.
        Returns the last array, symmetrized as it is stored."""
        bad = np.stack([_nonfinite(x) for x in arrays], axis=-1)
        if bad.any():
            where = np.unravel_index(np.argmax(bad), bad.shape)
            SymMatrix._computed(arrays[where[-1]][where[:-1]])
        return _resym(arrays[-1])

    def positive(self, eigenvalues: np.ndarray, name: str) -> None:
        """The ``POSITIVE`` domain check on every row of eigenvalues."""
        lo, hi = POSITIVE
        bad = ~((lo < eigenvalues) & (eigenvalues < hi)).all(axis=-1)
        if bad.any():
            _check_domain(eigenvalues[int(np.argmax(bad))], POSITIVE, name)

    def rows(self, fn) -> np.ndarray:
        """``fn(trial, params)`` for each trial, stacked.  Each row sees
        its own parameters as scalars: ``np.power`` special-cases scalar
        exponents such as 0.5, 2 and -1, so a broadcast ``(T, 1)`` exponent
        would change bits."""
        return np.array([fn(t, p) for t, p in enumerate(self.params)])


def _frame(st: _Stack, a: np.ndarray):
    """``A``'s eigendecomposition and ``A^{beta/2}``, ``A^{-beta/2}``."""
    pair = _eigh(a)
    st.positive(pair.eigenvalues,
                "the congruence base, which must be strictly positive")
    half = st.rows(lambda t, p: np.power(pair.eigenvalues[t],
                                         float(p.beta) / 2.0))
    return pair, pair.rebuild(half), pair.rebuild(1.0 / half)


def _check_relation(st: _Stack, pair: EigenPair, b: np.ndarray) -> None:
    """The dominance hypothesis, ``loewner_leq`` at the suite tolerance."""
    spec, tol = st.spec, st.tol
    power = st.admit(pair.rebuild(
        st.rows(lambda t, p: np.power(pair.eigenvalues[t], p.beta))))
    a_beta = st.admit(st.rows(lambda t, p: power[t] * float(p.delta)))
    lhs, rhs = (a_beta, b) if spec.relation == "dominating" else (b, a_beta)
    margin = _eigh(st.admit(rhs - lhs)).eigenvalues[:, 0]
    scale = np.maximum(np.maximum(1.0, _fro(lhs)), _fro(rhs))
    fails = ~(margin >= -tol * scale)
    if fails.any():
        trial = int(np.argmax(fails))
        p = st.params[trial]
        if spec.relation == "dominating":
            stated = f"delta*A^beta <= B (delta={p.delta}, beta={p.beta})"
        else:
            stated = f"B <= delta*A^beta (delta={p.delta}, beta={p.beta})"
        raise HypothesisError(
            f"suite {spec.name}: hypothesis {stated} fails with margin "
            f"{float(margin[trial]):.6e} (tolerance {tol:.0e} * "
            f"{float(scale[trial]):.3e})")


def _whiten(st: _Stack, ihalf: np.ndarray, b: np.ndarray) -> EigenPair:
    """``C = A^{-beta/2} B A^{-beta/2}``, decomposed and checked positive."""
    pair = _eigh(st.admit(ihalf @ b @ ihalf))
    st.positive(pair.eigenvalues, f"the whitened B of suite "
                f"{st.spec.name}, which must be strictly positive")
    return pair


def _terms(st: _Stack, half: np.ndarray, cp: EigenPair) -> np.ndarray:
    """Every term ``A^{beta/2} g_k(C) A^{beta/2}`` as a ``(T, K, n, n)``
    stack, admitted in ``chain_check`` order: ``g_0(C)``, term 0,
    ``g_1(C)``, term 1, ..."""
    gens: dict[ChainParams, list[ScalarFn]] = {}
    for p in st.params:
        if p not in gens:
            gens[p] = [scalar_generator(label, alpha=p.alpha, delta=p.delta,
                                        lam=p.lam) for label in st.spec.terms]
    w = cp.eigenvalues
    vals = st.rows(lambda t, p: [g(w[t]) for g in gens[p]])
    mid = EigenPair(w, cp.eigenvectors[:, None]).rebuild(vals)
    h = half[:, None]
    return st.admit(mid, h @ mid @ h)


def _links(st: _Stack, terms: np.ndarray):
    """Margin and verdict of every link, from one ``(T, L, n, n)`` stack.

    All link differences are checked for finiteness before any is
    decomposed, so a trial whose link 0 fails to converge while a later
    link is not finite fails on the finiteness check.
    """
    left = [i for i, _ in st.spec.links]
    right = [j for _, j in st.spec.links]
    diff = st.admit(terms[:, right] - terms[:, left])
    margin = _eigh(diff).eigenvalues[:, :, 0]
    fro = _fro(terms)
    scale = np.maximum(np.maximum(1.0, fro[:, left]), fro[:, right])
    return margin, margin >= -st.tol * scale


def chain_check_stack(suite: str | SuiteSpec,
                      pairs: list[tuple[SymMatrix, SymMatrix]],
                      params: list[ChainParams], tol: float,
                      trial_seeds: list[int]) -> list[ChainReport]:
    """Check one suite on a stack of trials, each stage on all at once.

    ``pairs[t]``, ``params[t]`` and ``trial_seeds[t]`` are trial ``t``'s
    inputs; every A shares one dim and field.  Each stage runs as stacked
    ``eigh``/``matmul`` calls over ``(T, n, n)`` arrays, and each trial's
    results are bitwise those of ``chain_check`` on that trial alone.

    Returns one report per trial, or raises the first failure of the
    first stage that fails (see ``_Stack``).
    """
    spec = SUITES[suite] if isinstance(suite, str) else suite
    effective = []
    for (a, b), p in zip(pairs, params):
        pairs[0][0]._same_shape(a)
        a._same_shape(b)
        p = spec.effective(p)
        _validate_params(spec, p)
        effective.append(p)
    st = _Stack(spec, effective, tol)
    a_stack = np.stack([a.data for a, _ in pairs])
    b_stack = np.stack([b.data for _, b in pairs])
    pair, half, ihalf = _frame(st, a_stack)
    if spec.relation != "none":
        _check_relation(st, pair, b_stack)
    margins, holds = _links(st, _terms(st, half, _whiten(st, ihalf, b_stack)))

    reports = []
    for trial, ((a, b), p) in enumerate(zip(pairs, effective)):
        links = [LinkMargin(lhs=spec.terms[i], rhs=spec.terms[j],
                            margin=float(margins[trial, k]),
                            holds=bool(holds[trial, k]))
                 for k, (i, j) in enumerate(spec.links)]
        ok = all(link.holds for link in links)
        report = ChainReport(suite=spec.name, trial_seed=trial_seeds[trial],
                             params=p, links=links,
                             verdict="pass" if ok else "fail")
        if not ok:
            from .matio import matrix_to_obj

            report.matrices = {"A": matrix_to_obj(a), "B": matrix_to_obj(b)}
        reports.append(report)
    return reports


def chain_check(suite: str | SuiteSpec, a: SymMatrix, b: SymMatrix,
                params: ChainParams | None = None,
                tol: float = DEFAULT_LOEWNER_TOL,
                trial_seed: int = 0) -> ChainReport:
    """Verify one suite on one pair ``(A, B)`` and report every margin.

    The suite hypothesis (parameter constraints plus the dominance relation,
    checked through ``loewner_leq`` at the same tolerance as the links) is a
    precondition: violations raise ``HypothesisError`` instead of producing
    a failing report.  Failing reports embed the inputs so the trial can be
    replayed from the report alone.  This is ``chain_check_stack`` on a
    stack of one.
    """
    return chain_check_stack(suite, [(a, b)], [params or ChainParams()], tol,
                             [trial_seed])[0]
