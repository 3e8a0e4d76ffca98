"""Deterministic generation of constrained positive definite instances.

Per-trial randomness comes from an independent counter-based Philox stream
keyed by ``(master_seed, trial * STREAMS + salt)``, so trials can be drawn
in any order or thread count, alone or in stacks, and still reproduce bit
for bit.  ``random_spd_stack`` and ``random_partner_stack`` draw a stack of
trials that share one dim: each trial's scalars come from its own stream
in two generator calls, its uniforms and then its Gaussian (``_spd``), and
a diagonal pair's from one.  Everything after the draw runs once per
stack: the log-uniform map, the complex assembly and the matrix work (QR,
frame products, the congruence by ``A^{beta/2}`` and the hypothesis
confirmation), each bitwise the per-trial arithmetic.
``random_spd``, ``random_partner`` and ``random_diag_pair`` are the
one-trial cases of ``random_spd_stack``, ``random_partner_stack`` and
``random_diag_pair_stack``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bounds import _relation_margin
from .matcore import (OperatorError, SymMatrix, _admit, _check_finite,
                      _check_int, _compose)
from .perspective import Frame

CONDITION_CAP = 1e4
DIM_CAP = 32
# every 20th trial takes the exact-equality branch (B = delta * A^beta)
BOUNDARY_EVERY = 20
# partners draw whitened eigenvalues from [delta, 100 delta] (dominating)
# or [delta/100, delta] (dominated)
PARTNER_SPREAD = 100.0
# post-hoc hypothesis confirmation tolerance
CONFIRM_TOL = 1e-9

_STREAMS = 4
_SALT_PARTNER = 2
_SALT_DIAG = 3
_MASK = (1 << 64) - 1


class GenerationError(OperatorError):
    """A generated instance failed its own hypothesis; a generator bug."""


@dataclasses.dataclass(frozen=True)
class GenConfig:
    """Instance-generation parameters; condition number capped at 1e4 so
    honest chain margins dominate accumulated rounding."""

    dim: int = 4
    field: str = "real"
    spectrum_lo: float = 0.1
    spectrum_hi: float = 10.0
    master_seed: int = 0

    def __post_init__(self):
        _check_int("dim", self.dim)
        _check_int("master_seed", self.master_seed)
        if not 1 <= self.dim <= DIM_CAP:
            raise OperatorError(f"dim must be in 1..{DIM_CAP}, got {self.dim!r}")
        if not 0 <= self.master_seed <= _MASK:
            raise OperatorError(f"seed must be in 0..{_MASK}, got "
                                f"{self.master_seed!r}")
        if self.field not in ("real", "complex"):
            raise OperatorError(f"field must be 'real' or 'complex', "
                                f"got {self.field!r}")
        if not self.spectrum_lo > 0.0:
            raise OperatorError(
                f"spectrum_lo must be positive, got {self.spectrum_lo!r}")
        if self.spectrum_hi < self.spectrum_lo:
            raise OperatorError("spectrum_hi must be >= spectrum_lo")
        if self.spectrum_hi / self.spectrum_lo > CONDITION_CAP:
            raise OperatorError(
                f"condition cap exceeded: hi/lo = "
                f"{self.spectrum_hi / self.spectrum_lo:.3e} > {CONDITION_CAP:.0e}")
        # a NaN passes every comparison above, as does lo = hi = inf
        _check_finite("spectrum_hi", self.spectrum_hi)


def _streams(cfg: GenConfig, trials, salt: int):
    """Yield a generator on each trial's stream in turn.

    It is one local ``Philox`` re-keyed per trial by assigning its state:
    the same bits as a new ``Philox(key=...)``, at a fraction of the cost
    of building a ``Generator``.  The ``(T, 2)`` keys are built once per
    stack, and each re-key assigns one row of them.  Each yield re-keys
    the generator the previous one returned, so use it up before taking
    the next.
    """
    keys = np.array([(cfg.master_seed, (trial * _STREAMS + salt) & _MASK)
                     for trial in trials], dtype=np.uint64)
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bits.state  # counter 0, empty buffer: a freshly keyed stream
    rng = np.random.Generator(bits)
    for key in keys:
        state["state"]["key"] = key
        bits.state = state
        yield rng


def _spd(rngs, ranges, dim: int, field: str) -> np.ndarray:
    """``U diag(lambda) U*``, raw, for each stream of ``rngs`` and its
    ``(lo, hi)`` of ``ranges``.

    Each stream yields, in this order, ``dim`` uniform doubles ``u`` and
    then the Gaussian that is QR'd into ``U``: ``dim**2`` normals, row
    major, for a real ``U``, and ``2 dim**2`` for a complex one, its real
    parts and then its imaginary parts.  That is two generator calls per
    stream.  The log-uniform map ``lambda = lo (hi/lo)**u`` and the complex
    assembly then run once on the whole stack, bitwise the per-trial
    arithmetic.  ``U`` keeps LAPACK's column phases: the phase fix that
    would make it Haar is a diagonal unitary on the right, which commutes
    with ``diag(lambda)`` and so cancels in the product."""
    size = dim * dim
    k = 2 * size if field == "complex" else size
    draws = [(rng.random(dim), rng.standard_normal(k)) for rng in rngs]
    u = np.array([d[0] for d in draws]).reshape(-1, dim)
    g = np.array([d[1] for d in draws]).reshape(-1, k)
    if field == "complex":
        g = g[:, :size] + 1j * g[:, size:]
    lo, hi = np.reshape(ranges, (-1, 2)).T[:, :, None]
    return _compose(np.linalg.qr(g.reshape(-1, dim, dim))[0],
                    lo * (hi / lo) ** u)


def random_spd_stack(cfg: GenConfig, trials, salt: int = 0) -> np.ndarray:
    """``random_spd(cfg, trial, salt)`` of each of ``trials``, as one
    ``(T, n, n)`` array symmetrized as ``SymMatrix`` stores it."""
    ranges = [(cfg.spectrum_lo, cfg.spectrum_hi)] * len(trials)
    return _admit(_spd(_streams(cfg, trials, salt), ranges, cfg.dim,
                       cfg.field))


def random_spd(cfg: GenConfig, trial: int, salt: int = 0) -> SymMatrix:
    """Strictly positive matrix with log-uniform spectrum in
    ``[spectrum_lo, spectrum_hi]`` and a Gaussian-orthogonal eigenframe;
    a pure function of ``(master_seed, trial, salt)``.  The one-trial case
    of ``random_spd_stack``."""
    return SymMatrix._computed(random_spd_stack(cfg, [trial], salt)[0])


def random_partner_stack(a: np.ndarray, betas, deltas, direction: str,
                         cfg: GenConfig, trials):
    """``random_partner`` of each of ``trials``, for a ``(T, n, n)`` stack
    ``a`` of its A's and the lists ``betas`` and ``deltas`` of its
    parameters.

    Returns ``(b, frame, hypothesis)``: the partners as one ``(T, n, n)``
    array, ``perspective.Frame(a, betas)``, and the
    ``bounds._relation_margin`` that the confirmation measured.
    ``chain_check_stack`` takes the last two instead of decomposing A
    again.
    """
    if direction not in ("dominating", "dominated"):
        raise OperatorError(f"direction must be 'dominating' or 'dominated', "
                            f"got {direction!r}")
    for delta in deltas:
        if not delta > 0.0:
            raise OperatorError(f"delta must be positive, got {delta!r}")
        _check_finite("delta", delta)
    for beta in betas:
        _check_finite("beta", beta)
    dim, field = a.shape[-1], "complex" if np.iscomplexobj(a) else "real"
    inner = (np.array(deltas, dtype=np.float64)[:, None, None]
             * np.eye(dim, dtype=a.dtype))
    # every BOUNDARY_EVERY-th trial keeps the exact boundary delta * I
    drawn = [i for i, trial in enumerate(trials) if trial % BOUNDARY_EVERY]
    if drawn:
        rngs = _streams(cfg, [trials[i] for i in drawn], _SALT_PARTNER)
        spans = [(deltas[i], deltas[i] * PARTNER_SPREAD)
                 if direction == "dominating"
                 else (deltas[i] / PARTNER_SPREAD, deltas[i]) for i in drawn]
        inner[drawn] = _spd(rngs, spans, dim, field)

    frame = Frame(a, betas)
    b = _admit(frame.conjugate(_admit(inner)))
    hypothesis = _relation_margin(frame.pair, b, betas, deltas, direction)
    margin, scale = hypothesis
    fails = ~(margin >= -CONFIRM_TOL * scale)
    if fails.any():
        i = int(np.argmax(fails))
        raise GenerationError(
            f"partner construction violated its own hypothesis "
            f"({direction}, delta={deltas[i]}, beta={betas[i]}): margin "
            f"{float(margin[i]):.6e}")
    return b, frame, hypothesis


def random_partner(a: SymMatrix, beta: float, delta: float, direction: str,
                   cfg: GenConfig, trial: int) -> SymMatrix:
    """Partner matrix with a guaranteed dominance relation.

    ``B = A^{beta/2} C A^{beta/2}`` with ``C = U diag(c) U*`` drawn as
    ``random_spd`` draws, its spectrum ``c`` log-uniform in
    ``[delta, 100 delta]`` for ``dominating`` (so ``delta A^beta <= B``)
    and in ``[delta/100, delta]`` for ``dominated`` (so
    ``B <= delta A^beta``).  ``C`` does not depend on ``spectrum_lo`` or
    ``spectrum_hi``.  Every 20th trial is the exact boundary
    ``B = delta A^beta``.  Before returning, the relation is confirmed as
    ``loewner_leq`` would measure it, at ``CONFIRM_TOL``; a miss raises
    ``GenerationError``.  The one-trial case of ``random_partner_stack``.
    """
    b, _, _ = random_partner_stack(a.data[None], [beta], [delta], direction,
                                   cfg, [trial])
    return SymMatrix._computed(b[0])


def random_diag_pair_stack(cfg: GenConfig, trials):
    """``random_diag_pair(cfg, trial)`` of each of ``trials``, as two
    ``(T, n, n)`` arrays symmetrized as ``SymMatrix`` stores them."""
    # each stream draws A's spectrum, then B's, in one call
    u = np.array([rng.random(2 * cfg.dim)
                  for rng in _streams(cfg, trials, _SALT_DIAG)])
    lo, hi = cfg.spectrum_lo, cfg.spectrum_hi
    vals = lo * (hi / lo) ** u.reshape(-1, 2, cfg.dim)
    dtype = np.complex128 if cfg.field == "complex" else np.float64
    pair = np.zeros((2, len(trials), cfg.dim, cfg.dim), dtype=dtype)
    pair[..., range(cfg.dim), range(cfg.dim)] = vals.swapaxes(0, 1)
    return _admit(pair[0]), _admit(pair[1])


def random_diag_pair(cfg: GenConfig, trial: int) -> tuple[SymMatrix, SymMatrix]:
    """Simultaneously diagonal strictly positive pair, for the scalar
    oracle: the one-trial case of ``random_diag_pair_stack``."""
    a, b = random_diag_pair_stack(cfg, [trial])
    return SymMatrix._computed(a[0]), SymMatrix._computed(b[0])
