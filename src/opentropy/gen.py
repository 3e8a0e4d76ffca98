"""Deterministic generation of constrained positive definite instances.

Per-trial randomness comes from an independent counter-based Philox stream
keyed by ``(master_seed, trial * STREAMS + salt)``, so trials can run in
any order or thread count and still reproduce bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .matcore import OperatorError, SymMatrix, loewner_leq, sym_eig
from .perspective import PowerFrame

CONDITION_CAP = 1e4
DIM_CAP = 32
# every 20th trial takes the exact-equality branch (B = delta * A^beta)
BOUNDARY_EVERY = 20
# dominated partners draw whitened eigenvalues from [delta/100, delta]
DOMINATED_SPREAD = 100.0
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
        if not 1 <= self.dim <= DIM_CAP:
            raise OperatorError(f"dim must be in 1..{DIM_CAP}, got {self.dim!r}")
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


def _rng(cfg: GenConfig, trial: int, salt: int) -> np.random.Generator:
    key = np.array([cfg.master_seed & _MASK,
                    (trial * _STREAMS + salt) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gaussian(rng: np.random.Generator, dim: int, field: str) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    return g


def _random_frame(rng: np.random.Generator, dim: int,
                  field: str) -> np.ndarray:
    """Orthonormal frame from a QR'd Gaussian, phases canonicalized."""
    q, r = np.linalg.qr(_gaussian(rng, dim, field))
    d = np.diagonal(r).copy()
    mag = np.abs(d)
    phase = np.where(mag > 0.0, d / np.where(mag > 0.0, mag, 1.0), 1.0)
    return q * np.conj(phase)[None, :]


def _log_uniform(rng: np.random.Generator, lo: float, hi: float,
                 size: int) -> np.ndarray:
    return lo * (hi / lo) ** rng.uniform(0.0, 1.0, size=size)


def random_spd(cfg: GenConfig, trial: int, salt: int = 0) -> SymMatrix:
    """Strictly positive matrix with log-uniform spectrum in
    ``[spectrum_lo, spectrum_hi]`` and a Gaussian-orthogonal eigenframe;
    a pure function of ``(master_seed, trial, salt)``."""
    rng = _rng(cfg, trial, salt)
    vals = _log_uniform(rng, cfg.spectrum_lo, cfg.spectrum_hi, cfg.dim)
    frame = _random_frame(rng, cfg.dim, cfg.field)
    return SymMatrix._computed((frame * vals) @ frame.conj().T)


def random_partner(a: SymMatrix, beta: float, delta: float, direction: str,
                   cfg: GenConfig, trial: int) -> SymMatrix:
    """Partner matrix with a guaranteed dominance relation.

    ``dominating``: ``B = A^{beta/2} (delta I + W) A^{beta/2}`` with ``W``
    positive semidefinite (``G G*`` rescaled below ``spectrum_hi``), so
    ``delta A^beta <= B`` by construction; ``dominated``: the middle factor
    has eigenvalues in ``(delta/100, delta]`` so ``B <= delta A^beta``.
    Every 20th trial is the exact boundary ``B = delta A^beta``.  The
    relation is re-confirmed through ``loewner_leq`` before returning.
    """
    if direction not in ("dominating", "dominated"):
        raise OperatorError(f"direction must be 'dominating' or 'dominated', "
                            f"got {direction!r}")
    if not delta > 0.0:
        raise OperatorError(f"delta must be positive, got {delta!r}")
    rng = _rng(cfg, trial, _SALT_PARTNER)
    dim, field = a.dim, a.field
    eye = np.eye(dim, dtype=a.data.dtype)

    if trial % BOUNDARY_EVERY == 0:
        inner = delta * eye
    elif direction == "dominating":
        g = _gaussian(rng, dim, field)
        w = SymMatrix._computed(g @ g.conj().T)
        top = float(sym_eig(w).eigenvalues[-1])
        target = cfg.spectrum_hi * rng.uniform(0.0, 1.0)
        inner = delta * eye + w.data * (target / top if top > 0.0 else 0.0)
    else:
        vals = _log_uniform(rng, delta / DOMINATED_SPREAD, delta, dim)
        frame = _random_frame(rng, dim, field)
        inner = (frame * vals) @ frame.conj().T

    frame_a = PowerFrame(a, beta)
    b = frame_a.conjugate(SymMatrix._computed(inner))

    a_beta = delta * frame_a.power(beta)
    if direction == "dominating":
        verdict = loewner_leq(a_beta, b, CONFIRM_TOL)
    else:
        verdict = loewner_leq(b, a_beta, CONFIRM_TOL)
    if not verdict.holds:
        raise GenerationError(
            f"partner construction violated its own hypothesis "
            f"({direction}, delta={delta}, beta={beta}): margin "
            f"{verdict.margin:.6e}")
    return b


def random_diag_pair(cfg: GenConfig, trial: int) -> tuple[SymMatrix, SymMatrix]:
    """Simultaneously diagonal strictly positive pair, for the scalar oracle."""
    rng = _rng(cfg, trial, _SALT_DIAG)
    avals = _log_uniform(rng, cfg.spectrum_lo, cfg.spectrum_hi, cfg.dim)
    bvals = _log_uniform(rng, cfg.spectrum_lo, cfg.spectrum_hi, cfg.dim)
    return (SymMatrix.diagonal(avals, cfg.field),
            SymMatrix.diagonal(bvals, cfg.field))
