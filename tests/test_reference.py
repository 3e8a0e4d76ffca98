"""The package against the independent 40-digit mpmath reference.

Each pair is a non-commuting ``random_spd`` pair; for every registry
generator the test compares the float result with the mpmath perspective
of the generator typed again in mpmath, as the largest entry deviation
over ``max(1, max|ref|)``.  On the pairs below, seed 2012, both routes
read a median of 1.1e-15, a 90th percentile of 1.9e-14 and a worst case
of 5.6e-13 (``base_lower`` on a complex dim-9 pair at beta 2, whose
``A^beta - A^{beta/2} C^{-1} A^{beta/2}`` cancels); seeds 1-3 read at
most 1.9e-12.  ``MP_TOL`` sits above all of these; do not raise it.
Conjugating ``H`` in ``Frame.assemble`` at complex dims above 8, a fault
that moves no chain verdict, reads up to 142.5 on these pairs.
"""

import numpy as np
import pytest

import opentropy as op
from opentropy.gen import GenConfig, random_spd
from reference import MP_GENERATORS, MpPerspective, bound_explicit

MP_TOL = 4e-12
MEANS = ("harmonic", "geometric", "arithmetic")

DIMS = (1, 2, 3, 4, 5, 9)
BETAS = (0.5, 1.0, 1.5, 2.0)
ALPHAS = (0.0, 0.5, 1.0, 2.0)
DELTAS = (2.0, 0.5, 1.0)
LAMS = (0.3, 0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def mp_pairs():
    """24 pairs, each dim of ``DIMS`` twice per field, with the pair's
    parameters and its mpmath perspective at its beta and at beta 1 (the
    beta of the explicit means)."""
    pairs = []
    for i in range(24):
        cfg = GenConfig(dim=DIMS[i % 6], field=("real", "complex")[i // 6 % 2],
                        master_seed=2012)
        a, b = random_spd(cfg, i), random_spd(cfg, i, salt=1)
        beta = BETAS[i % 4]
        params = {"alpha": ALPHAS[i // 2 % 4], "delta": DELTAS[i % 3],
                  "lam": LAMS[i // 3 % 4]}
        ref = MpPerspective(a.data, b.data, beta)
        ref1 = ref if beta == 1.0 else MpPerspective(a.data, b.data, 1.0)
        pairs.append((a, b, beta, params, ref, ref1))
    return pairs


def _deviation(got: op.SymMatrix, want: np.ndarray) -> float:
    return float(np.max(np.abs(got.data - want))
                 / max(1.0, np.max(np.abs(want))))


def test_registry_is_the_mpmath_registry():
    assert set(MP_GENERATORS) == set(op.BOUND_KINDS) | {"S", *MEANS}


def test_bound_matches_the_mpmath_reference(mp_pairs):
    for i, (a, b, beta, params, ref, _) in enumerate(mp_pairs):
        for kind in MP_GENERATORS:
            dev = _deviation(op.bound(kind, a, b, beta=beta, **params),
                             ref.term(kind, **params))
            assert dev <= MP_TOL, (i, kind, dev)


def test_bound_explicit_matches_the_mpmath_reference(mp_pairs):
    for i, (a, b, beta, params, ref, ref1) in enumerate(mp_pairs):
        for kind in MP_GENERATORS:
            means = kind in MEANS
            dev = _deviation(
                bound_explicit(kind, a, b, beta=1.0 if means else beta,
                               **params),
                (ref1 if means else ref).term(kind, **params))
            assert dev <= MP_TOL, (i, kind, dev)
