import numpy as np
import pytest

import opentropy as op
from opentropy import gen
from opentropy.gen import (
    BOUNDARY_EVERY,
    GenConfig,
    GenerationError,
    random_diag_pair,
    random_diag_pair_stack,
    random_partner,
    random_partner_stack,
    random_spd,
    random_spd_stack,
)
from opentropy.matcore import _admit, _compose
from reference import spd_one_trial


def test_dim_one_degenerate_spectrum():
    cfg = GenConfig(dim=1, spectrum_lo=1.0, spectrum_hi=1.0, master_seed=0)
    m = random_spd(cfg, 5)
    np.testing.assert_allclose(m.data, [[1.0]], atol=1e-15)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 7])
def test_seed_outside_64_bits_is_rejected(seed):
    # Philox keys take 64 bits; masking a wider seed would alias the
    # instances of another seed
    with pytest.raises(op.OperatorError, match="seed must be in 0.."):
        GenConfig(master_seed=seed)
    GenConfig(master_seed=2 ** 64 - 1)


@pytest.mark.parametrize("fields, name", [
    ({"dim": 2.5}, "dim"), ({"dim": True}, "dim"), ({"dim": 3.0}, "dim"),
    ({"master_seed": 1.5}, "master_seed"),
    ({"master_seed": False}, "master_seed")])
def test_non_integral_counts_are_rejected(fields, name):
    # a float seed would draw the instances of its integer part, and a
    # float dim would fail inside numpy
    with pytest.raises(op.OperatorError) as err:
        GenConfig(**fields)
    assert str(err.value) == (f"{name} must be an integer, got "
                              f"{fields[name]!r}")


def test_numpy_integer_counts_are_accepted():
    cfg = GenConfig(dim=np.int64(3), master_seed=np.uint64(7))
    same = GenConfig(dim=3, master_seed=7)
    assert random_spd(cfg, 2).data.tobytes() == (
        random_spd(same, 2).data.tobytes())
    with pytest.raises(op.OperatorError) as err:
        GenConfig(dim=np.int64(33))
    assert str(err.value) == f"dim must be in 1..32, got {np.int64(33)!r}"


def test_bit_identical_reproduction():
    cfg = GenConfig(dim=6, field="complex", master_seed=99)
    first = random_spd(cfg, 7)
    second = random_spd(cfg, 7)
    assert np.array_equal(first.data, second.data)
    assert not np.array_equal(first.data, random_spd(cfg, 8).data)
    assert not np.array_equal(first.data, random_spd(cfg, 7, salt=1).data)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_spectrum_within_declared_interval(field):
    cfg = GenConfig(dim=4, field=field, spectrum_lo=0.5, spectrum_hi=50.0,
                    master_seed=1)
    for trial in range(20):
        vals = op.sym_eig(random_spd(cfg, trial)).eigenvalues
        assert np.all(vals >= 0.5 * (1.0 - 1e-10))
        assert np.all(vals <= 50.0 * (1.0 + 1e-10))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("direction", ["dominating", "dominated"])
def test_partner_relation_margins(field, direction):
    cfg = GenConfig(dim=3, field=field, master_seed=2)
    for trial in range(1, 15):
        beta = (0.5, 1.0, 2.0)[trial % 3]
        delta = 2.0 if direction == "dominating" else 0.5
        a = random_spd(cfg, trial)
        b = random_partner(a, beta, delta, direction, cfg, trial)
        ref = delta * op.mat_pow(a, beta)
        lo, hi = (ref, b) if direction == "dominating" else (b, ref)
        verdict = op.loewner_leq(lo, hi, 1e-10)
        assert verdict.margin >= -1e-10 * verdict.scale


def test_boundary_trials_hit_exact_equality():
    cfg = GenConfig(dim=4, master_seed=3)
    equal = 0
    for trial in range(2 * BOUNDARY_EVERY):
        a = random_spd(cfg, trial)
        b = random_partner(a, 1.0, 2.0, "dominating", cfg, trial)
        ref = 2.0 * op.mat_pow(a, 1.0)
        if np.max(np.abs(b.data - ref.data)) <= 1e-12 * max(1.0, ref.fro):
            equal += 1
    assert equal >= 2  # trials 0 and 20
    assert equal / (2 * BOUNDARY_EVERY) >= 0.05


# A QR column phase is a diagonal unitary on the right of Q, which commutes
# with diag(lambda) and cancels in Q diag(lambda) Q*, so no draw may depend
# on the phases LAPACK gives Q.  In the real field a phase is +-1 and a
# sign flip is exact, so draws are bitwise the same.  In the complex field
# the phase product rounds: over 96000 matrices (seeds 0-1999, dims
# 1/3/8/32, six trials each at the betas and deltas below; numpy 2.4.6
# with OpenBLAS 0.3.31) the largest entry of |rephased - plain| measured
# 1.09e-15 of the matrix's largest eigenvalue (median 5.5e-17 to
# 1.3e-16 by dim and stack).  The bound is 4e-15, about 18 ulps; it is not
# to be raised to let a case pass
QR_PHASE_BOUND = 4e-15


def _rephased_qr(rng, field):
    """``np.linalg.qr`` with each column of Q times a random unit phase,
    and R's rows by the conjugate phases, so that QR is still G."""
    qr = np.linalg.qr

    def rephased(g):
        q, r = qr(g)
        shape = q.shape[:-2] + (1, q.shape[-1])
        phase = (rng.choice([-1.0, 1.0], size=shape) if field == "real"
                 else np.exp(2j * np.pi * rng.uniform(size=shape)))
        return q * phase, np.conj(phase).swapaxes(-1, -2) * r
    return rephased


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 3, 8, 32])
def test_draws_do_not_depend_on_qr_column_phases(monkeypatch, dim, field):
    # trial 0 is the exact boundary of the partner, which draws no frame;
    # both relations draw their partner's frame through QR
    betas = [0.5, 1.0, 1.5, 2.0, 3.0, 1.0]
    deltas = [0.5, 1.0, 1.5, 1.0, 2.0, 0.7]
    trials = list(range(len(betas)))
    directions = ("dominating", "dominated")
    cfg = GenConfig(dim=dim, field=field, master_seed=67)
    a = random_spd_stack(cfg, trials)
    bs = [random_partner_stack(a, betas, deltas, direction, cfg, trials)[0]
          for direction in directions]
    monkeypatch.setattr(np.linalg, "qr",
                        _rephased_qr(np.random.default_rng(dim), field))
    turned_a = random_spd_stack(cfg, trials)
    # the partner's own frames, with A fixed
    turned_bs = [random_partner_stack(a, betas, deltas, direction, cfg,
                                      trials)[0]
                 for direction in directions]
    monkeypatch.undo()
    for new, old in ((turned_a, a), *zip(turned_bs, bs)):
        if field == "real":
            assert new.tobytes() == old.tobytes()
            continue
        unit = np.linalg.eigvalsh(old)[:, -1]
        gap = np.abs(new - old).max(axis=(-1, -2))
        assert (gap <= QR_PHASE_BOUND * unit).all(), gap / unit


def test_partner_rejects_bad_arguments():
    cfg = GenConfig(dim=2, master_seed=4)
    a = random_spd(cfg, 1)
    with pytest.raises(op.OperatorError):
        random_partner(a, 1.0, 1.0, "sideways", cfg, 1)
    with pytest.raises(op.OperatorError):
        random_partner(a, 1.0, -1.0, "dominating", cfg, 1)
    with pytest.raises(op.OperatorError, match="delta must be positive"):
        random_partner(a, 1.0, float("nan"), "dominated", cfg, 1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("beta, delta, message", [
    (NAN, 1.0, "beta must be finite, got nan"),
    (INF, 1.0, "beta must be finite, got inf"),
    (-INF, 1.0, "beta must be finite, got -inf"),
    (1.0, INF, "delta must be finite, got inf"),
    (1.0, NAN, "delta must be positive, got nan"),
    (1.0, 0.0, "delta must be positive, got 0.0"),
    (1.0, -INF, "delta must be positive, got -inf"),
    (NAN, 0.0, "delta must be positive, got 0.0"),
])
def test_partner_names_a_bad_beta_or_delta(beta, delta, message):
    # a non-finite beta failed in A's frame, naming only an eigenvalue's
    # power, and an infinite delta at admission, as a NaN Frobenius norm
    cfg = GenConfig(dim=2, master_seed=4)
    a = random_spd(cfg, 1)
    for direction in ("dominating", "dominated"):
        for trial in (1, BOUNDARY_EVERY):
            with pytest.raises(op.OperatorError, match=f"^{message}$"):
                random_partner(a, beta, delta, direction, cfg, trial)


def test_config_validation():
    with pytest.raises(op.OperatorError):
        GenConfig(dim=0)
    with pytest.raises(op.OperatorError):
        GenConfig(dim=64)
    with pytest.raises(op.OperatorError):
        GenConfig(field="quaternion")
    with pytest.raises(op.OperatorError):
        GenConfig(spectrum_lo=0.0)
    with pytest.raises(op.OperatorError):
        GenConfig(spectrum_lo=1e-4, spectrum_hi=1e2)  # cond 1e6 > cap


@pytest.mark.parametrize("lo, hi", [(0.1, float("nan")),
                                    (float("inf"), float("inf"))])
def test_non_finite_spectrum_is_rejected(lo, hi):
    # both pass every comparison of the range; random_spd then failed at
    # admission with a NaN Frobenius norm
    with pytest.raises(op.OperatorError,
                       match=f"^spectrum_hi must be finite, got {hi!r}$"):
        GenConfig(dim=2, spectrum_lo=lo, spectrum_hi=hi)


def test_diag_pair_is_diagonal_and_positive():
    cfg = GenConfig(dim=5, field="complex", master_seed=6)
    a, b = random_diag_pair(cfg, 3)
    for m in (a, b):
        off = m.data - np.diag(np.diagonal(m.data))
        assert np.max(np.abs(off)) == 0.0
        assert np.all(np.diagonal(m.data).real > 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_diag_pair_stack_gives_the_bits_of_one_trial_draws(field):
    # the oracle draws each (chunk, dim, row layout) as one stack; every
    # trial's pair must be the one-trial draw, whatever trials share it,
    # and that draw the diagonal SymMatrix of its own Philox stream
    from opentropy import gen

    for dim in (1, 2, 5, 32):
        cfg = GenConfig(dim=dim, field=field, master_seed=17)
        trials = [0, 3, 1, 64, 65, 2 ** 40]
        a, b = random_diag_pair_stack(cfg, trials)
        assert a.shape == b.shape == (len(trials), dim, dim)
        for i, trial in enumerate(trials):
            rng = np.random.Generator(np.random.Philox(
                key=[cfg.master_seed, trial * gen._STREAMS + gen._SALT_DIAG]))
            pair = [op.SymMatrix.diagonal(
                        0.1 * 100.0 ** rng.uniform(0.0, 1.0, size=dim), field)
                    for _ in "ab"]
            one = random_diag_pair(cfg, trial)
            for stack, alone, want in zip((a, b), one, pair):
                assert stack[i].tobytes() == want.data.tobytes()
                assert alone.data.tobytes() == want.data.tobytes()


# non-consecutive, with the boundary trials 0 and 20 and trials whose key
# word 4 * trial + salt needs the full 64 bits
TRIALS = [0, 3, 1, 20, 64, 41, 2 ** 40, 2 ** 62 + 3]


def _raw_spd(lam, g):
    """``U diag(lam) U*``, raw, for the ``U`` of ``qr(g)``, through the
    package's QR and product on a stack of one."""
    return _compose(np.linalg.qr(g[None])[0], lam[None])[0]


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_spd_stack_gives_the_bits_of_fresh_one_trial_draws(field, seed):
    # a stack takes two generator calls per stream and maps its spectra
    # at once; each matrix must still be the draw of a fresh generator on
    # its own stream, one plain numpy call per array
    for dim in (1, 2, 5, 32):
        cfg = GenConfig(dim=dim, field=field, spectrum_lo=0.5,
                        spectrum_hi=2000.0, master_seed=seed)
        for salt in (0, 1):
            stack = random_spd_stack(cfg, TRIALS, salt)
            for i, trial in enumerate(TRIALS):
                want = _admit(_raw_spd(*spd_one_trial(
                    seed, trial, salt, dim, field, 0.5, 2000.0))[None])[0]
                assert stack[i].tobytes() == want.tobytes(), (dim, salt, i)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_partner_stack_draws_each_c_as_a_fresh_one_trial_draw(field, seed):
    # B = A^{beta/2} C A^{beta/2}; every C but the exact boundary ones is
    # the one-trial draw of the partner stream, spectrum in its span
    betas = [(0.5, 1.0, 2.0)[i % 3] for i in range(len(TRIALS))]
    spans = {"dominating": [1.0, 2.0, 1.5, 3.0, 1.0, 7.0, 1.25, 4.0],
             "dominated": [1.0, 0.5, 0.25, 0.9, 0.1, 1.0, 0.7, 0.3]}
    for dim in (1, 2, 5, 32):
        cfg = GenConfig(dim=dim, field=field, master_seed=seed)
        a = random_spd_stack(cfg, TRIALS)
        for direction, deltas in spans.items():
            b, frame, _ = random_partner_stack(a, betas, deltas, direction,
                                               cfg, TRIALS)
            inner = []
            for trial, delta in zip(TRIALS, deltas):
                if trial % BOUNDARY_EVERY == 0:
                    inner.append(delta * np.eye(dim, dtype=a.dtype))
                    continue
                lo, hi = ((delta, delta * gen.PARTNER_SPREAD)
                          if direction == "dominating"
                          else (delta / gen.PARTNER_SPREAD, delta))
                inner.append(_raw_spd(*spd_one_trial(
                    seed, trial, gen._SALT_PARTNER, dim, field, lo, hi)))
            want = _admit(frame.conjugate(_admit(np.array(inner))))
            assert b.tobytes() == want.tobytes(), (dim, direction)


class _Counting:
    """A generator that logs the name of each method called on it."""

    def __init__(self, rng, calls: list):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("field", ["real", "complex"])
def test_each_stream_takes_two_draw_calls_or_one_for_a_diag_pair(
        monkeypatch, field):
    # the draw's Python-level cost is its calls per stream: a spectrum and
    # one Gaussian, real and imaginary parts in one call; a diagonal pair
    # draws both spectra in one call
    cfg = GenConfig(dim=3, field=field, master_seed=8)
    trials = [0, 3, 1, 20, 41]
    a = random_spd_stack(cfg, trials)
    b = random_partner_stack(a, [1.0] * 5, [2.0] * 5, "dominating", cfg,
                             trials)[0]
    pair = random_diag_pair_stack(cfg, trials)
    streams, log = gen._streams, []

    def counting(*args):
        for rng in streams(*args):
            log.append([])
            yield _Counting(rng, log[-1])
    monkeypatch.setattr(gen, "_streams", counting)
    assert random_spd_stack(cfg, trials).tobytes() == a.tobytes()
    assert log == [["random", "standard_normal"]] * 5
    log.clear()
    counted = random_partner_stack(a, [1.0] * 5, [2.0] * 5, "dominating",
                                   cfg, trials)[0]
    assert counted.tobytes() == b.tobytes()
    # trials 0 and 20 keep the exact boundary and draw nothing
    assert log == [["random", "standard_normal"]] * 3
    log.clear()
    for new, old in zip(random_diag_pair_stack(cfg, trials), pair):
        assert new.tobytes() == old.tobytes()
    assert log == [["random"]] * 5


@pytest.mark.parametrize("field", ["real", "complex"])
def test_empty_trial_lists_give_empty_stacks(field):
    cfg = GenConfig(dim=3, field=field, master_seed=2)
    dtype = np.complex128 if field == "complex" else np.float64
    a = random_spd_stack(cfg, [])
    stacks = [a, *random_diag_pair_stack(cfg, [])]
    for direction in ("dominating", "dominated"):
        b, _, (margin, scale) = random_partner_stack(a, [], [], direction,
                                                     cfg, [])
        assert margin.shape == scale.shape == (0,)
        stacks.append(b)
    for stack in stacks:
        assert stack.shape == (0, 3, 3) and stack.dtype == dtype


def test_generation_error_is_operator_error():
    assert issubclass(GenerationError, op.OperatorError)
