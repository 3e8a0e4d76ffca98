import numpy as np
import pytest

import opentropy as op


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # first call per dtype loads LAPACK code paths; keep that out of timed
    # tests
    op.sym_eig(op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    op.sym_eig(op.SymMatrix(np.array([[2.0, 1.0j], [-1.0j, 2.0]])))


@pytest.fixture
def draw_alone():
    """``draw(cfg, trial) -> (A, B, params)``: trial ``trial`` of
    ``cfg``, drawn alone through the one-trial generators ``random_spd``
    and ``random_partner``, whose bits every stacked draw must give."""

    def draw(cfg, trial):
        spec = op.SUITES[cfg.suite]
        gcfg, params = cfg.decode(trial)
        eff = spec.resolve(params)
        a = op.random_spd(gcfg, trial)
        if spec.relation == "none":
            return a, op.random_spd(gcfg, trial, salt=1), params
        return a, op.random_partner(a, eff.beta, eff.delta, spec.relation,
                                    gcfg, trial), params

    return draw


@pytest.fixture
def plant_draws(monkeypatch):
    """Make every draw of ``cli.run_suite``, of a whole chunk or of one
    trial when a failing chunk is checked again, come from
    ``draw_trial(cfg, trial) -> (A, B, params)``, so a test can hand out
    pairs of its own."""
    from opentropy import cli

    def plant(draw_trial):
        def draw(cfg, trials):
            drawn = {trial: draw_trial(cfg, trial) for trial in trials}
            by_dim = {}
            for trial, (a, _, _) in drawn.items():
                by_dim.setdefault(a.dim, []).append(trial)
            return [(group, np.stack([drawn[t][0].data for t in group]),
                     np.stack([drawn[t][1].data for t in group]),
                     [drawn[t][2] for t in group], None, None)
                    for group in by_dim.values()]

        monkeypatch.setattr(cli, "_draw", draw)

    return plant
