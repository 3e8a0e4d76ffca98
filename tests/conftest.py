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
def plant_draws(monkeypatch):
    """Make every draw of ``cli.run_suite``, stacked or one trial at a
    time, come from ``run_trial(cfg, trial) -> (A, B, params)``, so a test
    can hand out pairs of its own."""
    from opentropy import cli

    def draw(cfg, trials):
        drawn = {trial: cli._run_trial(cfg, trial) for trial in trials}
        by_dim = {}
        for trial, (a, _, _) in drawn.items():
            by_dim.setdefault(a.dim, []).append(trial)
        return [(group, np.stack([drawn[t][0].data for t in group]),
                 np.stack([drawn[t][1].data for t in group]),
                 [drawn[t][2] for t in group], None, None)
                for group in by_dim.values()]

    def plant(run_trial):
        monkeypatch.setattr(cli, "_run_trial", run_trial)
        monkeypatch.setattr(cli, "_draw", draw)

    return plant
