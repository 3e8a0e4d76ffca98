import numpy as np
import pytest

import opentropy as op


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # first call per dtype loads LAPACK code paths; keep that out of timed
    # tests
    op.sym_eig(op.SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    op.sym_eig(op.SymMatrix(np.array([[2.0, 1.0j], [-1.0j, 2.0]])))
