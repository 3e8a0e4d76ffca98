"""Relative operator entropies and Loewner-order inequality chains.

A numerical toolkit for operator means, relative operator entropies and the
lower/upper bound operators that sandwich them, with a verification harness
that checks every inequality chain on randomly generated constrained
positive definite matrices, against a commuting scalar oracle.
"""

__version__ = "0.1.0"

from .bounds import (
    BOUND_KINDS,
    SUITE_NAMES,
    SUITES,
    ChainParams,
    ChainReport,
    HypothesisError,
    ScalarFn,
    bound,
    chain_check,
    scalar_generator,
)
from .entropy import (
    geo_mean,
    rel_entropy,
    rel_entropy_alpha,
    rel_entropy_alpha_beta,
    weighted_means,
)
from .gen import GenConfig, random_diag_pair, random_partner, random_spd
from .hermite import (
    HHRecord,
    L_of_lambda,
    extremizer,
    grid_verify,
    hh_record,
    l_of_lambda,
)
from .matcore import (
    DimensionError,
    EigenPair,
    OperatorError,
    OrderVerdict,
    SelfAdjointError,
    SpectrumError,
    SymMatrix,
    apply_fn,
    jordan_check,
    loewner_leq,
    mat_pow,
    sym_eig,
)
from .matio import load_matrix, matrix_from_obj, matrix_to_obj, save_matrix
from .perspective import PowerFrame, perspective

__all__ = [
    "BOUND_KINDS",
    "SUITE_NAMES",
    "SUITES",
    "ChainParams",
    "ChainReport",
    "DimensionError",
    "EigenPair",
    "GenConfig",
    "HHRecord",
    "HypothesisError",
    "L_of_lambda",
    "OperatorError",
    "OrderVerdict",
    "PowerFrame",
    "ScalarFn",
    "SelfAdjointError",
    "SpectrumError",
    "SymMatrix",
    "apply_fn",
    "bound",
    "chain_check",
    "extremizer",
    "geo_mean",
    "grid_verify",
    "hh_record",
    "jordan_check",
    "l_of_lambda",
    "load_matrix",
    "loewner_leq",
    "mat_pow",
    "matrix_from_obj",
    "matrix_to_obj",
    "perspective",
    "random_diag_pair",
    "random_partner",
    "random_spd",
    "rel_entropy",
    "rel_entropy_alpha",
    "rel_entropy_alpha_beta",
    "save_matrix",
    "scalar_generator",
    "sym_eig",
    "weighted_means",
]
