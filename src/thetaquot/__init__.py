"""Exact-arithmetic workbench for Jacobi theta quotients.

Exact Laurent-Puiseux q-series, arbitrary-precision evaluation of elliptic
integrals and theta quotients, bivariate integer relation mining, algebraic
recognition of high-precision reals, and a verified catalog of evaluation
identities (including the documented errata).
"""

from .series import (
    A_series,
    A_series_product,
    PuiseuxSeries,
    ThetaSpec,
    eta5_series,
    eta_series,
    exp_series,
    h5_series,
    invert_unit,
    k_series,
    modulus_series,
    nome_sqrt_exp_form,
    rescale,
    sqrt_series,
    theta_series,
)
from .numeric import (
    BigReal,
    EvalPoint,
    big_real,
    ellipk,
    eval_A,
    eval_eta,
    eval_eta5,
    eval_h5,
    inverse_modulus,
    nome_from_r,
    real_eval_series,
    singular_modulus,
    singular_point,
    theta_sum,
)
from .mining import (
    ABinding,
    BivarIntPoly,
    MinedRelation,
    build_coeff_matrix,
    exact_nullspace,
    mine,
    validate,
)
from .recognize import IntPoly, NotFound, recognize
from .modular import (
    check_theorem3_instance,
    landen_k4,
    p2_A14,
    q_A14,
    s_n,
)
from .catalog import remine_entry, verify_all, verify_entry

__version__ = "0.1.0"
