"""Multiplicative character sums over subgroups of F_p*.

Computes shifted, bilinear, and nonlinear character sums exactly (cyclotomic
integers) or numerically (FFT batch kernels), and machine-checks the exact
identities and square-root bounds they satisfy.
"""

from .characters import (
    Character,
    all_characters,
    character,
    quadratic_character,
    subgroup_character_decomposition,
)
from .cyclo import EXACT_MAX_ORDER, CycInt, cyclotomic_poly
from .engines import (
    bilinear_S,
    bilinear_Sprime,
    exp_sum_subset,
    inverse_shift_sum,
    kloosterman_over_H,
    nonlinear_sum_xxa,
    proof_kernel_S_yy1,
    shifted_product_sum,
    shifted_sum,
)
from .errors import (
    CapacityExceeded,
    CharsumError,
    DegenerateShifts,
    IndexOutOfRange,
    MixedOrder,
    NotOddPrime,
    PrincipalCharacter,
    ShiftNotCoprime,
    ZeroInD,
    ZeroInverse,
)
from .field import (
    FieldCtx,
    Subgroup,
    make_ctx,
    mod_inverse,
    subgroup_near_sqrt,
    subgroup_of_order,
    subgroups,
)
from .values import SumValue, Weights
from .verifier import Verdict, run_suite

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CycInt",
    "FieldCtx",
    "Subgroup",
    "SumValue",
    "Verdict",
    "Weights",
    "all_characters",
    "bilinear_S",
    "bilinear_Sprime",
    "character",
    "cyclotomic_poly",
    "exp_sum_subset",
    "inverse_shift_sum",
    "kloosterman_over_H",
    "make_ctx",
    "mod_inverse",
    "nonlinear_sum_xxa",
    "proof_kernel_S_yy1",
    "quadratic_character",
    "run_suite",
    "shifted_product_sum",
    "shifted_sum",
    "subgroup_character_decomposition",
    "subgroup_near_sqrt",
    "subgroup_of_order",
    "subgroups",
    "EXACT_MAX_ORDER",
    "CharsumError",
    "NotOddPrime",
    "CapacityExceeded",
    "IndexOutOfRange",
    "ZeroInverse",
    "MixedOrder",
    "PrincipalCharacter",
    "ShiftNotCoprime",
    "DegenerateShifts",
    "ZeroInD",
]
