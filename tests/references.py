"""Independent reference routes to values the suite computes faster; the tests
compare the suite's kernels against them."""

import numpy as np

from charsum.cyclo import CycInt
from charsum.engines import shifted_sum
from charsum.verifier import _pair_difference_sum


def eq2_via_engine(ctx, chi, D) -> int | None:
    """sum_a |sum_{x in D} chi(x+a)|^2 through the generic exact engine: one
    shifted_sum and one CycInt norm per shift a."""
    total = CycInt.zero(ctx.p - 1)
    for a in range(ctx.p):
        total = total + shifted_sum(ctx, chi, D, a, "exact").exact.abs_squared()
    return total.as_integer()


def eq2_per_character(ctx, chi, D) -> int | None:
    """The same sum from chi's own exponent table: one pair-difference histogram
    per character, with no push-forward."""
    p = ctx.p
    Da = np.array(sorted({d % p for d in D}), dtype=np.int64)
    E = chi.exponent_table()[(Da[:, None] + np.arange(p)[None, :]) % p]
    return CycInt(p - 1, _pair_difference_sum(E, p - 1)).as_integer()
