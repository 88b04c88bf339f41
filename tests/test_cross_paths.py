"""Generated cross-checks between the coset-batched kernels and the per-shift
engines they replace, on primes p <= 200."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum.characters import character
from charsum.engines import nonlinear_sum_xxa, shifted_sum, shifted_values_all
from charsum.field import make_ctx, primes_in, subgroup_of_order
from charsum.verifier import (
    check_eps_corollary,
    check_meanvalue2,
    check_sharpened_theorem2,
    check_theorem2,
    meanvalue2_averages,
    nonlinear_coset_abs,
    run_suite,
)

PRIMES = list(primes_in(3, 200))
TOL = 1e-9

cross_path = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, nonprincipal=False, nonzero_shift=False):
    """(ctx, chi, H, a) with chi, H and a drawn from the whole range for p."""
    p = draw(st.sampled_from(PRIMES))
    ctx = make_ctx(p)
    H = subgroup_of_order(ctx, draw(st.sampled_from(ctx.divisors)))
    chi = character(ctx, draw(st.integers(1 if nonprincipal else 0, p - 2)))
    a = draw(st.integers(1 if nonzero_shift else 0, p - 1))
    return ctx, chi, H, a


@cross_path
@given(instances())
def test_subgroup_path_equals_fft_and_naive(inst):
    ctx, chi, H, a = inst
    coset = shifted_values_all(ctx, chi, H)
    fft = shifted_values_all(ctx, chi, H.elements)
    assert coset.shape == fft.shape == (ctx.p,)
    assert np.max(np.abs(coset - fft)) <= TOL
    assert np.max(np.abs(np.abs(coset) - np.abs(fft))) <= TOL
    naive = shifted_sum(ctx, chi, H.elements, a, "exact").to_complex()
    assert abs(coset[a] - naive) <= TOL
    assert abs(abs(coset[a]) - abs(naive)) <= TOL


@cross_path
@given(instances(nonzero_shift=True))
def test_coset_meanvalue2_equals_per_shift_sum(inst):
    ctx, _, H, a = inst
    p, k = ctx.p, H.index
    # (1/(p-1)) sum over every character of |sum_{n in H} chi(n + a)|, term by term
    direct = sum(abs(shifted_sum(ctx, character(ctx, j), H.elements, a, "numeric").to_complex())
                 for j in range(p - 1)) / (p - 1)
    coset_averages = meanvalue2_averages(ctx, H, ctx.exp[:k])
    assert abs(coset_averages[ctx.dlog[a] % k] - direct) <= TOL
    assert abs(check_meanvalue2(ctx, H, a).computed - direct) <= TOL


@cross_path
@given(instances(nonprincipal=True, nonzero_shift=True))
def test_coset_nonlinear_equals_per_shift_sum(inst):
    ctx, chi, H, a = inst
    p, k = ctx.p, H.index
    mags = nonlinear_coset_abs(ctx, chi, H)
    assert mags.shape == (k,)
    direct = nonlinear_sum_xxa(ctx, chi, H, a, "numeric").magnitude
    assert abs(mags[ctx.dlog[a] % k] - direct) <= TOL
    every_shift = max(nonlinear_sum_xxa(ctx, chi, H, b, "numeric").magnitude for b in range(1, p))
    assert abs(mags.max() - every_shift) <= TOL


@pytest.mark.parametrize("budget", [None, 20])
def test_suite_verdicts_equal_standalone_checkers(budget):
    """The suite shares one shifted_values_all vector per (H, chi) and one
    meanvalue2 average per coset; each verdict matches its checker run alone."""
    verdicts = run_suite(3, 31, claims=["thm2", "thm2_sharp", "eps", "meanvalue2"],
                         budget=budget)
    for v in verdicts:
        ctx = make_ctx(v.params["p"])
        H = subgroup_of_order(ctx, v.params["H"])
        if v.claim == "meanvalue2":
            alone = check_meanvalue2(ctx, H, v.params["a"])
        else:
            chi = character(ctx, v.params["chi"])
            if v.claim == "thm2":
                alone = check_theorem2(ctx, chi, H)
            elif v.claim == "thm2_sharp":
                alone = check_sharpened_theorem2(ctx, chi, H)
            else:
                alone = check_eps_corollary(ctx, chi, H, v.params["eps"])
        assert v.passed == alone.passed
        assert abs(v.computed - alone.computed) <= TOL, (v.claim, v.params)
