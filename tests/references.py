"""Independent reference routes to values the suite computes faster; the tests
compare the suite's kernels against them."""

import dataclasses

import numpy as np

from charsum import verifier
from charsum.cyclo import CycInt
from charsum.engines import proof_kernel_S_yy1, shifted_sum
from charsum.field import make_ctx
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


def kernel_closed_form(ctx, chi, y: int, y1: int) -> CycInt:
    """The four-case value of the proof kernel, as an exact cyclotomic integer."""
    p = ctx.p
    m = p - 1
    y %= p
    y1 %= p
    if y == 0 and y1 == 0:
        return CycInt.from_int(m, p)
    if y == 0 or y1 == 0:
        return CycInt.zero(m)
    if y == y1:
        return CycInt.from_int(m, p - 1)
    return -chi.value_exact(y * pow(y1, -1, p) % p)


def kernel_mismatches(ctx, chi, a: int) -> int:
    """Pairs (y, y1) of the full grid where the brute-force kernel sum differs
    from kernel_closed_form."""
    return sum(proof_kernel_S_yy1(ctx, chi, y, y1, a).exact != kernel_closed_form(ctx, chi, y, y1)
               for y in range(ctx.p) for y1 in range(ctx.p))


def granville_mismatches(ctx, H) -> int:
    """Characters whose exact sum over H is not |H| (chi trivial on H) or 0."""
    m = ctx.p - 1
    dH = ctx.dlog[list(H.elements)]
    return sum(CycInt.from_exponents(m, j * dH % m) != (H.order if j % H.order == 0 else 0)
               for j in range(m))


def corrupted_ctx(p: int, x: int, y: int):
    """make_ctx(p) with dlog[x] and dlog[y] swapped: still a bijection onto
    Z/(p-1), but no longer a homomorphism, so the characters built on it need
    not satisfy any identity."""
    ctx = make_ctx(p)
    dlog = ctx.dlog.copy()
    dlog[[x, y]] = dlog[[y, x]]
    return dataclasses.replace(ctx, dlog=dlog)


def without_certificates(monkeypatch) -> None:
    """Make every certificate fail, so each checker takes its per-character route."""
    for name in ("kernel_certificate", "eq2_certificate", "granville_certificate"):
        monkeypatch.setattr(verifier, name, lambda *args: False)
