"""Character and exponential sum engines.

Every engine exists in two modes: exact (cyclotomic-integer counts, desk scale)
and numeric (complex double, large scale).  The mode is always an explicit
parameter; "auto" resolves to exact iff p-1 fits the exact-order cap.
"""

from __future__ import annotations

import cmath

import numpy as np

from .characters import Character
from .cyclo import EXACT_MAX_ORDER, HISTOGRAM_CELLS, CycInt
from .errors import (
    CapacityExceeded,
    DegenerateShifts,
    PrincipalCharacter,
    ShiftNotCoprime,
)
from .field import FieldCtx, Subgroup, coset_shift_rows, mod_inverse
from .values import EXACT, NUMERIC, SumValue, Weights


def resolve_mode(order: int, mode: str) -> str:
    if mode == "auto":
        return EXACT if order <= EXACT_MAX_ORDER else NUMERIC
    if mode not in (EXACT, NUMERIC):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == EXACT and order > EXACT_MAX_ORDER:
        raise CapacityExceeded(f"exact mode needs root order {order} > {EXACT_MAX_ORDER}")
    return mode


def _require_nonprincipal(chi: Character) -> None:
    if chi.is_principal:
        raise PrincipalCharacter("this sum requires a nonprincipal character")


def _require_coprime_shift(p: int, a: int) -> None:
    if a % p == 0:
        raise ShiftNotCoprime("shift a must be nonzero mod p")


# ---------------------------------------------------------------------------
# shifted sums  sum_{x in D} chi(x + a)
# ---------------------------------------------------------------------------

def shifted_sum(ctx: FieldCtx, chi: Character, D, a: int, mode: str = "auto") -> SumValue:
    p = ctx.p
    m = p - 1
    mode = resolve_mode(m, mode)
    if mode == EXACT:
        x = np.asarray(D, dtype=np.int64)
        return SumValue.from_exact(CycInt.from_exponents(m, chi.exponent_table()[(x + a % p) % p]))
    table = chi.value_table()
    total = complex(sum(table[(x + a) % p] for x in D))
    return SumValue.from_numeric(total)


def shifted_values_all(ctx: FieldCtx, chi: Character, D) -> np.ndarray:
    """Complex values of the shifted sum at every shift a in [0, p-1].

    D is a Subgroup or any residue list.  For a subgroup H, S(r h) = chi(h) S(r)
    for h in H, so only the k = (p-1)/|H| coset representatives g^i are summed,
    in one gather of p-1 table entries, and every other shift is a rotation of
    its representative's value.  Any other D goes through one FFT correlation.
    """
    p = ctx.p
    table = chi.value_table()
    if isinstance(D, Subgroup):
        k = D.index
        rep_sums = table[coset_shift_rows(ctx, D)].sum(axis=1)
        # shift g^(sk + i) is g^i times g^(sk) in H: S(g^(sk + i)) = chi(g^(sk)) S(g^i)
        chi_H = table[ctx.exp[::k]]
        vals = np.empty(p, dtype=complex)
        vals[ctx.exp] = np.outer(chi_H, rep_sums).ravel()
        vals[0] = chi_H.sum()
        return vals
    ind = np.zeros(p)
    for x in D:
        ind[x % p] += 1.0
    return np.fft.ifft(np.conj(np.fft.fft(ind)) * np.fft.fft(table))


def shifted_sum_all(ctx: FieldCtx, chi: Character, D, mode: str = "auto") -> list[SumValue]:
    """Entry a equals shifted_sum(ctx, chi, D, a).

    Numeric mode runs in O(p log p); exact mode is the naive per-shift loop.
    """
    p = ctx.p
    mode = resolve_mode(p - 1, mode)
    if mode == EXACT:
        return [shifted_sum(ctx, chi, D, a, EXACT) for a in range(p)]
    vals = shifted_values_all(ctx, chi, D)
    return [SumValue.from_numeric(v) for v in vals]


# ---------------------------------------------------------------------------
# bilinear forms  S = sum_xy xi(x) eta(y) chi(xy + a)   (and the twisted S')
# ---------------------------------------------------------------------------

def _bilinear(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int,
              mode: str, twist: bool) -> SumValue:
    _require_nonprincipal(chi)
    _require_coprime_shift(ctx.p, a)
    p = ctx.p
    m = p - 1
    mode = resolve_mode(m, mode)
    if mode == EXACT:
        # sum|xi| * sum|eta| bounds every weight product and count; int64 must hold it
        if np.abs(xi.values).sum() * np.abs(eta.values).sum() >= 2.0**62:
            raise CapacityExceeded("weights too large for exact int64 counts")
        wx = xi.int_values()
        wy = eta.int_values()
        E = chi.exponent_table()
        xs = np.flatnonzero(wx)
        ys = np.flatnonzero(wy)
        if twist:
            # x = 0 or y = 0 makes xy(xy + a) zero
            xs = xs[xs != 0]
            ys = ys[ys != 0]
        total = CycInt.zero(m)
        # the (x, y) grid in chunks of at most HISTOGRAM_CELLS cells
        step = max(1, HISTOGRAM_CELLS // max(1, len(ys)))
        for lo in range(0, len(xs), step):
            x = xs[lo:lo + step, None]
            e = E[(x * ys[None, :] + a % p) % p]
            if twist:
                e = np.where(e >= 0, (e + E[x] + E[ys][None, :]) % m, -1)
            total = total + CycInt.from_exponents(m, e, wx[x] * wy[ys][None, :])
        return SumValue.from_exact(total)

    table = chi.value_table()
    xiv = xi.values
    etav = eta.values
    if twist:
        xiv = xiv * table
        etav = etav * table
    # group nonzero x, y by discrete log and convolve multiplicatively
    u = np.zeros(m, dtype=complex)
    v = np.zeros(m, dtype=complex)
    u[ctx.dlog[1:]] = xiv[1:]
    v[ctx.dlog[1:]] = etav[1:]
    conv = np.fft.ifft(np.fft.fft(u) * np.fft.fft(v))
    shifted = table[(ctx.exp + a) % p]
    total = complex(np.dot(conv, shifted))
    if not twist:
        # x = 0 / y = 0 boundary terms, each contributing chi(a)
        total += table[a % p] * (
            xiv[0] * np.sum(etav) + etav[0] * np.sum(xiv) - xiv[0] * etav[0]
        )
    return SumValue.from_numeric(total)


def bilinear_S(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int,
               mode: str = "auto") -> SumValue:
    """Vinogradov bilinear form with linear argument xy + a."""
    return _bilinear(ctx, chi, xi, eta, a, mode, twist=False)


def bilinear_Sprime(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int,
                    mode: str = "auto") -> SumValue:
    """Twisted bilinear form with argument xy(xy + a): weights pick up chi(x), chi(y)."""
    return _bilinear(ctx, chi, xi, eta, a, mode, twist=True)


def proof_kernel_S_yy1(ctx: FieldCtx, chi: Character, y: int, y1: int, a: int,
                       mode: str = "exact") -> SumValue:
    """sum_x chi(xy + a) * conj(chi(x*y1 + a)), computed by brute force.

    Closed form: p if y = y1 = 0; 0 if exactly one is 0; p-1 if y = y1 > 0;
    -chi(y / y1) otherwise.
    """
    _require_nonprincipal(chi)
    _require_coprime_shift(ctx.p, a)
    p = ctx.p
    m = p - 1
    mode = resolve_mode(m, mode)
    x = np.arange(p)
    if mode == EXACT:
        E = chi.exponent_table()
        e1 = E[(x * (y % p) + a % p) % p]
        e2 = E[(x * (y1 % p) + a % p) % p]
        e = np.where((e1 >= 0) & (e2 >= 0), (e1 - e2) % m, -1)
        return SumValue.from_exact(CycInt.from_exponents(m, e))
    table = chi.value_table()
    total = complex(np.sum(table[(x * y + a) % p] * np.conj(table[(x * y1 + a) % p])))
    return SumValue.from_numeric(total)


# ---------------------------------------------------------------------------
# nonlinear-argument sums over a subgroup
# ---------------------------------------------------------------------------

def _subset_arg_sum(ctx: FieldCtx, chi: Character, args, mode: str) -> SumValue:
    """sum over precomputed arguments v (one per subgroup element) of chi(v)."""
    p = ctx.p
    m = p - 1
    mode = resolve_mode(m, mode)
    if mode == EXACT:
        return SumValue.from_exact(CycInt.from_exponents(m, chi.exponent_table()[args]))
    table = chi.value_table()
    return SumValue.from_numeric(complex(sum(table[v] for v in args)))


def nonlinear_sum_xxa(ctx: FieldCtx, chi: Character, H: Subgroup, a: int,
                      mode: str = "auto") -> SumValue:
    """sum_{x in H} chi(x(x + a))"""
    _require_nonprincipal(chi)
    _require_coprime_shift(ctx.p, a)
    p = ctx.p
    h = np.array(H.elements, dtype=np.int64)
    return _subset_arg_sum(ctx, chi, h * ((h + a % p) % p) % p, mode)


def shifted_product_sum(ctx: FieldCtx, chi: Character, H: Subgroup, a: int, b: int,
                        mode: str = "auto") -> SumValue:
    """sum_{x in H} chi((x + a)(x + b)), requiring ab(a - b) nonzero mod p."""
    p = ctx.p
    if (a % p) == 0 or (b % p) == 0 or (a - b) % p == 0:
        raise DegenerateShifts("shifts must satisfy a, b, a-b all nonzero mod p")
    h = np.array(H.elements, dtype=np.int64)
    return _subset_arg_sum(ctx, chi, (h + a % p) % p * ((h + b % p) % p) % p, mode)


# ---------------------------------------------------------------------------
# additive-character sums (numeric: they live in Z[zeta_p], not Z[zeta_{p-1}])
# ---------------------------------------------------------------------------

def kloosterman_over_H(ctx: FieldCtx, H: Subgroup, k: int, l: int) -> SumValue:
    """sum_{x in H} e((kx + l x^*) / p), numeric mode."""
    p = ctx.p
    total = 0j
    for x in H.elements:
        xinv = mod_inverse(ctx, x)
        total += cmath.exp(2j * cmath.pi * ((k * x + l * xinv) % p) / p)
    return SumValue.from_numeric(total)


def inverse_shift_sum(ctx: FieldCtx, H: Subgroup, k: int, a: int) -> SumValue:
    """sum over x in H, x != -a, of e(k (x + a)^* / p), numeric mode."""
    p = ctx.p
    total = 0j
    for x in H.elements:
        v = (x + a) % p
        if v == 0:
            continue
        total += cmath.exp(2j * cmath.pi * (k * mod_inverse(ctx, v) % p) / p)
    return SumValue.from_numeric(total)


def exp_sum_subset(q: int, D, a: int, mode: str = "auto") -> SumValue:
    """sum_{x in D} e_q(ax) over a general modulus q >= 2."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    mode = resolve_mode(q, mode)
    if mode == EXACT:
        x = np.asarray(D, dtype=np.int64) % q
        return SumValue.from_exact(CycInt.from_exponents(q, (a % q) * x % q))
    total = complex(sum(cmath.exp(2j * cmath.pi * ((a * x) % q) / q) for x in D))
    return SumValue.from_numeric(total)
