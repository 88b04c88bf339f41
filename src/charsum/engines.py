"""Character and exponential sum engines.

Each sum is one exponent array e, with value sum_i zeta_m^(e_i) (e_i = -1 marks
a zero term), made by its *_exponents builder: terms on axis 0, the sum's
parameters broadcast on the trailing axes.  values.read gives it exactly or
numerically; the engines add the builders and the guards on their arguments.
The bilinear forms' FFT (bilinear_sums, over stacked instances) and
shifted_values_all's FFT correlation are numeric routes of their own.
"""

from __future__ import annotations

import numpy as np

from .characters import Character
from .errors import (
    CapacityExceeded,
    DegenerateShifts,
    PrincipalCharacter,
    ShiftNotCoprime,
)
from .field import FieldCtx, Subgroup, inverse_table
from .values import EXACT, NUMERIC, SumValue, Weights, read, resolve_mode


def _require_nonprincipal(*chis: Character) -> None:
    if any(chi.is_principal for chi in chis):
        raise PrincipalCharacter("this sum requires a nonprincipal character")


def _require_coprime_shift(p: int, *shifts: int) -> None:
    if any(a % p == 0 for a in shifts):
        raise ShiftNotCoprime("shift a must be nonzero mod p")


def _mod(v, n: int) -> np.ndarray:
    return np.asarray(v, dtype=np.int64) % n


def _terms(x, *params) -> np.ndarray:
    """The terms x on axis 0, shaped to broadcast against params on the trailing axes."""
    return np.asarray(x, dtype=np.int64).reshape((-1,) + (1,) * np.broadcast(*params).ndim)


# ---------------------------------------------------------------------------
# shifted sums  sum_{x in D} chi(x + a)
# ---------------------------------------------------------------------------

def shifted_exponents(ctx: FieldCtx, chi: Character, D, a) -> np.ndarray:
    """Exponents of chi(x + a), x in D, read at just those residues: with D and a
    reduced mod p once, x + a < 2p wraps by one subtraction."""
    p = ctx.p
    x = _terms(_mod(D, p), a) + _mod(a, p)
    np.subtract(x, p, out=x, where=x >= p)
    return chi.exponents(x)


def shifted_sum(ctx: FieldCtx, chi: Character, D, a: int, mode: str = "auto") -> SumValue:
    return read(ctx.p - 1, mode, shifted_exponents(ctx, chi, D, a))


def shifted_values_all(ctx: FieldCtx, chi: Character, D) -> np.ndarray:
    """Complex values of the shifted sum at every shift a in [0, p-1], by one FFT
    correlation of D's indicator with chi's value table.  D is any residue list,
    or a Subgroup, read as its elements."""
    if isinstance(D, Subgroup):
        D = D.elements
    p = ctx.p
    ind = np.bincount(_mod(D, p), minlength=p).astype(float)
    return np.fft.ifft(np.conj(np.fft.fft(ind)) * np.fft.fft(chi.value_table()))


# ---------------------------------------------------------------------------
# bilinear forms  S = sum_xy xi(x) eta(y) chi(xy + a)   (and the twisted S')
# ---------------------------------------------------------------------------

def _times(z, w):
    """z * w, for complex arrays written out as the scalar product computes it:
    numpy's complex array loop may fuse multiply-adds, which would round a stacked
    row otherwise than the same instance alone."""
    if not np.iscomplexobj(z):
        return z * w
    return (z.real * w.real - z.imag * w.imag) + 1j * (z.real * w.imag + z.imag * w.real)


def _boundary(w, v):
    """The weight of the terms with x = 0 or y = 0, where xy + a = a (last axis): its
    three products stacked into one _times call."""
    w0 = w[..., 0]
    v0 = v[..., 0]
    w0v, v0w, w0v0 = _times(np.stack((w0, v0, w0)),
                            np.stack((np.sum(v, axis=-1), np.sum(w, axis=-1), v0)))
    return w0v + v0w - w0v0


def bilinear_sums(ctx: FieldCtx, tables: np.ndarray, xi: np.ndarray, eta: np.ndarray,
                  a) -> np.ndarray:
    """S and S' numerically for stacked instances, as entries 0 and 1 of the result's
    first axis: the character value tables and the weights xi, eta on the last axis,
    the shifts a on the leading axes.  The products xy = g^t carry the cyclic
    convolution of the weights on the dlog line (entry t at x = g^t); S' weights x
    and y by chi(x) and chi(y) too.  The rows [xi; xi chi; eta; eta chi] take one
    forward FFT and the products [xi; xi chi] * [eta; eta chi] one inverse FFT, row
    by row; both halves meet one gather of chi(g^t + a) in one batched dot, and the
    terms with x = 0 or y = 0 are added to S alone."""
    p = ctx.p
    a = np.asarray(a, dtype=np.int64)[..., None] % p
    # take, not [..., ctx.exp]: that result's rows are strided, the FFTs keep its
    # layout, and the dot product of a strided row can round otherwise
    f = np.fft.fft(np.stack((xi, xi * tables, eta, eta * tables)).take(ctx.exp, axis=-1))
    conv = np.fft.ifft(f[:2] * f[2:])
    values = np.take_along_axis(tables, (ctx.exp + a) % p, axis=-1)
    # a row times a column is BLAS's dot product, for one row as for a stack
    total = (conv[..., None, :] @ values[..., :, None])[..., 0, 0]
    total[0] += _times(np.take_along_axis(tables, a, axis=-1)[..., 0], _boundary(xi, eta))
    return total


def _bilinear(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int,
              mode: str, twist: bool) -> SumValue:
    """The products xy = g^t carry the cyclic convolution of the weights on the
    dlog line: exactly of integers, or numerically as its half of bilinear_sums.
    "auto" mode is exact only for integer weights."""
    _require_nonprincipal(chi)
    _require_coprime_shift(ctx.p, a)
    p = ctx.p
    m = p - 1
    if mode == "auto" and not (xi.integral and eta.integral):
        mode = NUMERIC
    if resolve_mode(m, mode) == EXACT:
        # sum|xi| * sum|eta| bounds every weight product and count; int64 must hold it
        if np.abs(xi.values).sum() * np.abs(eta.values).sum() >= 2.0**62:
            raise CapacityExceeded("weights too large for exact int64 counts")
        wx = xi.int_values()
        wy = eta.int_values()
        conv = np.convolve(wx[ctx.exp], wy[ctx.exp])  # the weights at g^t
        counts = conv[:m]
        counts[:m - 1] += conv[m:]
        E = chi.exponent_table()
        e = E[(ctx.exp + a) % p]
        if twist:
            # chi(x) chi(y) = chi(g^t); x = 0 or y = 0 makes xy(xy + a) zero
            e = np.where(e >= 0, (e + E[ctx.exp]) % m, -1)
        else:
            e = np.append(e, E[a % p])
            counts = np.append(counts, _boundary(wx, wy))
        return read(m, EXACT, e, counts)
    return SumValue.from_numeric(
        bilinear_sums(ctx, chi.value_table(), xi.values, eta.values, a)[int(twist)])


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
    """sum_x chi(xy + a) * conj(chi(x*y1 + a)), computed by brute force over x in F_p.

    Closed form: p if y = y1 = 0; 0 if exactly one is 0; p-1 if y = y1 > 0;
    -chi(y / y1) otherwise.
    """
    p = ctx.p
    _require_nonprincipal(chi)
    _require_coprime_shift(p, a)
    E = chi.exponent_table()
    x = _terms(np.arange(p), y, y1)
    e1 = E[(x * _mod(y, p) + a % p) % p]
    e2 = E[(x * _mod(y1, p) + a % p) % p]
    return read(p - 1, mode, np.where((e1 >= 0) & (e2 >= 0), (e1 - e2) % (p - 1), -1))


# ---------------------------------------------------------------------------
# nonlinear-argument sums over a subgroup
# ---------------------------------------------------------------------------

def nonlinear_exponents(ctx: FieldCtx, chi: Character, H: Subgroup, a) -> np.ndarray:
    """Exponents of chi(x(x + a)), x in H."""
    h = _terms(H.elements, a)
    return chi.exponent_table()[h * ((h + _mod(a, ctx.p)) % ctx.p) % ctx.p]


def nonlinear_sum_xxa(ctx: FieldCtx, chi: Character, H: Subgroup, a: int,
                      mode: str = "auto") -> SumValue:
    """sum_{x in H} chi(x(x + a))"""
    _require_nonprincipal(chi)
    _require_coprime_shift(ctx.p, a)
    return read(ctx.p - 1, mode, nonlinear_exponents(ctx, chi, H, a))


def product_exponents(ctx: FieldCtx, chi: Character, H: Subgroup, a, b) -> np.ndarray:
    """Exponents of chi((x + a)(x + b)), x in H."""
    p = ctx.p
    h = _terms(H.elements, a, b)
    return chi.exponent_table()[(h + _mod(a, p)) % p * ((h + _mod(b, p)) % p) % p]


def shifted_product_sum(ctx: FieldCtx, chi: Character, H: Subgroup, a: int, b: int,
                        mode: str = "auto") -> SumValue:
    """sum_{x in H} chi((x + a)(x + b)), requiring ab(a - b) nonzero mod p."""
    p = ctx.p
    if (a % p) == 0 or (b % p) == 0 or (a - b) % p == 0:
        raise DegenerateShifts("shifts must satisfy a, b, a-b all nonzero mod p")
    return read(p - 1, mode, product_exponents(ctx, chi, H, a, b))


# ---------------------------------------------------------------------------
# additive-character sums: exponents mod p, so they live in Z[zeta_p], not
# Z[zeta_{p-1}]; these two have no exact route and are read numerically
# ---------------------------------------------------------------------------

def kloosterman_exponents(ctx: FieldCtx, H: Subgroup, k, l) -> np.ndarray:
    """Exponents mod p of e((kx + l x^*) / p), x in H."""
    p = ctx.p
    x = _terms(H.elements, k, l)
    return (_mod(k, p) * x + _mod(l, p) * inverse_table(ctx)[x]) % p


def kloosterman_over_H(ctx: FieldCtx, H: Subgroup, k: int, l: int) -> SumValue:
    """sum_{x in H} e((kx + l x^*) / p), numeric mode."""
    return read(ctx.p, NUMERIC, kloosterman_exponents(ctx, H, k, l))


def inverse_shift_exponents(ctx: FieldCtx, H: Subgroup, k, a) -> np.ndarray:
    """Exponents mod p of e(k (x + a)^* / p), x in H; -1 where x = -a, left out."""
    p = ctx.p
    v = (_terms(H.elements, k, a) + _mod(a, p)) % p
    return np.where(v == 0, -1, inverse_table(ctx)[v] * _mod(k, p) % p)


def inverse_shift_sum(ctx: FieldCtx, H: Subgroup, k: int, a: int) -> SumValue:
    """sum over x in H, x != -a, of e(k (x + a)^* / p), numeric mode."""
    return read(ctx.p, NUMERIC, inverse_shift_exponents(ctx, H, k, a))


def exp_sum_exponents(q: int, D, a) -> np.ndarray:
    """Exponents mod q of e_q(ax), x in D."""
    return _mod(a, q) * (_terms(D, a) % q) % q


def exp_sum_subset(q: int, D, a: int, mode: str = "auto") -> SumValue:
    """sum_{x in D} e_q(ax) over a general modulus q >= 2."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    return read(q, mode, exp_sum_exponents(q, D, a))
