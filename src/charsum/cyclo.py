"""Exact arithmetic in Z[zeta_m], the ring of integers generated by an m-th root of unity.

Elements are integer coefficient vectors of length m (value = sum coeffs[i] * zeta^i),
kept unreduced so that additions stay O(m).  Equality, integrality tests and the
canonical form reduce modulo the m-th cyclotomic polynomial Phi_m.  Every exact
engine path shares one kernel: exponent_histogram counts exponents into coefficients, and
reduce_counts reduces any stack of count rows mod Phi_m exactly, behind an int64
overflow guard.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import CapacityExceeded, MixedOrder
from .field import factorize

# Largest root order accepted in exact mode; reduction cost grows superlinearly.
EXACT_MAX_ORDER = 10_000

# 2^63 and 2^53 less a margin far above the float64 rounding of reduce_counts' bound
_INT64_BOUND = 2.0**63 * (1 - 2.0**-40)
_FLOAT64_EXACT = 2.0**53 * (1 - 2.0**-40)


def require_exact_order(m: int) -> None:
    """Raise CapacityExceeded for a root order m past EXACT_MAX_ORDER: every exact
    path decides the cap here."""
    if m > EXACT_MAX_ORDER:
        raise CapacityExceeded(f"exact mode needs root order {m} > {EXACT_MAX_ORDER}")


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m(x), ascending.  For m > 1 they are those of
    prod_{d | m} (1 - x^d)^mu(m/d) (Arnold & Monagan, "Calculating cyclotomic
    polynomials", Math. Comp. 80, 2011) as an int64 series cut past degree phi(m).
    The mu = +1 factors go in first, so every partial product is Phi_m times the
    factors still to divide: a polynomial with small coefficients."""
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    require_exact_order(m)
    if m == 1:
        return (-1, 1)
    factors, deg = [(m, 1)], m  # (d, mu(m/d)) for the squarefree m/d; phi(m)
    for q in factorize(m):
        factors += [(d // q, -mu) for d, mu in factors]
        deg -= deg // q
    poly = np.zeros(deg + 1, dtype=np.int64)
    poly[0] = 1
    for d, mu in sorted(factors, key=lambda f: -f[1]):
        if mu > 0:  # times 1 - x^d
            poly[d:] -= poly[:-d]
        else:  # over 1 - x^d: a running sum along each residue class mod d
            rows = np.concatenate([poly, np.zeros(-poly.size % d, dtype=np.int64)])
            poly = rows.reshape(-1, d).cumsum(axis=0).ravel()[:deg + 1]
    return tuple(poly.tolist())


@lru_cache(maxsize=2)
def reduction_rows(m: int) -> np.ndarray:
    """Read-only (m x deg Phi_m) matrix whose row i is x^i reduced mod Phi_m.

    Reduction of any coefficient vector is then a linear map, which lets
    callers reduce many elements at once with reduce_counts.  Its small integer
    entries are exact in float64, for the BLAS product.  A table takes 8 m phi(m)
    bytes (up to 800 MB near EXACT_MAX_ORDER), so only the two latest orders are kept.
    """
    phi = np.array(cyclotomic_poly(m)[:-1], dtype=np.float64)
    deg = len(phi)
    rows = np.zeros((m, deg))
    rows[:deg] = np.eye(deg)
    for i in range(deg, m):
        # multiply by x, then cancel the leading term against monic Phi_m
        rows[i, 1:] = rows[i - 1, :-1]
        rows[i] -= rows[i - 1, -1] * phi
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=2)
def reduction_peak(m: int) -> float:
    """max |reduction_rows(m)|, the factor of reduce_counts' overflow bound; kept for
    the same two orders as the table, so no call scans the whole table."""
    R = reduction_rows(m)
    return float(max(R.max(), -R.min()))


def reduce_counts(counts) -> np.ndarray:
    """Reduce each length-m row of counts mod Phi_m as counts @ reduction_rows(m).
    Entries and partial sums of a row r are at most sum|r| * reduction_peak(m);
    CapacityExceeded is raised before that bound reaches 2^63, where int64 wraps.
    Below 2^53 every product and partial sum is an integer that float64 holds
    exactly, so the product runs in float64 (BLAS, in any summation order)."""
    try:
        counts = np.asarray(counts, dtype=np.int64)
    except OverflowError:
        raise CapacityExceeded("count outside int64; cannot reduce mod Phi_m") from None
    m = counts.shape[-1]
    R = reduction_rows(m)
    # summed in float64, where the int64 sum could itself wrap
    row_sum = np.abs(counts, dtype=np.float64).sum(axis=-1).max(initial=0.0)
    bound = row_sum * reduction_peak(m)
    if bound < _FLOAT64_EXACT:
        return (counts.astype(np.float64) @ R).astype(np.int64)
    if bound >= _INT64_BOUND:
        raise CapacityExceeded(f"reducing mod Phi_{m} could overflow int64 (bound {bound:.3g})")
    return counts @ R.astype(np.int64)


def exponent_histogram(exponents, m: int, weights=None) -> np.ndarray:
    """Coefficient counts of each row (last axis) e of exponents: out[..., t] sums
    the weights w_i (1 by default) of the e_i equal to t, so out is sum_i w_i zeta_m^(e_i).
    Entries lie in [0, m), or are -1 for a zero term (chi(0) = 0), which is skipped.
    Integer weights, of the same shape as exponents, are added exactly in int64."""
    e = np.asarray(exponents, dtype=np.int64)
    lead = e.shape[:-1]
    rows = math.prod(lead)
    keep = e >= 0
    if lead:
        e = np.arange(rows).reshape(lead + (1,)) * m + e
    cells = e[keep]
    if weights is None:
        counts = np.bincount(cells, minlength=rows * m)
    else:
        counts = np.zeros(rows * m, dtype=np.int64)
        np.add.at(counts, cells, np.asarray(weights, dtype=np.int64)[keep])
    return counts.reshape(lead + (m,))


class CycInt:
    """An element of Z[zeta_m] with Python-integer coefficients.

    Addition, multiplication and conjugation are exact at any size.  Reduction
    mod Phi_m (equality, integrality, hashing) runs through reduce_counts and
    raises CapacityExceeded where int64 could overflow.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs=None):
        if m < 1:
            raise ValueError(f"root order must be positive, got {m}")
        require_exact_order(m)
        if coeffs is None:
            coeffs = [0] * m
        else:
            coeffs = [int(c) for c in coeffs]
            if len(coeffs) != m:
                raise ValueError(f"expected {m} coefficients, got {len(coeffs)}")
        self.m = m
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CycInt":
        return cls(m)

    @classmethod
    def from_int(cls, m: int, n: int) -> "CycInt":
        c = [0] * m
        c[0] = int(n)
        return cls(m, c)

    @classmethod
    def root(cls, m: int, e: int) -> "CycInt":
        """zeta_m^e"""
        c = [0] * m
        c[e % m] = 1
        return cls(m, c)

    @classmethod
    def from_exponents(cls, m: int, exponents, weights=None) -> "CycInt":
        """sum_i w_i zeta_m^(e_i) over the entries e_i of an exponent array, skipping
        e_i = -1 (zero terms, chi(0) = 0); integer weights of its shape default to 1."""
        flat = None if weights is None else np.ravel(weights)
        return cls(m, exponent_histogram(np.ravel(exponents), m, flat).tolist())

    # -- ring operations ----------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.m != other.m:
            raise MixedOrder(f"cannot combine orders {self.m} and {other.m}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        self._check(other)
        return CycInt(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        self._check(other)
        return CycInt(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CycInt(self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.m, [a * other for a in self.coeffs])
        self._check(other)
        m = self.m
        out = [0] * m
        bc = other.coeffs
        for i, ai in enumerate(self.coeffs):
            if ai:
                for k, bk in enumerate(bc):
                    if bk:
                        idx = i + k
                        if idx >= m:
                            idx -= m
                        out[idx] += ai * bk
        return CycInt(m, out)

    __rmul__ = __mul__

    def conj(self) -> "CycInt":
        """Complex conjugation: zeta^i -> zeta^(m-i)."""
        return CycInt(self.m, self.coeffs[:1] + self.coeffs[:0:-1])

    def abs_squared(self) -> "CycInt":
        return self * self.conj()

    # -- canonical form and predicates ----------------------------------

    def reduced(self) -> tuple[int, ...]:
        """Canonical coefficients modulo Phi_m (length deg Phi_m)."""
        return tuple(reduce_counts(self.coeffs).tolist())

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def is_integer(self) -> bool:
        return not any(self.reduced()[1:])

    def as_integer(self):
        """The element as a rational integer, or None if it is not one."""
        r = self.reduced()
        if any(r[1:]):
            return None
        return r[0]

    def to_complex(self) -> complex:
        m = self.m
        return sum(
            (c * cmath.exp(2j * cmath.pi * i / m) for i, c in enumerate(self.coeffs) if c),
            complex(0),
        )

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_integer() == other
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.m != other.m:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.m, self.reduced()))

    def __repr__(self):
        n = self.as_integer()
        if n is not None:
            return f"CycInt({self.m}, int={n})"
        return f"CycInt({self.m}, reduced={list(self.reduced())})"
