"""Sum values: the one reader from exponent arrays to values, and the weight
vectors of the bilinear forms.

read gives sum_i w_i zeta_m^(e_i) (e_i = -1 marks a zero term) exactly, as a
CycInt, or numerically, as a complex double; "auto" mode is exact iff the root
order m fits the exact-order cap.  Character values and engine sums go through it.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclo import EXACT_MAX_ORDER, CycInt, require_exact_order

EXACT = "exact"
NUMERIC = "numeric"


def resolve_mode(order: int, mode: str) -> str:
    if mode == "auto":
        return EXACT if order <= EXACT_MAX_ORDER else NUMERIC
    if mode not in (EXACT, NUMERIC):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == EXACT:
        require_exact_order(order)
    return mode


def roots(exponents, m: int) -> np.ndarray:
    """exp(2 pi i e / m) for every exponent e in [0, m), with 0 where e = -1, as a
    fresh array.

    Each distinct root is computed once.  The exponents are multiples of
    s = gcd(m, every e >= 0), so they take at most d = m / s values; when there are
    at least 2d terms, entry e // s of a table of those d roots and a trailing 0
    (which -1 // s = -1 reads) gives each.  A table entry is the direct formula on
    the same integer r * s, so both routes give the same bits."""
    e = np.asarray(exponents)
    # gcd(g, 0) = g: the -1 entries, read as 0, leave the gcd alone
    s = math.gcd(m, int(np.gcd.reduce(np.maximum(e, 0), axis=None)))
    d = m // s
    if 2 * d <= e.size:
        table = np.zeros(d + 1, dtype=complex)
        table[:d] = np.exp(2j * np.pi * (np.arange(d) * s) / m)
        return table[e // s]
    terms = np.exp(2j * np.pi * e / m)
    terms[e < 0] = 0
    return terms


def numeric_sums(exponents, m: int, weights=None) -> np.ndarray:
    """sum_i w_i exp(2 pi i e_i / m) over axis 0, for every index of the trailing
    axes; weights default to 1.

    numpy adds the terms in order, a row at a time, when the trailing axes hold two
    or more entries, and pairwise when they hold one (a vector, or an (n, 1)
    column), so a sum's last bits depend on the shape of the call it is in.  The
    one-sum reads (values.read, behind shifted_sum and the other engine sums) get
    the pairwise bits."""
    terms = roots(exponents, m)
    if weights is not None:
        terms *= weights
    return terms.sum(axis=0)


class SumValue:
    """A sum result, either exact (CycInt) or numeric (complex double)."""

    __slots__ = ("mode", "exact", "numeric")

    def __init__(self, mode: str, exact: CycInt | None = None, numeric: complex | None = None):
        self.mode = mode
        self.exact = exact
        self.numeric = numeric

    @classmethod
    def from_exact(cls, value: CycInt) -> "SumValue":
        return cls(EXACT, exact=value)

    @classmethod
    def from_numeric(cls, value: complex) -> "SumValue":
        return cls(NUMERIC, numeric=complex(value))

    def to_complex(self) -> complex:
        if self.mode == EXACT:
            return self.exact.to_complex()
        return self.numeric

    @property
    def magnitude(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        if self.mode == EXACT:
            return f"SumValue(exact, {self.exact!r})"
        return f"SumValue(numeric, {self.numeric!r})"


def read(m: int, mode: str, exponents, weights=None) -> SumValue:
    """sum_i w_i zeta_m^(e_i) over the whole array: a CycInt, or a complex double."""
    if resolve_mode(m, mode) == EXACT:
        return SumValue.from_exact(CycInt.from_exponents(m, exponents, weights))
    return SumValue.from_numeric(numeric_sums(exponents, m, weights))


class Weights:
    """A complex weight vector indexed by residue x in [0, p-1]."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)

    @classmethod
    def indicator(cls, p: int, subset) -> "Weights":
        v = np.zeros(p, dtype=complex)
        for x in subset:
            v[x % p] = 1.0
        return cls(v)

    @property
    def sq_norm(self) -> float:
        """Sum of |value|^2 over all residues (the X / Y of the bilinear bound)."""
        return float(np.sum(np.abs(self.values) ** 2))

    @property
    def integral(self) -> bool:
        """Whether every weight is an integer, as the exact bilinear route needs."""
        return bool(np.all(self.values == np.round(self.values.real)))

    def int_values(self) -> np.ndarray:
        """Weights as an exact int64 vector; raises if any value is not an integer."""
        if not self.integral:
            raise ValueError("exact mode requires integer-valued weights")
        return np.round(self.values.real).astype(np.int64)

    def __len__(self):
        return len(self.values)
