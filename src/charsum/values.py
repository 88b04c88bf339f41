"""Dual-mode scalar results and weight vectors for the sum engines."""

from __future__ import annotations

import numpy as np

from .cyclo import CycInt

EXACT = "exact"
NUMERIC = "numeric"


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

    def int_values(self) -> np.ndarray:
        """Weights as an exact int64 vector; raises if any value is not an integer."""
        n = np.round(self.values.real)
        if np.any(self.values.imag != 0.0) or np.any(self.values.real != n):
            raise ValueError("exact mode requires integer-valued weights")
        return n.astype(np.int64)

    def __len__(self):
        return len(self.values)
