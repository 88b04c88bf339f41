"""The multiplicative character group mod p.

A character is identified by its index j in the cyclic dual group:
chi_j(g^t) = zeta_{p-1}^{j*t}, with chi(0) = 0 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cyclo import CycInt
from .errors import IndexOutOfRange
from .field import FieldCtx, Subgroup
from .values import EXACT, NUMERIC, SumValue, read, roots


@dataclass(frozen=True, eq=False)
class Character:
    ctx: FieldCtx
    index: int
    order: int

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    @property
    def is_quadratic(self) -> bool:
        return self.order == 2

    def value_numeric(self, x: int) -> complex:
        return self.eval(x, NUMERIC).numeric

    def value_exact(self, x: int) -> CycInt:
        return self.eval(x, EXACT).exact

    def eval(self, x: int, mode: str = EXACT) -> SumValue:
        """chi(x), read in mode as every engine sum is (chi(0) = 0)."""
        return read(self.ctx.p - 1, mode, self.exponents(np.array([x % self.ctx.p])))

    def conjugate(self) -> "Character":
        m = self.ctx.p - 1
        return character(self.ctx, (m - self.index) % m)

    def value_table(self) -> np.ndarray:
        """chi(x) for every residue x as a complex vector of length p (table[0] = 0)."""
        return roots(self.exponent_table(), self.ctx.p - 1)

    def exponents(self, x: np.ndarray) -> np.ndarray:
        """Exponent e with chi(x) = zeta_m^e at each residue x in [0, p-1] of the
        integer array x, read from dlog; entry -1 marks x = 0."""
        e = self.index * self.ctx.dlog[x] % (self.ctx.p - 1)
        e[x == 0] = -1
        return e

    def exponent_table(self) -> np.ndarray:
        """Exponent e with chi(x) = zeta_m^e for x in [0, p-1]; entry -1 marks x = 0."""
        return self.exponents(np.arange(self.ctx.p))


def character(ctx: FieldCtx, j: int) -> Character:
    p = ctx.p
    if not 0 <= j <= p - 2:
        raise IndexOutOfRange(f"character index {j} outside [0, {p - 2}]")
    return Character(ctx=ctx, index=j, order=(p - 1) // math.gcd(j, p - 1))


def quadratic_character(ctx: FieldCtx) -> Character:
    return character(ctx, (ctx.p - 1) // 2)


def all_characters(ctx: FieldCtx) -> Iterator[Character]:
    for j in range(ctx.p - 1):
        yield character(ctx, j)


def subgroup_character_decomposition(H: Subgroup) -> list[Character]:
    """The k characters psi with psi^k = principal (k = H.index); averaging their
    values over any n reproduces the indicator of H."""
    m = H.ctx.p - 1
    return [character(H.ctx, j) for j in range(0, m, H.order)]
