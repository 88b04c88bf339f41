"""Prime-field context: primitive root, discrete-log tables, subgroup lattice."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CapacityExceeded, NotOddPrime, ZeroInverse

# The exp and dlog tables take O(p) memory; refuse beyond this.
MAX_P = 10_000_000

# cells of make_ctx's power table reduced at a time (128 KB of int64)
REDUCE_CELLS = 1 << 14


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_in(lo: int, hi: int) -> Iterator[int]:
    """Primes p with lo <= p <= hi, ascending."""
    for n in range(max(lo, 2), hi + 1):
        if is_prime(n):
            yield n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def divisors_from_factorization(fac: dict[int, int]) -> tuple[int, ...]:
    divs = [1]
    for q, e in fac.items():
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """Immutable precomputed context for F_p.

    dlog maps each nonzero residue to its index with respect to the smallest
    primitive root g; dlog[0] = -1 is an explicit "undefined" sentinel.  It is
    built from exp on first read and kept, so a caller that reads only exp
    never builds it.
    """

    p: int
    g: int
    exp: np.ndarray  # length p-1, int64, exp[t] == g^t mod p
    divisors: tuple[int, ...]  # divisors of p-1
    factorization: dict[int, int]  # of p-1

    @cached_property
    def dlog(self) -> np.ndarray:
        """length p, int64, dlog[exp[t]] == t and dlog[0] == -1."""
        # the indices come from an int32 arange (p <= MAX_P fits), half an int64 one
        dlog = np.empty(self.p, dtype=np.int64)
        dlog[0] = -1
        dlog[self.exp] = np.arange(self.p - 1, dtype=np.int32)
        return dlog


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A multiplicative subgroup of F_p*; its elements are built on first read."""

    ctx: FieldCtx
    order: int
    index: int  # (p-1) / order
    generator: int

    @cached_property
    def elements(self) -> np.ndarray:
        """Sorted residues, every index-th entry of exp: int64, read-only as shared."""
        elements = np.sort(self.ctx.exp[::self.index])
        elements.flags.writeable = False
        return elements


def _smallest_primitive_root(p: int, prime_factors: list[int]) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")  # unreachable for prime p


def _powers(base: int, n: int, p: int) -> list[int]:
    """base^i mod p for i < n."""
    out = [0] * n
    cur = 1
    for i in range(n):
        out[i] = cur
        cur = cur * base % p
    return out


def require_table_cap(p: int) -> None:
    """Raise CapacityExceeded when p's dlog table would pass the cap MAX_P."""
    if p > MAX_P:
        raise CapacityExceeded(f"p={p} exceeds dlog table cap {MAX_P}")


def make_ctx(p: int) -> FieldCtx:
    """Build the context for an odd prime p (primality-checked): g, exp and the
    divisors of p-1; dlog waits for its first read."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    require_table_cap(p)
    fac = factorize(p - 1)
    g = _smallest_primitive_root(p, list(fac))
    # g^(bB + s) = g^(bB) * g^s: two short power runs and one outer product.
    # Products stay below p^2 <= MAX_P^2, inside int64.
    B = math.isqrt(p - 2) + 1  # ceil(sqrt(p - 1))
    small = np.array(_powers(g, B, p), dtype=np.int64)
    big = np.array(_powers(pow(g, B, p), -(-(p - 1) // B), p), dtype=np.int64)
    # Reduced in place in row blocks of about REDUCE_CELLS cells as x - x // p * p,
    # which numpy computes faster than x % p: one p-length int64 table.
    table = np.multiply.outer(big, small)
    rows = max(1, REDUCE_CELLS // B)
    for start in range(0, len(big), rows):
        block = table[start:start + rows]
        block -= block // p * p
    return FieldCtx(p=p, g=g, exp=table.ravel()[: p - 1],
                    divisors=divisors_from_factorization(fac), factorization=fac)


def subgroup_of_order(ctx: FieldCtx, n: int) -> Subgroup:
    p = ctx.p
    if n not in ctx.divisors:
        raise ValueError(f"order {n} does not divide p-1={p - 1}")
    k = (p - 1) // n
    h = pow(ctx.g, k, p)
    return Subgroup(ctx=ctx, order=n, index=k, generator=h)


def subgroups(ctx: FieldCtx) -> list[Subgroup]:
    """One subgroup per divisor of p-1, ascending by order."""
    return [subgroup_of_order(ctx, n) for n in ctx.divisors]


def subgroup_near_sqrt(ctx: FieldCtx) -> Subgroup:
    """The subgroup whose order is closest to sqrt(p); ties go to the larger order."""
    root = math.sqrt(ctx.p)
    best = max(ctx.divisors, key=lambda n: (-abs(n - root), n))
    return subgroup_of_order(ctx, best)


def inverse_table(ctx: FieldCtx) -> np.ndarray:
    """x^-1 mod p for every residue x as an int64 vector of length p (entry 0 is 0)."""
    m = ctx.p - 1
    inv = np.zeros(ctx.p, dtype=np.int64)
    inv[1:] = ctx.exp[(m - ctx.dlog[1:]) % m]
    return inv


def mod_inverse(ctx: FieldCtx, x: int) -> int:
    x = operator.index(x)  # a numpy integer too (a subgroup's element); a float raises
    if x % ctx.p == 0:
        raise ZeroInverse("0 has no inverse mod p")
    return pow(x, -1, ctx.p)
