"""Range scans for the open problems: extremal sum statistics over primes,
with the subgroup chosen closest to sqrt(p).

No bound is asserted here; the scans record the observed extremal ratio
|sum| / sqrt(p) and the parameters achieving it.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import quadratic_character
from .engines import inverse_shift_exponents, kloosterman_exponents, product_exponents
from .field import make_ctx, primes_in, require_table_cap, subgroup_near_sqrt
from .values import numeric_sums
from .verifier import map_tasks, seeded_rng

PROBLEMS = ("1", "5", "6")

# below this, parameter grids are exhaustive; above, seeded random samples
FULL_GRID_MAX_P = 101
SAMPLE_SIZE = 1000


# the keys of every scan record, the columns of scan's csv
RECORD_KEYS = ("H_order", "achiever", "kind", "order_ratio", "p", "problem", "stat", "sum_kind",
               "tuples")


def _peak_record(ctx, H, problem: str, sum_kind: str, mags: np.ndarray, achiever,
                 tuples: int) -> dict:
    """The record of the largest of the magnitudes mags; achiever(i) gives the
    parameters of entry i."""
    i = int(np.argmax(mags))
    return {
        "kind": "scan",
        "problem": problem,
        "p": ctx.p,
        "H_order": H.order,
        "order_ratio": H.order / math.sqrt(ctx.p),
        "sum_kind": sum_kind,
        "stat": float(mags[i] / math.sqrt(ctx.p)),
        "achiever": achiever(i),
        "tuples": tuples,
    }


def quadratic_coset_sums(ctx, H) -> np.ndarray:
    """S(g^i) = sum_{x in H} chi(x + g^i) for the quadratic chi, at the k = (p-1)/|H|
    coset representatives g^i of H, as int64 counts: the residues among H + g^i
    less the non-residues.

    With x = g^i / y, y runs over the coset g^i H = {g^t : t = i (mod k)} and
    chi(x + g^i) = chi(y / g^i) chi(y + 1), so S(g^i) sums
    chi(g^(jk)) chi(g^(i+jk) + 1) over j: one int8 gather of chi(g^t + 1) from a
    sign table (-1 but for one scatter of +1 at the residues g^(2t), and 0 at 0 and
    at p), read as an (|H|, k) grid whose column i is g^i H, its odd rows negated
    when k is odd (chi(g^(jk)) = (-1)^(jk)), summed down the columns in int32: a
    partial sum is at most |H| < p <= MAX_P < 2^31."""
    p = ctx.p
    sign = np.full(p + 1, -1, dtype=np.int8)
    sign[ctx.exp[0::2]] = 1
    sign[[0, p]] = 0
    grid = sign[1:][ctx.exp].reshape(H.order, H.index)
    del sign  # freed before the sum allocates its count row
    if H.index % 2:
        grid[1::2] *= -1
    return grid.sum(axis=0, dtype=np.int32).astype(np.int64)


def scan_problem1(p: int, seed: int = 0) -> list[dict]:
    """max over nonzero shifts of |sum_{x in H} chi(x+a)| / sqrt(p), quadratic chi.

    S(ah) = chi(h) S(a) for h in H, so |S| is read once per coset of H, at the
    representatives g^i, as exact integer counts; the achiever is the smallest
    shift in any coset that attains the peak, the least entry of those cosets'
    columns of exp read as the same (|H|, k) grid."""
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    chi = quadratic_character(ctx)
    mags = quadratic_coset_sums(ctx, H)
    np.abs(mags, out=mags)

    def achiever(i):
        tied = mags == mags[i]
        a = np.compress(tied, ctx.exp.reshape(H.order, H.index), axis=1).min()
        return {"chi": chi.index, "a": int(a)}

    return [_peak_record(ctx, H, "1", "shifted", mags, achiever, p - 1)]


def scan_problem5(p: int, seed: int = 0) -> list[dict]:
    """max over shift pairs (a, b) of |sum_{x in H} chi((x+a)(x+b))| / sqrt(p)."""
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    chi = quadratic_character(ctx)
    if p <= FULL_GRID_MAX_P:
        tuples = [(a, b) for a in range(1, p) for b in range(1, p) if a != b]
    else:
        rng = seeded_rng(seed, p, "scan-5")
        tuples = []
        while len(tuples) < SAMPLE_SIZE:
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            if a != b:
                tuples.append((a, b))
    A, B = np.array(tuples, dtype=np.int64).T
    mags = np.abs(numeric_sums(product_exponents(ctx, chi, H, A, B), p - 1))
    return [_peak_record(ctx, H, "5", "shifted_product", mags,
                         lambda i: {"chi": chi.index, "a": int(A[i]), "b": int(B[i])},
                         len(tuples))]


def scan_problem6(p: int, seed: int = 0) -> list[dict]:
    """Extremal ratios for the two inverse-argument exponential sums over H."""
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    if p <= FULL_GRID_MAX_P:
        tuples = [(k, l) for k in range(1, p) for l in range(1, p)]
    else:
        rng = seeded_rng(seed, p, "scan-6")
        tuples = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(SAMPLE_SIZE)]
    K, L = np.array(tuples, dtype=np.int64).T

    def record(sum_kind: str, exponents: np.ndarray, second: str) -> dict:
        return _peak_record(ctx, H, "6", sum_kind, np.abs(numeric_sums(exponents, p)),
                            lambda i: {"k": int(K[i]), second: int(L[i])}, len(tuples))

    # sum_{x in H} e((kx + l x*) / p), and the sum over x in H, x != -a, of
    # e(k (x+a)* / p), which reads the tuple grid as (k, a)
    return [record("kloosterman", kloosterman_exponents(ctx, H, K, L), "l"),
            record("inverse_shift", inverse_shift_exponents(ctx, H, K, L), "a")]


_SCANNERS = {"1": scan_problem1, "5": scan_problem5, "6": scan_problem6}


def scan_prime(problem: str, p: int, seed: int = 0) -> list[dict]:
    if problem not in _SCANNERS:
        raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")
    return _SCANNERS[problem](p, seed)


def scan_range(problem: str, p_min: int, p_max: int, seed: int = 0,
               workers: int = 1) -> list[dict]:
    """Scan every prime in [p_min, p_max]; records sorted by (p, sum_kind).  p_min
    above p_max raises ValueError, and a range whose largest prime passes the dlog
    table cap raises before any prime is scanned."""
    if p_min > p_max:
        raise ValueError(f"p_min {p_min} is above p_max {p_max}")
    primes = list(primes_in(max(p_min, 3), p_max))
    if primes:
        require_table_cap(primes[-1])
    records = map_tasks(scan_prime, [(problem, p, seed) for p in primes], workers, chunksize=8)
    records.sort(key=lambda r: (r["p"], r["sum_kind"]))
    return records
