"""Range scans for the open problems: extremal sum statistics over primes,
with the subgroup chosen closest to sqrt(p).

No bound is asserted here; the scans record the observed extremal ratio
|sum| / sqrt(p) and the parameters achieving it.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import quadratic_character
from .engines import shifted_values_all
from .field import inverse_table, make_ctx, primes_in, subgroup_near_sqrt
from .verifier import map_tasks, seeded_rng

PROBLEMS = ("1", "5", "6")

# below this, parameter grids are exhaustive; above, seeded random samples
FULL_GRID_MAX_P = 101
SAMPLE_SIZE = 1000


def _base_record(ctx, H, problem: str) -> dict:
    return {
        "kind": "scan",
        "problem": problem,
        "p": ctx.p,
        "H_order": H.order,
        "order_ratio": H.order / math.sqrt(ctx.p),
    }


def scan_problem1(p: int, seed: int = 0) -> list[dict]:
    """max over nonzero shifts of |sum_{x in H} chi(x+a)| / sqrt(p), quadratic chi."""
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    chi = quadratic_character(ctx)
    mags = np.abs(shifted_values_all(ctx, chi, H))
    a = int(np.argmax(mags[1:])) + 1
    rec = _base_record(ctx, H, "1")
    rec.update({
        "sum_kind": "shifted",
        "stat": float(mags[a] / math.sqrt(p)),
        "achiever": {"chi": chi.index, "a": a},
        "tuples": p - 1,
    })
    return [rec]


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
    A = np.array([t[0] for t in tuples], dtype=np.int64)
    B = np.array([t[1] for t in tuples], dtype=np.int64)
    h = np.array(H.elements, dtype=np.int64)
    args = ((h[:, None] + A[None, :]) % p) * ((h[:, None] + B[None, :]) % p) % p
    table = chi.value_table()
    mags = np.abs(table[args].sum(axis=0))
    i = int(np.argmax(mags))
    rec = _base_record(ctx, H, "5")
    rec.update({
        "sum_kind": "shifted_product",
        "stat": float(mags[i] / math.sqrt(p)),
        "achiever": {"chi": chi.index, "a": int(A[i]), "b": int(B[i])},
        "tuples": len(tuples),
    })
    return [rec]


def scan_problem6(p: int, seed: int = 0) -> list[dict]:
    """Extremal ratios for the two inverse-argument exponential sums over H."""
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    h = np.array(H.elements, dtype=np.int64)
    hinv = inverse_table(ctx)
    e_table = np.exp(2j * np.pi * np.arange(p) / p)

    if p <= FULL_GRID_MAX_P:
        tuples = [(k, l) for k in range(1, p) for l in range(1, p)]
    else:
        rng = seeded_rng(seed, p, "scan-6")
        tuples = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(SAMPLE_SIZE)]
    K = np.array([t[0] for t in tuples], dtype=np.int64)
    L = np.array([t[1] for t in tuples], dtype=np.int64)

    records = []
    # sum_{x in H} e((kx + l x*) / p)
    args = (h[:, None] * K[None, :] + hinv[h][:, None] * L[None, :]) % p
    mags = np.abs(e_table[args].sum(axis=0))
    i = int(np.argmax(mags))
    rec = _base_record(ctx, H, "6")
    rec.update({
        "sum_kind": "kloosterman",
        "stat": float(mags[i] / math.sqrt(p)),
        "achiever": {"k": int(K[i]), "l": int(L[i])},
        "tuples": len(tuples),
    })
    records.append(rec)

    # sum over x in H, x != -a, of e(k (x+a)* / p); reuse the tuple grid as (k, a)
    shifted = (h[:, None] + L[None, :]) % p
    terms = e_table[(hinv[shifted] * K[None, :]) % p]
    terms[shifted == 0] = 0.0
    mags = np.abs(terms.sum(axis=0))
    i = int(np.argmax(mags))
    rec = _base_record(ctx, H, "6")
    rec.update({
        "sum_kind": "inverse_shift",
        "stat": float(mags[i] / math.sqrt(p)),
        "achiever": {"k": int(K[i]), "a": int(L[i])},
        "tuples": len(tuples),
    })
    records.append(rec)
    return records


_SCANNERS = {"1": scan_problem1, "5": scan_problem5, "6": scan_problem6}


def scan_prime(problem: str, p: int, seed: int = 0) -> list[dict]:
    if problem not in _SCANNERS:
        raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")
    return _SCANNERS[problem](p, seed)


def scan_range(problem: str, p_min: int, p_max: int, seed: int = 0,
               workers: int = 1) -> list[dict]:
    """Scan every prime in [p_min, p_max]; records sorted by (p, sum_kind)."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    primes = list(primes_in(max(p_min, 3), p_max))
    records: list[dict] = []
    for recs in map_tasks(scan_prime, [(problem, p, seed) for p in primes], workers,
                          chunksize=8):
        records.extend(recs)
    records.sort(key=lambda r: (r["p"], r["sum_kind"]))
    return records
