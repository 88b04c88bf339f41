"""End-to-end acceptance checks.

One test per acceptance criterion, in order; `pytest -v` shows one pass/fail
line for each.  Identities are checked with margin exactly zero in cyclotomic
integer arithmetic; inequalities use the library-wide 1e-9 tolerance.
"""

import math
import os
import random
import time

import numpy as np
import pytest

from charsum.characters import all_characters, character, quadratic_character
from charsum.cli import main
from charsum.cyclo import CycInt
from charsum.engines import bilinear_Sprime, nonlinear_sum_xxa, shifted_sum
from charsum.field import (
    is_prime,
    make_ctx,
    primes_in,
    subgroup_near_sqrt,
    subgroup_of_order,
    subgroups,
)
from charsum.scan import scan_range
from charsum.values import Weights
from charsum.verifier import (
    check_kernel_cases,
    check_konyagin,
    check_lemma3,
    random_subsets,
    random_weights,
    run_suite,
    shifted_values_all,
)

SEED = 42


def _report(label: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{label}: {detail}"


def _ctx_cache():
    cache = {}

    def get(p):
        if p not in cache:
            cache[p] = make_ctx(p)
        return cache[p]

    return get


get_ctx = _ctx_cache()


def test_01_mean_square_shift_identity_exact():
    # sum over all shifts of |S(a)|^2 equals p|D| - |D|^2, exactly, for every
    # odd prime p <= 61, every nonprincipal character, D over all subgroups
    # plus 20 seeded random subsets.
    t0 = time.perf_counter()
    verdicts = run_suite(3, 61, claims=["eq2"], seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = (bool(verdicts)
          and all(v.kind == "verdict" for v in verdicts)
          and all(v.passed and v.margin == 0.0 for v in verdicts)
          and elapsed < 300)
    _report("mean-square shift identity (exact)", ok,
            f"{len(verdicts)} cases, {elapsed:.1f}s")


def test_02_sqrt_p_bound_all_small_primes():
    # max over nonzero shifts of |sum_{x in H} chi(x+a)| < sqrt(p), strictly,
    # for every p <= 101, every subgroup, every nonprincipal character.
    verdicts = run_suite(3, 101, claims=["thm2"], seed=SEED)
    ok = bool(verdicts) and all(v.passed for v in verdicts)
    # spot value: p=7, H={1,2,4}, quadratic character -> max exactly 1
    spot = next(v for v in verdicts
                if v.params == {"p": 7, "chi": 3, "H": 3})
    ok = ok and spot.computed == pytest.approx(1.0, abs=1e-9)
    _report("strict sqrt(p) bound on shifted subgroup sums", ok,
            f"{len(verdicts)} cases, spot max {spot.computed:.6f}")


def test_03_sharpened_square_bound():
    # |S(a)|^2 <= (p|H| - |sum_{x in H} chi(x)|^2)/|H| on the same grid.
    verdicts = run_suite(3, 101, claims=["thm2_sharp"], seed=SEED)
    ok = bool(verdicts) and all(v.passed for v in verdicts)
    _report("sharpened squared bound", ok, f"{len(verdicts)} cases")


def test_04_bilinear_bound_and_kernel_case_table():
    # |S|, |S'| <= sqrt(pXY) on 100 seeded weight pairs x 5 characters for
    # p in {11, 101, 499}; the proof kernel matches its four-case closed form
    # exactly on the full (y, y1) grid for all p <= 31, all chi, all shifts.
    checked = 0
    for p in (11, 101, 499):
        ctx = get_ctx(p)
        rng = random.Random(f"{SEED}|{p}|acceptance-lemma3")
        chis = [character(ctx, rng.randrange(1, p - 1)) for _ in range(5)]
        for _ in range(100):
            xi = random_weights(p, rng)
            eta = random_weights(p, rng)
            a = rng.randrange(1, p)
            for chi in chis:
                v = check_lemma3(ctx, chi, xi, eta, a)
                assert v.passed, (p, chi.index, a)
                checked += 1
    mismatches = 0
    grids = 0
    for p in primes_in(3, 31):
        ctx = get_ctx(p)
        for j in range(1, p - 1):
            chi = character(ctx, j)
            for a in range(1, p):
                v = check_kernel_cases(ctx, chi, a)
                mismatches += int(v.computed)
                grids += 1
    ok = checked == 1500 and mismatches == 0
    _report("bilinear bound and exact kernel case table", ok,
            f"{checked} weight checks, {grids} full grids, {mismatches} mismatches")


def test_05_full_dual_sum_identity_structural():
    # sum over all characters of |sum_{n in H} chi(n)| = p - 1, structurally:
    # the characters trivial on H contribute exactly |H|, all others exactly 0.
    # The <= p consequence is reported alongside.
    verdicts = run_suite(3, 101, claims=["granville", "shkredov"], seed=SEED)
    gran = [v for v in verdicts if v.claim == "granville"]
    shk = [v for v in verdicts if v.claim == "shkredov"]
    ok = (bool(gran) and bool(shk)
          and all(v.passed and v.margin == 0.0 for v in gran)
          and all(v.passed for v in shk))
    _report("full dual-group sum identity (structural)", ok,
            f"{len(gran)} identities, {len(shk)} bound reports")


def test_06_character_averaged_bound():
    # (1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|) for all p <= 101,
    # all subgroups, all nonzero shifts.
    verdicts = run_suite(3, 101, claims=["meanvalue2"], seed=SEED)
    ok = bool(verdicts) and all(v.passed for v in verdicts)
    spot = next(v for v in verdicts
                if v.params == {"p": 7, "H": 3, "a": 1})
    expected = (6 + 2 * math.sqrt(3)) / 6
    ok = (ok and spot.computed == pytest.approx(expected, abs=1e-9)
          and spot.computed <= math.sqrt(3))
    _report("character-averaged shifted-sum bound", ok,
            f"{len(verdicts)} cases, spot avg {spot.computed:.4f}")


def test_07_exponential_sum_identity_all_moduli():
    # sum over nonzero a of |sum_{x in D} e_q(ax)|^2 = |D|(q - |D|), exactly,
    # for every modulus 2 <= q <= 60 and 10 seeded random subsets per q.
    checked = 0
    composite = 0
    for q in range(2, 61):
        rng = random.Random(f"{SEED}|{q}|acceptance-exp")
        dsets = random_subsets(q, 10, rng) if q > 2 else [[0], [1]] * 5
        for D in dsets:
            v = check_konyagin(q, D)
            assert v.passed and v.margin == 0.0, (q, D)
            checked += 1
        composite += int(not is_prime(q))
    ok = checked == 590 and composite > 0
    _report("exponential-sum mean-square identity over general moduli", ok,
            f"{checked} cases across 59 moduli ({composite} composite)")


def test_08_nonlinear_bound_and_bilinear_identity():
    # |sum_{x in H} chi(x(x+a))| <= sqrt(p) for all p <= 101, all H, all
    # nonprincipal chi, all nonzero shifts; and |H| * (that sum) equals the
    # twisted bilinear form on indicator weights, exactly, for p <= 61.
    verdicts = run_suite(3, 101, claims=["nonlinear"], seed=SEED)
    ok = bool(verdicts) and all(v.passed for v in verdicts)

    identities = 0
    for p in primes_in(3, 61):
        ctx = get_ctx(p)
        rng = random.Random(f"{SEED}|{p}|acceptance-nonlinear")
        hs = subgroups(ctx)
        for H in hs:
            ind = Weights.indicator(p, H.elements)
            for j in range(1, p - 1):
                chi = character(ctx, j)
                for _ in range(3):
                    a = rng.randrange(1, p)
                    lhs = CycInt.from_int(p - 1, H.order) * nonlinear_sum_xxa(
                        ctx, chi, H, a, "exact").exact
                    rhs = bilinear_Sprime(ctx, chi, ind, ind, a, "exact").exact
                    assert lhs == rhs, (p, H.order, j, a)
                    identities += 1
    ok = ok and identities > 0
    _report("nonlinear-argument bound and exact bilinear identity", ok,
            f"{len(verdicts)} bound cases, {identities} exact identities")


def test_09_engine_equivalence():
    # batch all-shifts numeric kernel agrees with the naive exact engine
    # within 1e-9 * p on 50 seeded random (p, chi, D) instances with p <= 1e4.
    rng = random.Random(f"{SEED}|acceptance-engines")
    prime_pool = list(primes_in(3, 10_001))
    worst = 0.0
    for _ in range(50):
        p = rng.choice(prime_pool)
        ctx = make_ctx(p)
        chi = character(ctx, rng.randrange(1, p - 1))
        size = min(p - 1, rng.choice([1, 2, max(1, math.isqrt(p)), 50]))
        D = rng.sample(range(1, p), size)
        batch = shifted_values_all(ctx, chi, D)
        for a in [0, 1] + [rng.randrange(p) for _ in range(3)]:
            exact = shifted_sum(ctx, chi, D, a, "exact").to_complex()
            err = abs(batch[a] - exact)
            worst = max(worst, err / p)
            assert err <= 1e-9 * p, (p, chi.index, a, err)
    _report("batch numeric kernel matches naive exact engine", True,
            f"50 instances, worst relative error {worst:.2e}")


def test_10_performance():
    # all-shifts evaluation at p ~ 1e6 in <= 10 s, including table setup;
    # the quadratic-character scan over [1e5, 1.1e5] in <= 5 min on up to 8 workers.
    p = 1_000_003
    assert is_prime(p)
    t0 = time.perf_counter()
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    vals = shifted_values_all(ctx, quadratic_character(ctx), H.elements)
    single = time.perf_counter() - t0
    assert len(vals) == p

    t0 = time.perf_counter()
    workers = min(8, os.cpu_count() or 1)
    records = scan_range("1", 100_000, 110_000, seed=SEED, workers=workers)
    scan_elapsed = time.perf_counter() - t0
    n_primes = len(list(primes_in(100_000, 110_000)))
    ok = (single <= 10.0 and scan_elapsed <= 300.0
          and len(records) == n_primes
          and all(r["stat"] < 1.0 for r in records))
    _report("performance envelopes", ok,
            f"all-shifts {single:.1f}s <= 10s, "
            f"{n_primes}-prime scan {scan_elapsed:.1f}s <= 300s")


def test_11_byte_identical_verification_output(tmp_path):
    # two runs of `verify --p-max 61 --seed 42` write byte-identical output.
    f1 = tmp_path / "run1.jsonl"
    f2 = tmp_path / "run2.jsonl"
    args = ["verify", "--p-max", "61", "--seed", "42"]
    code1 = main(args + ["--out", str(f1), "--workers", "4"])
    code2 = main(args + ["--out", str(f2), "--workers", "4"])
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 and b1 == b2
    _report("byte-identical verification reruns", ok,
            f"{len(b1)} bytes each, exit codes {code1}/{code2}")
