import json
import math
from pathlib import Path

import numpy as np
import pytest

from charsum.characters import character
from charsum.engines import (
    inverse_shift_sum,
    kloosterman_over_H,
    shifted_exponents,
    shifted_product_sum,
    shifted_sum,
    shifted_values_all,
)
from charsum import scan, values
from charsum.errors import CapacityExceeded
from charsum.field import FieldCtx, make_ctx, subgroup_of_order
from charsum.scan import scan_prime, scan_range
from references import direct_roots

DATA_DIR = Path(__file__).resolve().parent / "data"


class TestProblem1:
    def test_p7_record(self):
        (rec,) = scan_prime("1", 7)
        assert rec["p"] == 7
        assert rec["H_order"] == 3
        assert rec["stat"] == pytest.approx(1 / math.sqrt(7), abs=1e-9)
        assert rec["order_ratio"] == pytest.approx(3 / math.sqrt(7))

    def test_achiever_reproduces_stat(self):
        for p in (13, 61, 103):
            (rec,) = scan_prime("1", p)
            ctx = make_ctx(p)
            H = subgroup_of_order(ctx, rec["H_order"])
            chi = character(ctx, rec["achiever"]["chi"])
            s = shifted_sum(ctx, chi, H.elements, rec["achiever"]["a"], "numeric")
            assert s.magnitude / math.sqrt(p) == pytest.approx(rec["stat"], abs=1e-9)
            # the coset reading misses no shift: stat is the peak over every a != 0
            peak = np.abs(shifted_values_all(ctx, chi, H.elements)[1:]).max()
            assert peak / math.sqrt(p) == pytest.approx(rec["stat"], abs=1e-9)


class TestProblem5:
    def test_achiever_reproduces_stat(self):
        for p in (13, 61, 103):
            (rec,) = scan_prime("5", p, seed=7)
            ctx = make_ctx(p)
            H = subgroup_of_order(ctx, rec["H_order"])
            chi = character(ctx, rec["achiever"]["chi"])
            s = shifted_product_sum(ctx, chi, H,
                                    rec["achiever"]["a"], rec["achiever"]["b"], "numeric")
            assert s.magnitude / math.sqrt(p) == pytest.approx(rec["stat"], abs=1e-9)

    def test_full_grid_below_threshold(self):
        (rec,) = scan_prime("5", 13)
        assert rec["tuples"] == 12 * 11

    def test_sample_above_threshold(self):
        (rec,) = scan_prime("5", 103, seed=1)
        assert rec["tuples"] == 1000


class TestProblem6:
    def test_two_records(self):
        recs = scan_prime("6", 13)
        assert [r["sum_kind"] for r in recs] == ["kloosterman", "inverse_shift"]

    def test_achievers_reproduce(self):
        for p in (13, 103):
            recs = scan_prime("6", p, seed=3)
            ctx = make_ctx(p)
            for rec in recs:
                H = subgroup_of_order(ctx, rec["H_order"])
                ach = rec["achiever"]
                if rec["sum_kind"] == "kloosterman":
                    s = kloosterman_over_H(ctx, H, ach["k"], ach["l"])
                else:
                    s = inverse_shift_sum(ctx, H, ach["k"], ach["a"])
                assert s.magnitude / math.sqrt(p) == pytest.approx(rec["stat"], abs=1e-9)


class TestScanRange:
    def test_sorted_and_deterministic(self):
        a = scan_range("1", 3, 61, seed=5)
        b = scan_range("1", 3, 61, seed=5)
        assert a == b
        assert [r["p"] for r in a] == sorted(r["p"] for r in a)

    def test_worker_independence(self):
        a = scan_range("6", 3, 31, seed=5)
        b = scan_range("6", 3, 31, seed=5, workers=2)
        assert a == b

    def test_empty_range(self):
        assert scan_range("1", 24, 28) == []

    def test_problem1_never_builds_dlog(self, monkeypatch):
        """Problem 1 reads chi off the signs of exp, so a context whose dlog
        cannot be built still gives the stored reference, byte for byte."""
        def unbuilt(ctx):
            raise AssertionError(f"dlog built at p={ctx.p}")

        monkeypatch.setattr(FieldCtx, "dlog", property(unbuilt))
        text = "".join(json.dumps(r, sort_keys=True, default=str) + "\n"
                       for r in scan_range("1", 3, 3000))
        assert text.encode() == (DATA_DIR / "scan1.p3-3000.jsonl").read_bytes()

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            scan_prime("2", 7)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            scan_range("1", 3, 13, workers=workers)

    def test_workers_checked_before_any_task(self):
        # 24..28 holds no prime, so no task runs; the worker count is still checked
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            scan_range("1", 24, 28, workers=0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="p_min 100 is above p_max 50"):
            scan_range("1", 100, 50)

    def test_range_past_the_table_cap_fails_before_scanning(self, monkeypatch):
        def scanned(*task):
            raise AssertionError(f"scanned {task} before the cap check")

        monkeypatch.setattr(scan, "scan_prime", scanned)
        with pytest.raises(CapacityExceeded, match="p=10000079 exceeds dlog table cap 10000000"):
            scan_range("1", 9_999_900, 10_000_100)


@pytest.mark.parametrize("problem", scan.PROBLEMS)
def test_records_equal_the_direct_formula(problem, monkeypatch):
    # roots reads the quadratic character's values from a table; the records must
    # be the ones the term-by-term formula gives, bit for bit
    primes = (13, 103, 100003)
    got = [scan_prime(problem, p, seed=3) for p in primes]
    calls = []

    def direct(exponents, m):
        calls.append(m)
        return direct_roots(exponents, m)

    monkeypatch.setattr(values, "roots", direct)
    assert [scan_prime(problem, p, seed=3) for p in primes] == got
    if problem == "1":
        # problem 1 counts residues and reads no root: its peak must be the
        # formula's over every coset representative, and be reached at the achiever
        for p, (rec,) in zip(primes, got):
            ctx = make_ctx(p)
            H = subgroup_of_order(ctx, rec["H_order"])
            chi = character(ctx, rec["achiever"]["chi"])
            sums = values.numeric_sums(
                shifted_exponents(ctx, chi, H.elements, ctx.exp[:H.index]), p - 1)
            peak = np.hypot(sums.real, sums.imag).max()
            assert rec["stat"] == float(peak / math.sqrt(p))
            a = rec["achiever"]["a"]
            assert shifted_sum(ctx, chi, H.elements, a, "numeric").magnitude == peak
    assert calls
