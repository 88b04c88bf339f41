import math

import numpy as np
import pytest

from charsum.characters import character
from charsum.engines import (
    inverse_shift_sum,
    kloosterman_over_H,
    shifted_product_sum,
    shifted_sum,
    shifted_values_all,
)
from charsum.field import make_ctx, subgroup_of_order
from charsum.scan import scan_prime, scan_range


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

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            scan_prime("2", 7)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            scan_range("1", 3, 13, workers=workers)
