import tracemalloc

import numpy as np
import pytest

from charsum.errors import CapacityExceeded, NotOddPrime, ZeroInverse
from charsum.field import (
    _powers,
    inverse_table,
    is_prime,
    make_ctx,
    mod_inverse,
    primes_in,
    subgroup_near_sqrt,
    subgroup_of_order,
    subgroups,
)


def brute_force_smallest_primitive_root(p):
    for g in range(2, p):
        seen = set()
        cur = 1
        for _ in range(p - 1):
            seen.add(cur)
            cur = cur * g % p
        if len(seen) == p - 1:
            return g
    raise AssertionError


class TestMakeCtx:
    def test_p7(self):
        ctx = make_ctx(7)
        assert ctx.g == 3
        assert ctx.dlog[2] == 2  # 3^2 = 2 mod 7

    def test_p5_exp_table(self):
        ctx = make_ctx(5)
        assert ctx.g == 2
        assert list(ctx.exp) == [1, 2, 4, 3]

    @pytest.mark.parametrize("bad", [9, 2, 1, 0, -7, 15, 10**6])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(NotOddPrime):
            make_ctx(bad)

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            make_ctx(10_000_019)

    @pytest.mark.parametrize("p", [3, 5, 7, 31, 101, 499, 9973])
    def test_tables_round_trip(self, p):
        ctx = make_ctx(p)
        x = np.arange(1, p)
        assert np.array_equal(ctx.exp[ctx.dlog[x]], x)
        t = np.arange(p - 1)
        assert np.array_equal(ctx.dlog[ctx.exp[t]], t)
        assert ctx.dlog[0] == -1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 10_007, 1_000_003])
    def test_tables_equal_power_loop(self, p):
        ctx = make_ctx(p)
        powers = [1] * (p - 1)
        for t in range(1, p - 1):
            powers[t] = powers[t - 1] * ctx.g % p
        dlog = [-1] * p
        for t, x in enumerate(powers):
            dlog[x] = t
        assert ctx.exp.dtype == np.int64 and ctx.exp.tolist() == powers
        assert ctx.dlog.dtype == np.int64 and ctx.dlog.tolist() == dlog

    def test_exp_at_the_table_cap(self):
        # the largest prime under the cap, where the power table's products reach
        # about 10^14: sampled entries equal pow(g, t, p), the first and last too,
        # and exp takes every nonzero residue exactly once
        p = 9_999_991
        ctx = make_ctx(p)
        t = np.append(np.random.default_rng(7).integers(0, p - 1, size=1000), [0, p - 2])
        assert [ctx.exp[s] for s in t.tolist()] == [pow(ctx.g, s, p) for s in t.tolist()]
        assert len(ctx.exp) == p - 1 and ctx.exp.min() == 1 and ctx.exp.max() == p - 1
        seen = np.zeros(p, dtype=bool)
        seen[ctx.exp] = True
        assert seen[1:].all()

    def test_ctx_peaks_at_one_int64_array_and_dlog_read_at_two_and_one_int32(self):
        # the power table is reduced in place and exp is its head: about 8 bytes a
        # residue; dlog's first read adds its int64 table and an int32 arange.
        # numpy's ufunc buffers add a fixed ~128 KB, under 0.2 bytes a residue here
        p = 1_000_003
        make_ctx(101).dlog
        for read_dlog, bound in ((False, 9 * p), (True, 21 * p)):
            tracemalloc.start()
            try:
                ctx = make_ctx(p)
                if read_dlog:
                    ctx.dlog
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, read_dlog

    def test_dlog_is_built_once(self):
        ctx = make_ctx(101)
        assert ctx.dlog is ctx.dlog

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 41, 191])
    def test_smallest_primitive_root(self, p):
        assert make_ctx(p).g == brute_force_smallest_primitive_root(p)

    def test_primitive_root_order_condition(self):
        ctx = make_ctx(241)
        for q in ctx.factorization:
            assert pow(ctx.g, (ctx.p - 1) // q, ctx.p) != 1

    def test_factorization_and_divisors(self):
        ctx = make_ctx(61)
        assert ctx.factorization == {2: 2, 3: 1, 5: 1}
        assert ctx.divisors == (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)


class TestSubgroups:
    def test_p7_orders(self):
        ctx = make_ctx(7)
        assert [H.order for H in subgroups(ctx)] == [1, 2, 3, 6]

    def test_p7_order3_elements(self):
        ctx = make_ctx(7)
        elements = subgroup_of_order(ctx, 3).elements
        assert elements.dtype == np.int64
        assert elements.tolist() == [1, 2, 4]

    def test_p3(self):
        ctx = make_ctx(3)
        assert [H.order for H in subgroups(ctx)] == [1, 2]

    def test_count_equals_divisor_count(self):
        for p in primes_in(3, 200):
            ctx = make_ctx(p)
            assert len(subgroups(ctx)) == len(ctx.divisors)

    def test_closure_and_inversion(self):
        for p in primes_in(3, 500):
            ctx = make_ctx(p)
            for H in subgroups(ctx):
                arr = H.elements
                elems = set(arr.tolist())
                assert 1 in elems
                assert len(elems) == H.order
                products = set((arr[:, None] * arr[None, :] % p).ravel().tolist())
                assert products <= elems
                assert all(pow(x, -1, p) in elems for x in elems)

    def test_elements_equal_power_loop(self):
        for p in primes_in(3, 2000):
            ctx = make_ctx(p)
            for n in ctx.divisors:
                H = subgroup_of_order(ctx, n)
                expected = sorted(_powers(H.generator, n, p))
                assert H.elements.dtype == np.int64
                assert H.elements.tolist() == expected
                # cached and shared, so no reader may write into it
                assert H.elements is H.elements
                assert not H.elements.flags.writeable

    def test_generator_consistency(self):
        ctx = make_ctx(31)
        for H in subgroups(ctx):
            assert H.generator == pow(ctx.g, H.index, 31)
            powers = {pow(H.generator, i, 31) for i in range(H.order)}
            assert powers == set(H.elements)


class TestSubgroupNearSqrt:
    @pytest.mark.parametrize("p,expected", [(7, 3), (5, 2), (3, 2)])
    def test_examples(self, p, expected):
        assert subgroup_near_sqrt(make_ctx(p)).order == expected

    def test_minimizes_distance(self):
        for p in (61, 101, 499):
            ctx = make_ctx(p)
            best = subgroup_near_sqrt(ctx).order
            root = p**0.5
            assert all(abs(best - root) <= abs(n - root) for n in ctx.divisors)


class TestModInverse:
    def test_examples(self):
        ctx = make_ctx(7)
        assert mod_inverse(ctx, 3) == 5
        assert mod_inverse(ctx, 1) == 1
        # a subgroup's elements are numpy integers; a float is still refused
        assert mod_inverse(ctx, np.int64(3)) == 5
        with pytest.raises(TypeError):
            mod_inverse(ctx, 3.0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInverse):
            mod_inverse(make_ctx(7), 0)

    def test_all_residues(self):
        ctx = make_ctx(101)
        inv = inverse_table(ctx)
        assert inv[0] == 0
        for x in range(1, 101):
            assert x * mod_inverse(ctx, x) % 101 == 1
            assert inv[x] == mod_inverse(ctx, x)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == known
    assert is_prime(1000003)
    assert not is_prime(1000001)  # 101 * 9901
