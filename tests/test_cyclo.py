import cmath
import random

import numpy as np
import pytest

from charsum.cyclo import CycInt, cyclotomic_poly, reduce_counts, reduction_rows
from charsum.errors import CapacityExceeded, MixedOrder
from charsum.field import divisors_from_factorization, factorize
from references import cyclotomic_by_division


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            out[i + k] += ai * bk
    return out


def long_division_remainder(coeffs, m):
    """Reference reduction mod Phi_m by schoolbook division in Python integers."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    r = list(coeffs)
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for k in range(deg):
                r[i - deg + k] -= c * phi[k]
    return tuple(r[:deg])


class TestCyclotomicPoly:
    def test_small_orders(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)

    def test_product_over_divisors_is_x_pow_m_minus_1(self):
        for m in range(1, 201):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = poly_mul(prod, list(cyclotomic_poly(d)))
            expected = [-1] + [0] * (m - 1) + [1]
            assert prod == expected, f"failed at m={m}"

    def test_binomial_product_equals_division(self):
        for m in range(1, 501):
            assert cyclotomic_poly(m) == cyclotomic_by_division(m), f"failed at m={m}"

    @pytest.mark.parametrize("m", [5040, 9240])
    def test_product_over_many_divisors_is_x_pow_m_minus_1(self, m):
        """5040 has 60 divisors and 9240 has 64; the product is taken in Python
        integers (object dtype), since int64 partial products can overflow."""
        prod = np.array([1], dtype=object)
        for d in divisors_from_factorization(factorize(m)):
            prod = np.convolve(prod, np.array(cyclotomic_poly(d), dtype=object))
        assert prod.tolist() == [-1] + [0] * (m - 1) + [1]

    def test_cold_build_caches_only_its_order(self):
        cyclotomic_poly.cache_clear()
        cyclotomic_poly(9240)
        assert cyclotomic_poly.cache_info().currsize == 1

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)
        with pytest.raises(CapacityExceeded):
            cyclotomic_poly(10_001)

    def test_reduction_rows_match_direct_reduction(self):
        for m in (1, 2, 6, 12, 30, 105, 210):
            rows = reduction_rows(m)
            assert rows.dtype == np.float64 and rows.shape == (m, len(cyclotomic_poly(m)) - 1)
            assert not rows.flags.writeable
            for i in range(m):
                expected = long_division_remainder(CycInt.root(m, i).coeffs, m)
                assert tuple(rows[i].tolist()) == expected

    def test_reduced_matches_long_division(self):
        rng = random.Random(5)
        for m in (6, 12, 30, 105):
            for _ in range(10):
                a = CycInt(m, [rng.randint(-10**12, 10**12) for _ in range(m)])
                assert a.reduced() == long_division_remainder(a.coeffs, m)


class TestOverflowGuard:
    def test_row_bound_past_2_63_raises(self):
        counts = np.zeros((2, 6), dtype=np.int64)
        counts[0, 0] = 1
        counts[1, 4] = counts[1, 5] = 2**62  # sum|row| * max|R| = 2^63
        with pytest.raises(CapacityExceeded):
            reduce_counts(counts)
        with pytest.raises(CapacityExceeded):
            CycInt(6, counts[1].tolist()).is_zero()

    def test_bound_near_2_63_is_exact(self):
        # every x^i mod Phi_6 = x^2 - x + 1 has coefficients in {-1, 0, 1}
        counts = np.zeros(6, dtype=np.int64)
        counts[0] = 2**62
        counts[3] = 2**62 - 2**30  # x^3 = -1
        assert reduce_counts(counts).tolist() == [2**30, 0]

    @pytest.mark.parametrize("c0, c3", [(2**52 + 1, 2**52 - 2**14 + 1),  # float64 product
                                        (2**53 + 1, 2**51 - 1)])  # int64 product
    def test_bound_either_side_of_2_53_is_exact(self, c0, c3):
        # below 2^53 every partial sum is a float64 integer; 2^53 + 1 is not one
        counts = np.zeros(6, dtype=np.int64)
        counts[0], counts[3] = c0, c3  # x^3 = -1 mod Phi_6
        assert reduce_counts(counts).tolist() == [c0 - c3, 0]

    def test_coefficient_outside_int64_raises(self):
        with pytest.raises(CapacityExceeded):
            CycInt.from_int(6, 2**70).as_integer()


class TestFromExponents:
    def test_skips_zero_term_sentinel(self):
        a = CycInt.from_exponents(6, np.array([[0, -1, 2], [2, 5, -1]]))
        assert a.coeffs == [1, 0, 2, 0, 0, 1]

    def test_integer_weights_add_exactly(self):
        # 2^53 + 1 is not a float64; float bincount weights would round it
        a = CycInt.from_exponents(4, np.array([1, 1, 3]), np.array([2**53, 1, -7]))
        assert a.coeffs == [0, 2**53 + 1, 0, -7]

    def test_rejects_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            CycInt.from_exponents(6, np.array([6]))


class TestRingOperations:
    def test_real_sum_of_sixth_roots(self):
        # zeta_6 + zeta_6^5 = 2 cos(pi/3) = 1
        v = CycInt.root(6, 1) + CycInt.root(6, 5)
        assert v.as_integer() == 1

    def test_fourth_roots_multiply_to_one(self):
        assert (CycInt.root(4, 1) * CycInt.root(4, 3)).as_integer() == 1

    def test_multiplicative_identity(self):
        a = CycInt(12, list(range(12)))
        assert a * CycInt.from_int(12, 1) == a
        assert a * 1 == a

    def test_mixed_order_rejected(self):
        with pytest.raises(MixedOrder):
            CycInt.root(4, 1) + CycInt.root(6, 1)
        with pytest.raises(MixedOrder):
            CycInt.root(4, 1) * CycInt.root(6, 1)

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            CycInt.zero(10_001)

    def test_ring_axioms_on_random_elements(self):
        rng = random.Random(7)
        for m in (6, 12, 30):
            for _ in range(20):
                a, b, c = (
                    CycInt(m, [rng.randint(-9, 9) for _ in range(m)]) for _ in range(3)
                )
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a
                assert a - a == CycInt.zero(m)


class TestConjugationAndNorm:
    def test_conj_fixes_integers(self):
        assert CycInt.from_int(6, 5).conj().as_integer() == 5

    def test_conj_negates_index(self):
        assert CycInt.root(6, 1).conj() == CycInt.root(6, 5)
        a = CycInt.root(6, 1) + 2 * CycInt.root(6, 2)
        assert a.conj() == CycInt.root(6, 5) + 2 * CycInt.root(6, 4)

    def test_conj_agrees_with_complex_conjugation(self):
        rng = random.Random(11)
        for _ in range(10):
            a = CycInt(20, [rng.randint(-5, 5) for _ in range(20)])
            assert cmath.isclose(a.conj().to_complex(), a.to_complex().conjugate(),
                                 abs_tol=1e-9)

    def test_abs_squared(self):
        assert CycInt.zero(6).abs_squared().as_integer() == 0
        assert CycInt.root(6, 1).abs_squared().as_integer() == 1
        # |1 + i|^2 = 2
        assert (CycInt.from_int(4, 1) + CycInt.root(4, 1)).abs_squared().as_integer() == 2

    def test_abs_squared_is_self_conjugate(self):
        rng = random.Random(13)
        for _ in range(10):
            a = CycInt(12, [rng.randint(-5, 5) for _ in range(12)])
            sq = a.abs_squared()
            assert sq == sq.conj()


class TestIntegrality:
    def test_full_root_sum_vanishes(self):
        total = CycInt.zero(6)
        for i in range(6):
            total = total + CycInt.root(6, i)
        assert total.as_integer() == 0

    def test_single_root_not_integer(self):
        assert not CycInt.root(6, 1).is_integer()
        assert CycInt.root(6, 1).as_integer() is None

    def test_constant(self):
        assert CycInt.from_int(6, 7).as_integer() == 7


class TestComplexEmbedding:
    def test_constant(self):
        assert CycInt.from_int(8, 3).to_complex() == pytest.approx(3.0)

    def test_quarter_root(self):
        z = CycInt.root(4, 1).to_complex()
        assert abs(z - 1j) < 1e-15

    def test_sixth_root(self):
        z = CycInt.root(6, 1).to_complex()
        assert abs(z - complex(0.5, 3**0.5 / 2)) < 1e-15

    def test_ring_homomorphism(self):
        rng = random.Random(17)
        for m in (12, 60, 720):
            a = CycInt(m, [rng.randint(-10**6, 10**6) for _ in range(m)])
            b = CycInt(m, [rng.randint(-10**6, 10**6) for _ in range(m)])
            scale = max(abs((a * b).to_complex()), 1.0)
            assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9 * scale
            assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9 * scale
