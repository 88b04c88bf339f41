import cmath
import math
import random

import numpy as np
import pytest

from charsum.characters import all_characters, character, quadratic_character
from charsum.cyclo import CycInt
from charsum.engines import (
    bilinear_S,
    bilinear_Sprime,
    exp_sum_subset,
    inverse_shift_sum,
    kloosterman_over_H,
    nonlinear_sum_xxa,
    proof_kernel_S_yy1,
    shifted_product_sum,
    shifted_sum,
    shifted_values_all,
)
from charsum.errors import (
    CapacityExceeded,
    DegenerateShifts,
    PrincipalCharacter,
    ShiftNotCoprime,
)
from charsum.field import make_ctx, mod_inverse, primes_in, subgroup_of_order, subgroups
from charsum.values import Weights, numeric_sums
from references import kernel_closed_form


@pytest.fixture(scope="module")
def ctx7():
    return make_ctx(7)


@pytest.fixture(scope="module")
def quad7(ctx7):
    return quadratic_character(ctx7)


@pytest.fixture(scope="module")
def H7(ctx7):
    return subgroup_of_order(ctx7, 3)


def legendre_oracle(p, x):
    """Euler-criterion quadratic character, independent of the dlog tables; x may be
    a numpy integer (an element of a subgroup), which three-argument pow refuses."""
    x = int(x) % p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


class TestShiftedSum:
    def test_p7_example(self, ctx7, quad7, H7):
        assert shifted_sum(ctx7, quad7, H7.elements, 1, "exact").exact.as_integer() == -1
        # oracle: chi(2) + chi(3) + chi(5)
        assert sum(legendre_oracle(7, x + 1) for x in H7.elements) == -1

    def test_unshifted(self, ctx7, quad7, H7):
        assert shifted_sum(ctx7, quad7, H7.elements, 0, "exact").exact.as_integer() == 3

    def test_full_group_gives_minus_chi_a(self):
        ctx = make_ctx(31)
        full = subgroup_of_order(ctx, 30)
        for j in (1, 7, 15):
            chi = character(ctx, j)
            for a in (1, 5, 30):
                s = shifted_sum(ctx, chi, full.elements, a, "exact").exact
                assert s == -chi.value_exact(a)

    def test_exact_and_numeric_agree(self):
        ctx = make_ctx(61)
        chi = character(ctx, 7)
        D = [1, 5, 9, 22, 40]
        for a in range(61):
            e = shifted_sum(ctx, chi, D, a, "exact").to_complex()
            n = shifted_sum(ctx, chi, D, a, "numeric").to_complex()
            assert abs(e - n) < 1e-10

    def test_conjugate_character(self):
        ctx = make_ctx(31)
        D = [2, 3, 11, 17]
        for j in (1, 8, 13):
            chi = character(ctx, j)
            for a in (0, 4, 30):
                s = shifted_sum(ctx, chi, D, a, "exact").exact
                sbar = shifted_sum(ctx, chi.conjugate(), D, a, "exact").exact
                assert sbar == s.conj()


class TestShiftedSumAll:
    """The shifted sum at every shift: numerically by shifted_values_all, exactly by
    shifted_sum per shift."""

    def test_magnitude_table(self, ctx7, quad7, H7):
        mags = [round(abs(v), 9) for v in shifted_values_all(ctx7, quad7, H7.elements)]
        assert mags == [3.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0]

    def test_principal_counts_nonzero_shifts(self, ctx7):
        chi0 = character(ctx7, 0)
        D = [1, 2, 6]
        vals = shifted_values_all(ctx7, chi0, D)
        for a in range(7):
            expected = sum(1 for x in D if (x + a) % 7 != 0)
            assert abs(vals[a]) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_subgroup_reads_as_its_elements(self, ctx7, H7, mode):
        chi = character(ctx7, 3)
        got = shifted_values_all(ctx7, chi, H7)
        if mode == "numeric":
            assert np.array_equal(got, shifted_values_all(ctx7, chi, H7.elements))
        else:
            want = [shifted_sum(ctx7, chi, H7.elements, a, mode).to_complex() for a in range(7)]
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_exact_mode_capacity(self):
        ctx = make_ctx(10_007)
        chi = character(ctx, 1)
        with pytest.raises(CapacityExceeded):
            shifted_sum(ctx, chi, [1, 2], 1, "exact")

    def test_fast_path_matches_naive_on_random_instances(self):
        rng = random.Random(2024)
        primes = [p for p in primes_in(3, 500)]
        for _ in range(50):
            p = rng.choice(primes)
            ctx = make_ctx(p)
            chi = character(ctx, rng.randrange(1, p - 1)) if p > 3 else character(ctx, 1)
            size = rng.randint(1, p - 1)
            D = rng.sample(range(1, p), size)
            batch = shifted_values_all(ctx, chi, D)
            for a in rng.sample(range(p), min(10, p)):
                naive = shifted_sum(ctx, chi, D, a, "exact").to_complex()
                assert abs(batch[a] - naive) < 1e-9 * p


class TestBilinear:
    def test_indicator_identity_exact(self):
        # |H| * shifted_sum = S(1_H, 1_H) for all H, chi != chi0, a != 0
        for p in primes_in(3, 31):
            ctx = make_ctx(p)
            for H in subgroups(ctx):
                w = Weights.indicator(p, H.elements)
                for j in range(1, p - 1):
                    chi = character(ctx, j)
                    for a in range(1, p):
                        lhs = H.order * shifted_sum(ctx, chi, H.elements, a, "exact").exact
                        rhs = bilinear_S(ctx, chi, w, w, a, "exact").exact
                        assert lhs == rhs, (p, H.order, j, a)

    def test_p7_value_and_bound(self, ctx7, quad7, H7):
        w = Weights.indicator(7, H7.elements)
        s = bilinear_S(ctx7, quad7, w, w, 1, "exact")
        assert s.exact.as_integer() == -3
        assert s.magnitude <= math.sqrt(7 * 3 * 3)

    def test_zero_weights(self, ctx7, quad7):
        zero = Weights(np.zeros(7))
        w = Weights.indicator(7, [1, 2])
        assert bilinear_S(ctx7, quad7, zero, w, 1, "numeric").magnitude == 0
        assert bilinear_S(ctx7, quad7, w, zero, 1, "numeric").magnitude == 0

    def test_errors(self, ctx7, H7):
        w = Weights.indicator(7, H7.elements)
        with pytest.raises(PrincipalCharacter):
            bilinear_S(ctx7, character(ctx7, 0), w, w, 1, "numeric")
        with pytest.raises(ShiftNotCoprime):
            bilinear_S(ctx7, quadratic_character(ctx7), w, w, 0, "numeric")

    def test_fast_path_matches_naive_complex_weights(self):
        rng = random.Random(5)
        p = 31
        ctx = make_ctx(p)
        chi = character(ctx, 7)
        table = chi.value_table()
        for _ in range(5):
            xi = Weights([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p)])
            eta = Weights([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p)])
            a = rng.randrange(1, p)
            fast = bilinear_S(ctx, chi, xi, eta, a, "numeric").numeric
            naive = sum(xi.values[x] * eta.values[y] * table[(x * y + a) % p]
                        for x in range(p) for y in range(p))
            assert abs(fast - naive) < 1e-9
            fastp = bilinear_Sprime(ctx, chi, xi, eta, a, "numeric").numeric
            naivep = sum(xi.values[x] * eta.values[y] * table[x * y % p] * table[(x * y + a) % p]
                         for x in range(p) for y in range(p))
            assert abs(fastp - naivep) < 1e-9

    def test_weight_scaling(self):
        rng = random.Random(9)
        p = 31
        ctx = make_ctx(p)
        chi = character(ctx, 4)
        xi = Weights([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p)])
        eta = Weights([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p)])
        base = bilinear_S(ctx, chi, xi, eta, 3, "numeric").numeric
        c = complex(2.5, -1.25)
        scaled = bilinear_S(ctx, chi, Weights(c * xi.values), eta, 3, "numeric").numeric
        assert abs(scaled - c * base) < 1e-9

    def test_sprime_zero_support(self, ctx7, quad7):
        xi = Weights.indicator(7, [0])
        eta = Weights.indicator(7, [1, 2, 4])
        assert bilinear_Sprime(ctx7, quad7, xi, eta, 1, "exact").exact.as_integer() == 0

    def test_sprime_indicator_equals_nonlinear(self):
        for p in (7, 13, 31):
            ctx = make_ctx(p)
            for H in subgroups(ctx):
                w = Weights.indicator(p, H.elements)
                for j in (1, (p - 1) // 2):
                    chi = character(ctx, j)
                    for a in (1, p - 2):
                        lhs = H.order * nonlinear_sum_xxa(ctx, chi, H, a, "exact").exact
                        rhs = bilinear_Sprime(ctx, chi, w, w, a, "exact").exact
                        assert lhs == rhs

    def test_auto_reads_complex_weights_numerically(self):
        ctx = make_ctx(11)
        chi = character(ctx, 3)
        w = Weights(np.linspace(0, 1, 11) + 0.5j)
        ind = Weights.indicator(11, [1, 3, 4])
        for form in (bilinear_S, bilinear_Sprime):
            got, want = form(ctx, chi, w, w, 1), form(ctx, chi, w, w, 1, "numeric")
            assert (got.mode, got.numeric) == ("numeric", want.numeric)
            assert form(ctx, chi, ind, ind, 1).mode == "exact"

    def test_exact_rejects_non_integer_weights(self, ctx7, quad7):
        w = Weights([0.5] * 7)
        with pytest.raises(ValueError):
            bilinear_S(ctx7, quad7, w, w, 1, "exact")

    def test_exact_rejects_weights_past_int64(self, ctx7, quad7):
        # products of 2^33 weights would wrap around in int64 counts
        w = Weights([2.0**33] * 7)
        with pytest.raises(CapacityExceeded):
            bilinear_Sprime(ctx7, quad7, w, w, 1, "exact")


class TestProofKernel:
    def test_case_table_examples(self, ctx7, quad7):
        assert proof_kernel_S_yy1(ctx7, quad7, 0, 0, 1).exact.as_integer() == 7
        assert proof_kernel_S_yy1(ctx7, quad7, 0, 2, 1).exact.as_integer() == 0
        assert proof_kernel_S_yy1(ctx7, quad7, 5, 5, 1).exact.as_integer() == 6
        # -chi(1/3) = -chi(5) = 1
        assert proof_kernel_S_yy1(ctx7, quad7, 1, 3, 1).exact.as_integer() == 1

    def test_matches_closed_form_small_primes(self):
        for p in (5, 7, 11):
            ctx = make_ctx(p)
            for j in range(1, p - 1):
                chi = character(ctx, j)
                for a in (1, p - 1):
                    for y in range(p):
                        for y1 in range(p):
                            brute = proof_kernel_S_yy1(ctx, chi, y, y1, a).exact
                            closed = kernel_closed_form(ctx, chi, y, y1)
                            assert brute == closed, (p, j, a, y, y1)

    def test_numeric_mode(self, ctx7, quad7):
        v = proof_kernel_S_yy1(ctx7, quad7, 2, 5, 3, "numeric")
        w = proof_kernel_S_yy1(ctx7, quad7, 2, 5, 3, "exact")
        assert abs(v.to_complex() - w.to_complex()) < 1e-9

    def test_principal_rejected(self, ctx7):
        with pytest.raises(PrincipalCharacter):
            proof_kernel_S_yy1(ctx7, character(ctx7, 0), 1, 2, 1)


class TestNonlinearSum:
    def test_p7_example(self, ctx7, quad7, H7):
        assert nonlinear_sum_xxa(ctx7, quad7, H7, 1, "exact").exact.as_integer() == -1

    def test_trivial_subgroup(self):
        ctx = make_ctx(13)
        H1 = subgroup_of_order(ctx, 1)
        for j in (1, 6):
            chi = character(ctx, j)
            for a in (1, 5, 12):
                s = nonlinear_sum_xxa(ctx, chi, H1, a, "exact").exact
                assert s == chi.value_exact(1 + a)

    def test_bound_sqrt_p(self):
        for p in primes_in(3, 101):
            ctx = make_ctx(p)
            for H in subgroups(ctx):
                chi = quadratic_character(ctx)
                for a in range(1, p):
                    assert nonlinear_sum_xxa(ctx, chi, H, a, "numeric").magnitude < math.sqrt(p) + 1e-9

    def test_principal_rejected(self, ctx7, H7):
        with pytest.raises(PrincipalCharacter):
            nonlinear_sum_xxa(ctx7, character(ctx7, 0), H7, 1)


class TestShiftedProductSum:
    def test_p7_example(self, ctx7, quad7, H7):
        assert shifted_product_sum(ctx7, quad7, H7, 1, 2, "exact").exact.as_integer() == -1
        # termwise oracle
        oracle = sum(legendre_oracle(7, (x + 1) * (x + 2)) for x in H7.elements)
        assert oracle == -1

    def test_degenerate_shifts(self, ctx7, quad7, H7):
        with pytest.raises(DegenerateShifts):
            shifted_product_sum(ctx7, quad7, H7, 3, 3)
        with pytest.raises(DegenerateShifts):
            shifted_product_sum(ctx7, quad7, H7, 0, 2)
        with pytest.raises(DegenerateShifts):
            shifted_product_sum(ctx7, quad7, H7, 2, 7)


class TestAdditiveSums:
    def test_kloosterman_single_element(self):
        ctx = make_ctx(11)
        H1 = subgroup_of_order(ctx, 1)
        v = kloosterman_over_H(ctx, H1, 3, 4)
        assert abs(v.numeric - cmath.exp(2j * cmath.pi * 7 / 11)) < 1e-12

    def test_full_kloosterman_p7(self):
        ctx = make_ctx(7)
        full = subgroup_of_order(ctx, 6)
        v = kloosterman_over_H(ctx, full, 1, 1)
        direct = sum(cmath.exp(2j * cmath.pi * ((x + pow(x, -1, 7)) % 7) / 7)
                     for x in range(1, 7))
        assert abs(v.numeric - direct) < 1e-12
        assert v.magnitude <= 2 * math.sqrt(7)  # Weil envelope, sanity only

    def test_kloosterman_conjugate_symmetry(self):
        ctx = make_ctx(13)
        H = subgroup_of_order(ctx, 4)
        v = kloosterman_over_H(ctx, H, 2, 5)
        w = kloosterman_over_H(ctx, H, -2, -5)
        assert abs(w.numeric - v.numeric.conjugate()) < 1e-12

    def test_inverse_shift_single_element(self):
        ctx = make_ctx(11)
        H1 = subgroup_of_order(ctx, 1)
        v = inverse_shift_sum(ctx, H1, 2, 4)
        expected = cmath.exp(2j * cmath.pi * (2 * pow(5, -1, 11) % 11) / 11)
        assert abs(v.numeric - expected) < 1e-12

    def test_inverse_shift_excludes_minus_a(self, ctx7, H7):
        # -3 = 4 mod 7 lies in H = {1,2,4}, so x = 4 drops out
        v = inverse_shift_sum(ctx7, H7, 1, 3)
        expected = sum(cmath.exp(2j * cmath.pi * mod_inverse(ctx7, (x + 3) % 7) / 7)
                       for x in H7.elements if (x + 3) % 7 != 0)
        assert abs(v.numeric - expected) < 1e-12
        # e_7(4*) + e_7(5*) = e_7(2) + e_7(3)
        direct = cmath.exp(2j * cmath.pi * 2 / 7) + cmath.exp(2j * cmath.pi * 3 / 7)
        assert abs(v.numeric - direct) < 1e-12


class TestNumericSums:
    def test_columns_match_exact_with_weights(self):
        rng = np.random.default_rng(3)
        e = rng.integers(-1, 12, size=(9, 4))
        w = rng.integers(-3, 4, size=(9, 4))
        sums = numeric_sums(e, 12, w)
        assert sums.shape == (4,)
        for c in range(4):
            exact = CycInt.from_exponents(12, e[:, c], w[:, c]).to_complex()
            assert abs(sums[c] - exact) < 1e-12


class TestExpSumSubset:
    def test_zero_frequency_counts(self):
        for q, D in ((7, [1, 2, 4]), (12, [0, 3, 7, 11])):
            assert exp_sum_subset(q, D, 0, "exact").exact.as_integer() == len(D)

    def test_gauss_period_norm(self):
        s = exp_sum_subset(7, [1, 2, 4], 1, "exact").exact
        assert s.abs_squared().as_integer() == 2

    def test_q4_even_subset(self):
        # 1 + zeta_4^2 = 1 + e^(pi*i) = 0
        s = exp_sum_subset(4, [0, 2], 1, "exact").exact
        assert s.as_integer() == 0

    def test_numeric_agrees(self):
        for q in (6, 10, 37):
            D = [1, 2, q - 1]
            for a in range(q):
                e = exp_sum_subset(q, D, a, "exact").to_complex()
                n = exp_sum_subset(q, D, a, "numeric").to_complex()
                assert abs(e - n) < 1e-12

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            exp_sum_subset(1, [0], 0)

    def test_mode_resolution(self):
        with pytest.raises(ValueError):
            exp_sum_subset(7, [1, 2, 4], 1, "bogus")
        with pytest.raises(CapacityExceeded):
            exp_sum_subset(10_001, [1], 1, "exact")
        assert exp_sum_subset(10_001, [1], 1).mode == "numeric"
