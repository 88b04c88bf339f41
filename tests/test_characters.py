import numpy as np
import pytest

from charsum.characters import (
    all_characters,
    character,
    quadratic_character,
    subgroup_character_decomposition,
)
from charsum.cyclo import CycInt
from charsum.engines import shifted_sum
from charsum.errors import IndexOutOfRange
from charsum.field import make_ctx, primes_in, subgroup_of_order, subgroups


@pytest.fixture(scope="module")
def ctx7():
    return make_ctx(7)


class TestConstruction:
    def test_principal(self, ctx7):
        chi = character(ctx7, 0)
        assert chi.is_principal
        assert chi.order == 1

    def test_quadratic(self, ctx7):
        chi = character(ctx7, 3)
        assert chi.order == 2
        assert chi.is_quadratic
        assert quadratic_character(ctx7).index == 3

    def test_index_out_of_range(self, ctx7):
        with pytest.raises(IndexOutOfRange):
            character(ctx7, 6)
        with pytest.raises(IndexOutOfRange):
            character(ctx7, -1)

    def test_orders_p5(self):
        ctx = make_ctx(5)
        assert [c.order for c in all_characters(ctx)] == [1, 4, 2, 4]

    def test_all_characters_count(self):
        assert len(list(all_characters(make_ctx(7)))) == 6
        assert len(list(all_characters(make_ctx(3)))) == 2


class TestEvaluation:
    def test_quadratic_matches_euler_criterion(self):
        # independent oracle: x^((p-1)/2) mod p
        for p in (7, 11, 31, 61):
            ctx = make_ctx(p)
            chi = quadratic_character(ctx)
            for x in range(1, p):
                euler = pow(x, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert chi.value_exact(x).as_integer() == expected
                assert chi.value_numeric(x) == pytest.approx(expected, abs=1e-12)

    def test_value_at_one_and_zero(self, ctx7):
        for chi in all_characters(ctx7):
            assert chi.value_exact(1).as_integer() == 1
            assert chi.value_exact(0).as_integer() == 0
            assert chi.value_numeric(0) == 0

    def test_eval_returns_sum_value(self, ctx7):
        chi = character(ctx7, 3)
        assert chi.eval(3, "exact").exact.as_integer() == -1
        assert chi.eval(3, "numeric").numeric == pytest.approx(-1)

    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("mode", ["exact", "numeric", "auto"])
    def test_eval_reads_as_a_one_term_shifted_sum(self, p, mode):
        ctx = make_ctx(p)
        for chi in all_characters(ctx):
            for x in range(p):
                got, want = chi.eval(x, mode), shifted_sum(ctx, chi, [x], 0, mode)
                assert (got.mode, got.exact, got.numeric) == \
                    (want.mode, want.exact, want.numeric), (p, chi.index, x)

    def test_eval_rejects_unknown_mode(self, ctx7):
        with pytest.raises(ValueError):
            character(ctx7, 3).eval(3, "bogus")

    def test_value_numeric_is_python_complex(self, ctx7):
        chi = character(ctx7, 3)
        assert type(chi.value_numeric(0)) is complex
        assert type(chi.value_numeric(3)) is complex

    def test_multiplicativity_exponent_identity(self):
        # chi(xy) = chi(x)chi(y), exhaustively at the exponent level for p = 61
        ctx = make_ctx(61)
        m = 60
        x = np.arange(1, 61)
        lx = ctx.dlog[x]
        prod_logs = ctx.dlog[np.outer(x, x) % 61]
        for j in range(m):
            lhs = (j * prod_logs) % m
            rhs = (j * (lx[:, None] + lx[None, :])) % m
            assert np.array_equal(lhs, rhs)

    def test_multiplicativity_exact_values(self):
        ctx = make_ctx(31)
        for j in (1, 5, 12):
            chi = character(ctx, j)
            for x in range(1, 31, 3):
                for y in range(1, 31, 4):
                    assert chi.value_exact(x * y % 31) == chi.value_exact(x) * chi.value_exact(y)

    def test_value_table_matches_pointwise(self, ctx7):
        for chi in all_characters(ctx7):
            table = chi.value_table()
            for x in range(7):
                assert table[x] == pytest.approx(chi.value_numeric(x), abs=1e-12)


class TestOrthogonality:
    def test_column_sums_vanish_exactly(self):
        # sum over x of chi(x) = 0 for every nonprincipal chi
        for p in primes_in(3, 101):
            ctx = make_ctx(p)
            m = p - 1
            for j in range(1, m):
                counts = [0] * m
                for x in range(1, p):
                    counts[(j * int(ctx.dlog[x])) % m] += 1
                assert CycInt(m, counts).as_integer() == 0, (p, j)

    def test_row_sums(self):
        # sum over chi of chi(x) = p-1 at x=1, else 0
        for p in (7, 31, 101):
            ctx = make_ctx(p)
            m = p - 1
            for x in range(1, p):
                counts = [0] * m
                e = int(ctx.dlog[x])
                for j in range(m):
                    counts[(j * e) % m] += 1
                expected = m if x == 1 else 0
                assert CycInt(m, counts).as_integer() == expected


class TestConjugate:
    def test_pointwise_conjugation(self):
        ctx = make_ctx(31)
        for j in (1, 7, 15, 29):
            chi = character(ctx, j)
            bar = chi.conjugate()
            for x in range(31):
                assert bar.value_numeric(x) == pytest.approx(
                    chi.value_numeric(x).conjugate(), abs=1e-12)
                assert bar.value_exact(x) == chi.value_exact(x).conj()


class TestSubgroupDecomposition:
    def test_p7_examples(self, ctx7):
        H = subgroup_of_order(ctx7, 3)
        assert [c.index for c in subgroup_character_decomposition(H)] == [0, 3]
        full = subgroup_of_order(ctx7, 6)
        assert [c.index for c in subgroup_character_decomposition(full)] == [0]
        trivial = subgroup_of_order(ctx7, 1)
        assert len(subgroup_character_decomposition(trivial)) == 6

    def test_indicator_identity_exact(self):
        # sum of psi(n) over the decomposition equals k * [n in H], exactly
        for p in primes_in(3, 31):
            ctx = make_ctx(p)
            m = p - 1
            for H in subgroups(ctx):
                psis = subgroup_character_decomposition(H)
                assert len(psis) == H.index
                members = set(H.elements)
                for n in range(1, p):
                    total = CycInt.zero(m)
                    for psi in psis:
                        total = total + psi.value_exact(n)
                    expected = H.index if n in members else 0
                    assert total.as_integer() == expected
