import bisect
import csv
import dataclasses
import io
import json
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from charsum import cyclo, engines, verifier
from charsum.characters import Character, character, quadratic_character
from charsum.cyclo import EXACT_MAX_ORDER, CycInt, cyclotomic_poly
from charsum.engines import shifted_sum, shifted_values_all
from charsum.errors import CapacityExceeded, PrincipalCharacter, ShiftNotCoprime, ZeroInD
from charsum.field import Subgroup, make_ctx, primes_in, subgroup_of_order, subgroups
from charsum.values import Weights
from charsum.cli import main
from charsum.verifier import (
    CLAIMS,
    RECORD_KEYS,
    Batch,
    Verdict,
    check_eps_corollary,
    check_eq2_identity,
    check_granville,
    check_kernel_cases,
    check_konyagin,
    check_lemma3,
    check_meanvalue2,
    check_nonlinear_bound_all_shifts,
    check_sharpened_theorem2,
    check_shkredov_bound,
    check_theorem2,
    map_tasks,
    random_weights,
    run_suite,
)
from references import eq2_via_engine, json_sort_key

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def ctx7():
    return make_ctx(7)


@pytest.fixture(scope="module")
def H7(ctx7):
    return subgroup_of_order(ctx7, 3)


@pytest.fixture(scope="module")
def quad7(ctx7):
    return quadratic_character(ctx7)


class TestTheorem2Checker:
    def test_spot_value(self, ctx7, quad7, H7):
        v = check_theorem2(ctx7, quad7, H7)
        assert v.passed
        assert v.computed == pytest.approx(1.0, abs=1e-9)
        assert v.target == pytest.approx(math.sqrt(7))

    def test_full_group(self):
        ctx = make_ctx(13)
        full = subgroup_of_order(ctx, 12)
        for j in (1, 5, 11):
            v = check_theorem2(ctx, character(ctx, j), full)
            assert v.passed
            assert v.computed == pytest.approx(1.0, abs=1e-9)

    def test_principal_rejected(self, ctx7, H7):
        with pytest.raises(PrincipalCharacter):
            check_theorem2(ctx7, character(ctx7, 0), H7)


class TestSharpenedChecker:
    def test_spot_target(self, ctx7, quad7, H7):
        v = check_sharpened_theorem2(ctx7, quad7, H7)
        assert v.passed
        assert v.target == pytest.approx(4.0, abs=1e-9)  # (7*3 - 9)/3
        assert v.computed == pytest.approx(1.0, abs=1e-9)

    def test_chi_nontrivial_on_H_gives_target_p(self):
        ctx = make_ctx(13)
        H = subgroup_of_order(ctx, 3)
        chi = character(ctx, 1)  # order 12, nontrivial on H
        v = check_sharpened_theorem2(ctx, chi, H)
        assert v.target == pytest.approx(13.0, abs=1e-9)
        assert v.passed


class TestEpsCorollary:
    def test_vacuous(self, ctx7, quad7):
        H = subgroup_of_order(ctx7, 2)  # 2 <= 7^0.6
        v = check_eps_corollary(ctx7, quad7, H, 0.1)
        assert v.passed and v.note == "vacuous"

    def test_p7_full_group(self, ctx7, quad7):
        H = subgroup_of_order(ctx7, 6)
        v = check_eps_corollary(ctx7, quad7, H, 0.1)
        assert v.passed
        assert v.target == pytest.approx(7 ** (-0.1) * 6)
        assert v.computed == pytest.approx(1.0, abs=1e-9)


class TestEq2Checker:
    def test_spot_value(self, ctx7, quad7, H7):
        v = check_eq2_identity(ctx7, quad7, H7.elements)
        assert v.passed and v.computed == 12 and v.margin == 0.0

    def test_singleton(self):
        ctx = make_ctx(11)
        chi = character(ctx, 3)
        v = check_eq2_identity(ctx, chi, [4])
        assert v.passed and v.computed == 10  # p - 1

    def test_random_subsets(self):
        rng = random.Random(3)
        for p in (11, 31):
            ctx = make_ctx(p)
            for _ in range(5):
                D = rng.sample(range(1, p), rng.randint(1, p - 1))
                j = rng.randrange(1, p - 1)
                v = check_eq2_identity(ctx, character(ctx, j), D)
                assert v.passed, (p, j, sorted(D))

    def test_engine_independence(self, ctx7, quad7, H7):
        # same identity through the generic exact engine
        assert eq2_via_engine(ctx7, quad7, H7.elements) == 12
        ctx = make_ctx(11)
        chi = character(ctx, 2)
        D = [1, 3, 9, 5]
        assert eq2_via_engine(ctx, chi, D) == check_eq2_identity(ctx, chi, D).computed

    def test_batch_engine_route(self, ctx7, quad7, H7):
        # numeric all-shifts kernel reproduces the identity within tolerance
        vals = shifted_values_all(ctx7, quad7, H7.elements)
        total = float(sum(abs(z) ** 2 for z in vals))
        assert total == pytest.approx(12.0, abs=1e-9)

    def test_traced_memory_is_bounded(self):
        # 200^2 * 401 = 16M exponent differences, counted in bounded chunks
        ctx = make_ctx(401)
        chi = quadratic_character(ctx)
        tracemalloc.start()
        try:
            v = check_eq2_identity(ctx, chi, range(1, 201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.passed and v.computed == 401 * 200 - 200**2
        assert peak <= 64e6

    def test_rejections(self, ctx7, quad7):
        with pytest.raises(PrincipalCharacter):
            check_eq2_identity(ctx7, character(ctx7, 0), [1, 2])
        with pytest.raises(ZeroInD):
            check_eq2_identity(ctx7, quad7, [0, 1])
        with pytest.raises(ValueError):
            check_eq2_identity(ctx7, quad7, [])

    def test_principal_character_of_a_later_set_is_rejected(self, ctx7, quad7):
        # each distinct character is checked once, over the sets' characters together
        with pytest.raises(PrincipalCharacter):
            verifier._eq2_batch(ctx7, [([1, 2], [quad7]), ([3], [quad7, character(ctx7, 0)])])

    def test_sets_without_characters_give_no_rows(self, ctx7, quad7):
        # a set handed no character adds no row, and no character at all gives an empty batch
        assert len(verifier.check_eq2_identities(ctx7, [], [1, 2])) == 0
        assert len(verifier._eq2_batch(ctx7, [])) == 0
        chi = character(ctx7, 1)
        b = verifier._eq2_batch(ctx7, [([1, 2], []), ([3], [quad7, chi]), ([4, 5, 6], [])],
                                [0, 1, 2])
        assert [v.to_record() for v in b] == [
            check_eq2_identity(ctx7, c, [3]).to_record() | {"params": {
                "p": 7, "chi": c.index, "D_size": 1, "D_index": 1}} for c in (quad7, chi)]


class TestMeanValue2:
    def test_spot_value(self, ctx7, H7):
        v = check_meanvalue2(ctx7, H7, 1)
        assert v.passed
        assert v.computed == pytest.approx((6 + 2 * math.sqrt(3)) / 6, abs=1e-9)
        assert v.target == pytest.approx(math.sqrt(3))

    def test_trivial_subgroup_boundary(self):
        ctx = make_ctx(11)
        H1 = subgroup_of_order(ctx, 1)
        for a in range(1, 11):
            v = check_meanvalue2(ctx, H1, a)
            assert v.passed
            assert v.computed <= 1.0 + 1e-9

    def test_zero_shift_rejected(self, ctx7, H7):
        with pytest.raises(ShiftNotCoprime):
            check_meanvalue2(ctx7, H7, 0)


class TestGranville:
    def test_p7(self, ctx7, H7):
        v = check_granville(ctx7, H7)
        assert v.passed and v.computed == 6 and v.margin == 0.0

    def test_full_and_trivial(self, ctx7):
        for n in (1, 6):
            v = check_granville(ctx7, subgroup_of_order(ctx7, n))
            assert v.passed and v.computed == 6

    def test_shkredov(self, ctx7, H7):
        v = check_shkredov_bound(ctx7, H7)
        assert v.passed and v.computed == 6 and v.target == 7

    def test_p3(self):
        ctx = make_ctx(3)
        v = check_shkredov_bound(ctx, subgroup_of_order(ctx, 1))
        assert v.passed and v.computed == 2

    def test_memory_is_linear_in_the_order(self):
        # p - 1 = 110880 = 2^5 3^2 5 7 11 has 144 divisors.  The suite's one
        # reading of every subgroup takes one histogram over Z/(p - 1) at a time
        # and a table over the 144 gcd classes, so the traced peak stays within a
        # few int64 arrays of length p - 1; a table of 144 rows of length p - 1
        # would take 144 of them.
        ctx = make_ctx(110_881)
        Hs = subgroups(ctx)
        tracemalloc.start()
        try:
            granville, shkredov = verifier._granville_batches(ctx, Hs)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(granville) == 144 and all(granville.passed) and all(shkredov.passed)
        assert peak_bytes <= 8 * 8 * 110_880

    @pytest.mark.parametrize("claims", [["granville"], ["shkredov"], ["granville", "shkredov"]],
                             ids=["granville", "shkredov", "both"])
    @pytest.mark.parametrize("budget", [1, 2, None])
    def test_suite_reads_granville_once_per_prime(self, monkeypatch, claims, budget):
        # one reading per prime, of the subgroups the budget keeps, whichever of
        # the two claims read it
        calls = []
        read = verifier._granville_batches
        monkeypatch.setattr(verifier, "_granville_batches",
                            lambda ctx, Hs: calls.append((ctx.p, [H.order for H in Hs]))
                            or read(ctx, Hs))
        vs = run_suite(3, 31, claims=claims, budget=budget)
        kept = [(p, list(make_ctx(p).divisors[:budget])) for p in primes_in(3, 31)]
        assert calls == kept
        assert len(vs) == len(claims) * sum(len(orders) for _, orders in kept)


class TestKonyagin:
    def test_prime_modulus(self):
        v = check_konyagin(7, [1, 2, 4])
        assert v.passed and v.computed == 12

    def test_full_group(self):
        v = check_konyagin(9, list(range(9)))
        assert v.passed and v.computed == 0

    def test_composite_modulus(self):
        v = check_konyagin(6, [1, 3])
        assert v.passed and v.computed == 8  # 2 * (6 - 2)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            check_konyagin(1, [0])
        with pytest.raises(ValueError):
            check_konyagin(7, [])

    def test_run_retains_no_reduction_tables(self):
        """Every q <= 150 needs its own q x phi(q) reduction table (11 MB in all);
        once the verdicts are dropped, only the most recent tables may remain."""
        tracemalloc.start()
        try:
            verdicts = run_suite(3, 150, claims=["konyagin"])
            assert len(verdicts) == 1480 and all(v.passed for v in verdicts)
            del verdicts
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestLemma3:
    def test_indicator_weights(self, ctx7, quad7, H7):
        w = Weights.indicator(7, H7.elements)
        v = check_lemma3(ctx7, quad7, w, w, 1)
        assert v.passed
        assert v.target == pytest.approx(math.sqrt(63))

    def test_zero_weights(self, ctx7, quad7):
        z = Weights(np.zeros(7))
        v = check_lemma3(ctx7, quad7, z, z, 1)
        assert v.passed and v.computed == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_random_weights_are_the_uniform_sequence(self, seed):
        # -1 + 2 * random() is what uniform(-1, 1) computes: the same floats, bit for bit
        for p in (3, 11, 101):
            drawn, expected = random.Random(seed), random.Random(seed)
            for _ in range(3):
                w = random_weights(p, drawn).values
                u = [complex(expected.uniform(-1, 1), expected.uniform(-1, 1)) for _ in range(p)]
                assert [z.hex() for z in w.real.tolist()] == [z.real.hex() for z in u]
                assert [z.hex() for z in w.imag.tolist()] == [z.imag.hex() for z in u]
            assert drawn.getstate() == expected.getstate()

    @pytest.mark.parametrize("p", [3, 11, 101, 10007])
    def test_suite_draws_decode_to_random_weights_drawn_in_turn(self, p):
        # the suite draws a prime's weights as raw words and decodes them in one
        # pass: the same bits, shifts and generator state as drawing in turn
        drawn, expected = random.Random(p), random.Random(p)
        xi, eta, shifts = verifier._lemma3_draws(p, drawn, 3)
        for i in range(3):
            assert xi[i].tobytes() == random_weights(p, expected).values.tobytes()
            assert eta[i].tobytes() == random_weights(p, expected).values.tobytes()
            assert shifts[i] == expected.randrange(1, p)
        assert drawn.getstate() == expected.getstate()

    def test_random_weights(self):
        rng = random.Random(99)
        for p in (11, 101):
            ctx = make_ctx(p)
            for _ in range(10):
                chi = character(ctx, rng.randrange(1, p - 1))
                v = check_lemma3(ctx, chi, random_weights(p, rng),
                                 random_weights(p, rng), rng.randrange(1, p))
                assert v.passed


class TestKernelCases:
    def test_full_grid_small_primes(self):
        for p in (5, 7, 13):
            ctx = make_ctx(p)
            for j in range(1, p - 1):
                for a in (1, p - 1):
                    v = check_kernel_cases(ctx, character(ctx, j), a)
                    assert v.passed and v.computed == 0

    def test_pair_subset(self):
        ctx = make_ctx(31)
        v = check_kernel_cases(ctx, character(ctx, 3), 5,
                               pairs=[(0, 0), (0, 4), (9, 9), (2, 11)])
        assert v.passed and v.params["pairs"] == 4

    def test_full_grid_memory_is_bounded(self):
        # the per-pair route's p^2 x p grid would take about 3 GB at p = 401;
        # the certificate counts p rows of p terms
        ctx = make_ctx(401)
        tracemalloc.start()
        try:
            v = check_kernel_cases(ctx, character(ctx, 7), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.passed and v.params["pairs"] == 401**2
        assert peak <= 64e6

    def test_suite_draws_no_pairs(self, monkeypatch):
        # past p = 101 a row says "pairs": 500, which the certificate covers, but
        # the suite draws only the five (chi, a) combos: two randrange calls each
        drawn = Counter()

        class Counted(random.Random):
            def randrange(self, *args):
                drawn[self.p] += 1
                return super().randrange(*args)

        def rng(seed, p, label):
            made = Counted(f"{seed}|{p}|{label}")
            made.p = p
            return made

        monkeypatch.setattr(verifier, "seeded_rng", rng)
        vs = run_suite(97, 113, claims=["kernel"], seed=1)
        assert {v.params["pairs"] for v in vs if v.params["p"] > 101} == {500}
        assert drawn == {p: 10 for p in primes_in(97, 113)}


class TestNonlinearChecker:
    def test_spot(self, ctx7, quad7, H7):
        # |sum_{x in H} chi(x(x + a))| is 1 for a in {1, 2, 4} and 0 otherwise
        v = check_nonlinear_bound_all_shifts(ctx7, quad7, H7)
        assert v.passed and v.params["a"] == "all"
        assert v.computed == pytest.approx(1.0, abs=1e-9)
        assert v.target == pytest.approx(math.sqrt(7))


# every standalone checker that takes a character, as (ctx, H, chi, a)
STANDALONE = {
    "thm2": lambda ctx, H, chi, a: check_theorem2(ctx, chi, H),
    "thm2_sharp": lambda ctx, H, chi, a: check_sharpened_theorem2(ctx, chi, H),
    "eps": lambda ctx, H, chi, a: check_eps_corollary(ctx, chi, H, 0.1),
    "eq2": lambda ctx, H, chi, a: check_eq2_identity(ctx, chi, H.elements),
    "lemma3": lambda ctx, H, chi, a: check_lemma3(ctx, chi, Weights(np.ones(ctx.p)),
                                                  Weights(np.ones(ctx.p)), a),
    "kernel": lambda ctx, H, chi, a: check_kernel_cases(ctx, chi, a),
    "nonlinear": lambda ctx, H, chi, a: check_nonlinear_bound_all_shifts(ctx, chi, H),
}


@pytest.mark.parametrize("claim", list(STANDALONE))
def test_standalone_checkers_reject_the_principal_character(claim):
    # at p = 101 with |H| = 100, chi0 sums to 99 at most shifts, which would
    # read as a failed bound rather than a refused input
    ctx = make_ctx(101)
    with pytest.raises(PrincipalCharacter):
        STANDALONE[claim](ctx, subgroup_of_order(ctx, 100), character(ctx, 0), 1)


@pytest.mark.parametrize("claim", ["lemma3", "kernel"])
def test_standalone_checkers_reject_a_zero_shift(claim, ctx7, quad7, H7):
    with pytest.raises(ShiftNotCoprime):
        STANDALONE[claim](ctx7, H7, quad7, 7)


class TestRunSuite:
    def test_eq2_all_pass(self):
        vs = run_suite(3, 31, claims=["eq2"], seed=42)
        assert vs and all(v.passed for v in vs)
        # one verdict per (p, chi != chi0, D)
        per_p = {}
        for v in vs:
            per_p.setdefault(v.params["p"], 0)
            per_p[v.params["p"]] += 1
        ctx = make_ctx(31)
        assert per_p[31] == (31 - 2) * (len(ctx.divisors) + 20)

    def test_empty_range(self):
        assert run_suite(24, 28, claims=["thm2"]) == []

    def test_thm2_scan(self):
        vs = run_suite(3, 101, claims=["thm2"], seed=1)
        assert vs and all(v.passed for v in vs)

    def test_capacity_records(self):
        vs = run_suite(10_007, 10_007, claims=["eq2"], seed=0)
        [v] = vs
        assert v.kind == "capacity" and not v.passed

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            run_suite(3, 7, claims=["bogus"])

    def test_determinism_and_worker_independence(self):
        a = run_suite(3, 23, seed=42)
        b = run_suite(3, 23, seed=42)
        c = run_suite(3, 23, seed=42, workers=2)
        ra = [v.to_record() for v in a]
        assert ra == [v.to_record() for v in b]
        assert ra == [v.to_record() for v in c]

    def test_budget_truncates(self):
        full = run_suite(13, 13, claims=["meanvalue2"], seed=0)
        capped = run_suite(13, 13, claims=["meanvalue2"], seed=0, budget=4)
        assert len(capped) == 4 < len(full)

    @pytest.mark.parametrize("budget", [1, 2, 7])
    def test_budget_counts_verdicts_per_claim_and_modulus(self, budget):
        # one rule for every claim: nonlinear's one batch holds 11 verdicts per
        # subgroup and lemma3's one batch 25, and konyagin counts per q
        def counts(vs):
            return Counter((v.claim, v.params.get("p", v.params.get("q"))) for v in vs)

        full = counts(run_suite(13, 13, claims=CLAIMS, seed=0))
        capped = counts(run_suite(13, 13, claims=CLAIMS, seed=0, budget=budget))
        assert set(full) == {(c, 13) for c in CLAIMS}
        assert capped == {key: min(n, budget) for key, n in full.items()}

    @pytest.mark.parametrize("claim", sorted(verifier.NUMERIC_CLAIMS))
    @pytest.mark.parametrize("p", [13, 61])
    def test_budget_counts_only_the_subgroups_it_reaches(self, monkeypatch, claim, p):
        """One kernel call per prime, over the rows of the subgroups that the budget
        reaches: subgroup H has k = (p-1)/|H| coset rows, plus the row H itself for
        thm2_sharp, the one claim that reads it.  A budget of 1 reaches the first
        subgroup, and one of p - 1 the first two, but for meanvalue2's p - 1 rows
        per subgroup.  The spy counts the histogram rows that the kernel's one
        reduction (_histogram_moduli) reads."""
        calls = []
        real = verifier._histogram_moduli

        def spy(m, ends, cells):
            calls.append(ends[-1])
            return real(m, ends, cells)

        monkeypatch.setattr(verifier, "_histogram_moduli", spy)
        Hs = subgroups(make_ctx(p))
        extra = 1 if claim == "thm2_sharp" else 0

        def rows(n):
            return sum(H.index + extra for H in Hs[:n])

        for budget in (1, p - 1, None):
            run_suite(p, p, claims=[claim], budget=budget)
        assert calls == [rows(1), rows(1 if claim == "meanvalue2" else 2), rows(len(Hs))]

    def test_subgroups_are_built_without_their_elements(self, monkeypatch):
        """subgroups(ctx), the granville and shkredov suite, whose sums are read off
        the certified dlog table, and the numeric bounds, whose rows are read off
        one table of dlog(g^s + 1) per prime, build no element of any subgroup."""
        def unread(H):
            raise AssertionError(f"the elements of the subgroup of order {H.order} were read")

        monkeypatch.setattr(Subgroup, "elements", property(unread))
        ctx = make_ctx(61)
        assert [H.order for H in subgroups(ctx)] == list(ctx.divisors)
        vs = run_suite(3, 211, claims=["granville", "shkredov"])
        assert vs and all(v.passed for v in vs)
        # a subgroup gives thm2, thm2_sharp, eps and nonlinear p - 2 rows each, and
        # meanvalue2 p - 1
        rows = sum(len(make_ctx(p).divisors) * (4 * (p - 2) + p - 1) for p in primes_in(3, 211))
        vs = run_suite(3, 211, claims=sorted(verifier.NUMERIC_CLAIMS))
        assert len(vs) == vs.passes == rows

    @pytest.mark.parametrize("budget,kept", [(1, 1), (12, 2), (None, 26)])
    def test_eq2_sizes_the_sets_it_keeps_and_reads_no_element(self, monkeypatch, budget, kept):
        """At p = 13 a set gives 11 rows, one per nonprincipal character: a budget
        of 1 keeps the first subgroup, one of 12 the first two, and none all six
        and the 20 seeded sets.  A row reads |D| alone, so the suite hands eq2's
        builder the kept sets' sizes, and reads no element of a subgroup, draws no
        set and builds no Character."""
        def refuse(*args):
            raise AssertionError("eq2 read a subgroup's elements, drew a set or built a character")

        sized = []
        build = verifier._eq2_sized_batch
        monkeypatch.setattr(Subgroup, "elements", property(refuse))
        for name in ("random_subsets", "character", "_eq2_batch"):
            monkeypatch.setattr(verifier, name, refuse)
        monkeypatch.setattr(verifier, "_eq2_sized_batch",
                            lambda ctx, sizes, *rest: sized.append(sizes) or build(ctx, sizes, *rest))
        vs = run_suite(13, 13, claims=["eq2"], budget=budget)
        assert len(vs) == vs.passes == (11 * 26 if budget is None else budget)
        assert sized == [[*make_ctx(13).divisors, 1, 2, 3, 6, 1, 2, 3, 6, 1, 2, 3, 6, 1, 2, 3, 6,
                          1, 2, 3, 6][:kept]]

    def test_capacity_in_any_claim_is_its_record(self):
        # past the cap eq2 and kernel, which keep the exact-order cap, raise at
        # root order 10006; the suite turns what each raises into one record
        # per claim, and the other claims give their verdicts
        vs = run_suite(10_007, 10_007, claims=["eq2", "kernel", "thm2"], budget=1)
        note = f"exact mode needs root order 10006 > {EXACT_MAX_ORDER}"
        assert [(v.claim, v.kind, v.note, v.params) for v in vs] == [
            ("eq2", "capacity", note, {"p": 10_007}),
            ("kernel", "capacity", note, {"p": 10_007}),
            ("thm2", "verdict", "", {"p": 10_007, "chi": 1, "H": 1})]

    def test_one_exact_order_cap_message(self):
        def cap(m):
            return f"exact mode needs root order {m} > {EXACT_MAX_ORDER}"

        vs = [*run_suite(10_007, 10_007, claims=["eq2", "kernel"], budget=1),
              *run_suite(10_001, 10_001, claims=["konyagin"], budget=1)]
        assert [(v.claim, v.kind, v.note) for v in vs] == [
            ("eq2", "capacity", cap(10_006)), ("kernel", "capacity", cap(10_006)),
            ("konyagin", "capacity", cap(10_001))]
        ctx = make_ctx(10_007)
        raisers = [(10_001, lambda: cyclotomic_poly(10_001)),
                   (10_001, lambda: CycInt.zero(10_001)),
                   (10_006, lambda: shifted_sum(ctx, character(ctx, 1), [1, 2], 1, "exact"))]
        for m, call in raisers:
            with pytest.raises(CapacityExceeded) as info:
                call()
            assert str(info.value) == cap(m)

    def test_characters_built_only_for_the_claims_that_read_them(self, monkeypatch):
        claims = ("granville", "shkredov")
        expected = [v.to_record() for v in run_suite(3, 200, claims=claims)]

        def unbuilt(ctx, j):
            raise AssertionError(f"character {j} built at p={ctx.p}")

        monkeypatch.setattr(verifier, "character", unbuilt)
        vs = run_suite(3, 200, claims=claims)
        assert len(vs) == 2 * sum(len(make_ctx(p).divisors) for p in primes_in(3, 200))
        assert [v.to_record() for v in vs] == expected

        # lemma3 and kernel build the characters they draw, five each, not all p - 2
        monkeypatch.undo()
        claims = ("lemma3", "kernel")
        expected = [v.to_record() for v in run_suite(3, 200, claims=claims, seed=4)]
        built = []

        def counted(ctx, j):
            built.append((ctx.p, j))
            return character(ctx, j)

        monkeypatch.setattr(verifier, "character", counted)
        vs = run_suite(3, 200, claims=claims, seed=4)
        assert [v.to_record() for v in vs] == expected
        assert Counter(p for p, _ in built) == {p: 2 * min(5, p - 2) for p in primes_in(3, 200)}
        assert set(built) == {(v.params["p"], v.params["chi"]) for v in vs}

    def test_repeated_claims_run_once(self):
        once = run_suite(3, 31, claims=["thm2", "konyagin"])
        assert run_suite(3, 31, claims=["thm2", "thm2", "konyagin", "konyagin"]) == once

    @pytest.mark.parametrize("kwargs", [{"budget": 0}, {"budget": -1},
                                        {"workers": 0}, {"workers": -2}])
    def test_nonpositive_budget_or_workers_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            run_suite(13, 13, claims=["granville", "konyagin"], **kwargs)

    def test_workers_checked_before_any_task(self):
        # 24..28 holds no prime, so no task runs; the worker count is still checked
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            run_suite(24, 28, claims=["thm2"], workers=0)

    @pytest.mark.parametrize("claims", [["thm2"], ["konyagin"]])
    def test_inverted_range_rejected(self, claims):
        with pytest.raises(ValueError, match="p_min 100 is above p_max 50"):
            run_suite(100, 50, claims=claims)

    def test_every_verdict_comes_from_one_map_tasks_call(self, monkeypatch):
        # konyagin's moduli and eq2's primes are tasks of the same fan-out
        calls = []

        def spy(*args, **kwargs):
            out = map_tasks(*args, **kwargs)
            calls.append(list(out))
            return out

        monkeypatch.setattr(verifier, "map_tasks", spy)
        vs = run_suite(2, 40, claims=["konyagin", "eq2"], seed=3)
        assert len(calls) == 1
        assert {v.claim for v in vs} == {"konyagin", "eq2"}
        # items are built on read, so the rows are compared as lines
        assert sorted(line for b in calls[0] for line in b.lines()) == sorted(vs.lines())

    def test_workers_give_the_same_dense_batches(self):
        # thm2, meanvalue2 and lemma3 send batches of many rows through the pool
        claims = ["thm2", "meanvalue2", "lemma3"]
        one = run_suite(3, 61, claims=claims, seed=9, workers=1)
        two = run_suite(3, 61, claims=claims, seed=9, workers=2)
        assert [v.to_record() for v in two] == [v.to_record() for v in one]

    def test_lemma3_draws_weights_only_for_kept_instances(self, monkeypatch):
        calls = []
        decoded = verifier._decoded_weights

        def spy(draws, n):
            calls.append((n, len(draws)))
            return decoded(draws, n)

        monkeypatch.setattr(verifier, "_decoded_weights", spy)
        vs = run_suite(3, 31, claims=["lemma3"], seed=0, budget=1)
        primes = list(primes_in(3, 31))
        # one decode per prime, of the kept instance's one draw of both weight vectors
        assert calls == [(2 * p, 1) for p in primes]
        # the random stream is unchanged: each kept instance is the full run's first
        monkeypatch.undo()
        full = {(v.params["p"], v.params["instance"]): v.to_record()
                for v in run_suite(3, 31, claims=["lemma3"], seed=0)}
        assert [v.to_record() for v in vs] == [full[p, "0:0"] for p in primes]

    def test_lemma3_builds_one_value_table_per_distinct_character(self, monkeypatch):
        # lemma3's five instances per drawn character share its value table: one
        # roots call per prime, over one row per distinct character, chi's own
        # exponent table; no character builds a table of its own
        def refuse(chi):
            raise AssertionError("lemma3 built a value table per character")

        calls = []
        read = verifier.roots

        def spy(exponents, m):
            calls.append((m + 1, exponents.tolist()))
            return read(exponents, m)

        monkeypatch.setattr(Character, "value_table", refuse)
        monkeypatch.setattr(verifier, "roots", spy)
        vs = run_suite(3, 61, claims=["lemma3"], seed=0)
        used = {}
        for v in vs:
            used.setdefault(v.params["p"], set()).add(v.params["chi"])
        assert [p for p, _ in calls] == sorted(used)
        for p, rows in calls:
            ctx = make_ctx(p)
            assert rows == [character(ctx, j).exponent_table().tolist() for j in sorted(used[p])]
        assert sum(map(len, used.values())) < len(vs)

    def test_eq2_checks_only_kept_characters(self, monkeypatch):
        # the suite hands eq2's size-based builder the kept (D, characters) rows,
        # whose count rows the certificate writes
        checked = []
        batch = verifier._eq2_sized_batch

        def spy(ctx, sizes, chis, D_index=None):
            checked.extend((j, i) for js, i in zip(chis, D_index) for j in np.asarray(js).tolist())
            return batch(ctx, sizes, chis, D_index)

        monkeypatch.setattr(verifier, "_eq2_sized_batch", spy)
        vs = run_suite(13, 13, claims=["eq2"], seed=5, budget=30)
        assert sorted(checked) == sorted((v.params["chi"], v.params["D_index"]) for v in vs)
        assert len(checked) == 30

    def test_exact_claims_share_one_dlog_certificate_per_prime(self, monkeypatch):
        # eq2, kernel (through kernel_certificate) and granville read the same
        # certificate, kept for each field context: one O(p) pass per prime
        passes, reads = [], []
        certify = verifier.dlog_certificate.__wrapped__
        cached = verifier._per_ctx(lambda ctx: passes.append(ctx.p) or certify(ctx))
        monkeypatch.setattr(verifier, "dlog_certificate",
                            lambda ctx: reads.append(ctx.p) or cached(ctx))
        run_suite(3, 61, claims=["eq2", "kernel", "granville", "shkredov"], seed=1)
        primes = list(primes_in(3, 61))
        assert passes == primes and reads == [p for p in primes for _ in range(3)]

    def test_run_keeps_no_field_tables(self):
        """Once a run's verdicts are dropped, traced memory is back within 1 MiB of
        where it was: the certificate's cache holds no field context (15 MiB of
        exp and dlog at p = 1000003), and granville builds no m-long gcd-class
        array (7.6 MiB)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verdicts = run_suite(1_000_003, 1_000_003, claims=["granville"])
            assert len(verdicts) == verdicts.passes == 8
            del verdicts
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_konyagin_builds_no_exponent_rows(self, monkeypatch):
        # konyagin writes its count rows from its congruence counts and the
        # Ramanujan table, with no pair autocorrelation
        def refuse(*args, **kwargs):
            raise AssertionError("konyagin built exponent rows or pair autocorrelations")

        for module in (cyclo, engines, verifier):
            for name in ("exp_sum_exponents", "exponent_histogram"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(np, "correlate", refuse)
        vs = run_suite(2, 200, claims=["konyagin"])
        assert len(vs) == vs.passes > 0

    def test_konyagin_output_does_not_depend_on_workers(self):
        one = run_suite(2, 150, claims=["konyagin", "eq2"], seed=7, workers=1)
        two = run_suite(2, 150, claims=["konyagin", "eq2"], seed=7, workers=2)
        assert [v.to_record() for v in two] == [v.to_record() for v in one]

    def test_exact_claims_equal_stored_reference(self):
        """granville, shkredov and kernel, byte for byte, against a stored run with
        a budget of 4 over a range that crosses p = 101, past which kernel checks
        500 sampled pairs instead of the full grid."""
        vs = run_suite(97, 211, claims=["granville", "shkredov", "kernel"], seed=3, budget=4)
        expected = DATA_DIR / "verify.gsk.p97-211.seed3.budget4.jsonl"
        assert "".join(vs.lines()).encode() == expected.read_bytes()

    def test_verdict_sorting(self):
        vs = run_suite(3, 13, claims=["granville", "thm2"], seed=0)
        # the Verdicts order: (claim, p or q, params text)
        keys = [(v.claim, v.params.get("p", v.params.get("q", 0)), v.params_text) for v in vs]
        assert keys == sorted(keys)
        # every claim, in the order of params texts made afresh by json.dumps,
        # with JSON's string order: eq2's "D_index": 10 sorts before 2
        vs = run_suite(3, 23, seed=0)
        assert {v.claim for v in vs} == set(CLAIMS)
        assert any(v.params.get("D_index") == 10 for v in vs)
        assert sorted(vs, key=json_sort_key) == vs

    def test_params_are_final_before_their_text_is_taken(self, monkeypatch):
        # take each text as the verdict is built, the earliest it could be taken
        post_init = Verdict.__post_init__

        def eager(v):
            post_init(v)
            v.params_text

        monkeypatch.setattr(Verdict, "__post_init__", eager)
        vs = run_suite(3, 61, seed=42)
        assert [v.params_text for v in vs] == [
            json.dumps(v.params, sort_keys=True, default=str) for v in vs]


def test_verdict_record_shape():
    v = Verdict(claim="x", params={"p": 7}, computed=1, target=1, margin=0.0,
                passed=True, mode="exact")
    r = v.to_record()
    assert set(r) == {"kind", "claim", "params", "computed", "target",
                      "margin", "pass", "mode", "note"}
    assert r["computed"] == "1"


def _dumped(v: Verdict) -> str:
    return json.dumps(v.to_record(), sort_keys=True, default=str) + "\n"


def test_to_line_is_json_dumps_of_the_record():
    vs = run_suite(3, 101, seed=42)
    assert {v.claim for v in vs} == set(CLAIMS)
    assert [v.to_line() for v in vs] == [_dumped(v) for v in vs]
    assert list(vs.lines()) == [_dumped(v) for v in vs]


def test_iterated_verdicts_hold_python_scalars():
    # iteration takes each chunk's columns to Python scalars at once: every field
    # and param of each Verdict is a Python scalar, of the type b[i] gives it, in
    # the params order and with the params text of b[i]
    vs = run_suite(3, 61, seed=1)
    walked = list(vs)
    expected = _sorted_verdicts(vs._batches)
    assert walked == expected

    def cells(v):
        return (v.claim, v.computed, v.target, v.margin, v.passed, v.mode, v.kind, v.note,
                v.params_text, *v.params.values())

    for v, w in zip(walked, expected):
        assert {type(x) for x in cells(v)} <= {str, int, float, bool}
        assert list(map(type, cells(v))) == list(map(type, cells(w)))
        assert list(v.params) == list(w.params) and v.params_text == w.params_text


# 0.0 beside -0.0, NaN, the infinities, the least subnormal, a float past 2^53
# and a sum that rounds, in every float column, each value in more than one row
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2]

HAND_BUILT = {
    "floats-and-escapes": Batch(
        "x", {"p": 7, "chi": [1, 2, 3, 4], "a": "all"}, [1.5, math.inf, -math.inf, 2.0],
        [2.5, 2.5, 3.0, 2.5], [1.0, math.nan, -0.0, 0.5], [True, False, False, True],
        "numeric", note='a quote ", braces { } and \u00e9'),
    "mixed-targets": Batch(
        "x", {"q": 9, "D_index": [0, 1, 2, 3], "s": ["a", 'b"', "{c}", None]},
        [3, "non-integer", 5, 6], [0.0, -0.0, 1, 1.0], [3.0, math.nan, 4.0, 5.0],
        [False, False, False, False], "exact"),
    "one-target": Batch(
        "x", {"p": 5, "chi": [1, 2]}, [0.5, 0.25], [1.0, 1.0], [0.5, 0.75], [True, True],
        "numeric", kind="capacity"),
    "signed-zeros": Batch(
        "x", {"p": 7, "chi": [1, 2, 3, 4, 5]}, [0.0, -0.0, 0.0, -0.0, 0.0],
        [0.0, 0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, -0.0, 0.0], [True] * 5, "numeric"),
    "repeated-non-finite": Batch(
        "x", {"p": 7, "chi": [1, 2, 3, 4, 5, 6]},
        [math.nan, math.nan, float("nan"), math.inf, math.inf, -math.inf], [2.5] * 6,
        [math.inf, -math.inf, -math.inf, math.nan, float("nan"), math.nan], [False] * 6,
        "numeric"),
    "ints-beside-floats": Batch(
        "x", {"q": 9, "D_index": [0, 1, 2, 3, 4]}, [1, 1.0, 1, 1.0, True],
        [2, 2.0, 2.0, 2, 2], [1.0, 1.0, 1.0, 1.0, 1.0], [False] * 5, "exact"),
    "repeated-strings": Batch(
        "x", {"q": 9, "D_index": [0, 1, 2, 3, 4]},
        ["non-integer", "non-integer", 'q"', 'q"', "\u03c7"], ["skipped"] * 5, [math.nan] * 5,
        [False] * 5, "exact", kind="capacity"),
    "edge-floats": Batch(
        "x", {"p": 7, "chi": list(range(1, 17))}, EDGES * 2, (EDGES[3:] + EDGES[:3]) * 2,
        EDGES[::-1] * 2, [True, False] * 8, "numeric"),
}


def _with_arrays(b: Batch) -> Batch:
    """b with its computed, target and margin as float64 arrays and passed as a
    bool array, as the numeric claims keep them."""
    return dataclasses.replace(b, computed=np.array(b.computed), target=np.array(b.target),
                               margin=np.array(b.margin), passed=np.array(b.passed))


# every case whose value columns are floats alone has a twin with array columns
HAND_BUILT.update({f"{name}-arrays": _with_arrays(b) for name, b in list(HAND_BUILT.items())
                   if all(type(x) is float for c in (b.computed, b.target, b.margin) for x in c)})

# an exact claim's columns: int64 values and params (a value past 2^53 too),
# float64 margins, bool passes
HAND_BUILT["int-columns"] = Batch(
    "x", {"p": 7, "chi": np.array([1, 2, 2, 3, 1]), "D_size": np.array([3, 3, 1, 1, 3]),
          "a": "all"},
    np.array([12, 12, 6, -3, 2**60 + 1]), np.array([12, 10, 6, -3, 2**60 + 1]),
    np.array([0.0, 2.0, 0.0, 0.0, 0.0]), np.array([True, False, True, True, True]), "exact")
# past 64 rows an int64 column is told apart by np.unique, not by a dict
HAND_BUILT["int-columns-past-64"] = Batch(
    "x", {"p": 101, "chi": np.arange(200) % 7 + 1, "D_index": np.arange(200) // 50},
    np.arange(200) % 3 - 1, np.full(200, 2**60), np.zeros(200), np.arange(200) % 2 == 0, "exact")


def _csv_text(rows) -> str:
    f = io.StringIO()
    csv.writer(f).writerows(rows)
    return f.getvalue()


@pytest.mark.parametrize("b", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_batch_lines_hand_built(b):
    assert [v.to_line() for v in b] == b.lines()
    assert b[1:3].lines() == b.lines()[1:3]
    for batch in (b, b[1:3]):
        vs = list(batch)
        assert batch.lines() == [_dumped(v) for v in vs]
        # each csv row writes as the record's values would, params as its text
        assert _csv_text(batch.rows()) == _csv_text(
            [[v.params_text if k == "params" else v.to_record()[k] for k in RECORD_KEYS]
             for v in vs])
        for v in vs:
            assert type(v.passed) is bool
            assert not any(isinstance(x, np.generic)
                           for x in (v.computed, v.target, v.margin, *v.params.values()))
            if isinstance(b.margin, np.ndarray):
                assert type(v.margin) is float
                assert {type(v.computed), type(v.target)} == {
                    int if b.computed.dtype.kind == "i" else float}


def test_json_lines_build_no_verdict_per_row(monkeypatch, tmp_path):
    def refuse(v):
        raise AssertionError(f"a Verdict was built for {v.claim}")

    monkeypatch.setattr(Verdict, "__post_init__", refuse)
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--p-max", "83", "--claims", "thm2,eps,meanvalue2,nonlinear,lemma3",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 24775


def _walk_batches() -> list[Batch]:
    """Hand-built batches for the chunk walk, in build order: claim "x" over many
    moduli, most of them tiny groups, one group past CHUNK_ROWS, a group of two
    batches with different notes whose rows interleave by params text (as eps's
    do), a capacity record (params {"p"} alone) at one modulus, a group whose
    batches differ in kind, mode and note, list and string params, NaN, the
    infinities and -0.0 in every float column; then claim "w", whose one chunk
    has two kinds and modes and one note."""
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5]
    batches = [Batch("x", {"p": 5, "chi": [1, 3, 5], "s": ["b", 'q"', "\u00e9"], "a": "all"},
                     np.array(edges[:3]), np.array(edges[3:]), np.array(edges[1:4]),
                     np.array([True, False, True]), "numeric", note="vacuous"),
               Batch("x", {"p": 5, "chi": np.array([2, 4, 6]), "s": ["a", "b", "c"], "a": "all"},
                     np.array(edges[3:]), np.array(edges[:3]), np.array(edges[2:5]),
                     np.array([False, True, True]), "numeric"),
               Batch.of(verifier._capacity_verdict("x", {"p": 7}, CapacityExceeded("too big")))]
    for p in range(11, 300, 2):  # tiny groups: one or two rows each
        n = 1 + p % 2 + (p % 3 == 0)
        batches.append(Batch("x", {"p": p, "chi": np.arange(n, 0, -1), "s": ["t"] * n, "a": "all"},
                             np.full(n, -0.0), np.full(n, math.inf), np.full(n, math.nan),
                             np.ones(n, dtype=bool), "numeric"))
    # another kind, mode and note in the group at p = 13, with the same params keys
    batches.append(Batch("x", {"p": 13, "chi": [7], "s": ["k"], "a": "all"}, ["skipped"],
                         ["skipped"], [math.nan], [False], "exact", kind="capacity", note="cut"))
    big = verifier.CHUNK_ROWS + 5
    batches.append(Batch("x", {"p": 3, "chi": np.arange(big) % 997, "s": ["u"] * big, "a": "all"},
                         np.arange(big) / 7, np.full(big, 2.5), np.arange(big) % 5 - 2.0,
                         np.arange(big) % 3 > 0, "numeric"))
    batches.append(Batch("w", {"q": 9, "D_index": np.array([10, 2, 1]), "D_size": 3},
                         np.array([3, 2**60, -1]), np.array([3, 3, -1]), np.zeros(3),
                         np.array([True, False, True]), "exact"))
    # claim "w"'s one chunk: kind and mode differ, the note does not
    batches.append(Batch("w", {"q": 9, "D_index": [4], "D_size": 3}, [1.5], [2.5], [-0.0], [True],
                         "numeric", kind="capacity"))
    return batches


def _sorted_verdicts(batches) -> list[Verdict]:
    """Every row's Verdict, stable-sorted by (claim, p or q, params text)."""
    vs = [v for b in batches for v in b]
    return sorted(vs, key=lambda v: (v.claim, v.params.get("p", v.params.get("q", 0)),
                                     v.params_text))


@pytest.mark.parametrize("chunk_rows", [1, 7, verifier.CHUNK_ROWS])
def test_chunk_walk_equals_the_sorted_verdicts(monkeypatch, chunk_rows):
    monkeypatch.setattr(verifier, "CHUNK_ROWS", chunk_rows)
    batches = _walk_batches()
    expected = _sorted_verdicts(batches)
    vs = verifier.Verdicts(batches)
    assert list(vs.lines()) == [_dumped(v) for v in expected]
    assert _csv_text(vs.rows()) == _csv_text(
        [[v.params_text if k == "params" else v.to_record()[k] for k in RECORD_KEYS]
         for v in expected])
    walked = list(vs)
    assert list(map(repr, walked)) == list(map(repr, expected))  # NaN fields equal by repr
    assert [v.params_text for v in walked] == [
        json.dumps(v.params, sort_keys=True, default=str) for v in expected]
    assert [v.note for v in walked if v.params.get("p") == 5] == [
        "vacuous", "", "vacuous", "", "vacuous", ""]
    for v in walked:
        assert not any(isinstance(x, np.generic)
                       for x in (v.computed, v.target, v.margin, v.passed, *v.params.values()))


def test_chunks_are_whole_groups_of_one_claim_and_key_set(monkeypatch):
    joined = []
    join = Batch.join.__func__

    def spy(cls, batches):
        joined.append(batches)
        return join(cls, batches)

    monkeypatch.setattr(Batch, "join", classmethod(spy))
    batches = _walk_batches()
    list(verifier.Verdicts(batches).lines())
    assert [b for chunk in joined for b in chunk] == sorted(
        batches, key=lambda b: (b.claim, b.params.get("p", b.params.get("q", 0))))
    for chunk in joined:
        assert len({(b.claim, *sorted(b.params)) for b in chunk}) == 1
        # a chunk past the cap is one group, here the one larger than the cap
        assert (sum(map(len, chunk)) <= verifier.CHUNK_ROWS
                or len({b.params["p"] for b in chunk}) == 1)
    # no group is split, and groups merge: far fewer chunks than moduli
    moduli = [(b.claim, b.params.get("p", b.params.get("q"))) for b in batches]
    assert len(joined) < len(set(moduli)) // 10


def test_a_group_of_mixed_params_keys_is_refused():
    b = Batch("x", {"p": 5, "chi": [1]}, [1.0], [2.0], [1.0], [True], "numeric")
    with pytest.raises(ValueError, match="x batches at one modulus differ in their params keys"):
        verifier.Verdicts([b, dataclasses.replace(b, params={"p": 5, "H": [1]})])


def test_params_texts_are_built_by_the_walk_alone(monkeypatch):
    # no batch builds its params texts when the suite builds it; the walk builds
    # them once per chunk, for the chunk's joined batch
    calls = []
    texts = verifier._params_texts

    def spy(params, rows):
        calls.append(rows)
        return texts(params, rows)

    monkeypatch.setattr(verifier, "_params_texts", spy)
    vs = run_suite(3, 43, seed=1)
    assert calls == []
    assert sum(1 for _ in vs.lines()) == len(vs) == sum(calls)
    assert max(calls) <= verifier.CHUNK_ROWS < sum(calls) and len(calls) < 40


def test_suite_params_columns_are_int64_arrays():
    # every builder hands its row-varying integer params as int64 arrays, so a
    # chunk joins each column with one np.concatenate; lemma3's instance tags are
    # strings
    batches = verifier._suite_for_modulus(13, CLAIMS, 1, 2**62)
    assert {b.claim for b in batches} == set(CLAIMS)
    for b in batches:
        for key, column in b.params.items():
            if isinstance(column, (list, np.ndarray)) and key != "instance":
                assert isinstance(column, np.ndarray) and column.dtype == np.int64, (b.claim, key)


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_eps_cut_equals_bisect(eps):
    """_eps_batches cuts its ascending H column where bisect_right over the list of
    its values would, at every p <= 400 and every size 1..p, twice each (with
    eps = 0.5 the threshold p^(1/2+eps) = p is itself a size)."""
    for p in range(3, 401):
        H = np.repeat(np.arange(1, p + 1), 2)
        batches = verifier._eps_batches(SimpleNamespace(p=p), H, np.ones(len(H), dtype=np.int64),
                                        np.zeros(len(H)), eps=eps)
        vacuous = sum(len(b) for b in batches if b.note == "vacuous")
        assert vacuous == bisect.bisect_right(H.tolist(), p ** (0.5 + eps)), p


@pytest.mark.parametrize("v", [
    Verdict("eq2", {"p": 10007}, "skipped", "skipped", math.nan, False, "exact",
            kind="capacity", note="exact mode needs root order 10006 > 10000"),
    Verdict("thm2", {"p": 7, "H": 3}, 1.5, 2.5, math.inf, True, "numeric"),
    Verdict("thm2", {"p": 7, "H": 3}, 2.5, 1.5, -math.inf, False, "numeric"),
    Verdict("thm2", {"p": 7, "H": 3}, 2.5, 2.5, -0.0, True, "numeric"),
    Verdict("shkredov", {"p": 7, "H": 3}, math.inf, 7, math.nan, False, "exact"),
    Verdict("x", {"p": 7, "s": 'q"\\é'}, 0, 0, 0.0, True, "exact",
            note='a quote ", a backslash \\ and a non-ASCII \u03c7'),
    Verdict("konyagin", {"q": 2**64 + 1, "D_index": 2**70}, 2**65, -(2**63) - 1, 0.0,
            True, "exact"),
], ids=["nan-margin", "inf-margin", "neg-inf-margin", "neg-zero-margin",
        "shkredov-inf", "escapes", "big-ints"])
def test_to_line_hand_built(v):
    assert v.to_line() == _dumped(v)


class TestMapTasks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flattens_in_task_order(self, workers):
        assert map_tasks(range, [(3,), (0,), (2,)], workers) == [0, 1, 2, 0, 1]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected_without_tasks(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            map_tasks(range, [], workers)
