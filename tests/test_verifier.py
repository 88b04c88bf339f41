import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from charsum.characters import character, quadratic_character
from charsum.engines import shifted_values_all
from charsum.errors import PrincipalCharacter, ShiftNotCoprime, ZeroInD
from charsum.field import make_ctx, primes_in, subgroup_of_order, subgroups
from charsum.values import Weights
from charsum.verifier import (
    CLAIMS,
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
    random_weights,
    run_suite,
)
from references import eq2_via_engine, json_sort_key, without_certificates


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

    def test_shkredov_reuses_the_granville_verdict(self, ctx7, H7):
        base = check_granville(ctx7, H7)
        assert check_shkredov_bound(ctx7, H7, base) == check_shkredov_bound(ctx7, H7)
        failed = Verdict(claim="granville", params={}, computed="1 structural mismatches",
                         target=6, margin=float("nan"), passed=False, mode="exact")
        assert not check_shkredov_bound(ctx7, H7, failed).passed

    def test_suite_runs_granville_once_per_subgroup(self, monkeypatch):
        from charsum import verifier

        calls = []
        structural = verifier._granville_structural
        monkeypatch.setattr(verifier, "_granville_structural",
                            lambda ctx, H: calls.append(H) or structural(ctx, H))
        vs = run_suite(13, 13, claims=["granville", "shkredov"])
        assert len(calls) == len(make_ctx(13).divisors) == len(vs) // 2


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

    def test_fallback_memory_is_bounded(self, monkeypatch):
        # with the certificate forced off, the 151^2 x 151 grid (168 MB at once)
        # is reduced in chunks of at most HISTOGRAM_CELLS cells
        without_certificates(monkeypatch)
        ctx = make_ctx(151)
        tracemalloc.start()
        try:
            v = check_kernel_cases(ctx, character(ctx, 7), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.passed and v.params["pairs"] == 151**2
        assert peak <= 64e6


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
        assert len(vs) == 1
        assert vs[0].kind == "capacity" and not vs[0].passed

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

    @pytest.mark.parametrize("kwargs", [{"budget": 0}, {"budget": -1},
                                        {"workers": 0}, {"workers": -2}])
    def test_nonpositive_budget_or_workers_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            run_suite(13, 13, claims=["granville", "konyagin"], **kwargs)

    def test_verdict_sorting(self):
        vs = run_suite(3, 13, claims=["granville", "thm2"], seed=0)
        keys = [v.sort_key() for v in vs]
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


@pytest.mark.parametrize("v", [
    Verdict("eq2", {"p": 10007}, "skipped", "skipped", math.nan, False, "exact",
            kind="capacity", note="p-1=10006 > 10000"),
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
