"""Generated cross-checks between independent paths to the same values: the
numeric kernel (one DFT of a dlog histogram for every character) and the
single-character coset-row reading against the FFT correlation and the per-shift
engines, the exact histogram kernel against numeric mode and against sums of
CycInt products, the exact bilinear convolution against the term-by-term grid
sum, the batched eq2 push-forward against per-character histograms, the suite's
batched verdicts (budgeted too) and lemma3's stacked FFT against the standalone
checkers and bilinear forms, and each identity's certificate against its
per-character fallback, on primes p <= 200."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import verifier
from charsum.characters import character
from charsum.cyclo import CycInt, reduce_counts
from charsum.engines import (
    bilinear_S,
    bilinear_Sprime,
    exp_sum_subset,
    nonlinear_sum_xxa,
    numeric_sums,
    proof_kernel_S_yy1,
    shifted_exponents,
    shifted_product_sum,
    shifted_sum,
    shifted_values_all,
)
from charsum.field import coset_shift_rows, make_ctx, primes_in, subgroup_of_order, subgroups
from charsum.values import Weights
from charsum.verifier import (
    check_eps_corollary,
    check_eq2_identities,
    check_eq2_identity,
    check_granville,
    check_kernel_cases,
    check_konyagin,
    check_lemma3,
    check_meanvalue2,
    check_nonlinear_bound_all_shifts,
    check_sharpened_theorem2,
    check_theorem2,
    character_sum_moduli,
    nonlinear_rows,
    random_subsets,
    random_weights,
    run_suite,
    seeded_rng,
)
from references import (
    bilinear_grid,
    corrupted_ctx,
    eq2_per_character,
    eq2_via_engine,
    granville_mismatches,
    kernel_mismatches,
    without_certificates,
)

PRIMES = list(primes_in(3, 200))
SMALL_PRIMES = [p for p in PRIMES if p <= 60]
TOL = 1e-9

cross_path = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, nonprincipal=False, nonzero_shift=False, primes=PRIMES):
    """(ctx, chi, H, a) with chi, H and a drawn from the whole range for p."""
    p = draw(st.sampled_from(primes))
    ctx = make_ctx(p)
    H = subgroup_of_order(ctx, draw(st.sampled_from(ctx.divisors)))
    chi = character(ctx, draw(st.integers(1 if nonprincipal else 0, p - 2)))
    a = draw(st.integers(1 if nonzero_shift else 0, p - 1))
    return ctx, chi, H, a


@cross_path
@given(instances())
def test_subgroup_path_equals_fft_and_naive(inst):
    # the coset-row reading of scan_problem1 and the standalone thm2 checkers: |S|
    # at a = 0 and at the representatives g^i, entry 1 + t % k standing for g^t
    ctx, chi, H, a = inst
    p, k = ctx.p, H.index
    rows = shifted_exponents(ctx, chi, H.elements, np.append(0, ctx.exp[:k]))
    coset = np.abs(numeric_sums(rows, p - 1))
    every = np.append(coset[0], coset[1 + ctx.dlog[1:] % k])
    fft = np.abs(shifted_values_all(ctx, chi, H))
    assert every.shape == fft.shape == (p,)
    assert np.max(np.abs(every - fft)) <= TOL
    assert abs(every[a] - shifted_sum(ctx, chi, H.elements, a, "exact").magnitude) <= TOL
    if not chi.is_principal:
        peak, inner = verifier._shift_peak(ctx, chi, H)
        assert (peak, inner) == (coset[1:].max(), coset[0])


@cross_path
@given(instances(nonprincipal=True))
def test_kernel_peaks_equal_shifted_values_all(inst):
    ctx, chi, H, _ = inst
    vals = shifted_values_all(ctx, chi, H.elements)
    _, peaks = character_sum_moduli(ctx, coset_shift_rows(ctx, H))
    _, inner = character_sum_moduli(ctx, [H.elements])
    assert abs(peaks[chi.index] - np.max(np.abs(vals[1:]))) <= TOL
    assert abs(inner[chi.index] - abs(vals[0])) <= TOL


@cross_path
@given(instances(nonzero_shift=True))
def test_coset_meanvalue2_equals_per_shift_sum(inst):
    ctx, _, H, a = inst
    p, k = ctx.p, H.index
    # (1/(p-1)) sum over every character of |sum_{n in H} chi(n + a)|, term by term
    direct = sum(abs(shifted_sum(ctx, character(ctx, j), H.elements, a, "numeric").to_complex())
                 for j in range(p - 1)) / (p - 1)
    means, _ = character_sum_moduli(ctx, coset_shift_rows(ctx, H))
    assert means.shape == (k,)
    assert abs(means[ctx.dlog[a] % k] - direct) <= TOL
    assert abs(check_meanvalue2(ctx, H, a).computed - direct) <= TOL


@cross_path
@given(instances(nonprincipal=True))
def test_coset_nonlinear_equals_per_shift_sum(inst):
    ctx, chi, H, _ = inst
    every_shift = max(nonlinear_sum_xxa(ctx, chi, H, b, "numeric").magnitude
                      for b in range(1, ctx.p))
    _, peaks = character_sum_moduli(ctx, nonlinear_rows(ctx, H))
    assert abs(peaks[chi.index] - every_shift) <= TOL
    assert abs(check_nonlinear_bound_all_shifts(ctx, chi, H).computed - every_shift) <= TOL


def _standalone(ctx, claim: str, budget: int | None, seed: int) -> list:
    """The first budget instances (all for None) of claim's grid at p, as the suite
    counts them, each as (its params tag, the standalone checker's verdict)."""
    p, m = ctx.p, ctx.p - 1
    Hs = subgroups(ctx)
    chis = [character(ctx, j) for j in range(1, m)]
    if claim in ("thm2", "thm2_sharp", "eps"):
        check = {"thm2": check_theorem2, "thm2_sharp": check_sharpened_theorem2,
                 "eps": lambda ctx, chi, H: check_eps_corollary(ctx, chi, H, 0.1)}[claim]
        grid = [(H, chi) for H in Hs for chi in chis][:budget]
        return [({}, check(ctx, chi, H)) for H, chi in grid]
    if claim == "meanvalue2":
        grid = [(H, a) for H in Hs for a in range(1, p)][:budget]
        return [({}, check_meanvalue2(ctx, H, a)) for H, a in grid]
    if claim == "nonlinear":  # the budget counts subgroups
        return [({}, check_nonlinear_bound_all_shifts(ctx, chi, H))
                for H in Hs[:budget] for chi in chis]
    if claim == "eq2":  # chi-major over the sets D
        dsets = [list(H.elements) for H in Hs] + random_subsets(p, 20, seeded_rng(seed, p, "eq2"))
        grid = [(chi, i) for chi in chis for i in range(len(dsets))][:budget]
        return [({"D_index": i}, check_eq2_identity(ctx, chi, dsets[i])) for chi, i in grid]
    # lemma3: the budget counts the drawn characters, five instances each
    rng = seeded_rng(seed, p, "lemma3")
    drawn = [chis[rng.randrange(m - 1)] for _ in range(min(5, m - 1))][:budget]
    out = []
    for ci, chi in enumerate(drawn):
        for w in range(5):
            xi, eta = random_weights(p, rng), random_weights(p, rng)
            alone = check_lemma3(ctx, chi, xi, eta, rng.randrange(1, p))
            out.append(({"instance": f"{ci}:{w}"}, alone))
    return out


SUITE_CLAIMS = ["thm2", "thm2_sharp", "eps", "meanvalue2", "nonlinear", "lemma3", "eq2"]


@pytest.mark.parametrize("budget", [None, 1, 7, 20, 40])
def test_suite_verdicts_equal_standalone_checkers(budget):
    """The suite builds each claim's verdicts a batch at a time, and a budget cuts
    the last batch it reaches partway (budgets 1, 7 and 40 each end mid-batch at
    p <= 31).  Verdict for verdict, the suite keeps the grid's first instances and
    matches each checker run alone: exactly for eq2 and lemma3 (the same
    arithmetic), within TOL for the bounds, which the checkers take by the
    single-character route."""
    seed = 5
    got = run_suite(3, 31, claims=SUITE_CLAIMS, seed=seed, budget=budget)
    for claim in SUITE_CLAIMS:
        expected = [e for p in primes_in(3, 31)
                    for e in _standalone(make_ctx(p), claim, budget, seed)]
        by_params = {json.dumps({**v.params, **tag}, sort_keys=True): v for tag, v in expected}
        mine = [v for v in got if v.claim == claim]
        assert len(mine) == len(by_params) == len(expected), claim
        exact = claim in ("eq2", "lemma3")
        for v in mine:
            alone = by_params[json.dumps(v.params, sort_keys=True)]
            assert (v.claim, v.mode, v.kind, v.note, v.passed) == (
                alone.claim, alone.mode, alone.kind, alone.note, alone.passed)
            for field in ("computed", "target", "margin"):
                a, b = getattr(v, field), getattr(alone, field)
                assert a == b if exact else abs(a - b) <= TOL, (field, v.params)


@pytest.mark.parametrize("seed", [0, 3])
def test_batched_lemma3_equals_bilinear_forms(seed):
    """The suite's lemma3 runs every instance of a prime through one stacked FFT
    for S and one for S'; each instance's |S|, |S'| and sqrt(pXY) equal, bit for
    bit, those of bilinear_S and bilinear_Sprime on that instance alone."""
    got = {(v.params["p"], v.params["instance"]): v
           for v in run_suite(3, 61, claims=["lemma3"], seed=seed)}
    for p in primes_in(3, 61):
        ctx = make_ctx(p)
        chis = [character(ctx, j) for j in range(1, p - 1)]
        rng = seeded_rng(seed, p, "lemma3")
        drawn = [chis[rng.randrange(p - 2)] for _ in range(min(5, p - 2))]
        for ci, chi in enumerate(drawn):
            for w in range(5):
                xi, eta = random_weights(p, rng), random_weights(p, rng)
                a = rng.randrange(1, p)
                S = bilinear_S(ctx, chi, xi, eta, a, "numeric").magnitude
                Sp = bilinear_Sprime(ctx, chi, xi, eta, a, "numeric").magnitude
                v = got.pop((p, f"{ci}:{w}"))
                assert (v.params["chi"], v.params["a"]) == (chi.index, a)
                assert v.computed == max(S, Sp)
                assert v.target == math.sqrt(p * xi.sq_norm * eta.sq_norm)
    assert got == {}


def test_kernel_memory_is_bounded():
    """|H| = 1 at p = 4001 gives 4000 rows: one (4000 x 4000) histogram and its
    DFT would take more than 256 MB."""
    ctx = make_ctx(4001)
    rows = coset_shift_rows(ctx, subgroup_of_order(ctx, 1))
    tracemalloc.start()
    try:
        means, peaks = character_sum_moduli(ctx, rows)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.shape == peaks.shape == (4000,)
    assert peak_bytes <= 64e6


@st.composite
def subsets(draw, n, lo=1):
    """A nonempty sorted subset of [lo, n - 1]."""
    return sorted(draw(st.sets(st.integers(lo, n - 1), min_size=1, max_size=n - lo)))


@cross_path
@given(st.integers(2, 60).flatmap(lambda q: st.tuples(st.just(q), subsets(q, lo=0))))
def test_konyagin_histogram_equals_sum_of_norms(inst):
    q, D = inst
    reference = CycInt.zero(q)
    for a in range(1, q):
        reference = reference + exp_sum_subset(q, D, a, "exact").exact.abs_squared()
    assert check_konyagin(q, D).computed == reference.as_integer()


@cross_path
@given(instances(nonprincipal=True, primes=SMALL_PRIMES), st.data())
def test_eq2_histogram_equals_engine_route(inst, data):
    ctx, chi, _, _ = inst
    D = data.draw(subsets(ctx.p))
    assert check_eq2_identity(ctx, chi, D).computed == eq2_via_engine(ctx, chi, D)


@cross_path
@given(st.sampled_from(SMALL_PRIMES).flatmap(lambda p: st.tuples(st.just(p), subsets(p))))
def test_eq2_batch_equals_per_character_routes(inst):
    """One pushed-forward dlog histogram per D against each character's own
    pair-difference histogram and against the generic exact engine."""
    p, D = inst
    ctx = make_ctx(p)
    chis = [character(ctx, j) for j in range(1, p - 1)]
    verdicts = check_eq2_identities(ctx, chis, D)
    assert [v.params["chi"] for v in verdicts] == list(range(1, p - 1))
    for chi, v in zip(chis, verdicts):
        assert v.computed == eq2_per_character(ctx, chi, D) == eq2_via_engine(ctx, chi, D)


def test_budgeted_eq2_suite_equals_standalone_checker():
    """At p = 13 there are 11 characters and 26 sets D.  The grid is chi-major, so
    budget 30 keeps chi_1 on every D and chi_2 on D_0..D_3 only: the suite's one
    batched call per D must see exactly that D's surviving characters."""
    p, seed = 13, 5
    ctx = make_ctx(p)
    dsets = ([list(H.elements) for H in subgroups(ctx)]
             + random_subsets(p, 20, seeded_rng(seed, p, "eq2")))
    verdicts = run_suite(p, p, claims=["eq2"], seed=seed, budget=30)
    grid = [(j, i) for j in range(1, p - 1) for i in range(len(dsets))][:30]
    assert sorted((v.params["chi"], v.params["D_index"]) for v in verdicts) == sorted(grid)
    for v in verdicts:
        alone = check_eq2_identity(ctx, character(ctx, v.params["chi"]),
                                   dsets[v.params["D_index"]])
        alone.params["D_index"] = v.params["D_index"]
        assert v == alone


def test_eq2_batch_memory_is_bounded(monkeypatch):
    """All 3999 nontrivial characters at p = 4001 for one D, on the push-forward
    route (the certificate is forced off): their pushed-forward rows would take
    128 MB as one (3999 x 4000) histogram.  The order's reduction table
    (m x phi(m) float64, 51 MB at m = 4000) is cached and shared by every exact
    checker, so it is built before tracing; the bound is on what the batch
    allocates."""
    without_certificates(monkeypatch)
    ctx = make_ctx(4001)
    chis = [character(ctx, j) for j in range(1, 4000)]
    reduce_counts(np.zeros(4000, dtype=np.int64))
    tracemalloc.start()
    try:
        verdicts = check_eq2_identities(ctx, chis, range(1, 64))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verdicts) == 3999
    assert all(v.passed and v.computed == 4001 * 63 - 63**2 for v in verdicts)
    assert peak_bytes <= 64e6


def _int_weights(p, rng):
    return Weights([rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(p)])


@cross_path
@given(instances(nonprincipal=True, nonzero_shift=True), st.data())
def test_exact_engines_match_numeric(inst, data):
    ctx, chi, H, a = inst
    p = ctx.p
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    D = data.draw(subsets(p, lo=0))
    xi, eta = _int_weights(p, rng), _int_weights(p, rng)
    y, y1 = rng.randrange(p), rng.randrange(p)
    b = rng.choice([b for b in range(1, p) if b != a])
    calls = [
        lambda mode: shifted_sum(ctx, chi, D, a, mode),
        lambda mode: bilinear_S(ctx, chi, xi, eta, a, mode),
        lambda mode: bilinear_Sprime(ctx, chi, xi, eta, a, mode),
        lambda mode: proof_kernel_S_yy1(ctx, chi, y, y1, a, mode),
        lambda mode: nonlinear_sum_xxa(ctx, chi, H, a, mode),
        lambda mode: shifted_product_sum(ctx, chi, H, a, b, mode),
    ]
    for call in calls:
        exact, numeric = call("exact"), call("numeric")
        assert exact.mode == "exact" and numeric.mode == "numeric"
        assert abs(exact.to_complex() - numeric.to_complex()) <= TOL


@cross_path
@given(instances(nonprincipal=True, nonzero_shift=True, primes=SMALL_PRIMES), st.data())
def test_exact_bilinear_equals_grid_sum(inst, data):
    """The exact bilinear forms convolve the weights on the dlog line; the
    reference adds every (x, y) term of the grid.  Terms with the same product xy
    share an exponent, so even the unreduced coefficients agree."""
    ctx, chi, _, a = inst
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    xi, eta = _int_weights(ctx.p, rng), _int_weights(ctx.p, rng)
    for form, twist in ((bilinear_S, False), (bilinear_Sprime, True)):
        got = form(ctx, chi, xi, eta, a, "exact").exact
        assert got.coeffs == bilinear_grid(ctx, chi, xi, eta, a, twist).coeffs


@cross_path
@given(st.integers(2, 200).flatmap(
    lambda q: st.tuples(st.just(q), subsets(q, lo=0), st.integers(-q, 2 * q))))
def test_exact_exp_sum_matches_numeric(inst):
    q, D, a = inst
    exact = exp_sum_subset(q, D, a, "exact").to_complex()
    assert abs(exact - exp_sum_subset(q, D, a, "numeric").to_complex()) <= TOL


@pytest.mark.parametrize("cells", [1, 7, 64, 1024])
def test_chunked_histograms_equal_unchunked(monkeypatch, cells):
    """Shrinking the histogram batch forces every chunk boundary; the counts,
    and so every exact value and every numeric kernel value, must not depend
    on where the chunks fall.  The certificates are forced off, so the chunked
    per-character routes run, mismatch counts on a corrupted dlog included."""
    ctx = make_ctx(31)
    chi = character(ctx, 5)
    every_chi = [character(ctx, j) for j in range(1, 30)]
    rng = random.Random(cells)
    D = rng.sample(range(1, 31), 17)
    xi, eta = _int_weights(31, rng), _int_weights(31, rng)

    bad = corrupted_ctx(31, 2, 7)
    certify = verifier.kernel_certificate.__wrapped__  # uncached
    without_certificates(monkeypatch)

    def exact_values():
        return [check_eq2_identity(ctx, chi, D).computed, check_konyagin(30, D).computed,
                certify(ctx), check_kernel_cases(ctx, chi, 3).computed,
                check_kernel_cases(bad, character(bad, 5), 3).computed,
                [v.computed for v in check_eq2_identities(ctx, every_chi, D)],
                [check_granville(ctx, H).computed for H in subgroups(ctx)],
                bilinear_S(ctx, chi, xi, eta, 3, "exact").exact.reduced(),
                bilinear_Sprime(ctx, chi, xi, eta, 3, "exact").exact.reduced(),
                [[v.tolist() for v in character_sum_moduli(ctx, coset_shift_rows(ctx, H))]
                 for H in subgroups(ctx)]]

    whole = exact_values()
    monkeypatch.setattr(verifier, "HISTOGRAM_CELLS", cells)
    assert exact_values() == whole


@cross_path
@given(instances(nonprincipal=True, nonzero_shift=True, primes=SMALL_PRIMES), st.data())
def test_certificates_equal_fallbacks(inst, data):
    """Each certificate holds on a true dlog, and the verdicts it gives equal
    those of the per-character routes it replaces."""
    ctx, chi, H, a = inst
    D = data.draw(subsets(ctx.p))
    every_chi = [character(ctx, j) for j in range(1, ctx.p - 1)]
    assert verifier.kernel_certificate(ctx) and verifier.granville_certificate(ctx, H)

    def records():
        return [v.to_record() for v in [check_kernel_cases(ctx, chi, a), check_granville(ctx, H),
                                        *check_eq2_identities(ctx, every_chi, D)]]

    certified = records()
    with pytest.MonkeyPatch.context() as mp:
        without_certificates(mp)
        assert records() == certified


def test_suite_certificates_equal_fallbacks(monkeypatch):
    claims = ["eq2", "kernel", "granville"]
    certified = [v.to_record() for v in run_suite(3, 61, claims=claims, seed=42)]
    without_certificates(monkeypatch)
    assert [v.to_record() for v in run_suite(3, 61, claims=claims, seed=42)] == certified


# Mutation tests: dlog[2] and dlog[5] swapped at p = 13 is no discrete logarithm,
# so the "characters" built on it break every identity.  Each certificate must
# reject, and each fallback must report what the reference route reports.

def test_kernel_certificate_rejects_corrupted_dlog():
    bad = corrupted_ctx(13, 2, 5)
    assert not verifier.kernel_certificate(bad)
    for j, a in [(1, 1), (4, 3), (5, 12)]:
        chi = character(bad, j)
        assert check_kernel_cases(bad, chi, a).computed == kernel_mismatches(bad, chi, a) > 0


@pytest.mark.parametrize("r", [0, 1, 2, 12])
def test_kernel_certificate_rejects_each_perturbed_row(monkeypatch, r):
    """One count moved from t = 0 to t = 1 in row r of the certificate's
    histogram: the y = 0 row (r = 0), the y = y1 row (r = 1), or a generic one."""
    counted = verifier.exponent_histogram

    def perturbed(exponents, m, weights=None):
        counts = counted(exponents, m, weights)
        counts[r, 0] -= 1
        counts[r, 1] += 1
        return counts

    ctx = make_ctx(13)
    monkeypatch.setattr(verifier, "exponent_histogram", perturbed)
    assert not verifier.kernel_certificate(ctx)


def test_eq2_certificate_rejects_corrupted_dlog(monkeypatch):
    bad = corrupted_ctx(13, 2, 5)
    chis = [character(bad, j) for j in range(1, 12)]
    D = [1, 2, 3, 4, 6]
    certify = verifier.eq2_certificate
    seen = []
    monkeypatch.setattr(verifier, "eq2_certificate", lambda c: seen.append(certify(c)) or seen[-1])
    verdicts = check_eq2_identities(bad, chis, D)
    assert seen == [False]
    assert not all(v.passed for v in verdicts)
    for chi, v in zip(chis, verdicts):
        reference = eq2_via_engine(bad, chi, D)
        assert v.computed == (reference if reference is not None else "non-integer")


def test_granville_certificate_rejects_corrupted_dlog():
    bad = corrupted_ctx(13, 5, 2)  # 5 lies in the subgroup of order 4, 2 does not
    H = subgroup_of_order(bad, 4)
    assert 5 in H.elements and 2 not in H.elements
    assert not verifier.granville_certificate(bad, H)
    v = check_granville(bad, H)
    assert not v.passed
    assert v.computed == f"{granville_mismatches(bad, H)} structural mismatches"
    assert granville_mismatches(bad, H) > 0
