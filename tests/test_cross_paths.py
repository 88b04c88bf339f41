"""Generated cross-checks between independent paths to the same values: the
numeric kernel (one DFT of a dlog histogram for every character) and the
single-character coset-row reading against the FFT correlation and the per-shift
engines, the kernel's rows read off one table of dlog(g^s + 1) against rows of
residues, across chunk edges too, the exact histogram kernel against numeric
mode and against sums of CycInt products, the exact bilinear convolution against
the term-by-term grid sum, the class values that eq2 and konyagin hand
integer_sums, laid over Z/m, against the |D|^2-pair grid (granville's against
each subgroup's dlog histogram), which proves each count constant on its gcd
classes, for one set and for several against each set's one-set call, the
batched eq2 verdicts against per-character histograms, the suite's eq2 rows,
written from set sizes alone, against _eq2_batch over the drawn sets, the
suite's batched verdicts (budgeted too) and lemma3's one stacked pass for S and
S' against the one-row checks and the bilinear forms, each certified verdict
against the per-character references of tests/references.py (granville's for
p < 400) and the dlog certificate against the O(p^2) count of the kernel's case
table, on primes p <= 211 (eq2's certified rows up to 1009), integer_sums'
reading of class values against reduction mod Phi_m, for m <= 300, every exact
builder raising on a table that fails its certificate, and scan problem 1's
coset counts and records against an Euler-criterion brute force over every
subgroup (at p = 65537 too, |H| up to 2^16)."""

import dataclasses
import itertools
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum import cyclo, scan, verifier
from charsum.characters import character, quadratic_character
from charsum.cyclo import CycInt
from charsum.engines import (
    bilinear_S,
    bilinear_Sprime,
    bilinear_sums,
    exp_sum_exponents,
    exp_sum_subset,
    nonlinear_sum_xxa,
    proof_kernel_S_yy1,
    shifted_exponents,
    shifted_product_sum,
    shifted_sum,
    shifted_values_all,
)
from charsum.field import (
    MAX_P,
    is_prime,
    make_ctx,
    primes_in,
    subgroup_near_sqrt,
    subgroup_of_order,
    subgroups,
)
from charsum.values import Weights, numeric_sums, roots
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
    check_shkredov_bound,
    check_theorem2,
    integer_sums,
    random_subsets,
    random_weights,
    run_suite,
    seeded_rng,
    subgroup_moduli,
)
import references
from references import (
    bilinear_grid,
    corrupted_ctx,
    coset_shift_rows,
    direct_roots,
    eq2_per_character,
    eq2_via_engine,
    granville_mismatches,
    kernel_case_table_holds,
    kernel_mismatches,
    nonlinear_rows,
    pair_difference_grid,
    pair_difference_sum,
    per_subgroup_moduli,
    reduced_sums,
    row_moduli,
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
    # the coset-row reading of scan_problem1: |S| at a = 0 and at the
    # representatives g^i, entry 1 + t % k standing for g^t; check_theorem2's peak,
    # read off the kernel, is its maximum over the nonzero shifts
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
        assert abs(check_theorem2(ctx, chi, H).computed - coset[1:].max()) <= TOL


@cross_path
@given(instances(nonprincipal=True))
def test_kernel_peaks_equal_shifted_values_all(inst):
    ctx, chi, H, _ = inst
    vals = shifted_values_all(ctx, chi, H.elements)
    _, (peaks,), _ = subgroup_moduli(ctx, [H], shifted=True, nonlinear=False)
    _, inner = row_moduli(ctx, [H.elements])
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
    means, _ = row_moduli(ctx, coset_shift_rows(ctx, H))
    assert means.shape == (k,)
    assert abs(means[ctx.dlog[a] % k] - direct) <= TOL
    assert abs(check_meanvalue2(ctx, H, a).computed - direct) <= TOL


@cross_path
@given(instances(nonprincipal=True))
def test_coset_nonlinear_equals_per_shift_sum(inst):
    ctx, chi, H, _ = inst
    every_shift = max(nonlinear_sum_xxa(ctx, chi, H, b, "numeric").magnitude
                      for b in range(1, ctx.p))
    _, peaks = row_moduli(ctx, nonlinear_rows(ctx, H))
    assert abs(peaks[chi.index] - every_shift) <= TOL
    assert abs(check_nonlinear_bound_all_shifts(ctx, chi, H).computed - every_shift) <= TOL


def test_exponents_at_residues_equal_the_table():
    # residue arrays of several shapes, each holding 0, in any order and repeated;
    # the reference reads chi_j(g^t) = zeta^(jt) off the power table, not dlog
    rng = np.random.default_rng(11)
    for p in SMALL_PRIMES:
        ctx = make_ctx(p)
        m = p - 1
        for x in (np.arange(p), np.append(0, rng.integers(0, p, size=20)).reshape(3, 7),
                  rng.permutation(np.repeat(np.arange(p), 2)).reshape(2, p, 1)):
            for j in range(m):
                chi = character(ctx, j)
                table = np.full(p, -1)
                table[ctx.exp] = j * np.arange(m) % m
                assert np.array_equal(chi.exponent_table(), table)
                assert np.array_equal(chi.exponents(x), table[x])


def _euler_legendre(p: int) -> np.ndarray:
    """(z / p) for every residue z by Euler's criterion, as an int64 vector."""
    half = (p - 1) // 2
    return np.array([0] + [1 if pow(z, half, p) == 1 else -1 for z in range(1, p)])


@pytest.mark.parametrize("p", [3, 5, 7, 13, 103, 1019, 4003, 10037])
def test_scan_problem1_equals_an_euler_criterion_brute_force(p, monkeypatch):
    # every subgroup in turn (|H| = 1, 2, p - 1 and k = 1 among them): the signed
    # count at each representative g^i, and the record's stat and achiever, against
    # sums of Euler's criterion over H = {z : z^|H| = 1} and every shift a != 0,
    # read with no exp table; at 1019 = 2 * 509 + 1, 254 of 509 cosets of {1, -1} tie
    ctx = make_ctx(p)
    leg = _euler_legendre(p)
    for n in ctx.divisors:
        H = subgroup_of_order(ctx, n)
        h = np.array([z for z in range(1, p) if pow(z, n, p) == 1])
        assert H.elements.dtype == np.int64 and H.elements.tolist() == h.tolist()
        reps = np.array([pow(ctx.g, i, p) for i in range(H.index)])
        counts = scan.quadratic_coset_sums(ctx, H)
        assert counts.dtype == np.int64
        assert counts.tolist() == leg[(reps[:, None] + h) % p].sum(axis=1).tolist()
        # S(a) for every shift a at once: leg laid twice, correlated with H's indicator
        every = np.correlate(np.append(leg, leg[:-1]), np.isin(np.arange(p), h).astype(np.int64))
        mags = np.abs(every[1:])
        peak = int(mags.max())
        monkeypatch.setattr(scan, "subgroup_near_sqrt", lambda c, n=n: subgroup_of_order(c, n))
        (rec,) = scan.scan_problem1(p)
        assert rec["H_order"] == n
        assert rec["stat"] == peak / math.sqrt(p)
        assert rec["achiever"]["a"] == 1 + int(np.argmax(mags == peak))
        if (p, n) == (1019, 2):
            assert int((np.abs(counts) == peak).sum()) == 254


def test_scan_problem1_counts_at_subgroups_of_order_up_to_2_16():
    # p - 1 = 2^16: every subgroup, |H| = 2^15 and 2^16 among them, each count a
    # sum of up to 2^16 signs, against int64 sums of Euler's criterion over
    # H = {z : z^|H| = 1}, its members found by squaring every residue in turn
    p = 65537
    ctx = make_ctx(p)
    leg = _euler_legendre(p)
    z, power = np.arange(1, p), np.arange(1, p)  # power = z^(2^e) mod p
    orders = []
    for e in range(17):
        H = subgroup_of_order(ctx, 2**e)
        h = z[power == 1]
        assert len(h) == H.order
        reps = np.array([pow(ctx.g, i, p) for i in range(H.index)])
        counts = scan.quadratic_coset_sums(ctx, H)
        assert counts.dtype == np.int64
        assert counts.tolist() == leg[(reps[:, None] + h) % p].sum(axis=1, dtype=np.int64).tolist()
        orders.append(H.order)
        power = power * power % p
    assert orders[-2:] == [2**15, 2**16]


@pytest.mark.parametrize("p", [3, 7, 103, 1019, 4003, 10037])
def test_scan_problem1_counts_equal_the_shifted_sums(p):
    # problem 1's signed counts at every coset representative g^i against the
    # engine's shifted sum of the quadratic character, numeric and (p <= 103) exact
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    chi = quadratic_character(ctx)
    counts = scan.quadratic_coset_sums(ctx, H)
    assert counts.dtype == np.int64 and len(counts) == H.index
    for a, n in zip(ctx.exp[:H.index].tolist(), counts.tolist()):
        assert abs(shifted_sum(ctx, chi, H.elements, a, "numeric").magnitude - abs(n)) <= TOL
        if p <= 103:
            assert shifted_sum(ctx, chi, H.elements, a, "exact").exact.as_integer() == n


@cross_path
@given(instances(), st.integers(-3, 3), st.integers(-3, 3))
def test_unreduced_shifted_sum_equals_reduced(inst, wrap_D, wrap_a):
    # D and a moved by multiples of p, negative ones too, name the same residues
    ctx, chi, H, a = inst
    p = ctx.p
    D = H.elements
    moved_D = D + p * wrap_D * np.arange(1, len(D) + 1)
    moved_a = a + p * wrap_a
    assert np.array_equal(shifted_exponents(ctx, chi, moved_D, moved_a),
                          shifted_exponents(ctx, chi, D, a))
    for mode in ("exact", "numeric"):
        got = shifted_sum(ctx, chi, moved_D, moved_a, mode)
        want = shifted_sum(ctx, chi, D, a, mode)
        assert (got.exact, got.numeric) == (want.exact, want.numeric)


def _same_bits(got, exponents, m: int) -> None:
    want = direct_roots(exponents, m)
    assert got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))


def test_roots_have_the_direct_formula_bits():
    """roots reads a character of order d from a table of its d roots when there
    are at least 2d terms, and computes the rest term by term: either way every
    value, and every numeric_sums total, has the direct formula's bits."""
    rng = np.random.default_rng(5)
    for p in primes_in(3, 61):
        ctx = make_ctx(p)
        m = p - 1
        for j in range(m):
            chi = character(ctx, j)
            _same_bits(chi.value_table(), chi.exponent_table(), m)
        # every shift of every residue, x + a = 0 giving the zero terms
        for d in sorted({2, 3, m}):
            if m % d:
                continue
            chi = character(ctx, m // d)
            assert chi.order == d
            rows = shifted_exponents(ctx, chi, np.arange(p), np.arange(p))
            assert rows.shape == (p, p)
            _same_bits(roots(rows, m), rows, m)
            w = rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
            first = numeric_sums(rows, m, w)
            # numeric_sums weights the roots in place: no table may be shared
            assert np.array_equal(numeric_sums(rows, m, w).view(float), first.view(float))
            want = (direct_roots(rows, m) * w).sum(axis=0)
            assert np.array_equal(first.view(float), want.view(float))
    for m in (1, 2, 12):
        for e in (np.array([], dtype=np.int64), np.full(5, -1), np.full((3, 2), -1)):
            _same_bits(roots(e, m), e, m)
        for e in range(-1, m):  # a single term, given as a list as Character.eval does
            _same_bits(roots([e], m), [e], m)
            _same_bits(roots([e] * 2 * m, m), [e] * 2 * m, m)


def _standalone(ctx, claim: str, budget: int | None, seed: int) -> list:
    """The first budget instances (all for None) of claim's grid at p, in the
    suite's batch order, each as (its params tag, the standalone checker's verdict)."""
    p, m = ctx.p, ctx.p - 1
    Hs = subgroups(ctx)
    chis = [character(ctx, j) for j in range(1, m)]
    if claim in ("thm2", "thm2_sharp", "eps", "nonlinear"):  # H-major over the characters
        check = {"thm2": check_theorem2, "thm2_sharp": check_sharpened_theorem2,
                 "eps": lambda ctx, chi, H: check_eps_corollary(ctx, chi, H, 0.1),
                 "nonlinear": check_nonlinear_bound_all_shifts}[claim]
        grid = [(H, chi) for H in Hs for chi in chis][:budget]
        return [({}, check(ctx, chi, H)) for H, chi in grid]
    if claim == "meanvalue2":
        grid = [(H, a) for H in Hs for a in range(1, p)][:budget]
        return [({}, check_meanvalue2(ctx, H, a)) for H, a in grid]
    if claim == "eq2":  # D-major over the characters
        dsets = [H.elements for H in Hs] + random_subsets(p, 20, seeded_rng(seed, p, "eq2"))
        grid = [(i, chi) for i in range(len(dsets)) for chi in chis][:budget]
        return [({"D_index": i}, check_eq2_identity(ctx, chi, dsets[i])) for i, chi in grid]
    # lemma3: five instances per drawn character, drawn in order
    rng = seeded_rng(seed, p, "lemma3")
    drawn = [chis[rng.randrange(m - 1)] for _ in range(min(5, m - 1))]
    grid = []
    for ci, chi in enumerate(drawn):
        for w in range(5):
            xi, eta = random_weights(p, rng), random_weights(p, rng)
            grid.append((f"{ci}:{w}", chi, xi, eta, rng.randrange(1, p)))
    return [({"instance": tag}, check_lemma3(ctx, chi, xi, eta, a))
            for tag, chi, xi, eta, a in grid[:budget]]


SUITE_CLAIMS = ["thm2", "thm2_sharp", "eps", "meanvalue2", "nonlinear", "lemma3", "eq2"]


@pytest.mark.parametrize("budget", [None, 1, 7, 20, 40])
def test_suite_verdicts_equal_standalone_checkers(budget):
    """The suite builds each claim's verdicts a batch at a time, and a budget cuts
    the last batch it reaches partway (budgets 1, 7 and 40 each end mid-batch at
    p <= 31).  Verdict for verdict, the suite keeps the grid's first instances and
    matches each checker run alone exactly: each checker reads the suite's
    arithmetic on its one row."""
    seed = 5
    got = run_suite(3, 31, claims=SUITE_CLAIMS, seed=seed, budget=budget)
    for claim in SUITE_CLAIMS:
        expected = [e for p in primes_in(3, 31)
                    for e in _standalone(make_ctx(p), claim, budget, seed)]
        by_params = {json.dumps({**v.params, **tag}, sort_keys=True): v for tag, v in expected}
        mine = [v for v in got if v.claim == claim]
        assert len(mine) == len(by_params) == len(expected), claim
        for v in mine:
            alone = by_params[json.dumps(v.params, sort_keys=True)]
            assert (v.claim, v.mode, v.kind, v.note, v.passed) == (
                alone.claim, alone.mode, alone.kind, alone.note, alone.passed)
            for field in ("computed", "target", "margin"):
                a, b = getattr(v, field), getattr(alone, field)
                assert a == b, (field, v.params)


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


@pytest.mark.parametrize("p", [83, 131])
def test_stacked_lemma3_rows_equal_one_row_checks_and_each_form(p):
    """At p = 83 (m = 2 * 41) and p = 131 (m = 2 * 5 * 13): each row of one stacked
    lemma3 batch of 25 drawn instances is its one-row check_lemma3, bit for bit;
    S and S' of the stacked bilinear_sums pass are, bit for bit, the numeric
    bilinear_S and bilinear_Sprime of each instance alone, which read their own
    half of that pass; and on integer weights those equal the exact route."""
    ctx = make_ctx(p)
    rng = random.Random(p)
    chis = [character(ctx, j) for j in (1, 2, 41, (p - 1) // 2, p - 2) for _ in range(5)]
    xi, eta, shifts = verifier._lemma3_draws(p, rng, len(chis))
    batch = verifier._lemma3_batch(ctx, chis, xi, eta, shifts)
    for i, chi in enumerate(chis):
        alone = check_lemma3(ctx, chi, Weights(xi[i]), Weights(eta[i]), shifts[i])
        assert batch[i].to_line() == alone.to_line()

    tables = np.array([chi.value_table() for chi in chis])
    S, Sp = bilinear_sums(ctx, tables, xi, eta, shifts)
    ints = np.array([_int_weights(p, rng).values for _ in range(2 * len(chis))])
    for i, chi in enumerate(chis):
        x, y, a = Weights(xi[i]), Weights(eta[i]), shifts[i]
        assert np.array([bilinear_S(ctx, chi, x, y, a, "numeric").numeric,
                         bilinear_Sprime(ctx, chi, x, y, a, "numeric").numeric]).tobytes() \
            == np.array([S[i], Sp[i]]).tobytes()
        x, y = Weights(ints[2 * i]), Weights(ints[2 * i + 1])
        for form in (bilinear_S, bilinear_Sprime):
            exact = form(ctx, chi, x, y, a, "exact").to_complex()
            assert abs(form(ctx, chi, x, y, a, "numeric").numeric - exact) <= TOL


def test_kernel_memory_is_bounded():
    """|H| = 1 at p = 4001 gives 4000 rows H + g^i: one (4000 x 4000) histogram
    and its DFT would take more than 256 MB."""
    ctx = make_ctx(4001)
    H = subgroup_of_order(ctx, 1)
    tracemalloc.start()
    try:
        (means,), (peaks,), _ = subgroup_moduli(ctx, [H], shifted=True, nonlinear=False)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.shape == peaks.shape == (4000,)
    assert peak_bytes <= 64e6


@pytest.mark.parametrize("p", [3, 13, 61, 101, 1009])
def test_subgroup_moduli_equal_the_per_subgroup_kernel(p):
    """One subgroup_moduli call over every subgroup's rows gives, bit for bit, each
    subgroup's means, peaks and nonlinear peaks of the per-subgroup reference calls.
    At p = 1009 the sigma(1008) = 3224 coset rows fill more than one chunk of
    HISTOGRAM_CELLS // 1008 = 1040 rows."""
    ctx = make_ctx(p)
    Hs = subgroups(ctx)
    expected = per_subgroup_moduli(ctx, Hs)
    means, peaks, nonlinear = subgroup_moduli(ctx, Hs, shifted=True, nonlinear=True)
    assert len(means) == len(expected[0])
    assert all(np.array_equal(a, b) for a, b in zip(means, expected[0]))
    for got, want in zip((peaks, nonlinear), expected[1:]):
        assert np.array_equal(got, want)
    # either kind of row alone reads the same
    assert np.array_equal(subgroup_moduli(ctx, Hs, shifted=False, nonlinear=True)[2], nonlinear)
    alone = subgroup_moduli(ctx, Hs, shifted=True, nonlinear=False)
    assert np.array_equal(alone[1], peaks)
    assert alone[2] is None
    # H = {1}, whose nonlinear peaks are copied from its shifted ones, read last
    last = subgroup_moduli(ctx, Hs[::-1], shifted=True, nonlinear=True)
    assert np.array_equal(last[1], peaks[::-1]) and np.array_equal(last[2], nonlinear[::-1])


def test_measured_inner_sums_equal_the_closed_form():
    """The FFT of each subgroup's own row, per_subgroup_moduli's last part, reads
    |sum_{x in H} chi_j(x)| within TOL of the closed form that thm2_sharp takes:
    |H| when |H| divides j (the principal character included) and 0 otherwise."""
    for p in PRIMES:
        ctx = make_ctx(p)
        Hs = subgroups(ctx)
        inner = per_subgroup_moduli(ctx, Hs)[3]
        n = np.array([H.order for H in Hs])[:, None]
        closed = n * (np.arange(p - 1) % n == 0)
        assert inner.shape == closed.shape
        assert np.max(np.abs(inner - closed)) <= TOL, p


@pytest.fixture(scope="module")
def moduli_1009():
    ctx = make_ctx(1009)
    return ctx, per_subgroup_moduli(ctx, subgroups(ctx))


@pytest.mark.parametrize("cells", [1 << 10, 5 * 1008])
@pytest.mark.parametrize("shifted,inner,nonlinear",
                         [c for c in itertools.product([False, True], repeat=3) if c[0] or c[2]])
def test_subgroup_moduli_across_chunk_edges(monkeypatch, moduli_1009, cells, shifted, inner,
                                            nonlinear):
    """With chunks of 1 and 5 rows at p = 1009, chunks start and end inside a
    subgroup's rows, and the 5-row ones inside a kind's rows too: every combination
    of the parts asked for reads, bit for bit, what the per-subgroup kernel does,
    and what is not asked for is None.  With inner, the thm2_sharp rows built on
    the peaks (read here when shifted is asked) pass, square those peaks, and take
    targets whose |sum_{x in H} chi(x)| lies within TOL of the kernel's row H."""
    monkeypatch.setattr(verifier, "HISTOGRAM_CELLS", cells)
    ctx, expected = moduli_1009
    p, m = ctx.p, ctx.p - 1
    Hs = subgroups(ctx)
    means, *got = subgroup_moduli(ctx, Hs, shifted=shifted, nonlinear=nonlinear)
    if shifted:
        assert len(means) == len(Hs)
        assert all(np.array_equal(a, b) for a, b in zip(means, expected[0]))
    else:
        assert means is None
    for asked, part, want in zip((shifted, nonlinear), got, expected[1:]):
        assert np.array_equal(part, want) if asked else part is None
    if inner:
        n = np.array([H.order for H in Hs])
        peaks = (got[0] if shifted else expected[1])[:, 1:].ravel()
        sharp = verifier._thm2_sharp_batch(ctx, np.repeat(n, m - 1),
                                           np.tile(np.arange(1, m), len(Hs)), peaks)
        assert sharp.passed.all()
        assert np.array_equal(sharp.computed, np.float_power(peaks, 2))
        closed = np.sqrt(np.repeat(n, m - 1) * (p - sharp.target))
        assert np.max(np.abs(closed - expected[3][:, 1:].ravel())) <= TOL


def test_subgroup_moduli_memory_is_not_padded(monkeypatch):
    """The rows of every subgroup of F_1009* go straight into small chunks: the
    traced peak stays far below the 52 MB that the 2 sigma(1008) coset and
    nonlinear rows would take padded to the widest subgroup's 1008 residues."""
    monkeypatch.setattr(verifier, "HISTOGRAM_CELLS", 1 << 14)
    ctx = make_ctx(1009)
    Hs = subgroups(ctx)
    padded = 2 * sum(H.index for H in Hs) * 1008 * 8
    tracemalloc.start()
    try:
        subgroup_moduli(ctx, Hs, shifted=True, nonlinear=True)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert padded > 50e6
    assert peak_bytes <= 8e6


@st.composite
def subsets(draw, n, lo=1, most=None):
    """A nonempty sorted subset of [lo, n - 1], of at most most elements if given."""
    size = n - lo if most is None else min(most, n - lo)
    return sorted(draw(st.sets(st.integers(lo, n - 1), min_size=1, max_size=size)))


def _handed_to(name, call):
    """call()'s result, and the first argument that it hands to verifier.<name>."""
    seen = []
    real = getattr(verifier, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, name, lambda first, *rest: seen.append(first) or real(first, *rest))
        result = call()
    return result, seen[0]


def _over_residues(values: np.ndarray, m: int) -> np.ndarray:
    """Class values handed to integer_sums, one row per count and one column per
    divisor g of m, ascending, laid over Z/m: t's value is that of gcd(t, m)."""
    divs = [g for g in range(1, m + 1) if m % g == 0]
    assert values.dtype == np.int64 and values.shape == (len(values), len(divs))
    return values[:, [divs.index(math.gcd(t, m)) for t in range(m)]]


@cross_path
@given(st.integers(2, 100).flatmap(lambda q: st.tuples(st.just(q), subsets(q, lo=0))))
def test_konyagin_histogram_equals_sum_of_norms(inst):
    """The class values of the pair differences y - x, laid over Z/q, equal the
    |D|^2-pair grid's count, and their sum at j = 1 the sum of CycInt norms."""
    q, D = inst
    D = sorted({0, *D})
    verdict, C = _handed_to("integer_sums", lambda: check_konyagin(q, D))
    (c,) = _over_residues(C, q)
    assert np.array_equal(c, pair_difference_grid(exp_sum_exponents(q, D, np.arange(1, q)), q))
    reference = CycInt.zero(q)
    for a in range(1, q):
        reference = reference + exp_sum_subset(q, D, a, "exact").exact.abs_squared()
    assert verdict.computed == reference.as_integer()


@cross_path
@given(st.sampled_from(list(primes_in(3, 211))).flatmap(lambda p: st.tuples(
    st.just(p), subsets(p), st.none() | st.sets(st.integers(1, p - 1), min_size=2, max_size=2))))
def test_eq2_pair_differences_equal_grid(inst):
    """eq2's count c, written as class values from |D| and the certified h1 and
    laid over Z/m, equals the |D|^2-pair grid's count on a true dlog; on one with
    two entries swapped the certificate fails and eq2 raises, with no count."""
    p, D, swap = inst
    if swap is not None:
        bad = corrupted_ctx(p, *swap)
        with pytest.raises(ArithmeticError):
            check_eq2_identities(bad, [character(bad, 1)], D)
    ctx = make_ctx(p)
    _, C = _handed_to("integer_sums", lambda: check_eq2_identities(ctx, [character(ctx, 1)], D))
    (c,) = _over_residues(C, p - 1)
    E = ctx.dlog[(np.array(D)[:, None] + np.arange(p)) % p]
    assert np.array_equal(c, pair_difference_grid(E, p - 1))


@cross_path
@given(st.sampled_from(list(primes_in(3, 211))).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(subsets(p), min_size=2, max_size=5),
    st.none() | st.sets(st.integers(1, p - 1), min_size=2, max_size=2))))
def test_eq2_shared_count_equals_each_sets_own(inst):
    """The class values of several sets at one p, written by the certificate on a
    true dlog and laid over Z/m: each row equals that set's |D|^2-pair grid and
    the one-set call's, and the batch equals the one-set calls.  With two entries
    of the dlog swapped the batch raises, with no count."""
    p, dsets, swap = inst
    if swap is not None:
        bad = corrupted_ctx(p, *swap)
        with pytest.raises(ArithmeticError):
            verifier._eq2_batch(bad, [(D, [character(bad, 1)]) for D in dsets])
    ctx = make_ctx(p)
    chis = [character(ctx, j) for j in (1, p - 2)]
    batch, C = _handed_to("integer_sums",
                          lambda: verifier._eq2_batch(ctx, [(D, chis) for D in dsets]))
    alone = []
    for D, row, c in zip(dsets, C, _over_residues(C, p - 1)):
        E = ctx.dlog[(np.array(D)[:, None] + np.arange(p)) % p]
        assert np.array_equal(c, pair_difference_grid(E, p - 1))
        one, (own,) = _handed_to("integer_sums", lambda: check_eq2_identities(ctx, chis, D))
        assert np.array_equal(row, own)
        alone += [v.to_record() for v in one]
    assert [v.to_record() for v in batch] == alone


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_eq2_certified_rows_equal_pair_grid(p):
    """On a true dlog eq2 writes each set's count as two class values, |D|(p - 1)
    on the class of m, {0}, and |D|^2 - |D| on every other, and counts no pair:
    for every subgroup and the suite's 20 seeded sets, laid over Z/m, each row is
    the |D|^2-pair grid's.  At p = 1009 the sets past 64 elements, whose grids
    take about 20 ns a cell (a minute in all), are checked against
    pair_difference_sum, which counts the pairs by their difference."""
    ctx = make_ctx(p)
    dsets = ([H.elements for H in subgroups(ctx)]
             + random_subsets(p, 20, seeded_rng(1, p, "eq2")))
    _, C = _handed_to("integer_sums", lambda: verifier._eq2_batch(
        ctx, [(D, [character(ctx, 1)]) for D in dsets]))
    C = _over_residues(C, p - 1)
    large = [i for i, D in enumerate(dsets) if p > 101 and len(D) > 64]
    assert np.array_equal(C[large], pair_difference_sum(ctx, [dsets[i] for i in large]))
    for i, D in enumerate(dsets):
        if i not in large:
            E = ctx.dlog[(np.array(D)[:, None] + np.arange(p)) % p]
            assert np.array_equal(C[i], pair_difference_grid(E, p - 1))


# every q below 101, prime powers past it, and moduli with many divisors
KONYAGIN_MODULI = [*range(2, 101), 243, 256, 343, 360, 420, 720]


@cross_path
@given(st.sampled_from(KONYAGIN_MODULI).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(subsets(q, lo=0, most=64), min_size=2, max_size=5))))
@example((256, [[1], list(range(256))]))
@example((720, [[1], list(range(0, 720, 12))]))
@example((9240, [[1], list(range(0, 9240, 165))]))
@example((10000, [[1], list(range(0, 10000, 160))]))
def test_konyagin_shared_count_equals_each_sets_own(inst):
    """The class values handed to integer_sums for several sets at one q, each
    holding 0, and the full residue set for q <= 100 and in one example at
    q = 256 (its grid has q^3 cells), with examples at orders near the exact
    cap, 9240 (64 divisors) and 10 000: laid over Z/q, each row equals that set's
    |D|^2-pair grid, so the count is constant on the gcd classes, and each row
    equals the one-set call's, and the batch equals the one-set calls."""
    q, dsets = inst
    dsets = [sorted({0, *D}) for D in dsets] + ([list(range(q))] if q <= 100 else [])
    batch, C = _handed_to("integer_sums", lambda: verifier._konyagin_batch(q, dsets))
    for D, row, c, v in zip(dsets, C, _over_residues(C, q), batch):
        assert np.array_equal(c, pair_difference_grid(exp_sum_exponents(q, D, np.arange(1, q)), q))
        one, (own,) = _handed_to("integer_sums", lambda: check_konyagin(q, D))
        assert np.array_equal(row, own)
        assert v == one


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
    """At p = 13 there are 11 characters and 26 sets D.  The grid is D-major, so
    budget 30 keeps every character on D_0 and D_1 and chi_1..chi_8 on D_2: the
    suite's batched call per D, cut partway, must keep exactly those."""
    p, seed = 13, 5
    ctx = make_ctx(p)
    dsets = ([H.elements for H in subgroups(ctx)]
             + random_subsets(p, 20, seeded_rng(seed, p, "eq2")))
    verdicts = run_suite(p, p, claims=["eq2"], seed=seed, budget=30)
    grid = [(j, i) for i in range(len(dsets)) for j in range(1, p - 1)][:30]
    assert sorted((v.params["chi"], v.params["D_index"]) for v in verdicts) == sorted(grid)
    for v in verdicts:
        alone = check_eq2_identity(ctx, character(ctx, v.params["chi"]),
                                   dsets[v.params["D_index"]])
        alone.params["D_index"] = v.params["D_index"]
        assert v == alone


@pytest.mark.parametrize("seed", range(4))
def test_suite_eq2_sizes_are_the_drawn_sets_sizes(monkeypatch, seed):
    """The suite's eq2 hands its size-based builder each prime's subgroup orders,
    then the sizes of the 20 seeded sets, which it does not draw: at every prime
    up to 211 they are the sizes of the sets random_subsets draws there."""
    sized = {}
    build = verifier._eq2_sized_batch
    monkeypatch.setattr(verifier, "_eq2_sized_batch", lambda ctx, sizes, *rest:
                        sized.update({ctx.p: sizes}) or build(ctx, sizes, *rest))
    run_suite(3, 211, claims=["eq2"], seed=seed)
    assert list(sized) == list(primes_in(3, 211))
    for p, sizes in sized.items():
        drawn = random_subsets(p, 20, seeded_rng(seed, p, "eq2"))
        assert sizes == [*make_ctx(p).divisors, *map(len, drawn)]


@pytest.mark.parametrize("budget", [1, 12, 30, None])
def test_suite_eq2_equals_batch_over_drawn_sets(budget):
    """At every prime up to 101 the suite's eq2 lines, written from set sizes
    alone, equal those of _eq2_batch over the sets themselves (every subgroup's
    elements, then the 20 seeded sets, drawn) and every nonprincipal character,
    cut D-major as the budget cuts them."""
    seed = 3
    limit = sys.maxsize if budget is None else budget
    batches = []
    for p in primes_in(3, 101):
        ctx = make_ctx(p)
        dsets = ([H.elements for H in subgroups(ctx)]
                 + random_subsets(p, 20, seeded_rng(seed, p, "eq2")))
        chis = [character(ctx, j) for j in range(1, p - 1)]
        kept = [(D, chis[:limit - i * (p - 2)]) for i, D in enumerate(dsets) if i * (p - 2) < limit]
        batches.append(verifier._eq2_batch(ctx, kept, list(range(len(kept)))))
    suite = run_suite(3, 101, claims=["eq2"], seed=seed, budget=budget)
    assert list(suite.lines()) == list(verifier.Verdicts(batches).lines())


def test_eq2_batch_memory_is_bounded():
    """All 3999 nontrivial characters at p = 4001 for one D: as one (3999 x 4000)
    histogram their rows would take 128 MB, and the order's reduction table
    (m x phi(m) float64) 51 MB.  The certified route writes one count row and
    reads every sum off the Ramanujan table of the gcd classes, so the batch,
    its certificate included, allocates a few MB."""
    ctx = make_ctx(4001)
    chis = [character(ctx, j) for j in range(1, 4000)]
    tracemalloc.start()
    try:
        verdicts = check_eq2_identities(ctx, chis, range(1, 64))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verdicts) == 3999
    assert all(v.passed and v.computed == 4001 * 63 - 63**2 for v in verdicts)
    assert peak_bytes <= 8e6


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
    on where the chunks fall.  The dlog certificate is read uncached, on a true
    dlog and on a corrupted one."""
    ctx = make_ctx(31)
    chi = character(ctx, 5)
    every_chi = [character(ctx, j) for j in range(1, 30)]
    rng = random.Random(cells)
    D = rng.sample(range(1, 31), 17)
    xi, eta = _int_weights(31, rng), _int_weights(31, rng)

    bad = corrupted_ctx(31, 2, 7)
    certify = verifier.dlog_certificate.__wrapped__

    def exact_values():
        return [check_eq2_identity(ctx, chi, D).computed, check_konyagin(30, D).computed,
                [certify(ctx), certify(bad)], check_kernel_cases(ctx, chi, 3).computed,
                [v.computed for v in check_eq2_identities(ctx, every_chi, D)],
                [check_granville(ctx, H).computed for H in subgroups(ctx)],
                bilinear_S(ctx, chi, xi, eta, 3, "exact").exact.reduced(),
                bilinear_Sprime(ctx, chi, xi, eta, 3, "exact").exact.reduced(),
                [[v.tolist() for v in part]
                 for part in subgroup_moduli(ctx, subgroups(ctx), shifted=True, nonlinear=True)]]

    whole = exact_values()
    assert whole[2] == [True, False]
    monkeypatch.setattr(verifier, "HISTOGRAM_CELLS", cells)
    assert exact_values() == whole


# m in [1, 300], with prime powers, 2 * odd and 240 (20 divisors) drawn more often
GCD_MODULI = st.integers(1, 300) | st.sampled_from([8, 27, 49, 64, 125, 243, 256, 289, 210,
                                                     270, 286, 240])


@cross_path
@given(GCD_MODULI, st.integers(0, 2**32))
@example(1, 0)
@example(240, 0)
@example(256, 0)
@example(270, 0)
def test_integer_sums_equal_reduction(m, seed):
    """integer_sums reads a count that is constant on the gcd classes of Z/m off
    its class values and the Ramanujan sums: at every j, taken in a shuffled
    order, its integers are those of the count laid over Z/m, pushed forward and
    reduced mod Phi_m, for random class values and for one class's indicator."""
    rng = np.random.default_rng(seed)
    tau = sum(m % g == 0 for g in range(1, m + 1))
    values = rng.integers(-9, 10, size=(4, tau))
    values[-1] = np.arange(tau) == rng.integers(tau)  # one class
    J = rng.permutation(m)
    want = [reduced_sums(c, m) for c in _over_residues(values, m)]
    assert all(None not in w for w in want)
    assert integer_sums(values, m, J).tolist() == [[w[j] for j in J] for w in want]


@cross_path
@given(instances(nonprincipal=True, nonzero_shift=True, primes=SMALL_PRIMES), st.data())
def test_certificates_equal_references(inst, data):
    """The dlog certificate holds on a true dlog, and the verdicts it gives equal
    the per-character references: kernel's pairs of the full grid whose
    brute-force sum differs from the closed form, granville's characters whose
    exact sum over H is not |H| or 0, and each character's eq2 sum off its own
    pair-difference grid."""
    ctx, chi, H, a = inst
    D = data.draw(subsets(ctx.p))
    every_chi = [character(ctx, j) for j in range(1, ctx.p - 1)]
    kernel, granville = check_kernel_cases(ctx, chi, a), check_granville(ctx, H)
    eq2 = check_eq2_identities(ctx, every_chi, D)
    assert verifier.dlog_certificate(ctx)
    assert kernel.passed and kernel.computed == kernel_mismatches(ctx, chi, a) == 0
    assert granville.passed and granville.computed == ctx.p - 1
    assert granville_mismatches(ctx, H) == 0
    assert all(v.passed for v in eq2)
    assert [v.computed for v in eq2] == [eq2_per_character(ctx, c, D) for c in every_chi]


def test_suite_certificates_equal_references():
    """Every eq2, kernel, granville and konyagin record of the suite over p <= 61
    against the references: eq2's sums at every character off each set's
    pair-difference grid, pushed forward and reduced mod Phi_m (reduced_sums);
    konyagin's off its exponent pair grid, the same way; granville's characters
    whose exact sum is not |H| or 0; and the O(p^2) count of the kernel's case
    table, which proves every kernel row at p."""
    claims = ["eq2", "kernel", "granville", "konyagin"]
    vs = run_suite(2, 61, claims=claims, seed=42)
    assert {v.claim for v in vs} == set(claims) and vs.capacity == 0
    ctxs, sums = {}, {}
    for v in vs:
        assert v.passed and v.mode == "exact"
        if v.claim == "konyagin":
            q = v.params["q"]
            D = random_subsets(q, 10, seeded_rng(42, q, "konyagin"))[v.params["D_index"]]
            c = pair_difference_grid(exp_sum_exponents(q, D, np.arange(1, q)), q)
            assert v.computed == reduced_sums(c, q)[1]
            continue
        p = v.params["p"]
        if p not in ctxs:
            ctxs[p] = make_ctx(p)
            assert kernel_case_table_holds(ctxs[p])
        ctx = ctxs[p]
        if v.claim == "eq2":
            i = v.params["D_index"]
            if (p, i) not in sums:
                dsets = ([H.elements for H in subgroups(ctx)]
                         + random_subsets(p, 20, seeded_rng(42, p, "eq2")))
                E = ctx.dlog[(np.array(dsets[i])[:, None] + np.arange(p)) % p]
                sums[p, i] = reduced_sums(pair_difference_grid(E, p - 1), p - 1)
            assert v.computed == sums[p, i][v.params["chi"]]
        elif v.claim == "granville":
            assert v.computed == p - 1
            assert granville_mismatches(ctx, subgroup_of_order(ctx, v.params["H"])) == 0
        else:
            assert v.computed == 0 and v.params["pairs"] == p * p


def test_granville_certified_sums_equal_histogram_route():
    """For every subgroup at every p < 400, granville reads its sums off the
    Ramanujan table under dlog_certificate, a route that never builds a
    subgroup's elements.  Its records equal those of each histogram of dlog(H),
    pushed forward and reduced mod Phi_m (reduced_sums): every character's sum
    is |H| where |H| divides j and 0 otherwise, and their moduli add up to p - 1,
    which shkredov bounds by p.  The class values it hands integer_sums, laid
    over Z/m, are each histogram of dlog(H)."""
    for p in primes_in(3, 400):
        ctx = make_ctx(p)
        m = p - 1
        Hs = subgroups(ctx)
        assert verifier.dlog_certificate(ctx)
        (granville, shkredov), C = _handed_to("integer_sums",
                                              lambda: verifier._granville_batches(ctx, Hs))
        assert not any("elements" in vars(H) for H in Hs)
        for H, c, g, s in zip(Hs, _over_residues(C, m), granville, shkredov):
            assert np.array_equal(c, np.bincount(ctx.dlog[H.elements], minlength=m))
            sums = reduced_sums(c, m)
            assert sums == [H.order if j % H.order == 0 else 0 for j in range(m)]
            total = sum(map(abs, sums))
            assert (g.computed, g.target, g.margin, g.passed) == (total, m, 0.0, True)
            assert (s.computed, s.target, s.margin, s.passed) == (total, p, 1.0, True)


def _exact_records(ctx) -> list:
    """The eq2 (three sets, every character), granville, shkredov and kernel (the
    full grid, two characters and shifts) records at ctx."""
    chis = [character(ctx, j) for j in range(1, ctx.p - 1)]
    dsets = [[5], [1, 2, 3], list(range(1, 16))]
    batches = [verifier._eq2_batch(ctx, [(D, chis) for D in dsets]),
               *verifier._granville_batches(ctx, subgroups(ctx)),
               verifier._kernel_batch(ctx, chis[:2], [1, 3])]
    return [v.to_record() for b in batches for v in b]


@pytest.mark.parametrize("broken", ["swap", "h1 at 0", "h1 at 2", "another base", "wrong g"])
def test_dlog_certificate_rejects_and_the_exact_builders_raise(monkeypatch, broken):
    """dlog_certificate rejects a dlog with two entries swapped; a true dlog whose
    h1 is perturbed (one count moved from t = 1 to t = 0 or 2: t = 1 left unmarked
    and t = 0 or 2 marked, in the certificate's own mark array alone); a true dlog to
    another base, 3^7 = 17, that ctx.exp does not invert; and exp's powers of 3
    under g = 17.  Each way _eq2_batch, _granville_batches and _kernel_batch raise
    ArithmeticError, and so does the suite for each of eq2, granville, shkredov
    and kernel, with no verdict and no capacity record; on a true dlog every
    record passes."""
    p = 31
    assert all(r["pass"] for r in _exact_records(make_ctx(p)))
    ctx = make_ctx(p)
    if broken == "swap":
        ctx = corrupted_ctx(p, 2, 7)
    elif broken == "another base":  # 7 is a unit mod 30: dlog_17 = 13 dlog_3
        ctx = corrupted_ctx(p, 0, 0)  # a copy with a dlog table of its own
        ctx.dlog[1:] = ctx.dlog[1:] * pow(7, -1, p - 1) % (p - 1)
    elif broken == "wrong g":
        ctx = dataclasses.replace(ctx, g=17)
    else:
        zeros, at = np.zeros, int(broken[-1])

        class Perturbed(np.ndarray):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                super().__setitem__(1, False)
                super().__setitem__(at, True)

        def perturbed(*args, **kwargs):
            made = zeros(*args, **kwargs)
            if sys._getframe(1).f_code.co_name == "dlog_certificate":
                return made.view(Perturbed)
            return made

        monkeypatch.setattr(np, "zeros", perturbed)
    assert not verifier.dlog_certificate(ctx)
    chis = [character(ctx, j) for j in range(1, p - 1)]
    builders = [lambda: verifier._eq2_batch(ctx, [([5], chis)]),
                lambda: verifier._granville_batches(ctx, subgroups(ctx)),
                lambda: verifier._kernel_batch(ctx, chis[:2], [1, 3]),
                lambda: verifier._kernel_batch(ctx, chis[:2], [1, 3], 1)]
    for build in builders:
        with pytest.raises(ArithmeticError, match=f"dlog at p = {p} is not the discrete log"):
            build()
    monkeypatch.setattr(verifier, "make_ctx", lambda q: ctx)
    for claim in ["eq2", "granville", "shkredov", "kernel"]:
        with pytest.raises(ArithmeticError):
            run_suite(p, p, claims=["thm2", claim], seed=3)


def test_dlog_certificate_holds_on_every_table_make_ctx_builds():
    """exp[0] = 1, exp[t + 1] = g exp[t] and dlog[exp[t]] = t for t < p - 1 make g
    primitive and dlog its discrete log, so the certificate holds at every prime
    below 10^4 and at the largest prime under the table cap, where its marks are
    read in ten chunks."""
    for p in primes_in(3, 10_000):
        assert verifier.dlog_certificate.__wrapped__(make_ctx(p)), p
    top = next(p for p in range(MAX_P, 2, -1) if is_prime(p))
    assert top == 9_999_991
    assert verifier.dlog_certificate.__wrapped__(make_ctx(top))


def test_suite_identities_need_no_reduction(monkeypatch):
    """On a true dlog every eq2, granville and konyagin count is constant on the
    gcd classes and read off its class values, so none of them reduces mod Phi_m:
    the verifier holds no reduction of its own, and cyclo's is never called."""
    def reduced(counts):
        raise AssertionError("reduced mod Phi_m")

    assert not hasattr(verifier, "reduce_counts")
    monkeypatch.setattr(cyclo, "reduce_counts", reduced)
    vs = run_suite(2, 150, claims=["konyagin", "eq2", "granville", "shkredov"], seed=7)
    assert {v.claim for v in vs} == {"konyagin", "eq2", "granville", "shkredov"}
    assert vs.capacity == 0 and vs.passes == len(vs)


# Mutation tests: dlog[2] and dlog[5] swapped at p = 13 is no discrete logarithm,
# so the "characters" built on it break every identity.  The certificate must
# reject, and each exact checker must raise rather than give a verdict, where
# the reference routes show the identity broken.

def test_corrupted_ctx_swaps_two_dlog_entries_of_a_copy(monkeypatch):
    built = []

    def kept_ctx(p):
        built.append(make_ctx(p))
        return built[-1]

    monkeypatch.setattr(references, "make_ctx", kept_ctx)
    bad = corrupted_ctx(13, 2, 5)
    true = make_ctx(13).dlog
    assert np.flatnonzero(bad.dlog != true).tolist() == [2, 5]
    assert bad.dlog[[2, 5]].tolist() == true[[5, 2]].tolist()
    assert np.array_equal(built[0].dlog, true) and bad.exp is built[0].exp


def test_kernel_certificate_rejects_corrupted_dlog():
    bad = corrupted_ctx(13, 2, 5)
    assert not verifier.dlog_certificate(bad)
    for j, a in [(1, 1), (4, 3), (5, 12)]:
        chi = character(bad, j)
        assert kernel_mismatches(bad, chi, a) > 0
        with pytest.raises(ArithmeticError):
            check_kernel_cases(bad, chi, a)


@pytest.mark.parametrize("r", [0, 1, 2, 12])
def test_kernel_case_table_holds_on_true_dlogs_alone(monkeypatch, r):
    """The kernel rests on dlog_certificate alone: the O(p^2) count of every
    case-table row (references.kernel_case_table_holds) holds on every true dlog
    table for p <= 101, where the certificate holds, and fails on corrupted dlogs,
    which it rejects, and with one count moved from t = 0 to t = 1 in row r: the
    y = 0 row (r = 0), the y = y1 row (r = 1), or a generic one."""
    for p in primes_in(3, 101):
        ctx = make_ctx(p)
        assert references.kernel_case_table_holds(ctx)
        assert verifier.dlog_certificate(ctx)
    for p, x, y in [(13, 2, 5), (31, 2, 7), (101, 3, 50)]:
        bad = corrupted_ctx(p, x, y)
        assert not references.kernel_case_table_holds(bad)
        assert not verifier.dlog_certificate(bad)
    counted = references.exponent_histogram

    def perturbed(exponents, m, weights=None):
        counts = counted(exponents, m, weights)
        counts[r, 0] -= 1
        counts[r, 1] += 1
        return counts

    monkeypatch.setattr(references, "exponent_histogram", perturbed)
    assert not references.kernel_case_table_holds(make_ctx(13))


def test_eq2_certificate_rejects_corrupted_dlog():
    bad = corrupted_ctx(13, 2, 5)
    chis = [character(bad, j) for j in range(1, 12)]
    D = [1, 2, 3, 4, 6]
    assert any(eq2_via_engine(bad, chi, D) != 13 * 5 - 5**2 for chi in chis)
    with pytest.raises(ArithmeticError):
        check_eq2_identities(bad, chis, D)


def test_granville_certificate_rejects_corrupted_dlog():
    bad = corrupted_ctx(13, 5, 2)  # 5 lies in the subgroup of order 4, 2 does not
    H = subgroup_of_order(bad, 4)
    assert 5 in H.elements and 2 not in H.elements
    assert granville_mismatches(bad, H) > 0
    with pytest.raises(ArithmeticError):
        check_granville(bad, H)
    with pytest.raises(ArithmeticError):
        check_shkredov_bound(bad, H)
