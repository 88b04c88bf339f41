"""Independent reference routes to values the suite computes faster; the tests
compare the suite's kernels against them."""

import copy
import json
from functools import lru_cache

import numpy as np

from charsum.cyclo import CycInt, exponent_histogram, reduce_counts
from charsum.engines import proof_kernel_S_yy1, shifted_sum
from charsum.field import make_ctx
from charsum.verifier import HISTOGRAM_CELLS


@lru_cache(maxsize=None)
def cyclotomic_by_division(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending: x^m - 1 divided, in Python integers, by
    Phi_d for every proper divisor d of m, each built the same way."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        den = cyclotomic_by_division(d)
        dd = len(den) - 1
        quotient = [0] * (len(poly) - dd)
        for i in range(len(poly) - 1, dd - 1, -1):
            c = poly[i]
            if c:
                quotient[i - dd] = c
                for k in range(dd + 1):
                    poly[i - dd + k] -= c * den[k]
        assert not any(poly), f"Phi_{d} does not divide at m = {m}"
        poly = quotient
    return tuple(poly)


def pair_difference_grid(E: np.ndarray, m: int) -> np.ndarray:
    """sum over columns c of |sum_x zeta_m^E[x, c]|^2 (E in [0, m), -1 for zero terms),
    as its m coefficient counts: one term zeta_m^(E[x, c] - E[y, c]) per pair of rows
    x, y, counted in chunks of at most HISTOGRAM_CELLS cells."""
    n, s = E.shape
    cols = max(1, HISTOGRAM_CELLS // (n * n))
    rows = max(1, HISTOGRAM_CELLS // (n * cols))
    counts = np.zeros(m, dtype=np.int64)
    for c in range(0, s, cols):
        Y = E[None, :, c:c + cols]
        for r in range(0, n, rows):
            X = E[r:r + rows, None, c:c + cols]
            both = (X >= 0) & (Y >= 0)
            # X - Y + m lies in [1, 2m): count it on 2m cells and fold, sparing a % m
            wide = exponent_histogram((X + m - Y)[both], 2 * m)
            counts += wide[:m] + wide[m:]
    return counts


def reduced_sums(c: np.ndarray, m: int) -> list[int | None]:
    """sum_t c(t) zeta_m^(jt) for every j in [0, m): c pushed forward by t -> jt
    and reduced mod Phi_m, as the integer, or None where it is not one."""
    j = np.arange(m)
    exponents = j[:, None] * j[None, :] % m
    reduced = reduce_counts(exponent_histogram(exponents, m, np.broadcast_to(c, exponents.shape)))
    return [None if any(r[1:]) else r[0] for r in reduced.tolist()]


def pair_difference_sum(ctx, dsets: list) -> np.ndarray:
    """Row i holds the m = p - 1 coefficient counts of eq2's
    sum_{(x, y) in D^2} sum_{b in F_p} zeta_m^(dlog b - dlog(b + y - x)) (zero terms
    left out) for the i-th set D, on any dlog table: sum_d pairs(d) hist(row(d)),
    pairs(d) the set's own count of pairs with y - x = d, each row counted once for
    all the sets, HISTOGRAM_CELLS cells at a time.  The |D|^2-pair grid regrouped
    by difference, fast enough for sets of hundreds of elements."""
    p, m, dlog = ctx.p, ctx.p - 1, ctx.dlog
    pairs = np.empty((len(dsets), p), dtype=np.int64)  # each D's cyclic autocorrelation
    for i, ind in enumerate(np.bincount(D, minlength=p) for D in dsets):
        pairs[i] = np.correlate(np.concatenate((ind, ind[:-1])), ind, "valid")  # lag d at d
    d = np.flatnonzero(pairs.any(axis=0))
    counts = np.zeros((len(dsets), m), dtype=np.int64)
    step = max(1, HISTOGRAM_CELLS // p)
    for lo in range(0, len(d), step):
        chunk = d[lo:lo + step]
        e = dlog[(np.arange(p) + chunk[:, None]) % p]  # dlog(b + d), b = x + a in F_p
        row = np.where((dlog >= 0) & (e >= 0), (dlog - e) % m, -1)
        counts += pairs[:, chunk] @ exponent_histogram(row, m)
    return counts


def direct_roots(exponents, m: int) -> np.ndarray:
    """exp(2 pi i e / m) term by term, with 0 where e = -1: the formula that
    values.roots reads from a table of distinct roots."""
    e = np.asarray(exponents)
    terms = np.exp(2j * np.pi * e / m)
    terms[e < 0] = 0
    return terms


def eq2_via_engine(ctx, chi, D) -> int | None:
    """sum_a |sum_{x in D} chi(x+a)|^2 through the generic exact engine: one
    shifted_sum and one CycInt norm per shift a."""
    total = CycInt.zero(ctx.p - 1)
    for a in range(ctx.p):
        total = total + shifted_sum(ctx, chi, D, a, "exact").exact.abs_squared()
    return total.as_integer()


def eq2_per_character(ctx, chi, D) -> int | None:
    """The same sum from chi's own exponent table: one |D|^2-pair grid histogram
    per character, with no push-forward."""
    p = ctx.p
    Da = np.array(sorted({d % p for d in D}), dtype=np.int64)
    E = chi.exponent_table()[(Da[:, None] + np.arange(p)[None, :]) % p]
    return CycInt(p - 1, pair_difference_grid(E, p - 1)).as_integer()


def bilinear_grid(ctx, chi, xi, eta, a: int, twist: bool) -> CycInt:
    """The exact bilinear form term by term over the (x, y) grid: weight
    xi(x) eta(y) on the exponent of chi(xy + a), plus those of chi(x) and chi(y)
    when twisted."""
    p, m = ctx.p, ctx.p - 1
    E = chi.exponent_table()
    x, y = np.divmod(np.arange(p * p), p)
    e = E[(x * y + a) % p]
    if twist:
        e = np.where((e >= 0) & (x > 0) & (y > 0), (e + E[x] + E[y]) % m, -1)
    return CycInt.from_exponents(m, e, xi.int_values()[x] * eta.int_values()[y])


def kernel_closed_form(ctx, chi, y: int, y1: int) -> CycInt:
    """The four-case value of the proof kernel, as an exact cyclotomic integer."""
    p = ctx.p
    m = p - 1
    y %= p
    y1 %= p
    if y == 0 and y1 == 0:
        return CycInt.from_int(m, p)
    if y == 0 or y1 == 0:
        return CycInt.zero(m)
    if y == y1:
        return CycInt.from_int(m, p - 1)
    return -chi.value_exact(y * pow(y1, -1, p) % p)


def kernel_mismatches(ctx, chi, a: int) -> int:
    """Pairs (y, y1) of the full grid where the brute-force kernel sum differs
    from kernel_closed_form."""
    return sum(proof_kernel_S_yy1(ctx, chi, y, y1, a).exact != kernel_closed_form(ctx, chi, y, y1)
               for y in range(ctx.p) for y1 in range(ctx.p))


def kernel_case_table_holds(ctx) -> bool:
    """Whether row r of the histogram h_r of dlog(ru + 1) - dlog(u + 1) over u in
    F_p is, for every r in F_p, the proof kernel's case table: 1 everywhere for
    r = 0 (y = 0); p - 1 at t = 0 and 0 elsewhere for r = 1 (y = y1); and for
    r >= 2, 1 everywhere but 0 at t = dlog r.  An O(p^2) count, HISTOGRAM_CELLS
    cells at a time, that verifier.dlog_certificate need not make: on a
    discrete log each row is its case by a count of solutions."""
    p = ctx.p
    m = p - 1
    u = np.arange(p, dtype=np.int64)
    base = ctx.dlog[(u + 1) % p]
    step = max(1, HISTOGRAM_CELLS // p)
    for lo in range(0, p, step):
        r = np.arange(lo, min(lo + step, p), dtype=np.int64)
        top = ctx.dlog[(r[:, None] * u[None, :] + 1) % p]
        counts = exponent_histogram(
            np.where((top >= 0) & (base >= 0), (top - base) % m, -1), m)
        expected = np.ones_like(counts)
        generic = np.flatnonzero(r >= 2)
        expected[generic, ctx.dlog[r[generic]]] = 0
        expected[r == 1] = 0
        expected[r == 1, 0] = p - 1
        if not np.array_equal(counts, expected):
            return False
    return True


def granville_mismatches(ctx, H) -> int:
    """Characters whose exact sum over H is not |H| (chi trivial on H) or 0."""
    m = ctx.p - 1
    dH = ctx.dlog[H.elements]
    return sum(CycInt.from_exponents(m, j * dH % m) != (H.order if j % H.order == 0 else 0)
               for j in range(m))


def corrupted_ctx(p: int, x: int, y: int):
    """make_ctx(p) with dlog[x] and dlog[y] swapped: still a bijection onto
    Z/(p-1), but no longer a homomorphism, so the characters built on it need
    not satisfy any identity."""
    ctx = make_ctx(p)
    dlog = ctx.dlog.copy()
    dlog[[x, y]] = dlog[[y, x]]
    bad = copy.copy(ctx)
    bad.__dict__["dlog"] = dlog  # where FieldCtx.dlog keeps the table it built
    return bad


def row_moduli(ctx, rows) -> tuple[np.ndarray, np.ndarray]:
    """|sum_{x in row} chi_j(x)| for the rows of one 2-d residue array, reduced to
    (the mean over every character j, per row; the max over the rows, per j): one
    DFT of each row's dlog histogram, in chunks of at most HISTOGRAM_CELLS cells."""
    m = ctx.p - 1
    rows = np.asarray(rows, dtype=np.int64)
    means = np.empty(len(rows))
    peaks = np.zeros(m)
    step = max(1, HISTOGRAM_CELLS // m)
    for lo in range(0, len(rows), step):
        moduli = np.abs(np.fft.fft(exponent_histogram(ctx.dlog[rows[lo:lo + step]], m), axis=1))
        means[lo:lo + step] = moduli.sum(axis=1) / m
        np.maximum(peaks, moduli.max(axis=0), out=peaks)
    return means, peaks


def coset_shift_rows(ctx, H) -> np.ndarray:
    """(k x |H|) int64 residues: row i is the shifted subgroup H + g^i, for the
    k = (p-1)/|H| coset representatives g^i of H in F_p*."""
    return (ctx.exp[:H.index, None] + H.elements[None, :]) % ctx.p


def nonlinear_rows(ctx, H) -> np.ndarray:
    """Row i holds x(x + g^i) for x in H, its residues: the rows whose character
    sums verifier.subgroup_moduli reads off the dlog table."""
    return H.elements[None, :] * coset_shift_rows(ctx, H) % ctx.p


def per_subgroup_moduli(ctx, Hs):
    """verifier.subgroup_moduli's (means, peaks, nonlinear_peaks) with every part
    asked for, then each character's |sum_{x in H} chi(x)| (the row H itself), one
    row_moduli call per subgroup and kind of row."""
    means, peaks, nonlinear, inner = [], [], [], []
    for H in Hs:
        mu, top = row_moduli(ctx, coset_shift_rows(ctx, H))
        means.append(mu)
        peaks.append(top)
        nonlinear.append(row_moduli(ctx, nonlinear_rows(ctx, H))[1])
        inner.append(row_moduli(ctx, [H.elements])[1])
    return means, np.array(peaks), np.array(nonlinear), np.array(inner)


def json_sort_key(v):
    """The run's order with the params text made afresh by json.dumps: claim,
    then p or q, then the params object's JSON text."""
    return (v.claim, v.params.get("p", v.params.get("q", 0)),
            json.dumps(v.params, sort_keys=True, default=str))
