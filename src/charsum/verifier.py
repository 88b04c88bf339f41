"""One checker per claimed identity or bound, each returning a structured Verdict.

Identity checkers (eq2, granville, konyagin, kernel) work in exact cyclotomic
arithmetic and demand margin exactly zero.  Inequality checkers work on
magnitudes with a fixed absolute tolerance of 1e-9.

Three identity families hold for every nonprincipal character at once, and by
orthogonality of characters on Z/(p-1) each reduces to one integer statement
about a character-free dlog histogram: a certificate.  The certificate needs no
push-forward to the characters and no reduction mod Phi_m.

- kernel_certificate(ctx): one row per r in F_p of the histogram of
  dlog(ru + 1) - dlog(u + 1) over u has the shape of the kernel's case table;
  this proves every kernel verdict at p (every character, shift and pair).
- eq2_certificate(c): the pair-difference histogram c of a set D is flat off
  t = 0, so every character's mean-square sum is c(0) - c(1).
- granville_certificate(ctx, H): dlog(H) is {0, k, 2k, ...}, so every inner
  sum over H is |H| or 0.

When a certificate fails, the checker falls back to the per-character route
(one exact reduction mod Phi_m per character), which names the failing
characters.  Either route gives the same verdict records.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .characters import Character, character
from .cyclo import (
    EXACT_MAX_ORDER,
    HISTOGRAM_CELLS,
    exponent_histogram,
    reduce_counts,
    reduction_rows,
)
from .engines import (
    bilinear_S,
    bilinear_Sprime,
    exp_sum_exponents,
    kernel_exponents,
    numeric_sums,
    shifted_values_all,
)
from .errors import (
    CapacityExceeded,
    PrincipalCharacter,
    ShiftNotCoprime,
    ZeroInD,
)
from .field import (
    FieldCtx,
    Subgroup,
    coset_shift_rows,
    make_ctx,
    primes_in,
    subgroups,
)
from .values import Weights

TOL = 1e-9

CLAIMS = (
    "thm2",
    "thm2_sharp",
    "eps",
    "eq2",
    "lemma3",
    "kernel",
    "meanvalue2",
    "granville",
    "shkredov",
    "konyagin",
    "nonlinear",
)


# One encoder for every verdict's params.  Its text is taken once per verdict:
# it orders the run (JSON's string order included) and goes into the JSON line.
_PARAMS_JSON = json.JSONEncoder(sort_keys=True, default=str)


def _json_float(x: float) -> str:
    """x spelled as json.dumps spells a float."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


@dataclass
class Verdict:
    claim: str
    params: dict
    computed: object
    target: object
    margin: float
    passed: bool
    mode: str
    kind: str = "verdict"  # "verdict" | "capacity"
    note: str = ""
    _params_text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # numpy scalars would reach the JSON writer through default=str, as "True"
        self.passed = bool(self.passed)
        self.margin = float(self.margin)
        if self.mode == "numeric":
            self.computed = float(self.computed)
            self.target = float(self.target)

    @property
    def params_text(self) -> str:
        """params as sorted-key JSON, encoded on first use: params are final from
        construction (set a field with dataclasses.replace, which starts afresh)."""
        if self._params_text is None:
            self._params_text = _PARAMS_JSON.encode(self.params)
        return self._params_text

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "claim": self.claim,
            "params": self.params,
            "computed": str(self.computed),
            "target": str(self.target),
            "margin": self.margin,
            "pass": self.passed,
            "mode": self.mode,
            "note": self.note,
        }

    def to_line(self) -> str:
        """json.dumps(self.to_record(), sort_keys=True, default=str) + "\\n", written
        directly: keys in sorted order, params as its encoded text."""
        s = encode_basestring_ascii
        return (f'{{"claim": {s(self.claim)}, "computed": {s(str(self.computed))}, '
                f'"kind": {s(self.kind)}, "margin": {_json_float(self.margin)}, '
                f'"mode": {s(self.mode)}, "note": {s(self.note)}, '
                f'"params": {self.params_text}, "pass": {"true" if self.passed else "false"}, '
                f'"target": {s(str(self.target))}}}\n')

    def sort_key(self):
        return (self.claim, self.params.get("p", self.params.get("q", 0)), self.params_text)


def _capacity_verdict(claim: str, params: dict, err: Exception) -> Verdict:
    return Verdict(claim=claim, params=params, computed="skipped", target="skipped",
                   margin=float("nan"), passed=False, mode="exact",
                   kind="capacity", note=str(err))


# ---------------------------------------------------------------------------
# the numeric kernel: one DFT of a dlog histogram gives every character's sum
# ---------------------------------------------------------------------------

def character_sum_moduli(ctx: FieldCtx, rows) -> tuple[np.ndarray, np.ndarray]:
    """|sum_{x in row} chi_j(x)| for every row of residues and every character j,
    reduced two ways: (mean over all p-1 characters, one entry per row;
    max over all rows, one entry per character j).

    Row r's dlog histogram c_r(t) = #{x in r : dlog x = t} has DFT
    sum_t c_r(t) e^(-2 pi i jt/(p-1)), the conjugate of sum_{x in r} chi_j(x).
    Rows are counted in chunks of at most HISTOGRAM_CELLS cells."""
    m = ctx.p - 1
    rows = np.asarray(rows, dtype=np.int64)
    means = np.empty(len(rows))
    peaks = np.zeros(m)
    step = max(1, HISTOGRAM_CELLS // m)
    for lo in range(0, len(rows), step):
        # dlog[0] = -1 is the histogram's zero-term sentinel: chi(0) = 0
        counts = exponent_histogram(ctx.dlog[rows[lo:lo + step]], m)
        moduli = np.abs(np.fft.fft(counts, axis=1))
        means[lo:lo + step] = moduli.sum(axis=1) / m
        np.maximum(peaks, moduli.max(axis=0), out=peaks)
    return means, peaks


def nonlinear_rows(ctx: FieldCtx, H: Subgroup) -> np.ndarray:
    """Row i holds x(x + g^i) for x in H.  x -> hx, a -> ha maps x(x + a) to
    h^2 x(x + a), so |sum_{x in H} chi(x(x + a))| is the same on the whole coset
    aH, and the k representatives g^i cover every nonzero shift."""
    h = np.array(H.elements, dtype=np.int64)
    return h[None, :] * coset_shift_rows(ctx, H) % ctx.p


# ---------------------------------------------------------------------------
# sqrt(p) bound on the shifted subgroup sum, and its sharpened form
# ---------------------------------------------------------------------------

def _shift_peak(ctx: FieldCtx, chi: Character, H: Subgroup) -> tuple[float, float]:
    """(max over nonzero shifts a of |sum_{x in H} chi(x+a)|, |sum_{x in H} chi(x)|)
    by the single-character route; the suite reads both off character_sum_moduli."""
    vals = shifted_values_all(ctx, chi, H)
    return np.max(np.abs(vals[1:])), abs(vals[0])


def check_theorem2(ctx: FieldCtx, chi: Character, H: Subgroup,
                   peak: float | None = None) -> Verdict:
    """max over nonzero shifts a of |sum_{x in H} chi(x+a)| is strictly below sqrt(p).

    peak, if given, is that maximum."""
    if chi.is_principal:
        raise PrincipalCharacter("bound requires a nonprincipal character")
    if peak is None:
        peak, _ = _shift_peak(ctx, chi, H)
    computed = float(peak)
    target = math.sqrt(ctx.p)
    return Verdict(
        claim="thm2",
        params={"p": ctx.p, "chi": chi.index, "H": H.order},
        computed=computed, target=target, margin=target - computed,
        passed=computed < target - TOL, mode="numeric",
    )


def check_sharpened_theorem2(ctx: FieldCtx, chi: Character, H: Subgroup,
                             peak: float | None = None,
                             inner: float | None = None) -> Verdict:
    """|S(a)|^2 <= (p|H| - |sum_{x in H} chi(x)|^2) / |H| for every nonzero a.

    peak is max over nonzero a of |S(a)|, inner the unshifted |sum_{x in H} chi(x)|."""
    if chi.is_principal:
        raise PrincipalCharacter("bound requires a nonprincipal character")
    if peak is None or inner is None:
        peak, inner = _shift_peak(ctx, chi, H)
    n = H.order
    target = (ctx.p * n - inner**2) / n
    computed = float(peak) ** 2
    return Verdict(
        claim="thm2_sharp",
        params={"p": ctx.p, "chi": chi.index, "H": n},
        computed=computed, target=target, margin=target - computed,
        passed=computed <= target + TOL, mode="numeric",
    )


def check_eps_corollary(ctx: FieldCtx, chi: Character, H: Subgroup, eps: float,
                        peak: float | None = None) -> Verdict:
    """For |H| > p^(1/2+eps): max nonzero-shift |S| < p^(-eps) |H|; vacuous otherwise."""
    p = ctx.p
    params = {"p": p, "chi": chi.index, "H": H.order, "eps": eps}
    if H.order <= p ** (0.5 + eps):
        return Verdict(claim="eps", params=params, computed=0.0, target=0.0,
                       margin=0.0, passed=True, mode="numeric", note="vacuous")
    if peak is None:
        peak, _ = _shift_peak(ctx, chi, H)
    computed = float(peak)
    target = p ** (-eps) * H.order
    return Verdict(claim="eps", params=params, computed=computed, target=target,
                   margin=target - computed, passed=computed < target - TOL,
                   mode="numeric")


def _pair_difference_sum(E: np.ndarray, m: int) -> np.ndarray:
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


def _as_integers(reduced: np.ndarray) -> list[int | None]:
    """Each row of reduce_counts' output as a rational integer, or None if it is not one."""
    integer = ~reduced[:, 1:].any(axis=1)
    return [n if ok else None for n, ok in zip(reduced[:, 0].tolist(), integer.tolist())]


def _pushed_forward(m: int, J: np.ndarray, t: np.ndarray, weights=None):
    """sum_s w_s zeta_m^(j t_s) reduced mod Phi_m for each j in J (weights default to
    1), as (block of J, its reduce_counts rows) in blocks of at most HISTOGRAM_CELLS
    cells.  t -> jt keeps sum|w|, so the overflow guard reads the same bound for all j."""
    step = max(1, HISTOGRAM_CELLS // m)
    for lo in range(0, len(J), step):
        block = J[lo:lo + step]
        exponents = block[:, None] * t[None, :] % m
        w = None if weights is None else np.broadcast_to(weights, exponents.shape)
        yield block, reduce_counts(exponent_histogram(exponents, m, w))


# ---------------------------------------------------------------------------
# exact mean-value identity  sum_a |S(a)|^2 = p|D| - |D|^2
# ---------------------------------------------------------------------------

def eq2_certificate(c: np.ndarray) -> bool:
    """True when the pair-difference histogram c is flat off t = 0: c(t) = c(1)
    for every t != 0.  Then sum_t c(t) zeta_m^(jt) = c(0) - c(1) for every j != 0
    mod m, since sum_t zeta_m^(jt) = 0 in Z[zeta_m], so every nonprincipal
    character's sum is that integer.  (The Mobius map a -> (x+a)/(y+a) makes c
    flat for every D: c(0) = |D|(p-1), c(t != 0) = |D|(|D|-1).)"""
    return bool(np.all(c[1:] == c[1]))


def check_eq2_identities(ctx: FieldCtx, chis, D) -> list[Verdict]:
    """One eq2 verdict per nonprincipal character in chis, for the same set D.

    chi_j(x+a) conj chi_j(y+a) = zeta_m^(j (dlog(x+a) - dlog(y+a))), so one
    character-free count c(t) of the dlog differences t over (x, y, a) gives every
    sum.  When eq2_certificate(c) holds, every sum is c(0) - c(1).  Otherwise
    character j's sum is c pushed forward by t -> jt mod m and reduced."""
    if any(chi.is_principal for chi in chis):
        raise PrincipalCharacter("identity requires a nonprincipal character")
    p = ctx.p
    m = p - 1
    Ds = sorted({d % p for d in D})
    if not Ds:
        raise ValueError("D must be nonempty")
    if 0 in Ds:
        raise ZeroInD("D must be a subset of the nonzero residues")
    if m > EXACT_MAX_ORDER:
        raise CapacityExceeded(f"exact mode needs root order {m} > {EXACT_MAX_ORDER}")
    Da = np.array(Ds, dtype=np.int64)
    # dlog(x+a) for every x in D (rows) and every shift a (columns); dlog[0] = -1
    # is the zero-term sentinel
    c = _pair_difference_sum(ctx.dlog[(Da[:, None] + np.arange(p)[None, :]) % p], m)
    if eq2_certificate(c):
        computed = [int(c[0] - c[1])] * len(chis)
    else:
        t = np.flatnonzero(c)
        J = np.array([chi.index for chi in chis], dtype=np.int64)
        computed = [n for _, reduced in _pushed_forward(m, J, t, c[t])
                    for n in _as_integers(reduced)]
    target = p * len(Ds) - len(Ds) ** 2
    return [
        Verdict(
            claim="eq2",
            params={"p": p, "chi": chi.index, "D_size": len(Ds)},
            computed=n if n is not None else "non-integer",
            target=target, margin=float(n - target) if n is not None else float("nan"),
            passed=n == target, mode="exact",
        )
        for chi, n in zip(chis, computed)
    ]


def check_eq2_identity(ctx: FieldCtx, chi: Character, D) -> Verdict:
    """sum_a |sum_{x in D} chi(x+a)|^2 = p|D| - |D|^2, exactly, for one character."""
    return check_eq2_identities(ctx, [chi], D)[0]


# ---------------------------------------------------------------------------
# character-averaged bound  (1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|)
# ---------------------------------------------------------------------------

def check_meanvalue2(ctx: FieldCtx, H: Subgroup, a: int,
                     average: float | None = None) -> Verdict:
    """average, if given, is the mean of character_sum_moduli over the row H + a,
    possibly taken at another shift of the coset aH, where the average is the same."""
    if a % ctx.p == 0:
        raise ShiftNotCoprime("shift a must be nonzero mod p")
    p = ctx.p
    if average is None:
        (average,), _ = character_sum_moduli(ctx, [(np.array(H.elements) + a) % p])
    computed = float(average)
    target = math.sqrt(H.order)
    return Verdict(
        claim="meanvalue2",
        params={"p": p, "H": H.order, "a": a % p},
        computed=computed, target=target, margin=target - computed,
        passed=computed <= target + TOL, mode="numeric",
    )


# ---------------------------------------------------------------------------
# exact full-dual-group identity  sum_chi |sum_{n in H} chi(n)| = p - 1
# ---------------------------------------------------------------------------

def granville_certificate(ctx: FieldCtx, H: Subgroup) -> bool:
    """True when dlog(H) is exactly {0, k, 2k, ...} (k = H.index).  Then
    sum_{x in H} chi_j(x) = sum_{i < |H|} zeta_|H|^(ji): |H| when |H| divides j,
    that is when chi_j is trivial on H, and 0 otherwise."""
    dH = np.sort(ctx.dlog[np.array(H.elements, dtype=np.int64)])
    return np.array_equal(dH, np.arange(0, ctx.p - 1, H.index))


def _granville_structural(ctx: FieldCtx, H: Subgroup) -> tuple[bool, int]:
    """Exact inner sums over H for every character: |H| when the character is
    trivial on H, 0 otherwise.  Returns (structure holds, number of mismatches),
    from granville_certificate, or when it fails from one reduction mod Phi_m
    per character."""
    if granville_certificate(ctx, H):
        return True, 0
    m = ctx.p - 1
    n = H.order
    dH = ctx.dlog[np.array(H.elements, dtype=np.int64)]
    mismatches = 0
    for J, red in _pushed_forward(m, np.arange(m, dtype=np.int64), dH):
        expected = np.zeros_like(red)
        expected[J % n == 0, 0] = n
        mismatches += int(np.count_nonzero(np.any(red != expected, axis=1)))
    return mismatches == 0, mismatches


def check_granville(ctx: FieldCtx, H: Subgroup) -> Verdict:
    ok, mismatches = _granville_structural(ctx, H)
    p = ctx.p
    total = H.index * H.order  # k characters contribute |H| each when structure holds
    return Verdict(
        claim="granville",
        params={"p": p, "H": H.order},
        computed=total if ok else f"{mismatches} structural mismatches",
        target=p - 1,
        margin=float(total - (p - 1)) if ok else float("nan"),
        passed=ok and total == p - 1, mode="exact",
    )


def check_shkredov_bound(ctx: FieldCtx, H: Subgroup, base: Verdict | None = None) -> Verdict:
    """sum_chi |sum_{n in H} chi(n)| <= p, from the granville verdict base for the
    same H (run here when not given)."""
    if base is None:
        base = check_granville(ctx, H)
    total = base.computed if base.passed else float("inf")
    return Verdict(
        claim="shkredov",
        params={"p": ctx.p, "H": H.order},
        computed=total, target=ctx.p,
        margin=float(ctx.p - total) if base.passed else float("nan"),
        passed=base.passed and total <= ctx.p, mode="exact",
    )


# ---------------------------------------------------------------------------
# exact identity for exponential sums over a general modulus q
# ---------------------------------------------------------------------------

def check_konyagin(q: int, D) -> Verdict:
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    Ds = sorted({x % q for x in D})
    if not Ds:
        raise ValueError("D must be nonempty")
    if q > EXACT_MAX_ORDER:
        raise CapacityExceeded(f"exact mode needs root order {q} > {EXACT_MAX_ORDER}")
    # sum_{a=1}^{q-1} |sum_{x in D} e_q(ax)|^2: one row per x, one column per a
    E = exp_sum_exponents(q, Ds, np.arange(1, q))
    (computed,) = _as_integers(reduce_counts([_pair_difference_sum(E, q)]))
    target = len(Ds) * (q - len(Ds))
    return Verdict(
        claim="konyagin",
        params={"q": q, "D_size": len(Ds)},
        computed=computed if computed is not None else "non-integer",
        target=target,
        margin=float(computed - target) if computed is not None else float("nan"),
        passed=computed == target, mode="exact",
    )


# ---------------------------------------------------------------------------
# bilinear bound |S|, |S'| <= sqrt(pXY) and the proof kernel's case table
# ---------------------------------------------------------------------------

def check_lemma3(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int) -> Verdict:
    S = bilinear_S(ctx, chi, xi, eta, a, "numeric")
    Sp = bilinear_Sprime(ctx, chi, xi, eta, a, "numeric")
    X = xi.sq_norm
    Y = eta.sq_norm
    bound = math.sqrt(ctx.p * X * Y)
    computed = max(S.magnitude, Sp.magnitude)
    return Verdict(
        claim="lemma3",
        params={"p": ctx.p, "chi": chi.index, "a": a % ctx.p},
        computed=computed, target=bound, margin=bound - computed,
        passed=computed <= bound + TOL, mode="numeric",
    )


@lru_cache(maxsize=1)
def kernel_certificate(ctx: FieldCtx) -> bool:
    """True when the proof kernel sum_x chi(xy + a) conj(chi(x*y1 + a)) equals its
    case table for every nonprincipal chi, every shift a != 0 and every pair
    (y, y1) at p; cached for the last ctx, so the checks of one prime share it.

    Given that ctx.dlog is a discrete logarithm (checked here against ctx.exp),
    x = a*u/y1 is a bijection of F_p for y1 != 0 that turns the exponent
    dlog(xy + a) - dlog(x*y1 + a) into dlog(ru + 1) - dlog(u + 1), r = y/y1.
    So the sum is sum_t h_r(t) zeta^(jt), where h_r is the histogram of that
    difference over u, and row r of h must be
      r = 0 (y = 0):        1 everywhere, so the sum is 0;
      r = 1 (y = y1):       p - 1 at t = 0 and 0 elsewhere, so the sum is p - 1;
      r >= 2 (generic):     1 everywhere except 0 at t = dlog r, so the sum is -chi(r).
    For y1 = 0 != y, x = a*u/y gives the terms chi(u + 1), whose histogram is
    row 0 reflected by t -> -t, so it is all ones too; y = y1 = 0 sums to p.
    Rows are counted in chunks of at most HISTOGRAM_CELLS cells."""
    p = ctx.p
    m = p - 1
    is_log = (ctx.dlog[0] == -1 and ctx.exp[0] == 1
              and np.array_equal(ctx.exp[1:], ctx.exp[:-1] * ctx.g % p)
              and np.array_equal(ctx.dlog[ctx.exp], np.arange(m)))
    if not is_log:
        return False
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


def check_kernel_cases(ctx: FieldCtx, chi: Character, a: int, pairs=None) -> Verdict:
    """Exact check that sum_x chi(xy+a) conj(chi(x*y1+a)) matches its four-case
    closed form for every requested (y, y1) pair (default: the full grid).

    When kernel_certificate(ctx) holds it proves every pair, and no grid is built.
    Otherwise each pair's sum is reduced mod Phi_m and compared, in chunks of at
    most HISTOGRAM_CELLS (pair x term) cells; computed counts the mismatches."""
    if chi.is_principal:
        raise PrincipalCharacter("kernel requires a nonprincipal character")
    if a % ctx.p == 0:
        raise ShiftNotCoprime("shift a must be nonzero mod p")
    p = ctx.p
    m = p - 1
    if m > EXACT_MAX_ORDER:
        raise CapacityExceeded(f"exact mode needs root order {m} > {EXACT_MAX_ORDER}")
    if pairs is not None:
        pairs = np.array(pairs, dtype=np.int64) % p
    npairs = p * p if pairs is None else len(pairs)
    mismatches = 0
    if not kernel_certificate(ctx):
        E = chi.exponent_table()
        R = reduction_rows(m)
        # field inverses, not ctx.exp[-dlog]: the closed form is about y / y1 in F_p
        inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
        step = max(1, HISTOGRAM_CELLS // p)
        for lo in range(0, npairs, step):
            hi = min(lo + step, npairs)
            if pairs is None:  # the full grid, row-major: pair k is (k // p, k % p)
                y, y1 = np.divmod(np.arange(lo, hi, dtype=np.int64), p)
            else:
                y, y1 = pairs[lo:hi].T
            # one column of kernel exponents per pair; one histogram row per pair
            red = reduce_counts(exponent_histogram(kernel_exponents(ctx, chi, y, y1, a).T, m))
            expected = np.zeros(red.shape)
            expected[(y == 0) & (y1 == 0), 0] = p
            expected[(y == y1) & (y > 0), 0] = p - 1
            generic = (y != y1) & (y > 0) & (y1 > 0)
            expected[generic] = -R[E[y[generic] * inv[y1[generic]] % p]]
            mismatches += int(np.count_nonzero(np.any(red != expected, axis=1)))
    return Verdict(
        claim="kernel",
        params={"p": p, "chi": chi.index, "a": a % p, "pairs": npairs},
        computed=mismatches, target=0, margin=float(-mismatches),
        passed=mismatches == 0, mode="exact",
    )


# ---------------------------------------------------------------------------
# nonlinear sum bound  |sum_{x in H} chi(x(x+a))| <= sqrt(p)
# ---------------------------------------------------------------------------

def check_nonlinear_bound_all_shifts(ctx: FieldCtx, chi: Character, H: Subgroup,
                                     peak: float | None = None) -> Verdict:
    """One verdict per (H, chi) covering every nonzero shift a.

    peak, if given, is max over a of |sum_{x in H} chi(x(x + a))|, the maximum
    over the nonlinear_rows of H."""
    if peak is None:
        exponents = chi.exponent_table()[nonlinear_rows(ctx, H)]
        peak = np.max(np.abs(numeric_sums(exponents.T, ctx.p - 1)))
    computed = float(peak)
    target = math.sqrt(ctx.p)
    return Verdict(
        claim="nonlinear",
        params={"p": ctx.p, "chi": chi.index, "H": H.order, "a": "all"},
        computed=computed, target=target, margin=target - computed,
        passed=computed <= target + TOL, mode="numeric",
    )


# ---------------------------------------------------------------------------
# seeded instance generation
# ---------------------------------------------------------------------------

def seeded_rng(seed: int, p: int, label: str) -> random.Random:
    return random.Random(f"{seed}|{p}|{label}")


def random_subsets(p: int, count: int, rng: random.Random) -> list[list[int]]:
    """Seeded subsets of [1, p-1] covering boundary and typical sizes."""
    sizes = [1, 2, max(1, math.isqrt(p)), max(1, p // 2)]
    out = []
    for i in range(count):
        size = min(sizes[i % len(sizes)], p - 1)
        out.append(sorted(rng.sample(range(1, p), size)))
    return out


def random_weights(p: int, rng: random.Random) -> Weights:
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p)]
    return Weights(vals)


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

def _suite_for_prime(p: int, claims: tuple, seed: int, budget=None) -> list[Verdict]:
    verdicts: list[Verdict] = []
    try:
        ctx = make_ctx(p)
    except CapacityExceeded as e:
        return [_capacity_verdict(c, {"p": p}, e) for c in claims if c != "konyagin"]
    m = p - 1
    Hs = subgroups(ctx)
    nontrivial = [character(ctx, j) for j in range(1, m)]

    def within(items):
        return items if budget is None else items[:budget]

    @cache
    def shift_moduli(H: Subgroup):
        # |S(a)| and the character average are constant on each coset aH: one row
        # H + g^i per coset, every character at once; plus the unshifted row H
        means, peaks = character_sum_moduli(ctx, coset_shift_rows(ctx, H))
        return means, peaks, character_sum_moduli(ctx, [H.elements])[1]

    if "thm2" in claims or "thm2_sharp" in claims or "eps" in claims:
        for H, chi in within([(H, chi) for H in Hs for chi in nontrivial]):
            _, peaks, inner = shift_moduli(H)
            j = chi.index
            if "thm2" in claims:
                verdicts.append(check_theorem2(ctx, chi, H, peaks[j]))
            if "thm2_sharp" in claims:
                verdicts.append(check_sharpened_theorem2(ctx, chi, H, peaks[j], inner[j]))
            if "eps" in claims:
                verdicts.append(check_eps_corollary(ctx, chi, H, eps=0.1, peak=peaks[j]))

    if "eq2" in claims:
        if m > EXACT_MAX_ORDER:
            verdicts.append(_capacity_verdict(
                "eq2", {"p": p}, CapacityExceeded(f"p-1={m} > {EXACT_MAX_ORDER}")))
        else:
            rng = seeded_rng(seed, p, "eq2")
            dsets = [list(H.elements) for H in Hs] + random_subsets(p, 20, rng)
            # the grid is chi-major, so a budget can cut one D's characters partway
            chis_of = {}
            for chi, i in within([(chi, i) for chi in nontrivial for i in range(len(dsets))]):
                chis_of.setdefault(i, []).append(chi)
            for i, chis in chis_of.items():
                verdicts.extend(replace(v, params={**v.params, "D_index": i})
                                for v in check_eq2_identities(ctx, chis, dsets[i]))

    if "lemma3" in claims:
        rng = seeded_rng(seed, p, "lemma3")
        chis = [nontrivial[rng.randrange(len(nontrivial))] for _ in range(min(5, len(nontrivial)))]
        for ci, chi in enumerate(within(chis)):
            for w in range(5):
                xi = random_weights(p, rng)
                eta = random_weights(p, rng)
                a = rng.randrange(1, p)
                v = check_lemma3(ctx, chi, xi, eta, a)
                verdicts.append(replace(v, params={**v.params, "instance": f"{ci}:{w}"}))

    if "kernel" in claims:
        if m > EXACT_MAX_ORDER:
            verdicts.append(_capacity_verdict(
                "kernel", {"p": p}, CapacityExceeded(f"p-1={m} > {EXACT_MAX_ORDER}")))
        else:
            # one kernel_certificate, shared by these calls, proves every (chi, a,
            # pair) at p; the seeded sample keeps the verdict stream as it was
            rng = seeded_rng(seed, p, "kernel")
            combos = [(nontrivial[rng.randrange(len(nontrivial))], rng.randrange(1, p))
                      for _ in range(min(5, len(nontrivial)))]
            pairs = None
            if p > 101:
                pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(500)]
            for chi, a in within(combos):
                verdicts.append(check_kernel_cases(ctx, chi, a, pairs=pairs))

    if "meanvalue2" in claims:
        for H, a in within([(H, a) for H in Hs for a in range(1, p)]):
            means = shift_moduli(H)[0]
            verdicts.append(check_meanvalue2(ctx, H, a, means[ctx.dlog[a] % H.index]))

    if "granville" in claims or "shkredov" in claims:
        for H in within(Hs):
            base = check_granville(ctx, H)
            if "granville" in claims:
                verdicts.append(base)
            if "shkredov" in claims:
                verdicts.append(check_shkredov_bound(ctx, H, base))

    if "nonlinear" in claims:
        for H in within(Hs):
            _, peaks = character_sum_moduli(ctx, nonlinear_rows(ctx, H))
            for chi in nontrivial:
                verdicts.append(check_nonlinear_bound_all_shifts(ctx, chi, H, peaks[chi.index]))

    return verdicts


def _konyagin_verdicts(q_min: int, q_max: int, seed: int, budget=None) -> list[Verdict]:
    verdicts = []
    for q in range(max(2, q_min), q_max + 1):
        rng = seeded_rng(seed, q, "konyagin")
        if q > EXACT_MAX_ORDER:
            verdicts.append(_capacity_verdict(
                "konyagin", {"q": q}, CapacityExceeded(f"q={q} > {EXACT_MAX_ORDER}")))
            continue
        dsets = random_subsets(q, 10, rng) if q > 2 else [[1]] * 10
        if budget is not None:
            dsets = dsets[:budget]
        for i, D in enumerate(dsets):
            v = check_konyagin(q, D)
            verdicts.append(replace(v, params={**v.params, "D_index": i}))
    return verdicts


def run_suite(p_min: int = 3, p_max: int = 61, claims=None, seed: int = 0,
              workers: int = 1, budget=None) -> list[Verdict]:
    """Run every applicable checker over all primes in [p_min, p_max].

    Deterministic for a fixed (range, claims, seed) regardless of worker count;
    verdicts come back sorted by (claim, modulus, parameters).
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if claims is None:
        claims = CLAIMS
    claims = tuple(claims)
    unknown = set(claims) - set(CLAIMS)
    if unknown:
        raise ValueError(f"unknown claims: {sorted(unknown)}")
    primes = list(primes_in(max(p_min, 3), p_max))
    prime_claims = tuple(c for c in claims if c != "konyagin")

    verdicts: list[Verdict] = []
    if prime_claims:
        for vs in map_tasks(_suite_for_prime, [(p, prime_claims, seed, budget) for p in primes],
                            workers):
            verdicts.extend(vs)

    if "konyagin" in claims:
        verdicts.extend(_konyagin_verdicts(p_min, p_max, seed, budget))

    verdicts.sort(key=Verdict.sort_key)
    return verdicts


def map_tasks(fn, tasks: list[tuple], workers: int, chunksize: int = 1) -> list:
    """[fn(*task) for task in tasks], in order.  With more than one worker the
    tasks run in a process pool of min(workers, len(tasks), CPU count) processes,
    so a large --workers never forks more processes than can do any work."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunksize))
