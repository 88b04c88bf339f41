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

import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
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
    _require_coprime_shift,
    _require_nonprincipal,
    bilinear_sums,
    exp_sum_exponents,
    kernel_exponents,
    nonlinear_exponents,
    numeric_sums,
    shifted_exponents,
)
from .errors import CapacityExceeded, ZeroInD
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


@dataclass(slots=True)
class Verdict:
    """One checked instance of a claim.  Its fields hold Python values, never numpy
    scalars (the batch builders take them from numpy with tolist), which the JSON
    writer would spell through default=str."""

    claim: str
    params: dict
    computed: object
    target: object
    margin: float
    passed: bool
    mode: str
    kind: str = "verdict"  # "verdict" | "capacity"
    note: str = ""
    # params as sorted-key JSON, given by the batch builders and encoded here
    # otherwise.  params are final from construction: dataclasses.replace would
    # copy this text, so pass params_text=None along with new params.
    params_text: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.params_text is None:
            self.params_text = _PARAMS_JSON.encode(self.params)

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


def _params_texts(params: dict, rows: int) -> list[str]:
    """_PARAMS_JSON.encode of each row's params (see _verdicts), from one template:
    the keys in sorted order, each fixed value encoded once, and the row values
    spelled per row (an int as JSON spells it, anything else encoded)."""
    slots = []
    columns = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            slot = "{}"
            columns.append(value if all(type(v) is int for v in value)
                           else [_PARAMS_JSON.encode(v) for v in value])
        else:
            slot = _PARAMS_JSON.encode(value).replace("{", "{{").replace("}", "}}")
        slots.append(f"{_PARAMS_JSON.encode(key)}: {slot}")
    template = "{{" + ", ".join(slots) + "}}"
    if not columns:
        return [template.format()] * rows
    return list(itertools.starmap(template.format, zip(*columns)))


def _verdicts(claim: str, mode: str, params: dict, computed, target, margin, passed,
              note: str = "") -> list[Verdict]:
    """One verdict per row of a batch.  params maps each key, in record order, to
    one value for the whole batch or to a list of one value per row; computed,
    target, margin and passed are lists of Python scalars, one per row."""
    rows = len(computed)
    keys = tuple(params)
    columns = [v if isinstance(v, list) else itertools.repeat(v, rows)
               for v in params.values()]
    return [Verdict(claim, dict(zip(keys, values)), c, t, d, ok, mode, "verdict", note, text)
            for values, c, t, d, ok, text in zip(zip(*columns), computed, target, margin,
                                                   passed, _params_texts(params, rows))]


def _bound_verdicts(claim: str, params: dict, computed, target, strict: bool) -> list[Verdict]:
    """Numeric verdicts computed < target - TOL (strict) or computed <= target + TOL,
    with margin target - computed, for a batch of computed values (target one value
    or one per row)."""
    computed = np.asarray(computed, dtype=np.float64)
    target = np.broadcast_to(np.asarray(target, dtype=np.float64), computed.shape)
    passed = computed < target - TOL if strict else computed <= target + TOL
    return _verdicts(claim, "numeric", params, computed.tolist(), target.tolist(),
                     (target - computed).tolist(), passed.tolist())


def _identity_verdicts(claim: str, params: dict, computed: list, target: int) -> list[Verdict]:
    """Exact verdicts computed == target, for a batch of computed integers (None
    where the sum is not a rational integer)."""
    return _verdicts(
        claim, "exact", params,
        [n if n is not None else "non-integer" for n in computed], [target] * len(computed),
        [float(n - target) if n is not None else math.nan for n in computed],
        [n == target for n in computed])


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

def _thm2_batch(ctx: FieldCtx, H: Subgroup, J: list, peaks) -> list[Verdict]:
    """thm2 for the characters J on H; peaks[i] is character J[i]'s maximum over
    nonzero shifts a of |sum_{x in H} chi(x+a)|, which must be strictly below sqrt(p)."""
    return _bound_verdicts("thm2", {"p": ctx.p, "chi": J, "H": H.order}, peaks,
                           math.sqrt(ctx.p), strict=True)


def _thm2_sharp_batch(ctx: FieldCtx, H: Subgroup, J: list, peaks, inner) -> list[Verdict]:
    """|S(a)|^2 <= (p|H| - |sum_{x in H} chi(x)|^2) / |H| for every nonzero a, for
    the characters J; inner[i] is the unshifted |sum_{x in H} chi(x)|.  Squares are
    taken with float_power, the libm pow that Python's x ** 2 calls (x * x can
    round otherwise)."""
    n = H.order
    target = (ctx.p * n - np.float_power(inner, 2)) / n
    return _bound_verdicts("thm2_sharp", {"p": ctx.p, "chi": J, "H": n},
                           np.float_power(peaks, 2), target, strict=False)


def _eps_batch(ctx: FieldCtx, H: Subgroup, J: list, peaks, eps: float) -> list[Verdict]:
    """For |H| > p^(1/2+eps): max nonzero-shift |S| < p^(-eps) |H|; vacuous otherwise."""
    p = ctx.p
    params = {"p": p, "chi": J, "H": H.order, "eps": eps}
    if H.order <= p ** (0.5 + eps):
        zeros = [0.0] * len(J)
        return _verdicts("eps", "numeric", params, zeros, zeros, zeros, [True] * len(J),
                         note="vacuous")
    return _bound_verdicts("eps", params, peaks, p ** (-eps) * H.order, strict=True)


def _shift_peak(ctx: FieldCtx, chi: Character, H: Subgroup) -> tuple[float, float]:
    """(max over nonzero shifts a of |sum_{x in H} chi(x+a)|, |sum_{x in H} chi(x)|)
    for one nonprincipal character, read off the rows H and H + g^i: S(ah) = chi(h) S(a)
    for h in H, so the k coset representatives g^i give every nonzero shift.  The
    suite reads both off character_sum_moduli."""
    _require_nonprincipal(chi)
    shifts = np.append(0, ctx.exp[:H.index])
    moduli = np.abs(numeric_sums(shifted_exponents(ctx, chi, H.elements, shifts), ctx.p - 1))
    return moduli[1:].max(), moduli[0]


def check_theorem2(ctx: FieldCtx, chi: Character, H: Subgroup) -> Verdict:
    """max over nonzero shifts a of |sum_{x in H} chi(x+a)| is strictly below sqrt(p)."""
    peak, _ = _shift_peak(ctx, chi, H)
    return _thm2_batch(ctx, H, [chi.index], [peak])[0]


def check_sharpened_theorem2(ctx: FieldCtx, chi: Character, H: Subgroup) -> Verdict:
    """|S(a)|^2 <= (p|H| - |sum_{x in H} chi(x)|^2) / |H| for every nonzero a."""
    peak, inner = _shift_peak(ctx, chi, H)
    return _thm2_sharp_batch(ctx, H, [chi.index], [peak], [inner])[0]


def check_eps_corollary(ctx: FieldCtx, chi: Character, H: Subgroup, eps: float) -> Verdict:
    """For |H| > p^(1/2+eps): max nonzero-shift |S| < p^(-eps) |H|; vacuous otherwise."""
    peak, _ = _shift_peak(ctx, chi, H)
    return _eps_batch(ctx, H, [chi.index], [peak], eps)[0]


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


def check_eq2_identities(ctx: FieldCtx, chis, D, D_index: int | None = None) -> list[Verdict]:
    """One eq2 verdict per nonprincipal character in chis, for the same set D (its
    suite index D_index, if given, goes into the params).

    chi_j(x+a) conj chi_j(y+a) = zeta_m^(j (dlog(x+a) - dlog(y+a))), so one
    character-free count c(t) of the dlog differences t over (x, y, a) gives every
    sum.  When eq2_certificate(c) holds, every sum is c(0) - c(1).  Otherwise
    character j's sum is c pushed forward by t -> jt mod m and reduced."""
    _require_nonprincipal(*chis)
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
    params = {"p": p, "chi": [chi.index for chi in chis], "D_size": len(Ds)}
    if D_index is not None:
        params["D_index"] = D_index
    return _identity_verdicts("eq2", params, computed, p * len(Ds) - len(Ds) ** 2)


def check_eq2_identity(ctx: FieldCtx, chi: Character, D) -> Verdict:
    """sum_a |sum_{x in D} chi(x+a)|^2 = p|D| - |D|^2, exactly, for one character."""
    return check_eq2_identities(ctx, [chi], D)[0]


# ---------------------------------------------------------------------------
# character-averaged bound  (1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|)
# ---------------------------------------------------------------------------

def _meanvalue2_batch(ctx: FieldCtx, H: Subgroup, shifts: list, averages) -> list[Verdict]:
    """(1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|) for the shifts a in
    [1, p), with averages[i] that mean at shifts[i]."""
    return _bound_verdicts("meanvalue2", {"p": ctx.p, "H": H.order, "a": shifts}, averages,
                           math.sqrt(H.order), strict=False)


def check_meanvalue2(ctx: FieldCtx, H: Subgroup, a: int) -> Verdict:
    """(1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|) at one nonzero shift a."""
    p = ctx.p
    _require_coprime_shift(p, a)
    (average,), _ = character_sum_moduli(ctx, [(np.array(H.elements) + a) % p])
    return _meanvalue2_batch(ctx, H, [a % p], [average])[0]


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

def check_konyagin(q: int, D, D_index: int | None = None) -> Verdict:
    """sum_{a=1}^{q-1} |sum_{x in D} e_q(ax)|^2 = |D|(q - |D|), exactly (D's suite
    index D_index, if given, goes into the params)."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    Ds = sorted({x % q for x in D})
    if not Ds:
        raise ValueError("D must be nonempty")
    if q > EXACT_MAX_ORDER:
        raise CapacityExceeded(f"exact mode needs root order {q} > {EXACT_MAX_ORDER}")
    # one row per x, one column per a
    E = exp_sum_exponents(q, Ds, np.arange(1, q))
    computed = _as_integers(reduce_counts([_pair_difference_sum(E, q)]))
    params = {"q": q, "D_size": len(Ds)}
    if D_index is not None:
        params["D_index"] = D_index
    return _identity_verdicts("konyagin", params, computed, len(Ds) * (q - len(Ds)))[0]


# ---------------------------------------------------------------------------
# bilinear bound |S|, |S'| <= sqrt(pXY) and the proof kernel's case table
# ---------------------------------------------------------------------------

def _lemma3_batch(ctx: FieldCtx, chis: list, xi: np.ndarray, eta: np.ndarray, shifts: list,
                  instances: list | None = None) -> list[Verdict]:
    """|S|, |S'| <= sqrt(pXY) for stacked instances: row i of the weights xi and eta
    (residues on the last axis) goes with chis[i] and shifts[i], and is tagged
    instances[i] when given.  S and S' are one batched FFT each, over one value
    table per character."""
    p = ctx.p
    _require_nonprincipal(*chis)
    _require_coprime_shift(p, *shifts)
    table_of = {chi.index: chi.value_table() for chi in chis}
    tables = np.array([table_of[chi.index] for chi in chis])
    S = bilinear_sums(ctx, tables, xi, eta, shifts, twist=False)
    Sp = bilinear_sums(ctx, tables, xi, eta, shifts, twist=True)
    X = np.sum(np.abs(xi) ** 2, axis=-1)
    Y = np.sum(np.abs(eta) ** 2, axis=-1)
    params = {"p": p, "chi": [chi.index for chi in chis], "a": [a % p for a in shifts]}
    if instances is not None:
        params["instance"] = instances
    # |z| as hypot, the libm call of Python's abs(complex); numpy's complex
    # absolute loop can round otherwise
    computed = np.maximum(np.hypot(S.real, S.imag), np.hypot(Sp.real, Sp.imag))
    return _bound_verdicts("lemma3", params, computed, np.sqrt(p * X * Y), strict=False)


def check_lemma3(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int) -> Verdict:
    return _lemma3_batch(ctx, [chi], xi.values[None], eta.values[None], [a])[0]


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
    _require_nonprincipal(chi)
    _require_coprime_shift(ctx.p, a)
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

def _nonlinear_batch(ctx: FieldCtx, H: Subgroup, J: list, peaks) -> list[Verdict]:
    """|sum_{x in H} chi(x(x+a))| <= sqrt(p) for every nonzero shift a, one verdict
    per character in J; peaks[i] is character J[i]'s maximum over a."""
    return _bound_verdicts("nonlinear", {"p": ctx.p, "chi": J, "H": H.order, "a": "all"},
                           peaks, math.sqrt(ctx.p), strict=False)


def check_nonlinear_bound_all_shifts(ctx: FieldCtx, chi: Character, H: Subgroup) -> Verdict:
    """One verdict per (H, chi) covering every nonzero shift a: the maximum of
    |sum_{x in H} chi(x(x + a))| over the coset representatives a = g^i (see
    nonlinear_rows)."""
    _require_nonprincipal(chi)
    exponents = nonlinear_exponents(ctx, chi, H, ctx.exp[:H.index])
    peak = np.abs(numeric_sums(exponents, ctx.p - 1)).max()
    return _nonlinear_batch(ctx, H, [chi.index], [peak])[0]


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
    """p complex weights, real then imaginary part each -1 + 2 * rng.random(),
    which is what rng.uniform(-1, 1) computes."""
    r = np.array([rng.random() for _ in range(2 * p)])
    return Weights((-1 + 2 * r).view(complex))


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

def _budgeted(sizes: list[int], budget: int) -> list[int]:
    """The leading batch sizes that total at most budget: whole batches while the
    budget lasts, the last one cut partway."""
    cut = []
    for size in sizes:
        if budget == 0:
            break
        cut.append(min(size, budget))
        budget -= cut[-1]
    return cut


def _suite_for_prime(p: int, claims: tuple, seed: int, budget: int) -> list[Verdict]:
    """Every claim's verdicts at p, built a batch at a time; budget caps the
    instances per claim."""
    verdicts: list[Verdict] = []
    try:
        ctx = make_ctx(p)
    except CapacityExceeded as e:
        return [_capacity_verdict(c, {"p": p}, e) for c in claims if c != "konyagin"]
    m = p - 1
    Hs = subgroups(ctx)
    nontrivial = [character(ctx, j) for j in range(1, m)]
    J = list(range(1, m))

    @cache
    def shift_moduli(H: Subgroup):
        # |S(a)| and the character average are constant on each coset aH: one row
        # H + g^i per coset, every character at once; plus the unshifted row H
        means, peaks = character_sum_moduli(ctx, coset_shift_rows(ctx, H))
        return means, peaks, character_sum_moduli(ctx, [H.elements])[1]

    if "thm2" in claims or "thm2_sharp" in claims or "eps" in claims:
        # one batch per H over the characters; a budget counts (H, chi) pairs
        for H, n in zip(Hs, _budgeted([m - 1] * len(Hs), budget)):
            _, peaks, inner = shift_moduli(H)
            peak = peaks[1:n + 1]
            if "thm2" in claims:
                verdicts += _thm2_batch(ctx, H, J[:n], peak)
            if "thm2_sharp" in claims:
                verdicts += _thm2_sharp_batch(ctx, H, J[:n], peak, inner[1:n + 1])
            if "eps" in claims:
                verdicts += _eps_batch(ctx, H, J[:n], peak, eps=0.1)

    if "eq2" in claims:
        if m > EXACT_MAX_ORDER:
            verdicts.append(_capacity_verdict(
                "eq2", {"p": p}, CapacityExceeded(f"p-1={m} > {EXACT_MAX_ORDER}")))
        else:
            rng = seeded_rng(seed, p, "eq2")
            dsets = [list(H.elements) for H in Hs] + random_subsets(p, 20, rng)
            # one batch per D over the characters; the budget counts (chi, D) pairs
            # chi-major, so D_i keeps budget // len(dsets) characters, plus one
            # for i < budget % len(dsets)
            whole, extra = divmod(budget, len(dsets))
            for i, D in enumerate(dsets):
                n = min(m - 1, whole + (i < extra))
                if n:
                    verdicts += check_eq2_identities(ctx, nontrivial[:n], D, D_index=i)

    if "lemma3" in claims:
        rng = seeded_rng(seed, p, "lemma3")
        chis = [nontrivial[rng.randrange(m - 1)] for _ in range(min(5, m - 1))][:budget]
        # five instances per drawn character, drawn in order; one batch per prime
        instances, xi, eta, shifts = [], [], [], []
        for ci in range(len(chis)):
            for w in range(5):
                instances.append(f"{ci}:{w}")
                xi.append(random_weights(p, rng).values)
                eta.append(random_weights(p, rng).values)
                shifts.append(rng.randrange(1, p))
        verdicts += _lemma3_batch(ctx, [chi for chi in chis for _ in range(5)],
                                  np.array(xi), np.array(eta), shifts, instances)

    if "kernel" in claims:
        if m > EXACT_MAX_ORDER:
            verdicts.append(_capacity_verdict(
                "kernel", {"p": p}, CapacityExceeded(f"p-1={m} > {EXACT_MAX_ORDER}")))
        else:
            # one kernel_certificate, shared by these calls, proves every (chi, a,
            # pair) at p; the seeded sample keeps the verdict stream as it was
            rng = seeded_rng(seed, p, "kernel")
            combos = [(nontrivial[rng.randrange(m - 1)], rng.randrange(1, p))
                      for _ in range(min(5, m - 1))]
            pairs = None
            if p > 101:
                pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(500)]
            for chi, a in combos[:budget]:
                verdicts.append(check_kernel_cases(ctx, chi, a, pairs=pairs))

    if "meanvalue2" in claims:
        # one batch per H over the shifts a; the average depends on a's coset only
        dlog = ctx.dlog[1:]
        for H, n in zip(Hs, _budgeted([m] * len(Hs), budget)):
            means = shift_moduli(H)[0]
            verdicts += _meanvalue2_batch(ctx, H, list(range(1, n + 1)),
                                          means[dlog[:n] % H.index])

    if "granville" in claims or "shkredov" in claims:
        for H in Hs[:budget]:
            base = check_granville(ctx, H)
            if "granville" in claims:
                verdicts.append(base)
            if "shkredov" in claims:
                verdicts.append(check_shkredov_bound(ctx, H, base))

    if "nonlinear" in claims:
        for H in Hs[:budget]:
            _, peaks = character_sum_moduli(ctx, nonlinear_rows(ctx, H))
            verdicts += _nonlinear_batch(ctx, H, J, peaks[1:])

    return verdicts


def _konyagin_verdicts(q_min: int, q_max: int, seed: int, budget: int) -> list[Verdict]:
    verdicts = []
    for q in range(max(2, q_min), q_max + 1):
        rng = seeded_rng(seed, q, "konyagin")
        if q > EXACT_MAX_ORDER:
            verdicts.append(_capacity_verdict(
                "konyagin", {"q": q}, CapacityExceeded(f"q={q} > {EXACT_MAX_ORDER}")))
            continue
        dsets = random_subsets(q, 10, rng) if q > 2 else [[1]] * 10
        for i, D in enumerate(dsets[:budget]):
            verdicts.append(check_konyagin(q, D, D_index=i))
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
    # no budget is one larger than any grid, so every claim takes the same cut
    limit = sys.maxsize if budget is None else budget

    verdicts: list[Verdict] = []
    if prime_claims:
        for vs in map_tasks(_suite_for_prime, [(p, prime_claims, seed, limit) for p in primes],
                            workers):
            verdicts.extend(vs)

    if "konyagin" in claims:
        verdicts.extend(_konyagin_verdicts(p_min, p_max, seed, limit))

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
