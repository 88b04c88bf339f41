"""One checker per claimed identity or bound, each returning a structured Verdict:
one row of the batch builder that the suite runs, one batch per claim and modulus
(eps two), with the rows' parameters as columns.

Identity checkers (eq2, granville, konyagin, kernel) decide in integers, off a
certificate (below), keep int64 columns, and demand margin exactly zero.
Inequality checkers work on magnitudes with a fixed absolute tolerance of 1e-9.

The suite reads every numeric bound (thm2, thm2_sharp, eps, meanvalue2,
nonlinear) at p off one subgroup_moduli call: every subgroup's rows, read off one
table of dlog(g^s + 1), give one DFT of dlog histograms per chunk.  granville and
shkredov share one reading of the subgroups, and kernel's rows one certificate.

Each identity holds for every character at once and reduces to a statement
about a character-free count, a certificate, which needs no push-forward to the
characters and no reduction mod Phi_m.  There are two:

- dlog_certificate(ctx), one O(p) pass per field: ctx.dlog is a discrete log,
  and every nonzero difference d has the histogram h1 of dlog b - dlog(b + d).
  eq2 writes its count rows from h1 and |D| alone, and granville its sums from
  dlog(H) = kZ/m.  kernel_certificate(ctx) is this certificate: on a discrete
  log the histogram of dlog(ru + 1) - dlog(u + 1) over u is the kernel's case
  table for every r, which proves every kernel verdict at p (every character,
  shift and pair).
- gcd_class_certificate(counts, m): a count c over Z/m is constant on each class
  {t : gcd(t, m) = g}, so every sum_t c(t) zeta_m^(jt) is an integer (a sum of
  Ramanujan sums); eq2 and konyagin read theirs so, by integer_sums.

Each exact claim has this one route.  make_ctx's tables always pass (exp[0] = 1,
exp[t + 1] = g exp[t] and dlog[exp[t]] = t for t < p - 1 make g primitive and
dlog its discrete log), so a failing certificate raises ArithmeticError, as an
unreachable case does, and yields no verdict.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import math
import os
import random
import sys
import weakref
from dataclasses import dataclass, field
from functools import cache, lru_cache, wraps
from json.encoder import encode_basestring_ascii

import numpy as np

from .characters import Character, character
from .cyclo import HISTOGRAM_CELLS, require_exact_order
from .engines import (
    _require_coprime_shift,
    _require_nonprincipal,
    bilinear_sums,
    nonlinear_exponents,
    shifted_exponents,
)
from .errors import CapacityExceeded, ZeroInD
from .field import (
    FieldCtx,
    Subgroup,
    divisors_from_factorization,
    factorize,
    is_prime,
    make_ctx,
    subgroups,
)
from .values import Weights, numeric_sums, roots

TOL = 1e-9

# the rows of whole (claim, modulus) groups that the verdict walk joins into one
# chunk (Verdicts): params texts and spellings are made once per chunk
CHUNK_ROWS = 4096

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

# the bounds read off subgroup_moduli, one call per prime
NUMERIC_CLAIMS = frozenset({"thm2", "thm2_sharp", "eps", "meanvalue2", "nonlinear"})


# One encoder for every verdict's params.  Its text is taken once per verdict:
# it orders the run (JSON's string order included) and goes into the JSON line.
_PARAMS_JSON = json.JSONEncoder(sort_keys=True, default=str)


def _json_value(v) -> str:
    """_PARAMS_JSON.encode(v), an int (its repr) or a str without the encoder."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    return int.__repr__(v) if type(v) is int else _PARAMS_JSON.encode(v)


# the keys of Verdict.to_record, the columns of verify's csv
RECORD_KEYS = ("claim", "computed", "kind", "margin", "mode", "note", "params", "pass", "target")


@dataclass(slots=True)
class Verdict:
    """One checked instance of a claim.  Its fields hold Python values, never numpy
    scalars (Batch takes them from its numpy columns with item or tolist), which
    the JSON writer would spell through default=str."""

    claim: str
    params: dict
    computed: object
    target: object
    margin: float
    passed: bool
    mode: str
    kind: str = "verdict"  # "verdict" | "capacity"
    note: str = ""
    # params as sorted-key JSON, given by the verdict walk (Verdicts) and encoded
    # here otherwise.  params are final from construction: dataclasses.replace would
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
        """json.dumps(self.to_record(), sort_keys=True, default=str) + "\\n", from
        the batch line writer."""
        return Batch.of(self).lines([self.params_text])[0]


def _params_texts(params: dict, rows: int) -> list[str]:
    """_PARAMS_JSON.encode of each row's params (see Batch), joined from pieces:
    the keys in sorted order, each fixed value encoded once, and each column's
    (a list or an int64 array) distinct values encoded once (_spelled).  Keys are
    strings, which JSON spells as encode_basestring_ascii does."""
    pieces, text = [], "{"
    for n, key in enumerate(sorted(params)):
        text += f"{', ' if n else ''}{encode_basestring_ascii(key)}: "
        value = params[key]
        if isinstance(value, (list, np.ndarray)):
            pieces += itertools.repeat(text), _spelled(value, _json_value)
            text = ""
        else:
            text += _PARAMS_JSON.encode(value)
    text += "}"
    return list(map("".join, zip(*pieces, itertools.repeat(text)))) if pieces else [text] * rows


def _quoted(v) -> str:
    """str(v) as a JSON string."""
    return encode_basestring_ascii(str(v))


def _spelled(values, spell) -> list[str]:
    """spell(v) for each value of a list or a float64 or int64 array, each distinct
    value spelled once.  Arrays and lists of floats alone are told apart by value,
    floats by bit pattern, so 0.0 and -0.0 spell apart: past 64 values by one
    np.unique, below by a dict (faster there; they cross near 200 values).  Other
    values go by equality, unless they differ in type (1, 1.0 and True are equal):
    then each is spelled alone."""
    if not isinstance(values, np.ndarray):
        if len(types := set(map(type, values))) > 1:
            return list(map(spell, values))
        if types <= {float}:
            values = np.array(values, dtype=np.float64)
    keys = values
    if isinstance(values, np.ndarray):
        keys = values.view(np.uint64) if values.dtype.kind == "f" else values
        if len(values) > 64:
            distinct, at = np.unique(keys, return_inverse=True)
            texts = map(spell, distinct.view(values.dtype).tolist())
            return np.array(list(texts), dtype=object)[at].tolist()
        keys, values = keys.tolist(), values.tolist()
    texts = {k: spell(v) for k, v in dict(zip(keys, values)).items()}
    return list(map(texts.__getitem__, keys))


def _joined(values: list, lengths: list):
    """One field of batches of lengths rows, from each batch's value: that value
    when all are one scalar (by type and JSON text), else a column: an int64 array
    when each batch gives one or an int64-ranged int, a list otherwise."""
    if not any(isinstance(v, (list, np.ndarray)) for v in values):
        if len({(type(v), _json_value(v)) for v in values}) == 1:
            return values[0]
        if {type(v) for v in values} == {int} and (column := np.array(values)).dtype == np.int64:
            return np.repeat(column, lengths)
    if all(isinstance(v, np.ndarray) for v in values) and len({v.dtype for v in values}) == 1:
        return np.concatenate(values)
    return [x for v, n in zip(values, lengths) for x in (
        v.tolist() if isinstance(v, np.ndarray) else v if isinstance(v, list) else [v] * n)]


def _each(value):
    """Each row's value of a field or param: a list column's values, an array
    column's as Python scalars (tolist), or the one value repeated."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value if isinstance(value, list) else itertools.repeat(value)


@dataclass(slots=True)
class Batch:
    """Verdicts of one claim, kept as columns: one entry per row in computed,
    target, margin and passed, as arrays (computed and target float64, int64 for
    the exact claims; passed bool) or, in a record built alone, lists.  params maps
    each key, in record order, to one value for every row or to a column (list or
    int64 array).  A builder's batch holds one modulus and one kind, mode and note;
    Batch.join's may hold columns (lists) of those too.

    len(b) is the row count, b[i] builds row i's Verdict of Python scalars,
    b[i:j] is a cut batch, b.verdicts() builds every row's Verdict, b.lines()
    writes every row's JSON line and b.rows() every row's csv cells, from texts,
    each row's params as sorted-key JSON (_params_texts by default).  Batch.of
    wraps one Verdict."""

    claim: str
    params: dict
    computed: list | np.ndarray
    target: list | np.ndarray
    margin: list | np.ndarray
    passed: list | np.ndarray
    mode: str | list
    kind: str | list = "verdict"
    note: str | list = ""

    @classmethod
    def of(cls, v: Verdict) -> Batch:
        # a list-valued param is one row's value, so it becomes a column of one row
        return cls(v.claim, {k: [x] if isinstance(x, list) else x for k, x in v.params.items()},
                   [v.computed], [v.target], [v.margin], [v.passed], v.mode, v.kind, v.note)

    @classmethod
    def join(cls, batches: list) -> Batch:
        """The rows of batches of one claim and params key set, in turn (_joined)."""
        if len(batches) == 1:
            return batches[0]
        n, first = list(map(len, batches)), batches[0]
        return cls(first.claim, {k: _joined([b.params[k] for b in batches], n)
                                 for k in first.params},
                   *(_joined([getattr(b, f.name) for b in batches], n)
                     for f in dataclasses.fields(cls)[2:]))

    def __len__(self) -> int:
        return len(self.computed)

    def __getitem__(self, i, *text):
        # Batch and Verdict take the same fields in the same order, and Verdict the
        # params text after them; item gives a row Python scalars
        cut = isinstance(i, slice)
        at = (lambda c: c[i] if cut or isinstance(c, list) else c[i].item())
        row = (lambda c: at(c) if isinstance(c, (list, np.ndarray)) else c)
        return (Batch if cut else Verdict)(
            self.claim, {k: row(v) for k, v in self.params.items()},
            *map(at, (self.computed, self.target, self.margin, self.passed)),
            *map(row, (self.mode, self.kind, self.note)), *text)

    def verdicts(self, texts=None) -> list[Verdict]:
        """Every row's Verdict, equal to b[i]'s, from each column taken to Python
        scalars once (_each) rather than one item per cell."""
        n, columns = len(self.params), (*self.params.values(), self.computed, self.target,
                                        self.margin, self.passed, self.mode, self.kind, self.note)
        texts = texts or _params_texts(self.params, len(self))
        return [Verdict(self.claim, dict(zip(self.params, row[:n])), *row[n:])
                for row in zip(*map(_each, columns), texts)]

    def lines(self, texts=None) -> list[str]:
        """Each row's json.dumps(record, sort_keys=True, default=str) + "\\n" (see
        Verdict.to_record), written from one template: the claim, kind, mode and
        note encoded once (a kind column's rows go before their margins, and mode or
        note columns' before their params texts), and each distinct computed value,
        margin and target spelled once (_spelled)."""
        s = encode_basestring_ascii
        claim = f'{{"claim": {s(self.claim)}, "computed": '
        spell = float.__repr__ if np.isfinite(self.margin).all() else _json_value
        margins, kind, mode = _spelled(self.margin, spell), "", ""
        texts = texts or _params_texts(self.params, len(self))
        if isinstance(self.kind, list):
            margins = [f', "kind": {s(k)}, "margin": {d}' for k, d in zip(self.kind, margins)]
        else:
            kind = f', "kind": {s(self.kind)}, "margin": '
        if isinstance(self.mode, list) or isinstance(self.note, list):
            texts = [f', "mode": {s(md)}, "note": {s(n)}, "params": {text}'
                     for md, n, text in zip(_each(self.mode), _each(self.note), texts)]
        else:
            mode = f', "mode": {s(self.mode)}, "note": {s(self.note)}, "params": '
        return [f'{claim}{c}{kind}{d}{mode}{text}, "pass": {"true" if ok else "false"}'
                f', "target": {t}}}\n'
                for c, d, text, ok, t in zip(_spelled(self.computed, _quoted), margins, texts,
                                             np.asarray(self.passed).tolist(),
                                             _spelled(self.target, _quoted))]

    def rows(self, texts=None) -> list[list]:
        """Each row's csv cells, in RECORD_KEYS order: the values of
        Verdict.to_record, with the params text as the params cell, and each
        distinct computed value, margin and target spelled once (_spelled) as str,
        which is how csv writes a number."""
        return [[self.claim, c, k, d, md, n, text, ok, t] for c, k, d, md, n, text, ok, t in zip(
            _spelled(self.computed, str), _each(self.kind), _spelled(self.margin, str),
            _each(self.mode), _each(self.note), texts or _params_texts(self.params, len(self)),
            np.asarray(self.passed).tolist(), _spelled(self.target, str))]


def _bound_verdicts(claim: str, params: dict, computed, target, strict: bool) -> Batch:
    """Numeric verdicts computed < target - TOL (strict) or computed <= target + TOL,
    with margin target - computed, for a batch of computed values (target one value
    or one per row), kept as float64 columns."""
    computed = np.asarray(computed, dtype=np.float64)
    target = np.broadcast_to(np.asarray(target, dtype=np.float64), computed.shape)
    passed = computed < target - TOL if strict else computed <= target + TOL
    return Batch(claim, params, computed, target, target - computed, passed, "numeric")


def _identity_verdicts(claim: str, params: dict, computed: np.ndarray, target) -> Batch:
    """Exact verdicts computed == target, with margin computed - target, for int64
    computed integers (target one value or one per row), kept as int64 columns."""
    target = np.broadcast_to(np.asarray(target, dtype=np.int64), computed.shape)
    return Batch(claim, params, computed, target, (computed - target).astype(np.float64),
                 computed == target, "exact")


def _capacity_verdict(claim: str, params: dict, err: Exception) -> Verdict:
    return Verdict(claim, params, "skipped", "skipped", float("nan"), False, "exact",
                   kind="capacity", note=str(err))


# ---------------------------------------------------------------------------
# the numeric kernel: one DFT of a dlog histogram gives every character's sum
# ---------------------------------------------------------------------------

def _histogram_moduli(m: int, ends: list, cells) -> tuple[np.ndarray, np.ndarray]:
    """|sum_t c(t) e^(-2 pi i jt/m)| for rows c of dlog histograms over Z/m, segment
    s the rows ends[s-1] to ends[s], as (each segment's row means over j; its max
    over its rows, per j).  cells(lo, hi) gives rows lo to hi's cells (r - lo) m + t:
    a chunk of at most HISTOGRAM_CELLS cells, one FFT and one max per segment (faster
    than np.maximum.reduceat).  No value depends on where the chunks fall."""
    rows, step = ends[-1], max(1, HISTOGRAM_CELLS // m)
    means, peaks = np.empty(rows), np.zeros((len(ends), m))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        counts = np.bincount(cells(lo, hi), minlength=(hi - lo) * m)
        moduli = np.abs(np.fft.fft(counts.reshape(hi - lo, m), axis=1))
        means[lo:hi] = moduli.sum(axis=1) / m
        for s in range(bisect.bisect_right(ends, lo), bisect.bisect_right(ends, hi - 1) + 1):
            a, b = max(lo, ends[s - 1] if s else 0), min(hi, ends[s])
            np.maximum(peaks[s], np.maximum.reduce(moduli[a - lo:b - lo]), out=peaks[s])
    return [means[a:b] for a, b in zip([0, *ends], ends)], peaks


def character_sum_moduli(ctx: FieldCtx, segments) -> tuple[list[np.ndarray], np.ndarray]:
    """|sum_{x in row} chi_j(x)| for every row of residues and character j, per segment,
    a nonempty 2-d array of rows: (the mean over all p-1 characters, per row; the max
    over the rows, per j), read off each row's dlog histogram by _histogram_moduli."""
    m = ctx.p - 1
    rows = [row for s in segments for row in np.asarray(s, dtype=np.int64)]
    starts = np.cumsum([0, *map(len, rows)])
    logs = ctx.dlog[np.concatenate(rows)]  # dlog[0] = -1 drops the cell: chi(0) = 0

    def cells(lo, hi):
        t = logs[starts[lo]:starts[hi]]
        return (np.repeat(np.arange(hi - lo) * m, np.diff(starts[lo:hi + 1])) + t)[t >= 0]

    return _histogram_moduli(m, np.cumsum([len(s) for s in segments]).tolist(), cells)


def subgroup_moduli(ctx: FieldCtx, Hs: list, shifted: bool, nonlinear: bool,
                    inner: bool = True):
    """(means, peaks, inner, nonlinear_peaks), entry i for Hs[i] and None where not
    asked for, from one _histogram_moduli call over the rows shifted, inner, then
    nonlinear, each H-major: the character means on the rows H + g^i, 0 <= i < k =
    H.index, and each character's max over them, its moduli on H, and its max over
    the rows x(x + g^i).  x -> hx, a -> ha keeps |S(a)| and |sum_H chi(x(x + a))|.

    No residue is built.  With m = p - 1, x = g^(kt) in H, L(s) = dlog(g^s + 1) and
    s = (kt - i) mod m, x + g^i = g^i (g^s + 1), so, mod m,
        dlog(x + g^i) = i + L(s),  dlog(x(x + g^i)) = s + 2i + L(s),  dlog x = s + i:
    the coset identity S(a) = chi(a) sum_{y in a^-1 H} chi(y + 1).  Row i reads
    s = ku + (-i mod k), u < |H|, in a table of L, s + L(s) or s (inner: i = 0) and
    adds i, 2i or 0; L(m/2) = dlog 0 is -4m, so its cells are negative and dropped.
    On make_ctx's tables each row counts its residues' dlogs: every bit out is theirs."""
    m = ctx.p - 1
    L = np.where(ctx.exp == m, -4 * m, ctx.dlog[(ctx.exp + 1) % ctx.p])
    table = np.concatenate((L, np.arange(m), np.arange(m) + L))  # shifted, inner, nonlinear
    k = np.array([H.index for H in Hs], dtype=np.int64)
    coset_k = np.repeat(k, k)  # each row H + g^i's k, i and first s
    i = np.arange(len(coset_k)) - np.repeat(np.cumsum(k) - k, k)
    first = -i % coset_k
    # each kind: asked, its rows' k, first table index and offset, its segments' lengths
    kinds = [(shifted, coset_k, first, i, k), (inner, k, 0 * k + m, 0 * k, 0 * k + 1),
             (nonlinear, coset_k, first + 2 * m, 2 * i, k)]
    row_k, first, offset, lengths = map(np.concatenate, zip(*(c[1:] for c in kinds if c[0])))

    def cells(lo, hi):
        row = np.repeat(np.arange(hi - lo), w := m // row_k[lo:hi])  # w: the rows' widths
        u = np.arange(len(row)) - (np.cumsum(w) - w)[row]
        at = table[row_k[lo:hi][row] * u + first[lo:hi][row]] + offset[lo:hi][row]
        return (at % m + row * m)[at >= 0]

    means, peaks = _histogram_moduli(m, np.cumsum(lengths).tolist(), cells)
    blocks = iter(peaks.reshape(-1, len(Hs), m))
    return (means[:len(Hs)] if shifted else None,
            *(next(blocks) if asked else None for asked in (shifted, inner, nonlinear)))


# ---------------------------------------------------------------------------
# sqrt(p) bound on the shifted subgroup sum, and its sharpened form
# ---------------------------------------------------------------------------

def _thm2_batch(ctx: FieldCtx, H, chi, peaks) -> Batch:
    """thm2, one row per subgroup order H[i] and character chi[i]: peaks[i] is the
    character's maximum over nonzero shifts a of |sum_{x in H} chi(x+a)|, which must
    be strictly below sqrt(p)."""
    return _bound_verdicts("thm2", {"p": ctx.p, "chi": chi, "H": H}, peaks,
                           math.sqrt(ctx.p), strict=True)


def _thm2_sharp_batch(ctx: FieldCtx, H, chi, peaks, inner) -> Batch:
    """|S(a)|^2 <= (p|H| - |sum_{x in H} chi(x)|^2) / |H| for every nonzero a, one row
    per (H[i], chi[i]) as in _thm2_batch; inner[i] is the unshifted |sum_{x in H} chi(x)|.
    Squares are taken with float_power, the libm pow that Python's x ** 2 calls
    (x * x can round otherwise)."""
    n = np.asarray(H, dtype=np.int64)
    target = (ctx.p * n - np.float_power(inner, 2)) / n
    return _bound_verdicts("thm2_sharp", {"p": ctx.p, "chi": chi, "H": H},
                           np.float_power(peaks, 2), target, strict=False)


def _eps_batches(ctx: FieldCtx, H, chi, peaks, eps: float) -> list[Batch]:
    """For |H| > p^(1/2+eps): max nonzero-shift |S| < p^(-eps) |H|; vacuous otherwise.
    One row per (H[i], chi[i]) as in _thm2_batch, H ascending, so the vacuous rows
    lead: they make one batch, noted "vacuous", and the other rows a second; a batch
    without rows is left out."""
    p = ctx.p
    rows = _bound_verdicts("eps", {"p": p, "chi": chi, "H": H, "eps": eps}, peaks,
                           p ** (-eps) * np.asarray(H, dtype=np.int64), strict=True)
    cut = np.searchsorted(H, p ** (0.5 + eps), side="right")
    zeros = np.zeros(cut)
    vacuous = dataclasses.replace(rows[:cut], computed=zeros, target=zeros, margin=zeros,
                                  passed=np.ones(cut, dtype=bool), note="vacuous")
    return [b for b in (vacuous, rows[cut:]) if len(b)]


def _shift_peak(ctx: FieldCtx, chi: Character, H: Subgroup) -> tuple[float, float]:
    """(max over nonzero shifts a of |sum_{x in H} chi(x+a)|, |sum_{x in H} chi(x)|)
    for one nonprincipal character, read off the rows H and H + g^i: S(ah) = chi(h) S(a)
    for h in H, so the k coset representatives g^i give every nonzero shift.  The
    suite reads both off subgroup_moduli."""
    _require_nonprincipal(chi)
    shifts = np.append(0, ctx.exp[:H.index])
    moduli = np.abs(numeric_sums(shifted_exponents(ctx, chi, H.elements, shifts), ctx.p - 1))
    return moduli[1:].max(), moduli[0]


def check_theorem2(ctx: FieldCtx, chi: Character, H: Subgroup) -> Verdict:
    """max over nonzero shifts a of |sum_{x in H} chi(x+a)| is strictly below sqrt(p)."""
    peak, _ = _shift_peak(ctx, chi, H)
    return _thm2_batch(ctx, [H.order], [chi.index], [peak])[0]


def check_sharpened_theorem2(ctx: FieldCtx, chi: Character, H: Subgroup) -> Verdict:
    """|S(a)|^2 <= (p|H| - |sum_{x in H} chi(x)|^2) / |H| for every nonzero a."""
    peak, inner = _shift_peak(ctx, chi, H)
    return _thm2_sharp_batch(ctx, [H.order], [chi.index], [peak], [inner])[0]


def check_eps_corollary(ctx: FieldCtx, chi: Character, H: Subgroup, eps: float) -> Verdict:
    """For |H| > p^(1/2+eps): max nonzero-shift |S| < p^(-eps) |H|; vacuous otherwise."""
    peak, _ = _shift_peak(ctx, chi, H)
    return _eps_batches(ctx, [H.order], [chi.index], [peak], eps)[0][0]


@lru_cache(maxsize=2)
def _gcd_classes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(divs, table) for Z/m, kept for the two latest m (a suite task reads q = n
    for konyagin, then m = n - 1 for eq2 and granville), with nothing m long.  divs
    holds the divisors g of m, ascending, the gcd classes (t's is gcd(t, m)), and
    table[i, k] is the Ramanujan sum c_(m/g_i)(g_k), its value at every j of class
    k, so table[:, -1] (j = 0) holds the class sizes phi(m/g_i).  c_n is
    multiplicative in n, and c_(q^a)(j) = q^a [q^a | j] - q^(a-1) [q^(a-1) | j]."""
    fac = factorize(m)
    divs = np.array(divisors_from_factorization(fac), dtype=np.int64)
    n, j = m // divs[:, None], divs[None, :]
    table = np.ones((len(divs), len(divs)), dtype=np.int64)
    for q, e in fac.items():
        qa = np.gcd(n, q**e)  # q^a, a the power of q in n; a = 0 gives a factor 1
        table *= (j % qa == 0) * qa - (j % np.maximum(qa // q, 1) == 0) * (qa // q)
    return divs, table


def _class_of(t, m: int) -> np.ndarray:
    """Each t's gcd class mod m: the index of gcd(t, m) in _gcd_classes(m)'s divs."""
    return np.searchsorted(_gcd_classes(m)[0], np.gcd(t, m))


def gcd_class_certificate(counts: np.ndarray, m: int) -> np.ndarray:
    """Whether each row c of counts over Z/m is constant on every gcd class.  The t
    of class g sum zeta_m^(jt) to the Ramanujan sum c_(m/g)(j) (Hardy & Wright, An
    Introduction to the Theory of Numbers, 16.6), so then
    sum_t c(t) zeta_m^(jt) = sum_g c(g) c_(m/g)(j)."""
    return (counts == counts[:, _gcd_classes(m)[0] % m][:, _class_of(np.arange(m), m)]).all(1)


def integer_sums(counts: np.ndarray, m: int, J) -> np.ndarray:
    """sum_t c(t) zeta_m^(jt) for each row c of the int64 counts over Z/m and each j
    in J (0 <= j < m), an int64 array read off _gcd_classes' table: each row must
    pass gcd_class_certificate, so its sum at j is sum_g c(g) c_(m/g)(j), and each
    term is at most the class's sum of |c|.  A row that fails raises
    ArithmeticError: the builders hand over class-constant counts alone."""
    divs, table = _gcd_classes(m)
    failed = np.flatnonzero(~gcd_class_certificate(counts, m))
    if len(failed):
        raise ArithmeticError(f"count row {failed[0]} over Z/{m} is not constant on its gcd classes")
    return (counts[:, divs % m] @ table)[:, _class_of(J, m)]


def _per_ctx(certify):
    """certify, its result kept while ctx lives (weakly keyed: it keeps no table)."""
    held = weakref.WeakKeyDictionary()
    return wraps(certify)(lambda c: held[c] if c in held else held.setdefault(c, certify(c)))


@_per_ctx
def dlog_certificate(ctx: FieldCtx) -> bool:
    """True when ctx.dlog is the discrete log to base ctx.g, checked against ctx.exp,
    and the histogram h1 of dlog b - dlog(b + 1) over b not in {0, -1} is 1 at
    every t != 0 and 0 at t = 0, both read HISTOGRAM_CELLS residues at a time;
    kept while ctx lives.  The m - 1 differences meet the m - 1 targets t != 0
    each once, and so miss t = 0, exactly when they mark every t != 0: one bool
    mark per t stands for h1.  Then b = db' gives every difference d != 0 the
    histogram h1, and dlog(H) is the multiples of H's index."""
    p, m, dlog, exp = ctx.p, ctx.p - 1, ctx.dlog, ctx.exp
    if dlog[0] != -1 or exp[0] != 1:
        return False
    marked = np.zeros(m, dtype=bool)  # the differences t that some b gives
    for lo in range(0, m, HISTOGRAM_CELLS):
        hi = min(lo + HISTOGRAM_CELLS, m)
        if not (np.array_equal(exp[lo + 1:hi + 1], exp[lo:min(hi, m - 1)] * ctx.g % p)
                and np.array_equal(dlog[exp[lo:hi]], np.arange(lo, hi))):
            return False
        diff = dlog[lo + 1:min(hi + 1, m)] - dlog[lo + 2:min(hi + 2, p)]  # b in [1, p - 2]
        diff %= m
        marked[diff] = True
    return bool(marked[1:].all())


def _require_certificate(holds: bool, ctx: FieldCtx) -> None:
    """Raise ArithmeticError when a dlog certificate fails at ctx: unreachable for
    a table make_ctx built, and no exact claim is decided without one."""
    if not holds:
        raise ArithmeticError(f"dlog at p = {ctx.p} is not the discrete log to base {ctx.g}")


# ---------------------------------------------------------------------------
# exact mean-value identity  sum_a |S(a)|^2 = p|D| - |D|^2
# ---------------------------------------------------------------------------

def _eq2_batch(ctx: FieldCtx, sets: list, D_index: list | None = None) -> Batch:
    """One eq2 verdict per (D, chi) row, as one batch: sets lists (D, chis) pairs,
    and each set D, nonempty and in F_p^*, gives one row per nonprincipal character
    in chis, D-major, written from |D| alone (_eq2_sized_batch).  D_index, if
    given, holds each set's suite index, which goes into the params."""
    _require_nonprincipal(*dict.fromkeys(itertools.chain.from_iterable(c for _, c in sets)))
    dsets = [{d % ctx.p for d in D} for D, _ in sets]
    for Ds in dsets:
        if not Ds:
            raise ValueError("D must be nonempty")
        if 0 in Ds:
            raise ZeroInD("D must be a subset of the nonzero residues")
    return _eq2_sized_batch(ctx, list(map(len, dsets)),
                            [[c.index for c in chis] for _, chis in sets], D_index)


def _eq2_sized_batch(ctx: FieldCtx, sizes: list, chis: list, D_index=None) -> Batch:
    """eq2's batch for sets D given by their sizes: set i has sizes[i] elements and
    one row per character index in chis[i], D-major (D_index as in _eq2_batch).

    chi_j(x+a) conj chi_j(y+a) = zeta_m^(j (dlog(x+a) - dlog(y+a))), so one
    character-free count c(t) of the dlog differences t over (x, y, a) gives every
    sum for a set D, and one integer_sums call reads every set's sums.  Under
    dlog_certificate, which must hold, c = |D|(p - 1) [t = 0] + (|D|^2 - |D|) h1,
    flat off t = 0 (h1 is 1 there), so it passes the gcd-class certificate."""
    p, m = ctx.p, ctx.p - 1
    require_exact_order(m)
    _require_certificate(dlog_certificate(ctx), ctx)
    chi = np.concatenate([np.empty(0, dtype=np.int64), *(np.asarray(c, np.int64) for c in chis)])
    J, at = np.unique(chi, return_inverse=True)  # every character asked for, read for every set
    n = np.array(sizes, dtype=np.int64)
    counts = np.repeat((n * n - n)[:, None], m, axis=1)
    counts[:, 0] = n * m
    D = np.repeat(np.arange(len(n)), [len(c) for c in chis])  # each row's set
    params = {"p": p, "chi": chi, "D_size": n[D]}
    if D_index is not None:
        params["D_index"] = np.asarray(D_index, dtype=np.int64)[D]
    return _identity_verdicts("eq2", params, integer_sums(counts, m, J)[D, at], (p * n - n * n)[D])


def check_eq2_identities(ctx: FieldCtx, chis, D) -> Batch:
    """One eq2 verdict per nonprincipal character in chis, as one batch, for the
    same set D."""
    return _eq2_batch(ctx, [(D, chis)])


def check_eq2_identity(ctx: FieldCtx, chi: Character, D) -> Verdict:
    """sum_a |sum_{x in D} chi(x+a)|^2 = p|D| - |D|^2, exactly, for one character."""
    return check_eq2_identities(ctx, [chi], D)[0]


# ---------------------------------------------------------------------------
# character-averaged bound  (1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|)
# ---------------------------------------------------------------------------

def _meanvalue2_batch(ctx: FieldCtx, H, shifts, averages) -> Batch:
    """(1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|), one row per subgroup
    order H[i] and shift a = shifts[i] in [1, p), with averages[i] that mean."""
    return _bound_verdicts("meanvalue2", {"p": ctx.p, "H": H, "a": shifts}, averages,
                           np.sqrt(np.asarray(H, dtype=np.float64)), strict=False)


def check_meanvalue2(ctx: FieldCtx, H: Subgroup, a: int) -> Verdict:
    """(1/(p-1)) sum_chi |sum_{n in H} chi(n+a)| <= sqrt(|H|) at one nonzero shift a."""
    p = ctx.p
    _require_coprime_shift(p, a)
    (average,), _ = character_sum_moduli(ctx, [[(H.elements + a) % p]])
    return _meanvalue2_batch(ctx, [H.order], [a % p], average)[0]


# ---------------------------------------------------------------------------
# exact full-dual-group identity  sum_chi |sum_{n in H} chi(n)| = p - 1
# ---------------------------------------------------------------------------

def _granville_batches(ctx: FieldCtx, Hs: list) -> tuple[Batch, Batch]:
    """The granville and shkredov batches, one row per subgroup H in Hs, whose
    computed value is sum_chi |sum_{n in H} chi(n)|.  The inner sum depends on j
    only through g = gcd(j, m), so it is read at j = g alone and counted for the
    phi(m/g) characters of class g.  Under dlog_certificate, which must hold,
    dlog(H) is kZ/m, k = H.index, whose value on the class of g is [k | g]: the
    sums are read off the Ramanujan table, with no element of H, and each is |H|
    where |H| divides g and 0 otherwise."""
    p, m = ctx.p, ctx.p - 1
    _require_certificate(dlog_certificate(ctx), ctx)
    divs, table = _gcd_classes(m)
    k = np.array([H.index for H in Hs], dtype=np.int64)
    sums = (divs % k[:, None] == 0).astype(np.int64) @ table
    totals = np.abs(sums) @ table[:, -1]  # table[:, -1]: the class sizes
    params = {"p": p, "H": m // k}
    granville = _identity_verdicts("granville", params, totals, m)
    shkredov = Batch("shkredov", params, totals, np.full(len(k), p),
                     (p - totals).astype(np.float64), totals <= p, "exact")
    return granville, shkredov


def check_granville(ctx: FieldCtx, H: Subgroup) -> Verdict:
    """sum_chi |sum_{n in H} chi(n)| = p - 1, exactly."""
    return _granville_batches(ctx, [H])[0][0]


def check_shkredov_bound(ctx: FieldCtx, H: Subgroup) -> Verdict:
    """sum_chi |sum_{n in H} chi(n)| <= p, exactly."""
    return _granville_batches(ctx, [H])[1][0]


# ---------------------------------------------------------------------------
# exact identity for exponential sums over a general modulus q
# ---------------------------------------------------------------------------

def _konyagin_batch(q: int, dsets: list, D_index: list | None = None) -> Batch:
    """sum_{a=1}^{q-1} |sum_{x in D} e_q(ax)|^2 = |D|(q - |D|), exactly, one verdict
    per set D in dsets, as one batch (D_index, if given, holds each set's suite
    index for the params).  e_q(ax) conj e_q(ay) = e_q(-ad), d = y - x, and -ad
    over a in [0, q) hits t sum_{k | gcd(d, q)} c_k(t) times (c_k the Ramanujan
    sum), so t's count is c(t) = sum_{k | q} N_k c_k(t) - |D|^2 [t = 0], N_k the
    pairs with x = y mod k: int64, constant on gcd classes, read by integer_sums."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    dsets = [sorted({x % q for x in D}) for D in dsets]
    if not all(dsets):
        raise ValueError("D must be nonempty")
    require_exact_order(q)  # kept for memory: q-length count rows and sets, ~275 B per q
    divs, table = _gcd_classes(q)
    sizes, n, x = np.array([len(D) for D in dsets]), len(dsets), np.concatenate(dsets)
    cell = np.repeat(np.arange(n), sizes)  # N_k from the cells (set) k + x mod k, k = q/g_i
    N = np.stack([np.square(np.bincount(cell * k + x % k, minlength=n * k)).reshape(n, k)
                  .sum(axis=1) for k in (q // divs).tolist()], axis=1)
    counts = (N @ table)[:, _class_of(np.arange(q), q)]
    counts[:, 0] -= np.square(sizes)  # a = 0 is left out
    params = {"q": q, "D_size": sizes}
    if D_index is not None:
        params["D_index"] = np.asarray(D_index, dtype=np.int64)
    return _identity_verdicts("konyagin", params, integer_sums(counts, q, [1])[:, 0],
                              sizes * (q - sizes))


def check_konyagin(q: int, D) -> Verdict:
    """sum_{a=1}^{q-1} |sum_{x in D} e_q(ax)|^2 = |D|(q - |D|), exactly."""
    return _konyagin_batch(q, [D])[0]


# ---------------------------------------------------------------------------
# bilinear bound |S|, |S'| <= sqrt(pXY) and the proof kernel's case table
# ---------------------------------------------------------------------------

def _lemma3_batch(ctx: FieldCtx, chis: list, xi: np.ndarray, eta: np.ndarray, shifts: list,
                  instances: list | None = None) -> Batch:
    """|S|, |S'| <= sqrt(pXY) for stacked instances: row i of the weights xi and eta
    (residues on the last axis) goes with chis[i] and shifts[i], and is tagged
    instances[i] when given.  S and S' come from one bilinear_sums pass, over the
    value tables of the distinct characters, read by one roots call: each root is
    the direct formula on chi's own exponent, so each table is chi.value_table()."""
    p = ctx.p
    _require_nonprincipal(*chis)
    _require_coprime_shift(p, *shifts)
    js, rows = np.unique([chi.index for chi in chis], return_inverse=True)
    exponents = js[:, None] * ctx.dlog % (p - 1)
    exponents[:, 0] = -1
    S, Sp = bilinear_sums(ctx, roots(exponents, p - 1)[rows], xi, eta, shifts)
    X, Y = np.sum(np.abs(np.stack((xi, eta))) ** 2, axis=-1)
    params = {"p": p, "chi": js[rows], "a": np.array(shifts, dtype=np.int64) % p}
    if instances is not None:
        params["instance"] = instances
    # |z| as hypot, the libm call of Python's abs(complex); numpy's complex
    # absolute loop can round otherwise
    computed = np.maximum(np.hypot(S.real, S.imag), np.hypot(Sp.real, Sp.imag))
    return _bound_verdicts("lemma3", params, computed, np.sqrt(p * X * Y), strict=False)


def check_lemma3(ctx: FieldCtx, chi: Character, xi: Weights, eta: Weights, a: int) -> Verdict:
    return _lemma3_batch(ctx, [chi], xi.values[None], eta.values[None], [a])[0]


def kernel_certificate(ctx: FieldCtx) -> bool:
    """True when the proof kernel sum_x chi(xy + a) conj(chi(x*y1 + a)) equals its
    case table for every nonprincipal chi, every shift a != 0 and every pair
    (y, y1) at p: that is, when ctx.dlog is a discrete log (dlog_certificate).

    For y1 != 0, x = a*u/y1 is a bijection of F_p that turns the exponent
    dlog(xy + a) - dlog(x*y1 + a) into dlog(ru + 1) - dlog(u + 1), r = y/y1, so the
    sum is sum_t h_r(t) zeta^(jt), h_r(t) the number of u with ru + 1 = g^t(u + 1),
    both sides nonzero.  For r >= 2 that has exactly one solution
    u = (g^t - 1)/(r - g^t), or none when g^t = r, so the sum is -chi(r); for r = 1
    the count is p - 1 at t = 0, so the sum is p - 1; for r = 0 (y = 0) every t
    appears once, so the sum is 0.  For y1 = 0 != y, x = a*u/y gives the terms
    chi(u + 1), every t once too; y = y1 = 0 sums to p.  _kernel_batch raises
    ArithmeticError when it fails, so no kernel verdict is decided otherwise."""
    return dlog_certificate(ctx)


def _kernel_batch(ctx: FieldCtx, chis: list, shifts: list, pairs: int | None = None) -> Batch:
    """Exact check that sum_x chi(xy+a) conj(chi(x*y1+a)) matches its four-case
    closed form for a count of (y, y1) pairs (default: the full grid, p^2 pairs),
    one row per character chis[i] and shift a = shifts[i].

    kernel_certificate(ctx), which must hold, proves every row at every pair, so
    no pair is read or drawn, and computed, the mismatches, is 0."""
    _require_nonprincipal(*chis)
    _require_coprime_shift(ctx.p, *shifts)
    p = ctx.p
    require_exact_order(p - 1)
    _require_certificate(kernel_certificate(ctx), ctx)
    params = {"p": p, "chi": np.array([chi.index for chi in chis], dtype=np.int64),
              "a": np.array(shifts, dtype=np.int64) % p, "pairs": p * p if pairs is None else pairs}
    return _identity_verdicts("kernel", params, np.zeros(len(chis), dtype=np.int64), 0)


def check_kernel_cases(ctx: FieldCtx, chi: Character, a: int, pairs=None) -> Verdict:
    """The kernel's case table for one character and shift (see _kernel_batch)."""
    return _kernel_batch(ctx, [chi], [a], None if pairs is None else len(pairs))[0]


# ---------------------------------------------------------------------------
# nonlinear sum bound  |sum_{x in H} chi(x(x+a))| <= sqrt(p)
# ---------------------------------------------------------------------------

def _nonlinear_batch(ctx: FieldCtx, H, chi, peaks) -> Batch:
    """|sum_{x in H} chi(x(x+a))| <= sqrt(p) for every nonzero shift a, one verdict
    per subgroup order H[i] and character chi[i]; peaks[i] is its maximum over a."""
    return _bound_verdicts("nonlinear", {"p": ctx.p, "chi": chi, "H": H, "a": "all"},
                           peaks, math.sqrt(ctx.p), strict=False)


def check_nonlinear_bound_all_shifts(ctx: FieldCtx, chi: Character, H: Subgroup) -> Verdict:
    """One verdict per (H, chi) covering every nonzero shift a: the maximum of
    |sum_{x in H} chi(x(x + a))| over the coset representatives a = g^i (see
    subgroup_moduli)."""
    _require_nonprincipal(chi)
    exponents = nonlinear_exponents(ctx, chi, H, ctx.exp[:H.index])
    peak = np.abs(numeric_sums(exponents, ctx.p - 1)).max()
    return _nonlinear_batch(ctx, [H.order], [chi.index], [peak])[0]


# ---------------------------------------------------------------------------
# seeded instance generation
# ---------------------------------------------------------------------------

def seeded_rng(seed: int, p: int, label: str) -> random.Random:
    return random.Random(f"{seed}|{p}|{label}")


def subset_sizes(p: int, count: int) -> list[int]:
    """random_subsets' sizes, whatever rng draws: 1, 2, isqrt(p), p // 2 in turn, capped."""
    sizes = [1, 2, max(1, math.isqrt(p)), max(1, p // 2)]
    return [min(sizes[i % len(sizes)], p - 1) for i in range(count)]


def random_subsets(p: int, count: int, rng: random.Random) -> list[list[int]]:
    """Seeded subsets of [1, p-1] covering boundary and typical sizes (subset_sizes)."""
    return [sorted(rng.sample(range(1, p), size)) for size in subset_sizes(p, count)]


def _decoded_weights(draws: list[int], n: int) -> np.ndarray:
    """Row i: the n complex weights of draws[i] = rng.getrandbits(128 n), real then
    imaginary part each -1 + 2 * random() of the next two of its 32-bit words.

    getrandbits fills its result from the least significant word up, one word per
    Mersenne Twister output, and random() reads two outputs as
    ((w0 >> 5) 2^26 + (w1 >> 6)) / 2^53, exact in float64; so the bits and the
    generator's state are those of 2n random() calls."""
    words = np.frombuffer(b"".join(d.to_bytes(16 * n, "little") for d in draws),
                          dtype="<u4").reshape(-1, 2)
    r = ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) * 2.0**-53
    return (-1 + 2 * r).view(complex).reshape(len(draws), n)


def random_weights(p: int, rng: random.Random) -> Weights:
    """p complex weights, real then imaginary part each -1 + 2 * rng.random(),
    which is what rng.uniform(-1, 1) computes."""
    return Weights(_decoded_weights([rng.getrandbits(128 * p)], p)[0])


def _lemma3_draws(p: int, rng: random.Random, count: int) -> tuple[np.ndarray, np.ndarray, list]:
    """count lemma3 instances (xi, eta, shift), drawn as random_weights(p, rng),
    random_weights(p, rng) and rng.randrange(1, p) in turn would draw them, and
    decoded in one pass: (xi rows, eta rows, shifts).  One getrandbits(256 p) per
    instance fills the words of both weight draws in turn, xi's the low half."""
    draws, shifts = [], []
    for _ in range(count):
        draws.append(rng.getrandbits(256 * p))
        shifts.append(rng.randrange(1, p))
    weights = _decoded_weights(draws, 2 * p)
    return weights[:, :p], weights[:, p:], shifts


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

def _first(claim: str, params: dict, build, budget: int) -> list[Batch]:
    """The first budget rows of the batches that build() gives for claim, built only
    as far as needed, the last one cut partway; or, when building raises
    CapacityExceeded, the claim's one capacity record (params), with no partial batch."""
    kept = []
    try:
        for b in build():
            kept.append(b if len(b) <= budget else b[:budget])
            budget -= len(b)
            if budget <= 0:
                break
    except CapacityExceeded as e:
        return [Batch.of(_capacity_verdict(claim, params, e))]
    return kept


def _suite_for_prime(p: int, claims: tuple, seed: int, budget: int) -> list[Batch]:
    """Every claim's batches at p: one batch per claim (eps two), with the rows'
    parameters as columns, built by the claim's builder inside _first, which keeps
    the first budget rows.  Each builder builds only the rows the budget keeps.

    The numeric claims read one subgroup_moduli call, H-major.  A subgroup gives a
    claim one row per nonprincipal character, or per nonzero shift for meanvalue2,
    so only the first ceil(budget / rows) subgroups are counted.  granville and
    shkredov share one _granville_batches reading of the first budget subgroups."""
    try:
        ctx = make_ctx(p)
    except CapacityExceeded as e:
        return [Batch.of(_capacity_verdict(c, {"p": p}, e)) for c in claims]
    m = p - 1
    Hs = subgroups(ctx)

    numeric = NUMERIC_CLAIMS.intersection(claims)
    if numeric:
        reached = Hs[:-(-budget // (m if numeric == {"meanvalue2"} else m - 1))]
        means, peaks, inner, nonlinear_peaks = subgroup_moduli(
            ctx, reached, shifted=bool(numeric - {"nonlinear"}),
            nonlinear="nonlinear" in numeric, inner="thm2_sharp" in numeric)
        sizes = np.array([H.order for H in reached], dtype=np.int64)
        # the H and chi columns of the character claims: one row per (H, j), H-major
        orders = np.repeat(sizes, m - 1)
        chi_index = np.tile(np.arange(1, m), len(reached))

    def meanvalue2():  # one row per (H, a), a's mean read off its coset's row: one gather
        k = m // sizes
        rows = (np.cumsum(k) - k)[:, None] + ctx.dlog[1:] % k[:, None]
        yield _meanvalue2_batch(ctx, np.repeat(sizes, m), np.tile(np.arange(1, p), len(sizes)),
                                np.concatenate(means)[rows.ravel()])

    @cache
    def granville():  # one reading of the subgroups the budget keeps, for both claims
        return _granville_batches(ctx, Hs[:budget])

    def eq2():  # the kept (D, chi) rows, D-major; D's size alone: no set is drawn or read
        sizes = [*ctx.divisors, *subset_sizes(p, 20)][:-(-budget // (m - 1))]
        chis = [np.arange(1, m)[:budget - i * (m - 1)] for i in range(len(sizes))]
        yield _eq2_sized_batch(ctx, sizes, chis, range(len(sizes)))

    def lemma3():  # five instances per drawn character, drawn in order; one batch
        rng = seeded_rng(seed, p, "lemma3")
        chis = [character(ctx, 1 + rng.randrange(m - 1)) for _ in range(min(5, m - 1))]
        # weights are drawn for the kept instances only, the first ones drawn
        grid = [(ci, w) for ci in range(len(chis)) for w in range(5)][:budget]
        xi, eta, shifts = _lemma3_draws(p, rng, len(grid))
        yield _lemma3_batch(ctx, [chis[ci] for ci, _ in grid], xi, eta, shifts,
                            [f"{ci}:{w}" for ci, w in grid])

    def kernel():  # five (chi, a) combos, over the full grid or, past p = 101, 500 pairs
        rng = seeded_rng(seed, p, "kernel")
        combos = [(1 + rng.randrange(m - 1), rng.randrange(1, p)) for _ in range(min(5, m - 1))]
        chis = [character(ctx, j) for j, _ in combos[:budget]]  # the kept combos' only
        yield _kernel_batch(ctx, chis, [a for _, a in combos[:budget]], 500 if p > 101 else None)

    # each claim's batches, built when the claim is read; the peaks drop character 0
    batches = {
        "thm2": lambda: [_thm2_batch(ctx, orders, chi_index, peaks[:, 1:].ravel())],
        "thm2_sharp": lambda: [_thm2_sharp_batch(ctx, orders, chi_index, peaks[:, 1:].ravel(),
                                                 inner[:, 1:].ravel())],
        "eps": lambda: _eps_batches(ctx, orders, chi_index, peaks[:, 1:].ravel(), eps=0.1),
        "eq2": eq2,
        "lemma3": lemma3,
        "kernel": kernel,
        "meanvalue2": meanvalue2,
        "granville": lambda: granville()[:1],
        "shkredov": lambda: granville()[1:],
        "nonlinear": lambda: [_nonlinear_batch(ctx, orders, chi_index,
                                               nonlinear_peaks[:, 1:].ravel())],
    }
    return [b for c in claims for b in _first(c, {"p": p}, batches[c], budget)]


def _suite_for_modulus(n: int, claims: tuple, seed: int, budget: int) -> list[Batch]:
    """Every claim's batches at the modulus n: konyagin's for q = n (one batch over
    the sets D that the budget keeps), then the other claims' when n is an odd
    prime (_suite_for_prime)."""
    def konyagin():
        dsets = random_subsets(n, 10, seeded_rng(seed, n, "konyagin"))[:budget]
        yield _konyagin_batch(n, dsets, list(range(len(dsets))))

    batches = []
    if "konyagin" in claims:
        batches = _first("konyagin", {"q": n}, konyagin, budget)
    prime_claims = tuple(c for c in claims if c != "konyagin")
    if prime_claims and n > 2 and is_prime(n):
        batches += _suite_for_prime(n, prime_claims, seed, budget)
    return batches


class Verdicts:
    """A run's verdicts, kept as the batches that built them and read in one order:
    that of a stable sort of every verdict by (claim, params["p"] or params["q"],
    params text).  The batches are grouped by (claim, modulus) with a stable sort,
    and a group's batches must share their params keys.

    Every read walks chunks in that order, one at a time: whole groups of one claim
    and one params key set, merged up to CHUNK_ROWS rows (a larger group alone).  A
    chunk's batches are joined (Batch.join), its params texts built once, one item
    made per row (iterating gives each Verdict, lines() each JSON line, rows() each
    csv row) and each group's rows sorted by params text.  passes and capacity are
    counted from the columns; == compares with a list, a tuple or another Verdicts
    item by item."""

    def __init__(self, batches):
        def key(b):
            return b.claim, b.params.get("p", b.params.get("q", 0))

        self._batches = sorted(batches, key=key)
        self._chunks, last, rows = [], None, 0  # each a list of groups, each of batches
        for (claim, _), group in itertools.groupby(self._batches, key):
            group = list(group)
            keys = {frozenset(b.params) for b in group}
            if len(keys) > 1:
                raise ValueError(f"{claim} batches at one modulus differ in their params keys")
            n = sum(map(len, group))
            if (claim, *keys) != last or rows + n > CHUNK_ROWS:
                self._chunks.append([])
                last, rows = (claim, *keys), 0
            self._chunks[-1].append(group)
            rows += n

    def __len__(self) -> int:
        return sum(map(len, self._batches))

    def _walk(self, make):
        """Every row's item, in order; make(batch, texts) gives the items of a
        chunk's joined batch, one per row, from its rows' params texts."""
        def chunk(groups):  # its items in order; nothing else of the chunk outlives it
            batch = Batch.join([b for group in groups for b in group])
            texts = _params_texts(batch.params, len(batch))
            order, lo = [], 0
            for hi in itertools.accumulate(sum(map(len, group)) for group in groups):
                order += sorted(range(lo, hi), key=texts.__getitem__)
                lo = hi
            return map(make(batch, texts).__getitem__, order)

        return itertools.chain.from_iterable(map(chunk, self._chunks))

    def __iter__(self):
        return self._walk(Batch.verdicts)

    def __eq__(self, other):
        if not isinstance(other, (Verdicts, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def lines(self):
        """Each verdict's JSON line (Verdict.to_line), in order."""
        return self._walk(Batch.lines)

    def rows(self):
        """Each verdict's csv row (Batch.rows), in order."""
        return self._walk(Batch.rows)

    @property
    def passes(self) -> int:
        return sum(int(np.count_nonzero(b.passed)) for b in self._batches)

    @property
    def capacity(self) -> int:
        return sum(len(b) for b in self._batches if b.kind == "capacity")


def run_suite(p_min: int = 3, p_max: int = 61, claims=None, seed: int = 0,
              workers: int = 1, budget=None) -> Verdicts:
    """Run every applicable checker over all primes in [p_min, p_max] (konyagin over
    every modulus q there), one map_tasks task per modulus.  A budget keeps each
    claim's first budget verdicts per prime (per q for konyagin), and a claim that
    meets a capacity cap gives one capacity record there instead.  p_min above
    p_max raises ValueError.

    Returns Verdicts, walked in order: iterating builds each Verdict, and lines()
    and rows() stream the JSON lines and csv rows from the batches' columns.
    Deterministic for a fixed (range, claims, seed) regardless of worker count;
    verdicts come sorted by (claim, modulus, parameters), so the order in which
    tasks run and build their batches never shows.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if p_min > p_max:
        raise ValueError(f"p_min {p_min} is above p_max {p_max}")
    if claims is None:
        claims = CLAIMS
    claims = tuple(dict.fromkeys(claims))  # each claim's batches are read once
    unknown = set(claims) - set(CLAIMS)
    if unknown:
        raise ValueError(f"unknown claims: {sorted(unknown)}")
    # no budget is one larger than any grid, so every claim takes the same cut
    limit = sys.maxsize if budget is None else budget
    tasks = [(n, claims, seed, limit) for n in range(max(p_min, 2), p_max + 1)
             if "konyagin" in claims or (n > 2 and is_prime(n))]
    return Verdicts(map_tasks(_suite_for_modulus, tasks, workers))


def map_tasks(fn, tasks: list[tuple], workers: int, chunksize: int = 1) -> list:
    """Each task's list fn(*task), flattened in task order; workers below 1 raises
    ValueError, with tasks or without.  More than one worker runs the tasks in a pool
    of min(workers, len(tasks), CPU count) processes, chunksize tasks at a time, each
    process with its own tables; the parent unpickles every item of every list."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [x for task in tasks for x in fn(*task)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [x for xs in pool.map(fn, *zip(*tasks), chunksize=chunksize) for x in xs]
