"""Command-line surface: single sums, verification suites, open-problem scans,
and CSV summaries of persisted runs."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

from . import engines, scan, verifier
from .characters import character
from .errors import CharsumError
from .field import make_ctx, subgroup_near_sqrt, subgroup_of_order


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="charsum",
                                     description="multiplicative character sums over "
                                                 "subgroups of F_p*: compute, verify, scan")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sum", help="compute a single sum")
    ps.add_argument("--p", type=int, default=None, help="the prime; --kind exp takes --q instead")
    ps.add_argument("--kind", default="shifted",
                    choices=["shifted", "nonlinear", "product", "kloosterman",
                             "inverse-shift", "exp"])
    ps.add_argument("--chi", default=None, help="character index or 'quadratic'")
    ps.add_argument("--subgroup-order", type=int, default=None)
    ps.add_argument("--near-sqrt", action="store_true",
                    help="use the subgroup with order closest to sqrt(p)")
    ps.add_argument("--set", dest="subset", default=None,
                    help="explicit comma-separated residue set")
    ps.add_argument("--a", type=int, default=None)
    ps.add_argument("--b", type=int, default=None)
    ps.add_argument("--k", type=int, default=None)
    ps.add_argument("--l", type=int, default=None)
    ps.add_argument("--q", type=int, default=None, help="modulus for --kind exp")
    ps.add_argument("--mode", default="auto", choices=["exact", "numeric", "auto"])

    pv = sub.add_parser("verify", help="run identity/bound checkers over a prime range")
    pv.add_argument("--p-min", type=int, default=3)
    pv.add_argument("--p-max", type=int, required=True)
    pv.add_argument("--claims", default=None,
                    help=f"comma-separated subset of {','.join(verifier.CLAIMS)}")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget", type=positive_int, default=None,
                    help="cap on verdicts per claim per prime (per q for konyagin)")
    pv.add_argument("--workers", type=positive_int, default=1)
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", default="json-lines", choices=["json-lines", "csv"])

    pc = sub.add_parser("scan", help="scan open-problem statistics over a prime range")
    pc.add_argument("--problem", required=True, choices=list(scan.PROBLEMS))
    pc.add_argument("--p-min", type=int, default=3)
    pc.add_argument("--p-max", type=int, required=True)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--workers", type=positive_int, default=1)
    pc.add_argument("--out", default=None)
    pc.add_argument("--format", default="json-lines", choices=["json-lines", "csv"])

    pt = sub.add_parser("table", help="aggregate a verify/scan output file into CSV")
    pt.add_argument("--input", required=True)
    pt.add_argument("--out", default=None)

    return parser


# ---------------------------------------------------------------------------
# sum
# ---------------------------------------------------------------------------

def _parse_subset(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CharsumError(f"malformed residue set {text!r}")


def _resolve_character(ctx, spec: str):
    if spec == "quadratic":
        return character(ctx, (ctx.p - 1) // 2)
    try:
        j = int(spec)
    except ValueError:
        raise CharsumError(f"--chi must be an index or 'quadratic', got {spec!r}")
    return character(ctx, j)


def _resolve_subgroup(ctx, args):
    if args.subgroup_order is not None:
        return subgroup_of_order(ctx, args.subgroup_order)
    if args.near_sqrt:
        return subgroup_near_sqrt(ctx)
    return None


def _sum_value(args):
    if args.kind == "exp":
        if args.p is not None:
            raise CharsumError("--kind exp takes its modulus from --q; --p is not used")
        if args.q is None or args.subset is None or args.a is None:
            raise CharsumError("--kind exp requires --q, --set and --a")
        D = _parse_subset(args.subset)
        value = engines.exp_sum_subset(args.q, D, args.a, args.mode)
        return value, args.q, {"q": args.q, "a": args.a, "D": D}

    if args.p is None:
        raise CharsumError(f"--kind {args.kind} requires --p")
    ctx = make_ctx(args.p)
    H = _resolve_subgroup(ctx, args)

    if args.kind in ("kloosterman", "inverse-shift"):
        if args.mode == "exact":
            raise CharsumError(f"--kind {args.kind} has no exact mode; use auto or numeric")
        if H is None:
            raise CharsumError(f"--kind {args.kind} requires a subgroup selector")
        if args.kind == "kloosterman":
            if args.k is None or args.l is None:
                raise CharsumError("--kind kloosterman requires --k and --l")
            value = engines.kloosterman_over_H(ctx, H, args.k, args.l)
            return value, args.p, {"p": args.p, "H": H.order, "k": args.k, "l": args.l}
        if args.k is None or args.a is None:
            raise CharsumError("--kind inverse-shift requires --k and --a")
        value = engines.inverse_shift_sum(ctx, H, args.k, args.a)
        return value, args.p, {"p": args.p, "H": H.order, "k": args.k, "a": args.a}

    if args.chi is None:
        raise CharsumError(f"--kind {args.kind} requires --chi")
    chi = _resolve_character(ctx, args.chi)
    if args.a is None:
        raise CharsumError(f"--kind {args.kind} requires --a")

    if args.kind == "shifted":
        if args.subset is not None:
            D = _parse_subset(args.subset)
        elif H is not None:
            D = H.elements
        else:
            raise CharsumError("--kind shifted requires --set or a subgroup selector")
        value = engines.shifted_sum(ctx, chi, D, args.a, args.mode)
        return value, args.p, {"p": args.p, "chi": chi.index, "D_size": len(D), "a": args.a}

    if H is None:
        raise CharsumError(f"--kind {args.kind} requires a subgroup selector")
    if args.kind == "nonlinear":
        value = engines.nonlinear_sum_xxa(ctx, chi, H, args.a, args.mode)
        return value, args.p, {"p": args.p, "chi": chi.index, "H": H.order, "a": args.a}
    # product
    if args.b is None:
        raise CharsumError("--kind product requires --a and --b")
    value = engines.shifted_product_sum(ctx, chi, H, args.a, args.b, args.mode)
    return value, args.p, {"p": args.p, "chi": chi.index, "H": H.order,
                           "a": args.a, "b": args.b}


def cmd_sum(args) -> int:
    value, modulus, params = _sum_value(args)
    z = value.to_complex()
    record = {
        "kind": "sum",
        "sum_kind": args.kind,
        "params": params,
        "mode": value.mode,
        "re": z.real,
        "im": z.imag,
        "abs": abs(z),
        "ratio": abs(z) / math.sqrt(modulus),
    }
    if value.mode == "exact":
        record["coeffs"] = list(value.exact.reduced())
    print(json.dumps(record, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# verify / scan output plumbing
# ---------------------------------------------------------------------------

def _write_text(lines, out: str | None) -> None:
    """Write the lines, an iterable of strings each ending in a newline, as they
    come, joined 128 at a time into one write: the whole text is never held at
    once."""
    lines = iter(lines)
    chunks = iter(lambda: "".join(itertools.islice(lines, 128)), "")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write_csv(header, rows, out: str | None) -> None:
    """The header row, then each row, a sequence of cells in header order; rows
    may be any iterable, and are written as they come."""
    def emit(f):
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)

    if out:
        with open(out, "w", encoding="utf-8", newline="") as f:
            emit(f)
    else:
        emit(sys.stdout)


def cmd_verify(args) -> int:
    claims = None
    if args.claims is not None:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claims:
            raise CharsumError(f"--claims {args.claims!r} names no claim")
    verdicts = verifier.run_suite(p_min=args.p_min, p_max=args.p_max, claims=claims,
                                  seed=args.seed, workers=args.workers, budget=args.budget)
    if args.format == "json-lines":
        _write_text(verdicts.lines(), args.out)
    else:
        _write_csv(verifier.RECORD_KEYS, verdicts.rows(), args.out)
    passes = verdicts.passes
    capacity = verdicts.capacity
    failures = len(verdicts) - passes - capacity
    print(f"verify: {len(verdicts)} verdicts, {passes} pass, {failures} fail, "
          f"{capacity} capacity-skipped", file=sys.stderr)
    return 0 if passes == len(verdicts) else 1


def cmd_scan(args) -> int:
    records = scan.scan_range(args.problem, args.p_min, args.p_max,
                              seed=args.seed, workers=args.workers)
    if args.format == "json-lines":
        _write_text((json.dumps(r, sort_keys=True, default=str) + "\n" for r in records),
                    args.out)
    else:  # the achiever dict as JSON
        _write_csv(scan.RECORD_KEYS,
                   ([json.dumps(v, sort_keys=True) if isinstance(v, dict) else v
                     for v in map(r.__getitem__, scan.RECORD_KEYS)] for r in records),
                   args.out)
    print(f"scan: problem {args.problem}, {len(records)} records", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# the columns of table's verify summary, one row per claim
SUMMARY_HEADER = ["claim", "verdicts", "passes", "capacity_skips", "pass_rate"]


def cmd_table(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as f:
            header, rows = _table(args.input,
                                  (json.loads(line) for line in f if line.strip()))
    except (OSError, json.JSONDecodeError) as e:
        raise CharsumError(f"cannot read {args.input}: {e}")
    _write_csv(header, rows, args.out)
    return 0


def _table(name: str, records) -> tuple[list, list]:
    """The header and rows of table's csv for the records of the file name.  A scan
    file (one record per prime) is kept whole and sorted; a verify file is counted
    one record at a time.  Every line is read before a fault is raised, so a line
    that is no JSON is reported first, then one that is no JSON object, then a
    first record of neither kind, then the first faulty record."""
    first = next(records, None)
    if first is None:
        return SUMMARY_HEADER, []
    if isinstance(first, dict) and first.get("kind") == "scan":
        records = [first, *records]
        if not all(isinstance(r, dict) for r in records):
            raise CharsumError(f"{name}: every line must be a JSON object")
        header = ["p", "problem", "sum_kind", "H_order", "order_ratio", "stat", "tuples",
                  "achiever"]
        try:
            return header, [
                [r["p"], r["problem"], r["sum_kind"], r["H_order"], r["order_ratio"], r["stat"],
                 r["tuples"], json.dumps(r["achiever"], sort_keys=True)]
                for r in sorted(records, key=lambda r: (r["p"], r["sum_kind"]))
            ]
        except KeyError as e:
            raise CharsumError(f"{name}: a record lacks the key {e}")
        except TypeError as e:
            raise CharsumError(f"{name}: records cannot be ordered by p and sum_kind ({e})")

    summary: dict[str, dict] = {}
    objects = True
    fault = None
    for r in itertools.chain([first], records):
        if not isinstance(r, dict):
            objects = False
        elif fault is None:
            try:
                if not isinstance(r["pass"], bool):
                    raise CharsumError(f"{name}: pass must be true or false, got {r['pass']!r}")
                if not isinstance(r["claim"], str):
                    raise CharsumError(f"{name}: claim must be a string, got {r['claim']!r}")
                s = summary.setdefault(r["claim"],
                                       {"verdicts": 0, "passes": 0, "capacity_skips": 0})
                s["verdicts"] += 1
                s["passes"] += r["pass"]
                s["capacity_skips"] += r.get("kind") == "capacity"
            except (CharsumError, KeyError) as e:
                fault = e
    if not objects:
        raise CharsumError(f"{name}: every line must be a JSON object")
    if "claim" not in first:
        raise CharsumError(f"{name} holds neither verify nor scan records")
    if isinstance(fault, KeyError):
        raise CharsumError(f"{name}: a record lacks the key {fault}")
    if fault is not None:
        raise fault
    return SUMMARY_HEADER, [
        [claim, *counts.values(), counts["passes"] / counts["verdicts"]]
        for claim, counts in sorted(summary.items())
    ]


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"sum": cmd_sum, "verify": cmd_verify, "scan": cmd_scan, "table": cmd_table}
    try:
        return handlers[args.command](args)
    # the library raises ValueError for an argument it rejects: a usage error too
    except (CharsumError, ValueError) as e:
        print(f"charsum {args.command}: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script: main's exit code.  A reader that closes stdout early
    (charsum verify ... | head -1) ends the run quietly with code 1: stdout is
    pointed at devnull, so the flush at exit finds no broken pipe either."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
