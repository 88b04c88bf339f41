"""The benchmark's workloads and the checks on their output.

Each workload is one ``charsum`` CLI invocation, run in-process with one worker.
The record count of each is fixed by its grid and does not depend on the seed.

Regenerate the stored references (default seed only) with::

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import json
import lzma
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"
DEFAULT_SEED = 1
FLOAT_TOL = 1e-9  # ROADMAP coset batching moves maxima by about 1e-13

# Each call takes a second or two, so the reference job timed beside it sees
# the same host speed (README, Spread).
WORKLOADS = {
    "verify-exact": {
        "argv": ["verify", "--p-min", "3", "--p-max", "43",
                 "--claims", "eq2,kernel,granville,shkredov,konyagin"],
        "records": 7418,
    },
    # thm2_sharp is left out: its records carry "pass": "True", a string
    # (check_sharpened_theorem2 returns a numpy.bool_), so they fail the
    # verdict check. test_perfbench.py pins that defect.
    "verify-numeric": {
        "argv": ["verify", "--p-min", "3", "--p-max", "83",
                 "--claims", "thm2,eps,meanvalue2,nonlinear,lemma3"],
        "records": 24775,
    },
    "scan-p1": {
        "argv": ["scan", "--problem", "1", "--p-min", "100000", "--p-max", "100150"],
        "records": 9,
    },
}


def cli_argv(workload: str, seed: int, out: str) -> list[str]:
    return WORKLOADS[workload]["argv"] + ["--seed", str(seed), "--workers", "1", "--out", out]


def reference_path(workload: str) -> Path:
    return REF_DIR / f"{workload}.seed{DEFAULT_SEED}.jsonl.xz"


def read_records(path) -> list[dict]:
    opener = lzma.open if str(path).endswith(".xz") else open
    with opener(path, "rt", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _floats_close(a, b) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= FLOAT_TOL


def _matches_reference(rec: dict, ref: dict) -> bool:
    # `pass` is left out: _verify_record_ok requires the JSON `true` on its own
    for key in ("kind", "claim", "params", "mode"):
        if rec.get(key) != ref.get(key):
            return False
    if rec["mode"] == "exact":
        return rec["computed"] == ref["computed"] and rec["target"] == ref["target"]
    return all(_floats_close(rec[k], ref[k]) for k in ("computed", "target", "margin"))


def _verify_record_ok(rec: dict) -> bool:
    return rec.get("kind") == "verdict" and rec.get("pass") is True


def _scan_record_ok(rec: dict, ref: dict) -> bool:
    """Compare with the reference, then re-evaluate the recorded achiever with
    the single-shift numeric engine.

    The achiever's shift is not compared: |S(a·h)| = |S(a)| for every h in H,
    so it is one of |H| tied shifts and which one wins is down to rounding.
    A scan that misses shifts shows as a `stat` below the reference's.
    """
    # imported here: run.py imports this module without charsum on its path
    from charsum.characters import character
    from charsum.engines import shifted_sum
    from charsum.field import make_ctx, subgroup_near_sqrt

    for key in ("kind", "problem", "sum_kind", "p", "H_order", "tuples"):
        if rec.get(key) != ref.get(key):
            return False
    if (rec["achiever"]["chi"] != ref["achiever"]["chi"]
            or not all(_floats_close(rec[k], ref[k]) for k in ("stat", "order_ratio"))):
        return False
    p = rec["p"]
    ctx = make_ctx(p)
    H = subgroup_near_sqrt(ctx)
    chi = character(ctx, rec["achiever"]["chi"])
    value = shifted_sum(ctx, chi, H.elements, rec["achiever"]["a"], mode="numeric")
    return (H.order == rec["H_order"] and chi.is_quadratic and rec["tuples"] == p - 1
            and abs(value.magnitude / math.sqrt(p) - rec["stat"]) <= FLOAT_TOL)


def failing_records(workload: str, seed: int, records: list[dict]) -> list[dict]:
    """The records that fail a check (missing and extra records not included)."""
    if workload == "scan-p1":
        # problem 1 is an exhaustive scan: its output does not depend on the seed
        ref = read_records(reference_path(workload))
        return [r for i, r in enumerate(records)
                if not (i < len(ref) and _scan_record_ok(r, ref[i]))]
    if seed == DEFAULT_SEED:
        ref = read_records(reference_path(workload))
        return [r for i, r in enumerate(records)
                if not (_verify_record_ok(r) and i < len(ref) and _matches_reference(r, ref[i]))]
    return [r for r in records if not _verify_record_ok(r)]


def check_output(workload: str, seed: int, records: list[dict]) -> int:
    """Number of expected records that are missing, extra or fail a check."""
    expected = WORKLOADS[workload]["records"]
    bad = len(failing_records(workload, seed, records)) + abs(expected - len(records))
    return min(bad, expected)


def write_references() -> None:
    """Take the default-seed reference stream of each workload."""
    import tempfile

    from charsum import cli

    REF_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            out = Path(tmp) / "out.jsonl"
            if cli.main(cli_argv(workload, DEFAULT_SEED, str(out))) != 0:
                raise SystemExit(f"{workload}: the CLI reported failures")
            with lzma.open(reference_path(workload), "wb", preset=9) as f:
                f.write(out.read_bytes())


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    write_references()
