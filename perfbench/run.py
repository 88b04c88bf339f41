"""charsum benchmark: fresh-process CLI runs of one workload, checked and timed.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Each sample is a new Python process (perfbench/child.py) that imports charsum
from this checkout's ``src`` and runs the workload through ``charsum.cli.main``
with one worker.  Samples repeat until ``--seconds`` is used up (at least
three).  ``--trace 0`` reports the end-to-end metrics as medians over samples;
``wall_rel`` is the ``cli.main`` time over the reference job's time beside it;
``--trace 1`` alternates traced and untraced samples and reports the per-layer
metrics.  The last stdout line is the JSON result; the line before it records
the machine.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; no sample starts past this


def _spawn(args: list[str], timeout: float) -> dict | None:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: sample {args[:2]} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: sample {args[:2]} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _git_commit() -> str | None:
    # the ceiling stops git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _wall_rel(sample: dict) -> float:
    return sample["wall_s"] / sample["ref_s"]


def _end_to_end(samples: list[dict], ok_share: float) -> dict:
    return {
        "setup_s": (median(s["setup_s"] for s in samples), "s"),
        "wall_rel": (median(_wall_rel(s) for s in samples), "ratio"),
        "peak_rss_mb": (median(s["peak_rss_mb"] for s in samples), "MB"),
        "ok_share": (ok_share, "share"),
    }


def _per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, int]:
    """Medians of self times; counts from the first traced sample.

    Returns the metrics and the number of traced samples whose counts differ
    from the first one's (counts must repeat exactly).
    """
    first = traced[0]["layers"]
    mismatched = sum(
        any(s["layers"][k] != v for k, v in first.items() if not k.endswith(".self_s"))
        for s in traced[1:])
    out = {k: tuple(v) for k, v in first.items()}
    for key in first:
        if key.endswith(".self_s"):
            out[key] = (median(s["layers"][key][0] for s in traced), "s")
    overhead = (median(_wall_rel(s) for s in traced)
                / median(_wall_rel(s) for s in untraced) - 1)
    out["trace_overhead"] = (overhead, "ratio")
    return out, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (ROOT / "src" / "charsum" / "__init__.py").is_file():
        print(f"perfbench: no charsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    expected = WORKLOADS[args.workload]["records"]
    modes = itertools.cycle(["trace", "run"] if args.trace else ["run"])
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT))
    try:
        # the first import in a checkout compiles bytecode; it is not a sample
        machine = _spawn(["import"], RUN_LIMIT_S)
        if machine is None:
            return 2
        samples, checked, last = [], None, 0.0
        measure_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - measure_start
            remaining = RUN_LIMIT_S - (time.perf_counter() - start)
            if len(samples) >= MIN_SAMPLES and elapsed + last > args.seconds:
                break
            if remaining < last + 5:
                break
            t0 = time.perf_counter()
            mode = next(modes)
            out = tmp / f"sample{len(samples)}.jsonl"
            sample = _spawn([mode, args.workload, str(args.seed), str(out),
                             "1" if checked is None else "0"], remaining)
            last = time.perf_counter() - t0
            if sample is not None:
                sample["mode"] = mode
                checked = checked or sample
            samples.append(sample)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Only the first good sample is parsed and checked. Every sample of one
    # (workload, seed), traced or not, must write the same bytes as that one.
    attempted = expected * len(samples)
    failed = sum(checked["failed"] if s is not None and s["digest"] == checked["digest"]
                 else expected for s in samples) if checked else attempted
    good = [s for s in samples if s is not None]
    untraced = [s for s in good if s["mode"] == "run"]
    traced = [s for s in good if s["mode"] == "trace"]
    if not untraced or (args.trace and not traced):
        print("perfbench: too few successful samples", file=sys.stderr)
        return 1

    if args.trace:
        metrics, mismatched = _per_layer(traced, untraced)
        failed = min(failed + mismatched * expected, attempted)
    else:
        metrics = _end_to_end(untraced, 1 - failed / attempted)

    machine.pop("setup_s")
    machine.update({"nproc": os.cpu_count(), "commit": _git_commit(),
                    "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
                    "samples": {"untraced": len(untraced), "traced": len(traced)},
                    "wall_s": [s["wall_s"] for s in good],
                    "ref_s": [s["ref_s"] for s in good]})
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
