"""One fresh-process sample: import charsum, run one workload through
``charsum.cli.main`` in-process, check its output, print one JSON line.

    python3 perfbench/child.py import
    python3 perfbench/child.py run|trace WORKLOAD SEED OUT_FILE CHECK

With CHECK = 1 the output is parsed and checked; every sample reports the
SHA-256 of its output, so unchecked samples are compared byte for byte with
a checked one.

A fixed reference job runs right before and right after the timed call.
Its mean time, ``ref_s``, sees the same host speed as the call, so
``wall_s / ref_s`` stays steady when the host slows down (README, Spread).

Only the standard library is imported before ``charsum``, so ``setup_s`` is
what a CLI user pays for the import.  The output check runs after the timed
call and after ``ru_maxrss`` is read, so it affects neither.
"""

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# The reference job does the three kinds of work the workloads do, about
# 0.1 s each on a 2-core host: one large prime-length FFT, many small numpy
# calls, and building and serialising records. A tight integer loop tracked
# the host's speed worse (README, Spread).
REF_FFT_LEN = 20011
REF_FFTS = 40
REF_SMALL_CALLS = 8000
REF_RECORDS = 20000


def reference_s() -> float:
    """Time of the reference job."""
    import numpy as np

    big = np.cos(np.arange(REF_FFT_LEN))
    small = np.cos(np.arange(64))
    np.fft.fft(big)  # plan the transforms outside the timed part
    np.fft.fft(small)
    t0 = time.perf_counter()
    for _ in range(REF_FFTS):
        np.fft.fft(big)
    for _ in range(REF_SMALL_CALLS):
        np.abs(np.fft.fft(small)).max()
    records = [{"claim": "ref", "params": {"p": i, "chi": i % 7}, "computed": i / 2,
                "pass": True} for i in range(REF_RECORDS)]
    "\n".join(json.dumps(r) for r in records)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import charsum
    import charsum.cli
    setup_s = time.perf_counter() - t0
    if not Path(charsum.__file__).resolve().is_relative_to(SRC):
        print(f"charsum imported from {charsum.__file__}, not {SRC}", file=sys.stderr)
        return 3

    mode = argv[0]
    if mode == "import":
        import numpy
        print(json.dumps({"setup_s": setup_s, "python": sys.version.split()[0],
                          "numpy": numpy.__version__}))
        return 0

    import workloads
    from tracer import Tracer

    workload, seed, out, check = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    ref_before = reference_s()
    try:
        t0 = time.perf_counter()
        charsum.cli.main(workloads.cli_argv(workload, seed, out))
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()
    ref_s = (ref_before + reference_s()) / 2
    layers = tracer.metrics() if tracer else None

    with open(out, "rb") as f:
        data = f.read()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "records": data.count(b"\n"),
        "digest": hashlib.sha256(data).hexdigest(),
    }
    if check:
        result["failed"] = workloads.check_output(workload, seed, workloads.read_records(out))
    os.remove(out)
    if layers:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
