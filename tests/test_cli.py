import concurrent.futures
import csv
import importlib.util
import io
import json
import lzma
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from charsum import scan, verifier
from charsum.cli import main
from charsum.verifier import CLAIMS

PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
REF_DIR = PERFBENCH_DIR / "ref"
DATA_DIR = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSum:
    def test_shifted_subgroup_sum(self, capsys):
        code, out, _ = run(capsys, "sum", "--p", "7", "--chi", "quadratic",
                           "--subgroup-order", "3", "--a", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["re"] == pytest.approx(-1.0, abs=1e-9)
        assert rec["ratio"] == pytest.approx(0.37796, abs=1e-5)
        assert rec["mode"] == "exact"
        assert "coeffs" in rec

    def test_explicit_set_numeric(self, capsys):
        code, out, _ = run(capsys, "sum", "--p", "7", "--chi", "3",
                           "--set", "1,2,4", "--a", "1", "--mode", "numeric")
        assert code == 0
        rec = json.loads(out)
        assert rec["abs"] == pytest.approx(1.0, abs=1e-9)
        assert "coeffs" not in rec

    def test_exp_kind(self, capsys):
        # 1 + e^(pi*i) = 0, exactly 0 in Z[zeta_4]
        code, out, _ = run(capsys, "sum", "--kind", "exp", "--q", "4", "--set", "0,2", "--a", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["re"] == pytest.approx(0.0, abs=1e-12)
        assert (rec["mode"], rec["coeffs"]) == ("exact", [0, 0])

    def test_exp_kind_needs_no_p(self, capsys):
        code, out, _ = run(capsys, "sum", "--kind", "exp", "--q", "4", "--set", "0,2", "--a", "1")
        assert code == 0
        assert json.loads(out)["re"] == pytest.approx(0.0, abs=1e-12)

    def test_exp_kind_rejects_p(self, capsys):
        code, out, err = run(capsys, "sum", "--p", "9", "--kind", "exp",
                             "--q", "4", "--set", "0,2", "--a", "1")
        assert (code, out) == (2, "")
        assert "--kind exp takes its modulus from --q; --p is not used" in err

    def test_other_kinds_require_p(self, capsys):
        code, out, err = run(capsys, "sum", "--chi", "1", "--set", "1,2", "--a", "1")
        assert (code, out) == (2, "")
        assert "--kind shifted requires --p" in err

    def test_kloosterman_kind(self, capsys):
        code, out, _ = run(capsys, "sum", "--p", "7", "--kind", "kloosterman",
                           "--subgroup-order", "6", "--k", "1", "--l", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["abs"] <= 2 * 7**0.5

    @pytest.mark.parametrize("kind, params", [("kloosterman", ["--k", "1", "--l", "2"]),
                                              ("inverse-shift", ["--k", "1", "--a", "2"])])
    def test_additive_kinds_have_no_exact_mode(self, capsys, kind, params):
        argv = ["sum", "--p", "7", "--kind", kind, "--subgroup-order", "3", *params]
        code, out, err = run(capsys, *argv, "--mode", "exact")
        assert (code, out) == (2, "")
        assert f"--kind {kind} has no exact mode" in err
        for mode in ("auto", "numeric"):
            code, out, _ = run(capsys, *argv, "--mode", mode)
            assert code == 0 and json.loads(out)["mode"] == "numeric"

    def test_not_odd_prime_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sum", "--p", "9", "--chi", "1",
                           "--set", "1,2", "--a", "1")
        assert code == 2
        assert "odd prime" in err

    def test_principal_character_on_bound_kind(self, capsys):
        code, _, err = run(capsys, "sum", "--p", "7", "--chi", "0", "--kind",
                           "nonlinear", "--subgroup-order", "3", "--a", "1")
        assert code == 2
        assert "nonprincipal" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "sum", "--p", "7", "--chi", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "exp", "--q", "1", "--set", "0", "--a", "1"], "modulus must be >= 2"),
        (["--p", "7", "--chi", "1", "--subgroup-order", "5", "--a", "1"], "does not divide"),
    ])
    def test_rejected_argument_is_usage_error(self, capsys, argv, message):
        # the library's ValueError, not a traceback with exit 1 (a failed check)
        code, out, err = run(capsys, "sum", *argv)
        assert code == 2 and out == ""
        assert err.startswith("charsum sum: ") and message in err


class TestVerify:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "v.jsonl"
        code, _, err = run(capsys, "verify", "--p-max", "13",
                           "--claims", "eq2,granville,konyagin",
                           "--seed", "1", "--out", str(out_file))
        assert code == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert records and all(r["pass"] for r in records)
        assert "fail" in err

    def test_every_claim_writes_json_booleans(self, capsys, tmp_path):
        out_file = tmp_path / "v.jsonl"
        code, _, _ = run(capsys, "verify", "--p-max", "13", "--workers", "1",
                         "--out", str(out_file))
        assert code == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert {r["claim"] for r in records} == set(CLAIMS)
        assert all(r["pass"] is True for r in records)
        assert all(isinstance(r["margin"], float) for r in records)

    def test_p3_nonempty(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-max", "3", "--claims", "thm2")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2  # two subgroups, one nontrivial character

    def test_capacity_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-min", "10007", "--p-max", "10007",
                           "--claims", "eq2")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["kind"] == "capacity" for r in records)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        """Every claim's written stream, byte for byte, with one worker and two."""
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["verify", "--p-max", "23", "--seed", "3"]
        assert main(args + ["--out", str(f1), "--workers", "1"]) == 0
        assert main(args + ["--out", str(f2), "--workers", "2"]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_stdout_and_out_file_get_the_same_bytes(self, capsys, tmp_path):
        out_file = tmp_path / "v.jsonl"
        args = ["verify", "--p-max", "23", "--seed", "3"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert main(args + ["--out", str(out_file)]) == 0
        capsys.readouterr()
        assert out.encode("utf-8") == out_file.read_bytes()

    def test_exact_stream_equals_stored_reference(self, capsys, tmp_path):
        """The exact claims' verdict stream, record for record, against the
        benchmark's stored reference for the same argv."""
        ref = REF_DIR / "verify-exact.seed1.jsonl.xz"
        out_file = tmp_path / "v.jsonl"
        code, _, _ = run(capsys, "verify", "--p-min", "3", "--p-max", "43", "--claims",
                         "eq2,kernel,granville,shkredov,konyagin", "--seed", "1",
                         "--workers", "1", "--out", str(out_file))
        assert code == 0
        with lzma.open(ref, "rt", encoding="utf-8") as f:
            expected = f.read().splitlines()
        assert len(expected) == 7418
        assert out_file.read_text(encoding="utf-8").splitlines() == expected

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_numeric_claims_equal_stored_reference(self, capsys, tmp_path, workers):
        """Every numeric claim over p <= 11, byte for byte, against a stored run.
        Its 418 lines hold negative margins (Jacobi-sum ties that pass only
        through TOL), vacuous eps rows and zero margins, each spelled from the
        batches' float64 columns."""
        out_file = tmp_path / "v.jsonl"
        code, _, _ = run(capsys, "verify", "--p-min", "3", "--p-max", "11", "--claims",
                         "thm2,thm2_sharp,eps,meanvalue2,nonlinear,lemma3", "--seed", "1",
                         "--workers", workers, "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / "verify.numeric.p3-11.seed1.jsonl"
        assert out_file.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lemma3_equals_stored_reference(self, capsys, tmp_path, workers):
        """lemma3 over 97 <= p <= 151, byte for byte, against a stored run: 25
        rows of drawn weights, characters and shifts at each of the twelve primes,
        past the p <= 11 of the numeric reference."""
        out_file = tmp_path / "l.jsonl"
        code, _, _ = run(capsys, "verify", "--p-min", "97", "--p-max", "151", "--claims",
                         "lemma3", "--seed", "5", "--workers", workers, "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / "verify.lemma3.p97-151.seed5.jsonl"
        assert out_file.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, stored, exit_code", [
        (["--p-min", "2", "--p-max", "100", "--budget", "4"],
         "verify.konyagin.p2-100.seed1.budget4.jsonl", 0),
        (["--p-min", "9990", "--p-max", "10001", "--budget", "2"],
         "verify.konyagin.p9990-10001.seed1.budget2.jsonl", 1),
    ], ids=["q2-100", "q9990-10001"])
    def test_konyagin_equals_stored_reference(self, capsys, tmp_path, argv, stored,
                                              exit_code, workers):
        """konyagin, byte for byte with its exit code, against stored runs: every
        q <= 100, and the orders up to the exact-order cap, where q = 10 001 gives
        a capacity record and exit code 1."""
        out_file = tmp_path / "k.jsonl"
        code, _, _ = run(capsys, "verify", *argv, "--claims", "konyagin", "--seed", "1",
                         "--workers", workers, "--out", str(out_file))
        assert code == exit_code
        assert out_file.read_bytes() == (DATA_DIR / stored).read_bytes()

    def test_numeric_stream_matches_stored_reference(self, capsys, tmp_path):
        """The numeric claims' verdict stream against the benchmark's stored
        reference: everything but the floats equal, and the floats within the
        benchmark's own 1e-9, so that numpy's FFT rounding may differ."""
        out_file = tmp_path / "v.jsonl"
        code, _, _ = run(capsys, "verify", "--p-min", "3", "--p-max", "83", "--claims",
                         "thm2,eps,meanvalue2,nonlinear,lemma3", "--seed", "1",
                         "--workers", "1", "--out", str(out_file))
        assert code == 0
        with lzma.open(REF_DIR / "verify-numeric.seed1.jsonl.xz", "rt", encoding="utf-8") as f:
            expected = [json.loads(line) for line in f]
        got = [json.loads(line) for line in out_file.read_text(encoding="utf-8").splitlines()]
        assert len(expected) == len(got) == 24775

        def fields(r):
            return [r[k] for k in ("kind", "claim", "params", "mode", "pass", "note")]

        assert [fields(r) for r in got] == [fields(r) for r in expected]
        far = [(i, k) for i, (r, e) in enumerate(zip(got, expected))
               for k in ("computed", "target", "margin")
               if not math.isclose(float(r[k]), float(e[k]), rel_tol=0, abs_tol=1e-9)]
        assert far == []

    def test_json_lines_encode_each_params_once(self, capsys, tmp_path, monkeypatch):
        """The json-lines writer calls no json.dumps, and no verdict's params are
        encoded twice: each text is made once, for its sort key and its line
        together (most from a batch's template, which encodes no params object)."""
        encoded = []

        class Recording(json.JSONEncoder):
            def encode(self, o):
                encoded.append(o)
                return super().encode(o)

        def no_dumps(*args, **kwargs):
            raise AssertionError("json.dumps called on the json-lines path")

        monkeypatch.setattr(verifier, "_PARAMS_JSON", Recording(sort_keys=True, default=str))
        monkeypatch.setattr(json, "dumps", no_dumps)
        out_file = tmp_path / "v.jsonl"
        code, _, _ = run(capsys, "verify", "--p-max", "23", "--seed", "3", "--out", str(out_file))
        monkeypatch.undo()
        assert code == 0
        assert out_file.read_text(encoding="utf-8").splitlines()
        # the recorded objects are all alive, so equal ids mean the same object
        params = [id(o) for o in encoded if isinstance(o, dict)]
        assert len(set(params)) == len(params)

    def test_unknown_claim_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--p-max", "7", "--claims", "nope")
        assert code == 2
        assert "unknown claims" in err

    @pytest.mark.parametrize("claims", ["", ",", " , "])
    def test_claims_naming_no_claim_is_usage_error(self, capsys, claims):
        code, out, err = run(capsys, "verify", "--p-max", "7", "--claims", claims)
        assert (code, out) == (2, "")
        assert "names no claim" in err

    def test_mode_is_not_a_verify_option(self, capsys):
        # every checker fixes its own mode; sum --mode stays
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p-max", "7", "--mode", "exact"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-max", "7", "--claims", "granville",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows and all(r["pass"] == "True" for r in rows)

    @pytest.mark.parametrize("argv, kwargs", [
        (["--p-max", "61", "--seed", "42"], {"p_max": 61, "seed": 42}),
        (["--p-max", "31", "--seed", "5", "--budget", "7"], {"p_max": 31, "seed": 5, "budget": 7}),
        (["--p-min", "10007", "--p-max", "10007", "--claims", "eq2"],
         {"p_min": 10007, "p_max": 10007, "claims": ["eq2"]}),
    ])
    def test_csv_equals_one_dict_writer_over_the_records(self, capsys, tmp_path, argv, kwargs):
        """The streamed csv, byte for byte, against a DictWriter over every
        Verdict's record, with the params dict as sorted-key JSON."""
        out_file = tmp_path / "v.csv"
        main(["verify", *argv, "--format", "csv", "--out", str(out_file)])
        capsys.readouterr()
        verdicts = verifier.run_suite(**kwargs)
        expected = io.StringIO()
        w = csv.DictWriter(expected, fieldnames=sorted(verifier.RECORD_KEYS))
        w.writeheader()
        w.writerows({k: json.dumps(x, sort_keys=True) if isinstance(x, dict) else x
                     for k, x in v.to_record().items()} for v in verdicts)
        assert len(verdicts) > 0
        assert out_file.read_bytes() == expected.getvalue().encode("utf-8")

    def test_csv_builds_no_verdict(self, capsys, tmp_path, monkeypatch):
        """The csv is written from the batches' columns, as the JSON lines are."""
        def no_verdict(self):
            raise AssertionError("a Verdict was built on the csv path")

        monkeypatch.setattr(verifier.Verdict, "__post_init__", no_verdict)
        out_file = tmp_path / "v.csv"
        code, _, _ = run(capsys, "verify", "--p-min", "3", "--p-max", "83", "--claims",
                         "thm2,eps,meanvalue2,nonlinear,lemma3", "--seed", "1",
                         "--format", "csv", "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text(encoding="utf-8").splitlines()) == 1 + 24775


class TestScanCmd:
    def test_problem1(self, capsys):
        code, out, err = run(capsys, "scan", "--problem", "1", "--p-max", "13")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["p"] for r in records] == [3, 5, 7, 11, 13]
        assert "5 records" in err

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "scan", "--problem", "5", "--p-min", "24",
                           "--p-max", "28")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("problem", scan.PROBLEMS)
    def test_records_have_the_csv_columns(self, problem):
        # the csv writes each record's values in RECORD_KEYS order, its header
        for p in (3, 101, 103):
            for r in scan.scan_prime(problem, p, seed=3):
                assert sorted(r) == list(scan.RECORD_KEYS)

    @pytest.mark.parametrize("problem,p_min,p_max", [
        ("5", "3", "101"), ("6", "3", "101"), ("5", "103", "400"), ("6", "103", "400")],
        ids=["5", "6", "5-p103-400", "6-p103-400"])
    def test_stream_equals_stored_reference(self, capsys, tmp_path, problem, p_min, p_max):
        """Problems 5 and 6, byte for byte, against a stored run: over p <= 101, where
        every instance is read, and past it, where they are sampled.  Each sum over H
        is added in the order of H's elements; another order moves the last bits
        of |S|, and with them the achiever among shifts of equal |S|."""
        out_file = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, "scan", "--problem", problem, "--p-min", p_min,
                         "--p-max", p_max, "--seed", "3", "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / f"scan{problem}.p{p_min}-{p_max}.seed3.jsonl"
        assert out_file.read_bytes() == expected.read_bytes()

    def test_problem1_equals_stored_reference(self, capsys, tmp_path):
        """Problem 1, byte for byte, against a stored run over a range holding
        100043 and 100103, where H has order 2 and about 25 000 cosets tie for
        the peak: the one-pass coset counts and the least entry of the tied
        cosets' columns must give the stored bits."""
        out_file = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, "scan", "--problem", "1", "--p-min", "100000",
                         "--p-max", "100150", "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / "scan1.p100000-100150.jsonl"
        assert out_file.read_bytes() == expected.read_bytes()

    def test_problem1_small_primes_equal_stored_reference(self, capsys, tmp_path):
        """Problem 1, byte for byte, against a stored run over every prime up to
        3000 (429 records), whose |S| was summed from complex roots of unity."""
        out_file = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, "scan", "--problem", "1", "--p-min", "3",
                         "--p-max", "3000", "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / "scan1.p3-3000.jsonl"
        assert out_file.read_bytes() == expected.read_bytes()

    def test_problem1_at_the_table_cap_equals_stored_reference(self, capsys, tmp_path):
        """Problem 1, byte for byte, against a stored run over the last 100 below
        the dlog table cap: make_ctx reduces products near 10^14 there, and
        p = 9999943 has |H| = 6 and an odd number (1666657) of cosets."""
        out_file = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, "scan", "--problem", "1", "--p-min", "9999900",
                         "--p-max", "10000000", "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / "scan1.p9999900-10000000.jsonl"
        assert out_file.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "13", "--budget", "0"],
    ["verify", "--p-max", "13", "--budget", "-1"],
    ["verify", "--p-max", "13", "--workers", "0"],
    ["verify", "--p-max", "13", "--workers", "-2"],
    ["scan", "--problem", "1", "--p-max", "13", "--workers", "0"],
    ["scan", "--problem", "1", "--p-max", "13", "--workers", "-2"],
])
def test_nonpositive_budget_or_workers_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {argv[-2]}: must be at least 1" in err


@pytest.mark.parametrize("command", [["verify"], ["scan", "--problem", "1"]])
def test_inverted_range_is_usage_error(capsys, command):
    # it checks nothing, so it must not exit 0 as a run whose checks all pass
    code, out, err = run(capsys, *command, "--p-min", "100", "--p-max", "50")
    assert code == 2 and out == ""
    assert err == f"charsum {command[0]}: p_min 100 is above p_max 50\n"


@pytest.mark.parametrize("command", [["verify", "--claims", "thm2"], ["scan", "--problem", "1"]])
def test_empty_csv_is_the_header(capsys, tmp_path, command):
    # 24..28 holds no prime: the csv is the header alone, a record's keys in order
    _, lines, _ = run(capsys, *command, "--p-max", "13")
    header = ",".join(sorted(json.loads(lines.splitlines()[0]))) + "\r\n"
    code, out, _ = run(capsys, *command, "--p-min", "24", "--p-max", "28", "--format", "csv")
    assert code == 0 and out == header
    out_file = tmp_path / "empty.csv"
    run(capsys, *command, "--p-min", "24", "--p-max", "28", "--format", "csv",
        "--out", str(out_file))
    assert out_file.read_bytes() == header.encode()


def test_benchmark_argvs_never_import_numpy_ma(tmp_path):
    """The first np.unique of a process imports numpy.ma, about 11 ms with numpy
    2.4: one fresh process that runs each of the benchmark's three argvs must
    never import it."""
    argvs = [["verify", "--p-min", "3", "--p-max", "43",
              "--claims", "eq2,kernel,granville,shkredov,konyagin"],
             ["verify", "--p-min", "3", "--p-max", "83",
              "--claims", "thm2,eps,meanvalue2,nonlinear,lemma3"],
             ["scan", "--problem", "1", "--p-min", "100000", "--p-max", "100150"]]
    script = ("import sys\nfrom charsum.cli import main\n"
              f"for argv in {argvs!r}:\n"
              "    assert main(argv + ['--seed', '1', '--out', sys.argv[1]]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(verifier.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=True, timeout=300)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("argv", [["verify", "--p-max", "23"],
                                  ["scan", "--problem", "1", "--p-max", "20000"]])
def test_reader_that_closes_early_ends_the_run_quietly(argv):
    """Piped into a reader that takes one line and closes (charsum ... | head -1),
    the console script exits with code 1 and writes nothing to stderr: no
    BrokenPipeError traceback.  Each output is several times the 64 KiB pipe
    buffer (892 767 and 448 831 bytes), so the writer is still writing when the
    reader closes, whatever the size of its writes."""
    src = str(Path(verifier.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", "from charsum.cli import entry; entry()",
                             *argv], env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        return _SerialPool.sizes

    @pytest.mark.parametrize("command", [["verify", "--claims", "thm2"], ["scan", "--problem", "1"]])
    def test_pool_is_capped_by_tasks_and_cores(self, capsys, monkeypatch, pools, command):
        outputs = []
        for cores in (64, 2, None):
            monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
            outputs.append(run(capsys, *command, "--p-max", "13", "--workers", "5000")[:2])
        outputs.append(run(capsys, *command, "--p-max", "13")[:2])  # --workers defaults to 1
        # 5 primes up to 13: 5 processes on 64 cores, 2 on 2 cores, none on an
        # unknown core count or with one worker
        assert pools == [5, 2]
        assert outputs[0][0] == 0 and outputs == [outputs[0]] * 4

    def test_workers_env_var_is_ignored(self, capsys, monkeypatch, pools):
        monkeypatch.setenv("CHARSUM_WORKERS", "abc")
        code, out, _ = run(capsys, "verify", "--p-max", "13", "--claims", "thm2")
        assert code == 0 and out
        assert pools == []


class TestTable:
    def test_verify_summary(self, capsys, tmp_path):
        src = tmp_path / "v.jsonl"
        run(capsys, "verify", "--p-max", "13", "--claims", "granville,shkredov",
            "--out", str(src))
        out_csv = tmp_path / "t.csv"
        code, _, _ = run(capsys, "table", "--input", str(src), "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert {r["claim"] for r in rows} == {"granville", "shkredov"}
        assert all(float(r["pass_rate"]) == 1.0 for r in rows)

    def test_scan_table_sorted(self, capsys, tmp_path):
        src = tmp_path / "s.jsonl"
        run(capsys, "scan", "--problem", "6", "--p-max", "13", "--out", str(src))
        code, out, _ = run(capsys, "table", "--input", str(src))
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        ps = [int(r["p"]) for r in rows]
        assert ps == sorted(ps)

    def test_empty_input(self, capsys, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        code, out, _ = run(capsys, "table", "--input", str(src))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("claim")

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "table", "--input", "/nonexistent.jsonl")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_input(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text("not json\n")
        code, _, _ = run(capsys, "table", "--input", str(src))
        assert code == 2

    @pytest.mark.parametrize("text, reason", [
        ('{"claim": "eq2"}\n', "lacks the key 'pass'"),
        ('5\n', "every line must be a JSON object"),
        ('{"claim": "eq2", "pass": true}\n[1]\n', "every line must be a JSON object"),
    ])
    def test_malformed_record(self, capsys, tmp_path, text, reason):
        src = tmp_path / "partial.jsonl"
        src.write_text(text)
        code, out, err = run(capsys, "table", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith("charsum table:") and reason in err

    @pytest.mark.parametrize("last, reason", [
        ("not json", "cannot read"),
        ("[1]", "every line must be a JSON object"),
        ('{"claim": "eq2", "pass": true}', "pass must be true or false, got 1"),
    ])
    def test_every_line_is_read_before_a_record_fault(self, capsys, tmp_path, last, reason):
        # the first record's bad pass is reported only if no later line is worse
        src = tmp_path / "v.jsonl"
        src.write_text(f'{{"claim": "eq2", "pass": 1}}\n{{"claim": "eq2"}}\n{last}\n')
        code, out, err = run(capsys, "table", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith("charsum table:") and reason in err

    @pytest.mark.parametrize("text, reason", [
        ('{"claim": ["x"], "pass": true}\n', "claim must be a string, got ['x']"),
        ('{"claim": 3, "pass": true}\n{"claim": "eq2", "pass": true}\n',
         "claim must be a string, got 3"),
        ('{"kind": "scan", "p": 7, "problem": "1", "sum_kind": "shifted", "H_order": 3, '
         '"order_ratio": 1.1, "stat": 0.4, "tuples": 6, "achiever": {"a": 1}}\n'
         '{"kind": "scan", "p": "5", "problem": "1", "sum_kind": "shifted", "H_order": 2, '
         '"order_ratio": 0.9, "stat": 0.4, "tuples": 4, "achiever": {"a": 1}}\n',
         "records cannot be ordered by p and sum_kind"),
    ])
    def test_bad_record_values_are_usage_errors(self, capsys, tmp_path, text, reason):
        # each once raised a TypeError out of main: a traceback and exit 1
        src = tmp_path / "bad.jsonl"
        src.write_text(text)
        code, out, err = run(capsys, "table", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith(f"charsum table: {src}: ") and reason in err

    def test_verify_summary_is_counted_line_by_line(self, tmp_path):
        # 20 000 verify records: held as dicts they would take tens of MB
        record = {"claim": "thm2", "computed": "1.5", "kind": "verdict", "margin": 0.5,
                  "mode": "numeric", "note": "", "params": {"p": 7, "chi": 1, "H": 3},
                  "pass": True, "target": "2.0"}
        src = tmp_path / "v.jsonl"
        with open(src, "w") as f:
            for claim in ("eq2", "thm2") * 10_000:
                f.write(json.dumps({**record, "claim": claim}) + "\n")
        out = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            assert main(["table", "--input", str(src), "--out", str(out)]) == 0
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text().splitlines()[1:] == ["eq2,10000,10000,0,1.0",
                                                    "thm2,10000,10000,0,1.0"]
        assert peak_bytes <= 2e6

    @pytest.mark.parametrize("value, shown", [('"false"', "'false'"), ("0", "0"), ("1", "1"),
                                              ("null", "None")])
    def test_pass_must_be_a_boolean(self, capsys, tmp_path, value, shown):
        # a truthy "false" string would count as a pass
        src = tmp_path / "v.jsonl"
        src.write_text(f'{{"claim": "eq2", "pass": true}}\n{{"claim": "eq2", "pass": {value}}}\n')
        code, out, err = run(capsys, "table", "--input", str(src))
        assert code == 2 and out == ""
        assert err == f"charsum table: {src}: pass must be true or false, got {shown}\n"


def test_every_traced_function_resolves(monkeypatch):
    """The traced benchmark run rebinds each function that perfbench/tracer.py
    names, by module and attribute, and fails with KeyError on one that is gone:
    every name must resolve once charsum.cli has loaded every traced module, and
    uninstall must put every binding back."""
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH_DIR / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec.loader.exec_module(tracer)
    before = dict(vars(verifier))
    t = tracer.Tracer()
    t.install()
    try:
        assert len(t._originals) == len(tracer.TARGETS)
        assert verifier.check_granville.__wrapped__ is before["check_granville"]
    finally:
        t.uninstall()
    assert all(vars(verifier)[k] is v for k, v in before.items())
