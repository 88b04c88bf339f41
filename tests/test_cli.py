import concurrent.futures
import csv
import json
import lzma
import math
import os
from pathlib import Path

import pytest

from charsum import verifier
from charsum.cli import main
from charsum.verifier import CLAIMS

REF_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "ref"
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
        # 1 + e^(pi*i) = 0
        code, out, _ = run(capsys, "sum", "--p", "7", "--kind", "exp",
                           "--q", "4", "--set", "0,2", "--a", "1")
        assert code == 0
        assert json.loads(out)["re"] == pytest.approx(0.0, abs=1e-12)

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
        (["--chi", "1", "--subgroup-order", "5", "--a", "1"], "does not divide"),
    ])
    def test_rejected_argument_is_usage_error(self, capsys, argv, message):
        # the library's ValueError, not a traceback with exit 1 (a failed check)
        code, out, err = run(capsys, "sum", "--p", "7", *argv)
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

    @pytest.mark.parametrize("problem", ["5", "6"])
    def test_stream_equals_stored_reference(self, capsys, tmp_path, problem):
        """Problems 5 and 6, byte for byte, against a stored run.  Each sum over H
        is added in the order of H's elements; another order moves the last bits
        of |S|, and with them the achiever among shifts of equal |S|."""
        out_file = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, "scan", "--problem", problem, "--p-min", "3",
                         "--p-max", "101", "--seed", "3", "--out", str(out_file))
        assert code == 0
        expected = DATA_DIR / f"scan{problem}.p3-101.seed3.jsonl"
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
