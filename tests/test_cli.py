"""Command-line surface: grammar, exit codes, output formats, determinism."""

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from importlib import resources as importlib_resources

import jsonschema
import pytest

import lucasaps
from lucasaps import apsearch, certify, cli, smallcase, special, tables
from lucasaps.apsearch import APFamily, CertificateFailureError, detect_families, find_aps
from lucasaps.certify import certificate_from_json, certified_enumerate, check_certificate
from lucasaps.core import Kind, degeneracy_order, new_params
from lucasaps.cli import main

SCHEMA = json.loads(
    importlib_resources.files("lucasaps.resources").joinpath("cli_schema.json").read_text()
)


def schema_for(name):
    doc = dict(SCHEMA["$defs"][name])
    doc["$defs"] = SCHEMA["$defs"]
    return doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(probe, *argv):
    """stdout of `probe` run in a fresh interpreter, with argv as sys.argv[1:]."""
    src = os.path.dirname(os.path.dirname(lucasaps.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout


def run_refused(capsys, monkeypatch, *argv):
    """Run a command that must exit 1 before computing any term; its stderr."""
    def no_work(*args):
        raise AssertionError("work started for a refused input")

    for module, name in ((apsearch, "find_aps"), (apsearch, "detect_families"),
                         (cli, "_scan_pair")):
        monkeypatch.setattr(module, name, no_work)
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout) == (1, "")
    assert peak < 1_000_000
    return err


class TestClassify:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "classify", "--A", "1", "--B", "2")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("classify"))
        assert doc["classification"] == "real_dominant"
        assert doc["discriminant"] == "9"

    def test_degenerate_reports_order(self, capsys):
        code, _, err = run(capsys, "classify", "--A", "1", "--B", "-1")
        assert code == 1
        assert err == (
            "invalid input: degenerate pair (1, -1); the root ratio alpha/beta has order 3\n"
        )

    def test_zero_coefficient(self, capsys):
        code, _, err = run(capsys, "classify", "--A", "0", "--B", "5")
        assert code == 1
        assert "nonzero" in err


class TestEnumerate:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--A", "1", "--B", "1", "--kind", "first",
            "--max-index", "6",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("enumerate"))
        assert {tuple((t["k"], t["l"], t["m"])) for t in doc["aps"]} >= {(0, 1, 3), (2, 3, 4)}

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_output_is_reference_rendering(self, capsys, fmt):
        # enumerate writes every format from its own row template; json.dumps
        # (indent=2) of the to_json_dict documents, csv.writer's rows and the
        # value tuples' own text are the renderings it must equal byte for byte
        cases = [(A, B, kind, n) for A in range(-4, 5) for B in range(-4, 5)
                 if A and B and degeneracy_order(A, B) is None
                 for kind in Kind for n in (2, 5, 12)]
        # an empty aps array; long values at the first kind's family pairs
        cases += [(10, -3, Kind.FIRST, 5), (1, 1, Kind.FIRST, 300), (-1, -2, Kind.FIRST, 300)]
        empty = repeated = negative = long_value = False
        for A, B, kind, n in cases:
            aps = find_aps(new_params(A, B), kind, n)
            if fmt == "json":
                doc = {"A": A, "B": B, "kind": kind.value, "maxIndex": n,
                       "aps": [t.to_json_dict() for t in aps]}
                expected = json.dumps(doc, indent=2) + "\n"
            elif fmt == "csv":
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(["k", "l", "m", "value_k", "value_l", "value_m"])
                writer.writerows([t.k, t.l, t.m, *map(str, t.values)] for t in aps)
                expected = buf.getvalue()
            else:
                expected = "".join(f"({t.k}, {t.l}, {t.m}) -> {t.values}\n" for t in aps)
                expected += f"{len(aps)} progression(s) with indices <= {n}\n"
            code, out, _ = run(
                capsys, "enumerate", "--A", str(A), "--B", str(B), "--kind", kind.value,
                "--max-index", str(n), "--format", fmt,
            )
            assert code == 0
            assert out == expected, (A, B, kind, n)
            terms = {i: v for t in aps for i, v in zip(t.indices, t.values)}
            empty |= not aps
            repeated |= len(set(terms.values())) < len(terms)
            negative |= any(v < 0 for v in terms.values())
            long_value |= any(abs(v) > 10**50 for v in terms.values())
        # (1, 1) first kind has x_1 = x_2 = 1; D < 0 pairs have negative terms
        assert empty and repeated and negative and long_value

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--A", "2", "--B", "1", "--kind", "first",
            "--max-index", "10", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,l,m,value_k,value_l,value_m"
        assert lines[1] == "0,1,2,0,1,2"

    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--A", "1", "--B", "1", "--kind", "first",
            "--max-index", "8", "--format", "text",
        )
        assert code == 0
        assert out == (
            "(0, 1, 3) -> (0, 1, 2)\n"
            "(0, 2, 3) -> (0, 1, 2)\n"
            "(1, 3, 4) -> (1, 2, 3)\n"
            "(2, 3, 4) -> (1, 2, 3)\n"
            "(1, 4, 5) -> (1, 3, 5)\n"
            "(2, 4, 5) -> (1, 3, 5)\n"
            "(3, 5, 6) -> (2, 5, 8)\n"
            "(4, 6, 7) -> (3, 8, 13)\n"
            "(5, 7, 8) -> (5, 13, 21)\n"
            "9 progression(s) with indices <= 8\n"
        )

    def test_bad_window(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--A", "2", "--B", "1", "--kind", "first",
            "--max-index", "1",
        )
        assert code == 1

    def test_index_cap_is_usage_error(self, capsys):
        # the probes hash O(n)-bit terms n^2 times, so time grows as n^3
        for n in (cli.MAX_INDEX + 1, 10**9):
            code, out, err = run(
                capsys, "enumerate", "--A", "10", "--B", "-3", "--kind", "first",
                "--max-index", str(n),
            )
            assert code == 1
            assert out == ""
            assert f"--max-index must be between 2 and {cli.MAX_INDEX}" in err

    def test_term_bits_cap_is_usage_error(self, capsys, monkeypatch):
        # |A| + |B| of 8 bits is the most --max-index 5000 allows
        code, _, _ = run(
            capsys, "enumerate", "--A", "128", "--B", "127", "--kind", "first",
            "--max-index", "5000",
        )
        assert code == 0
        for A, B, bits in ((128, 128, 9), (2**128, 1, 129)):
            err = run_refused(
                capsys, monkeypatch, "enumerate", "--A", str(A), "--B", str(B),
                "--kind", "first", "--max-index", "5000",
            )
            assert f"--max-index 5000 with |A| + |B| of {bits} bits" in err


class TestCertify:
    def test_worked_pair(self, capsys):
        code, out, _ = run(capsys, "certify", "--A", "2", "--B", "1", "--kind", "first")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("certify"))
        assert doc["status"] == "complete"
        assert [(t["k"], t["l"], t["m"]) for t in doc["aps"]] == [(0, 1, 2)]
        assert doc["certificate"]["method"] == "gap_pattern"
        assert doc["certificate"]["complete"] is True
        margins = [p.get("margin", {}).get("text") for p in doc["certificate"]["patterns"]]
        assert "4+3*sqrt(2)" in margins

    def test_certificate_reads_back_and_checks(self, capsys):
        # the CLI's certificate carries the extra "complete" key
        code, out, _ = run(capsys, "certify", "--A", "1", "--B", "3", "--kind", "second")
        assert code == 0
        doc = json.loads(out)["certificate"]
        assert doc["complete"] is True
        cert = certificate_from_json(doc)
        assert check_certificate(cert, new_params(1, 3), Kind.SECOND)

    def test_family_pair(self, capsys):
        code, out, _ = run(capsys, "certify", "--A", "1", "--B", "2", "--kind", "first")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "has_families"
        assert doc["certificate"] is None
        assert len(doc["families"]) == 2

    def test_complex_pair_inconclusive(self, capsys):
        code, out, _ = run(capsys, "certify", "--A", "-1", "--B", "-2", "--kind", "first")
        assert code == 2
        assert json.loads(out)["status"] == "inconclusive"

    def test_gap_cap_is_not_an_option(self, capsys):
        # the gap cap is certify.GAP_CAP, so a certificate depends on the
        # pair and the kind alone
        for cap in ("0", "3", "12"):
            code, out, err = run(
                capsys, "certify", "--A", "2", "--B", "1", "--kind", "first",
                "--gap-cap", cap,
            )
            assert (code, out) == (1, "")
            assert err.startswith("usage: lucasaps [-h]")
            assert err.endswith(f"\nerror: unrecognized arguments: --gap-cap {cap}\n")


class TestFamilies:
    def test_complex_pair(self, capsys):
        code, out, _ = run(
            capsys, "families", "--A", "-1", "--B", "-2", "--kind", "second",
            "--max-exponent", "10",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("families"))
        assert doc["families"][0]["pattern"] == "(t+1, t, t+3), t>=0"

    def test_large_exponent(self, capsys):
        code, out, _ = run(
            capsys, "families", "--A", "-1", "--B", "-2", "--kind", "first",
            "--max-exponent", "400",
        )
        assert code == 0
        assert [f["pattern"] for f in json.loads(out)["families"]] == [
            "(t+1, t, t+3), t>=0"
        ]

    def test_exponent_cap_is_usage_error(self, capsys):
        # memory grows as e^2, so exponents above the cap are refused
        for e in (cli.MAX_EXPONENT + 1, 10**6, 2):
            code, out, err = run(
                capsys, "families", "--A", "3", "--B", "5", "--kind", "first",
                "--max-exponent", str(e),
            )
            assert code == 1
            assert out == ""
            assert "--max-exponent must be between 3 and" in err

    @pytest.mark.parametrize("command", ["families", "scan", "certify", "verify-tables"])
    def test_failed_family_certificate_exits_three(self, capsys, monkeypatch, tmp_path,
                                                   command):
        # a family that fails verify_family is a mismatch, not a traceback,
        # whether detect_families or certified_enumerate found it
        def refuse(family, params, kind):
            raise CertificateFailureError(f"certificate window broken for {family.describe()}")

        monkeypatch.setattr(apsearch, "verify_family", refuse)
        monkeypatch.setattr(certify, "verify_family", refuse)
        argv = {
            "families": ["--A", "1", "--B", "1", "--kind", "first", "--max-exponent", "10"],
            "scan": ["--a-range=1..1", "--b-range=1..1", "--kind", "first",
                     "--out", str(tmp_path / "rows.csv")],
            "certify": ["--A", "1", "--B", "1", "--kind", "first"],
            "verify-tables": ["--b-cap", "10"],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (cli.EXIT_MISMATCH, "")
        assert err == (
            "internal verification mismatch: certificate window broken for "
            "(t, t+2, t+3), t>=0\n"
        )

    def test_term_bits_cap_is_usage_error(self, capsys, monkeypatch):
        for A, B, bits in ((8, 8, 5), (2**64, 1, 65)):
            err = run_refused(
                capsys, monkeypatch, "families", "--A", str(A), "--B", str(B),
                "--kind", "first", "--max-exponent", "10000",
            )
            assert f"--max-exponent 10000 with |A| + |B| of {bits} bits" in err
            assert f"at most {cli.MAX_TERM_BITS} are allowed" in err


class TestSmallcases:
    def test_json_and_grid_check(self, capsys):
        code, out, _ = run(
            capsys, "smallcases", "--kind", "second", "--max-index", "6",
            "--grid-check", "8",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("smallcases"))
        assert doc["gridCheck"]["equal"] is True
        assert {tuple(s["triple"]) for s in doc["sporadic"]} >= {(1, 0, 2), (1, 4, 5)}

    def test_cap_seven_complete_under_dominant_filter(self, capsys):
        code, out, _ = run(capsys, "smallcases", "--kind", "first", "--max-index", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["equationCount"] == 168

    def test_cap_seven_grid_check(self, capsys):
        # cap 7 is the only cap at which first-kind root-location windows
        # of cubic-in-B equations run
        for kind, count in (("first", 139), ("second", 20)):
            code, out, err = run(
                capsys, "smallcases", "--kind", kind, "--max-index", "7", "--grid-check", "30",
            )
            assert (code, err) == (0, ""), kind
            assert json.loads(out)["gridCheck"] == {
                "box": 30, "symbolic": count, "bruteForce": count, "equal": True,
            }, kind

    def test_nonpositive_grid_check_is_usage_error(self, capsys):
        # an empty box would pass vacuously
        for n in ("0", "-3", "two"):
            code, out, err = run(
                capsys, "smallcases", "--kind", "first", "--max-index", "4",
                "--grid-check", n,
            )
            assert code == 1
            assert out == ""
            assert err.startswith("usage: lucasaps smallcases")

    def test_grid_check_disagreement_exits_three(self, capsys, monkeypatch):
        # CI's solver-against-brute-force step reads this exit code
        monkeypatch.setattr(apsearch, "find_aps", lambda *args: [])
        code, out, _ = run(
            capsys, "smallcases", "--kind", "second", "--max-index", "6", "--grid-check", "8",
        )
        assert code == 3
        assert json.loads(out)["gridCheck"]["equal"] is False

    def test_grid_check_cap_is_usage_error(self, capsys, monkeypatch):
        # brute force runs on (2N + 1)^2 pairs; the cap is checked before solving
        def no_work(*args):
            raise AssertionError("smallcases work started for an oversized grid check")

        monkeypatch.setattr(smallcase, "solve_all", no_work)
        for n in (cli.MAX_GRID_CHECK + 1, 10**5):
            code, out, err = run(
                capsys, "smallcases", "--kind", "first", "--max-index", "7",
                "--grid-check", str(n),
            )
            assert (code, out) == (1, "")
            assert f"--grid-check must be at most {cli.MAX_GRID_CHECK}" in err

    def test_index_below_two_is_usage_error(self, capsys, monkeypatch):
        # no triple fits below index 2, so the result would be vacuous; above
        # the case-equation cap there is no equation list; both before solving
        def no_work(*args):
            raise AssertionError("smallcases work started for a refused --max-index")

        monkeypatch.setattr(smallcase, "solve_all", no_work)
        for n in ("1", "0", "-1", "8", str(10**9)):
            code, out, err = run(capsys, "smallcases", "--kind", "first", "--max-index", n)
            assert code == 1
            assert out == ""
            assert err == "error: --max-index must be between 2 and 7\n"

    def test_cap_seven_unfiltered_is_inconclusive(self, capsys):
        code, _, err = run(
            capsys, "smallcases", "--kind", "first", "--max-index", "7",
            "--no-dominant-filter",
        )
        assert code == 2
        assert "inconclusive" in err

    def test_unfiltered_reach(self, capsys):
        # without the dominant filter the first kind is solved up to index 4
        # and the second up to 3; the next index raises for every equation
        for kind, solved, unresolved in (("first", (2, 3, 4), 5), ("second", (2, 3), 4)):
            for cap in solved + (unresolved,):
                code, out, err = run(
                    capsys, "smallcases", "--kind", kind, "--max-index", str(cap),
                    "--no-dominant-filter",
                )
                if cap == unresolved:
                    assert (code, out) == (2, ""), (kind, cap)
                    assert err.startswith("inconclusive: triple (0, 1, "), (kind, cap)
                else:
                    assert (code, err) == (0, ""), (kind, cap)
                    jsonschema.validate(json.loads(out), schema_for("smallcases"))

    def test_unfiltered_curve_families(self, capsys):
        code, out, _ = run(
            capsys, "smallcases", "--kind", "second", "--max-index", "2",
            "--no-dominant-filter",
        )
        assert code == 0
        assert json.loads(out)["curveFamilies"] == [
            {"bNumerator": "-A^2+2*A-2", "denominator": 2, "residues": [0],
             "triple": [0, 1, 2]},
            {"bNumerator": "-A^2-A+4", "denominator": 2, "residues": [0, 1],
             "triple": [1, 0, 2]},
            {"bNumerator": "-2*A^2+A+2", "denominator": 4, "residues": [2],
             "triple": [0, 2, 1]},
        ]
        code, out, _ = run(
            capsys, "smallcases", "--kind", "first", "--max-index", "3",
            "--no-dominant-filter",
        )
        assert code == 0
        assert len(json.loads(out)["curveFamilies"]) == 8


class TestVerifyTables:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--b-cap", "12")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("verifyTables"))
        assert doc["ok"] is True
        assert len(doc["completionsUsed"]) == 2

    def test_broken_catalog_is_mismatch(self, capsys, monkeypatch):
        # first-kind (1, 1) with its family (t, t+2, t+3) moved to (t, t+2, t+4)
        wrong = (APFamily((0, 1), (2, 1), (4, 1), 0),)
        mutant = tuple(
            replace(e, families=wrong) if e.kind is Kind.FIRST and (e.a, e.b) == (1, 1) else e
            for e in tables._table_entries()
        )
        monkeypatch.setattr(tables, "_table_entries", lambda: mutant)
        code, out, _ = run(capsys, "verify-tables")
        assert code == cli.EXIT_MISMATCH == 3
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("verifyTables"))
        assert doc["ok"] is False

    def test_b_cap_is_usage_error(self, capsys, monkeypatch):
        # verify_tables checks O(b_cap) pairs; the cap is checked before it runs
        def no_work(*args):
            raise AssertionError("verify_tables started for a refused cap")

        monkeypatch.setattr(tables, "verify_tables", no_work)
        for n in (cli.MAX_B_CAP + 1, 10**9, tables.MIN_B_CAP - 1, 5, -1):
            code, out, err = run(capsys, "verify-tables", "--b-cap", str(n))
            assert (code, out) == (1, "")
            assert err == f"error: --b-cap must be between 10 and {cli.MAX_B_CAP}\n"


class TestScan:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "scan1.csv"
        out2 = tmp_path / "scan2.csv"
        base = [
            "scan", "--a-range=-3..3", "--b-range=-3..3",
            "--kind", "both", "--max-index", "20",
        ]
        assert run(capsys, *base, "--out", str(out1), "--jobs", "1")[0] == 0
        assert run(capsys, *base, "--out", str(out2), "--jobs", "2")[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "A,B,kind,classification,ap_count_window,family_count,certified,n0"
        assert any("degenerate_order_3" in line for line in lines)  # (1, -1)
        assert any("zero_coefficient" in line for line in lines)

    def test_text_is_pinned(self, capsys, tmp_path):
        out = tmp_path / "scan.txt"
        code, stdout, _ = run(
            capsys, "scan", "--a-range=-2..2", "--b-range=-2..2", "--format", "text",
            "--out", str(out),
        )
        assert (code, stdout) == (0, f"wrote 50 rows to {out}\n")
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "A   B   kind    classification      ap_count_window  family_count  certified  n0"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f07d270a28652eb3581994b34917fbbd662a35e240aa880858d2d927d6d4dd15"
        )

    @pytest.mark.parametrize("max_index, fmt, digest", [
        pytest.param(5, "csv", "d101286c612b806f9b085137366bf13865843f217977f9aab6ff9112f3c8de67",
                     id="csv-5"),
        pytest.param(5, "json", "916a87c48d15fe7fef0727865cf4c760abefaeac52952c5641e5c3b6e801099e",
                     id="json-5"),
        pytest.param(30, "csv", "994b9ecbfbf3f6677b2fe60e8cfc15dcab99f92d3c0f3f585d71a799639fcf77",
                     id="csv-30"),
        pytest.param(30, "json", "19a7fb86f34f16c0ac8e01205393c6a55a488da952ee6f076c15411ff6876d58",
                     id="json-30"),
    ])
    def test_csv_and_json_are_pinned(self, capsys, tmp_path, max_index, fmt, digest):
        # the box holds every row kind: zero coefficient, degenerate orders 1,
        # 3, 4 and 6, D < 0, growth-lemma and gap-pattern certificates, and
        # has_families pairs such as (1, 1)
        out = tmp_path / f"scan.{fmt}"
        code, stdout, _ = run(
            capsys, "scan", "--a-range=-7..7", "--b-range=-14..14", "--kind", "both",
            "--max-index", str(max_index), "--format", fmt, "--out", str(out),
        )
        assert (code, stdout) == (0, f"wrote 870 rows to {out}\n")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_unusable_out_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # --out is opened before the first row is computed
        missing = tmp_path / "missing" / "scan.csv"
        dangling = tmp_path / "dangling.csv"
        dangling.symlink_to(missing)
        long_name = tmp_path / ("x" * 300 + ".csv")
        for out, errno_code in (
            (tmp_path, errno.EISDIR),
            (missing, errno.ENOENT),
            ("", errno.ENOENT),
            (dangling, errno.ENOENT),
            (long_name, errno.ENAMETOOLONG),
        ):
            err = run_refused(
                capsys, monkeypatch, "scan", "--a-range=-2..2", "--b-range=-2..2",
                f"--out={out}",
            )
            assert err == f"error: cannot open --out {str(out)!r}: {os.strerror(errno_code)}\n"
        assert not missing.parent.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["dangling.csv"]

    def test_failed_write_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        # every row is computed before the write fails; the run still ends
        # in one error line, and the partial file stays
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out = tmp_path / "scan.csv"
        for fmt in ("csv", "json", "text"):
            monkeypatch.setattr(cli, "open", lambda path, mode: FullDisk(), raising=False)
            code, stdout, err = run(
                capsys, "scan", "--a-range=1..2", "--b-range=1..2", "--format", fmt,
                "--out", str(out),
            )
            assert (code, stdout) == (1, "")
            assert err == f"error: cannot write --out {str(out)!r}: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_is_one_error_line(self, capsys):
        # the rows fit the write buffer, so the error surfaces at the close
        code, stdout, err = run(
            capsys, "scan", "--a-range=1..2", "--b-range=1..2", "--out", "/dev/full",
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot write --out '/dev/full': {os.strerror(errno.ENOSPC)}\n"

    def test_import_leaves_multiprocessing_unloaded(self):
        # only scan with more than one worker needs it; a fresh interpreter
        # shows what importing the CLI loads
        probe = "import sys, lucasaps.cli; print('multiprocessing' in sys.modules)"
        assert _fresh(probe) == "False\n"

    def test_json_rows_validate(self, capsys, tmp_path):
        out = tmp_path / "scan.json"
        code, _, _ = run(
            capsys, "scan", "--a-range", "1..2", "--b-range", "1..2",
            "--kind", "first", "--max-index", "15", "--out", str(out),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema_for("scan"))
        certified = {(r["A"], r["B"]): r["certified"] for r in doc["rows"]}
        assert certified[(2, 1)] == "true"
        assert certified[(1, 1)] == "false"  # families, no finite certificate

    def test_rows_match_brute_force(self):
        # a complete row counts from its certificate; every row must still
        # agree with the window search and the family search it replaces
        def scan_pair(job):
            return cli._scan_pair(certified_enumerate, find_aps, detect_families, job)

        window = cli._SCAN_COLUMNS.index("ap_count_window")
        family = cli._SCAN_COLUMNS.index("family_count")

        def check(box, windows):
            for A in range(-box, box + 1):
                for B in range(-box, box + 1):
                    if not A or not B or degeneracy_order(A, B) is not None:
                        continue
                    params = new_params(A, B)
                    for kind in Kind:
                        families = len(detect_families(params, kind, 12))
                        for n in windows:
                            row = scan_pair((A, B, kind, n))
                            assert row[window] == len(find_aps(params, kind, n)), (A, B, kind, n)
                            assert row[family] == families, (A, B, kind)

        check(10, (2, 3, 4, 5, 6, 7, 8, 13, 30))
        check(4, (200,))
        # step-2 families are not unit-step: the (1, 2) first-kind cell stays 0
        assert scan_pair((1, 2, Kind.FIRST, 30))[family] == 0

    def test_certified_rows_run_no_search(self, capsys, tmp_path, monkeypatch):
        # growth-lemma pairs: a deep window costs no find_aps or detect_families
        def no_search(*args):
            raise AssertionError("a certified row searched")

        monkeypatch.setattr(apsearch, "find_aps", no_search)
        monkeypatch.setattr(apsearch, "detect_families", no_search)
        out = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--a-range=3..5", "--b-range=1..3", "--max-index", "2000",
            "--out", str(out),
        )
        assert code == 0
        assert all(",true," in line for line in out.read_text().splitlines()[1:])

    def test_jobs_below_one_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        for jobs in ("0", "-2", "two"):
            code, _, err = run(
                capsys, "scan", "--a-range", "1..2", "--b-range", "1..2",
                "--out", str(out), "--jobs", jobs,
            )
            assert code == 1
            assert err.startswith("usage: lucasaps scan")
        assert not out.exists()

    def test_index_cap_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        for n in (str(cli.MAX_INDEX + 1), "1"):
            code, stdout, err = run(
                capsys, "scan", "--a-range", "1..2", "--b-range", "1..2",
                "--max-index", n, "--out", str(out),
            )
            assert code == 1
            assert stdout == ""
            assert f"--max-index must be between 2 and {cli.MAX_INDEX}" in err
        assert not out.exists()

    def test_box_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # the row count is checked before any job list is built
        def no_work(job):
            raise AssertionError("scan work started for an oversized box")

        monkeypatch.setattr(cli, "_scan_pair", no_work)
        out = tmp_path / "scan.csv"
        half = cli.MAX_SCAN_ROWS // 2
        for a_range, b_range, rows in (
            ("0..0", f"1..{half + 1}", 2 * (half + 1)),
            ("-1000000000..1000000000", "-5..5", 2 * 2_000_000_001 * 11),
        ):
            tracemalloc.start()
            try:
                code, stdout, err = run(
                    capsys, "scan", f"--a-range={a_range}", f"--b-range={b_range}",
                    "--out", str(out),
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, stdout) == (1, "")
            assert f"the scan box has {rows} rows; at most {cli.MAX_SCAN_ROWS}" in err
            assert peak < 1_000_000
        assert not out.exists()

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert [cli._worker_count(j) for j in (1, 3, 4, 5, 1000)] == [1, 3, 4, 4, 4]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._worker_count(8) == 1

    def test_term_cost_caps_are_usage_errors(self, capsys, tmp_path, monkeypatch):
        # rows * max(--max-index, 30) and the term size are both bounded
        out = tmp_path / "scan.csv"
        err = run_refused(
            capsys, monkeypatch, "scan", "--a-range=0..0", "--b-range=1..2000",
            "--kind", "first", "--max-index", "5000", "--out", str(out),
        )
        assert "the scan box has 2000 rows; at most 1500 are allowed" in err
        err = run_refused(
            capsys, monkeypatch, "scan", "--a-range=-3..1", "--b-range=-253..-252",
            "--max-index", "5000", "--out", str(out),
        )
        assert "--max-index 5000 with |A| + |B| of 9 bits" in err
        assert not out.exists()


class TestFactorTrinomial:
    def test_known_factor(self, capsys):
        code, out, _ = run(
            capsys, "factor-trinomial", "--shape", "x^a+x^b-2", "--a", "3", "--b", "1"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("factorTrinomial"))
        assert doc["trinomial"] == "X^3+X-2"
        assert doc["factors"] == [
            {"p": 1, "q": 2, "poly": "X^2+X+2", "discriminant": -7}
        ]

    def test_exponents_out_of_range_are_usage_errors(self, capsys, monkeypatch):
        # --b in 1..EXPONENT_CAP - 1, then --a in b + 1..EXPONENT_CAP, before any work
        def no_work(*args):
            raise AssertionError("quad_factors started for refused exponents")

        monkeypatch.setattr(special, "quad_factors", no_work)
        for a, b, why in (
            (3, 3, "--a must be between 4 and 64"),
            (65, 1, "--a must be between 2 and 64"),
            (3, 0, "--b must be between 1 and 63"),
        ):
            code, out, err = run(
                capsys, "factor-trinomial", "--shape", "x^a-2x^b+1", "--a", str(a), "--b", str(b)
            )
            assert (code, out, err) == (1, "", f"error: {why}\n"), (a, b)


class TestSUnitBound:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "sunit-bound")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema_for("sunitBound"))
        assert doc["digitCount"] == 2341
        assert doc["belowStatedBound"] is True
        assert doc["decimal"].startswith(doc["leadingDigits"])

    def test_below_stated_bound_compares_with_the_stated_constant(self, capsys, monkeypatch):
        # 10^2400 is above 6.45e2340, though below 6.45 times its own power of ten
        big = special.SUnitBound(10**2400, 2401, "100", 2400)
        monkeypatch.setattr(special, "sunit_constant", lambda: big)
        code, out, _ = run(capsys, "sunit-bound")
        assert code == 0
        doc = json.loads(out)
        assert (doc["belowStatedBound"], doc["statedBound"]) == (False, "6.45e2340")


class TestGrammar:
    def test_unknown_range_format(self, capsys):
        code, _, err = run(
            capsys, "scan", "--a-range", "nope", "--b-range", "1..2", "--out", "x"
        )
        assert code == 1

    def test_bad_argument_values_name_the_option(self, capsys, monkeypatch):
        for argv, why in (
            (("--a-range=x..2",), "argument --a-range: range must look like LO..HI"),
            (("--a-range=1..2..3",), "argument --a-range: range must look like LO..HI"),
            (("--a-range=3..1",), "argument --a-range: empty range"),
        ):
            err = run_refused(capsys, monkeypatch, "scan", *argv, "--b-range=1..2", "--out=x")
            assert err.endswith(f"\nerror: {why}\n"), argv
        err = run_refused(
            capsys, monkeypatch, "enumerate", "--A", "1", "--B", "1", "--kind", "third",
            "--max-index", "5",
        )
        assert err.endswith("\nerror: argument --kind: kind must be 'first' or 'second'\n")

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "classify", "--A", "1")
        assert code == 1

    def test_every_subcommand_has_a_schema_and_help(self, capsys):
        # the schema is the one other list of subcommands: verify-tables is
        # its verifyTables entry
        (subparsers,) = [
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        commands = list(subparsers.choices)
        assert len(commands) == 9
        for command in commands:
            head, *rest = command.split("-")
            assert head + "".join(w.title() for w in rest) in SCHEMA["$defs"], command
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out.startswith(f"usage: lucasaps {command} ")

    def test_parser_is_built_once_per_process(self, capsys):
        # every call reuses the first call's parser and answers as it did
        calls = [
            ("classify", "--A", "1", "--B", "2"),
            ("classify", "--A", "1"),
            ("enumerate", "--A", "1", "--B", "1", "--kind", "third", "--max-index", "5"),
            ("enumerate", "--A", "1", "--B", "1", "--kind", "first", "--max-index", "5"),
            ("certify", "--A", "2", "--B", "1", "--kind", "third"),
        ]
        cli._build_parser.cache_clear()
        first = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 1, 1, 0, 1]
        for _ in range(2):
            assert [run(capsys, *argv) for argv in calls] == first
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3 * len(calls) - 1)


_LOADED = "sorted(m for m in sys.modules if m.startswith('lucasaps.'))"
_PAIR_MODULES = ["lucasaps.core", "lucasaps.special"]
_SEARCH_MODULES = [*_PAIR_MODULES, "lucasaps.apsearch"]
_CERTIFY_MODULES = [*_SEARCH_MODULES, "lucasaps.certify"]
_SOLVER_MODULES = [*_SEARCH_MODULES, "lucasaps.poly", "lucasaps.smallcase"]
_ENGINE_MODULES = sorted([*_CERTIFY_MODULES, "lucasaps.poly", "lucasaps.smallcase",
                          "lucasaps.tables"])
# each subcommand with small valid input, and the modules it must load
_SUBCOMMAND_RUNS = {
    "classify": (["--A", "1", "--B", "2"], _PAIR_MODULES),
    "factor-trinomial": (["--shape", "x^a+x^b-2", "--a", "3", "--b", "1"], _PAIR_MODULES),
    "sunit-bound": ([], _PAIR_MODULES),
    "enumerate": (["--A", "1", "--B", "1", "--kind", "first", "--max-index", "10"],
                  _SEARCH_MODULES),
    "families": (["--A", "1", "--B", "1", "--kind", "first", "--max-exponent", "10"],
                 _SEARCH_MODULES),
    "certify": (["--A", "2", "--B", "1", "--kind", "first"], _CERTIFY_MODULES),
    "scan": (["--a-range=1..2", "--b-range=1..2", "--out", "{tmp}/rows.csv"], _CERTIFY_MODULES),
    "smallcases": (["--kind", "first", "--max-index", "3"], _SOLVER_MODULES),
    "verify-tables": (["--b-cap", "10"], [*_ENGINE_MODULES, "lucasaps.resources"]),
}


class TestImportBoundary:
    def test_import_loads_no_submodule(self):
        assert _fresh(f"import sys, lucasaps; print({_LOADED})") == "[]\n"

    def test_cli_import_loads_core_only(self):
        probe = (f"import sys, lucasaps.cli; print({_LOADED}, "
                 "[m for m in ('csv', 'fractions') if m in sys.modules])")
        assert _fresh(probe) == "['lucasaps.cli', 'lucasaps.core'] []\n"

    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_RUNS))
    def test_subcommand_loads_what_it_runs(self, tmp_path, command):
        # each handler imports its own modules; the parser adds special
        probe = ("import contextlib, io, sys, lucasaps.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = lucasaps.cli.main(sys.argv[1:])\n"
                 f"print(code, {_LOADED})")
        args, modules = _SUBCOMMAND_RUNS[command]
        argv = [command, *(a.replace("{tmp}", str(tmp_path)) for a in args)]
        assert _fresh(probe, *argv) == f"0 {sorted(['lucasaps.cli', *modules])}\n"

    def test_every_public_name_resolves_to_its_home(self):
        assert lucasaps.__all__[0] == "__version__"
        for name in lucasaps.__all__[1:]:
            value = getattr(lucasaps, name)
            home = sys.modules[value.__module__]
            assert getattr(home, name) is value, name
            assert name in dir(lucasaps)
        star = {}
        exec("from lucasaps import *", star)
        assert set(lucasaps.__all__) <= set(star)
        assert all(star[name] is getattr(lucasaps, name) for name in lucasaps.__all__)
        # term and closed_form_check are test helpers; alpha_beta is gone
        for module in (lucasaps, lucasaps.core):
            for name in ("no_such_name", "term", "alpha_beta", "closed_form_check",
                         "ClosedFormReport"):
                with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
                    getattr(module, name)
        with pytest.raises(ImportError):
            exec("from lucasaps import no_such_name", {})
        # the errors cli.main catches live in core; their old homes re-export them
        assert apsearch.CertificateFailureError is lucasaps.core.CertificateFailureError
        assert smallcase.SqueezeUnresolvedError is lucasaps.core.SqueezeUnresolvedError

    def test_public_names_resolve_in_a_fresh_interpreter(self):
        # the names come from their modules on first use, not at import
        probe = ("import sys, lucasaps\n"
                 "first = lucasaps.find_aps\n"
                 f"print(first is lucasaps.find_aps, {_LOADED})\n"
                 "from lucasaps import *\n"
                 f"print(len(lucasaps.__all__), {_LOADED})")
        assert _fresh(probe) == (
            "True ['lucasaps.apsearch', 'lucasaps.core']\n"
            f"{len(lucasaps.__all__)} {_ENGINE_MODULES}\n"
        )
