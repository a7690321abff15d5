"""CLI tests: parsing, rendering, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pdclass.classifier
import pdclass.cli
import pdclass.oracle
import pdclass.rootsys
from pdclass.cli import main, parse_domain, parse_weight
from pdclass.errors import UsageError


ROOT = Path(__file__).resolve().parents[1]
# stdout recorded before the root-arithmetic and formatter consolidation
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def nothing_built(monkeypatch):
    """Fail the test if a sweep or a root system is built."""

    def forbidden(*args):
        raise AssertionError("sweep or root system built before the input check")

    for module in (pdclass.cli, pdclass.oracle):
        monkeypatch.setattr(module, "sweep_instances", forbidden)
        monkeypatch.setattr(module, "build_root_system", forbidden)


class TestParsing:
    def test_domain_round_trip(self):
        g = parse_domain("C2/1,1")
        assert g.root_system.type_label == "C"
        assert g.labels == (1, 1)

    def test_domain_lowercase_letter(self):
        assert parse_domain("g2/1,0").root_system.type_label == "G"

    def test_domain_missing_slash(self):
        with pytest.raises(UsageError, match="missing '/'"):
            parse_domain("C2")

    def test_domain_bad_rank(self):
        with pytest.raises(UsageError, match="rank"):
            parse_domain("Cx/1")

    @pytest.mark.parametrize("text", ["2/1", "C/1"])
    def test_domain_head_needs_a_letter_and_a_rank(self, text):
        with pytest.raises(UsageError, match="expected a type letter then a rank"):
            parse_domain(text)

    def test_domain_bad_label_position(self):
        with pytest.raises(UsageError, match="label 2"):
            parse_domain("C2/1,z")

    @pytest.mark.parametrize("head", ["A21", "b30", "C60", "D21"])
    @pytest.mark.parametrize("subcommand", ["classify", "curvature", "structures"])
    def test_rank_above_the_cap_rejected_before_building(
        self, capsys, nothing_built, subcommand, head
    ):
        rank = int(head[1:])
        spec = f"{head}/" + ",".join(["1"] * rank)
        argv = [subcommand, spec]
        if subcommand == "curvature":
            argv += ["--weight", ",".join(["1"] * rank)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error[TOO_LARGE]: domain spec {spec!r}: rank {rank} is above the cap 20"
            " for the families A-D\n"
        )

    def test_rank_at_the_cap_accepted(self):
        g = parse_domain("A20/" + ",".join(["1"] + ["0"] * 19))
        assert g.root_system.rank == 20

    def test_label_count_checked_against_rank(self):
        with pytest.raises(UsageError, match="expected 3 labels for C3, got 2"):
            parse_domain("c3/1,0")

    def test_weight_rationals(self):
        assert parse_weight("1/2,-3", 2) == (Fraction(1, 2), Fraction(-3))

    def test_weight_bad_entry(self):
        with pytest.raises(UsageError, match="entry 2"):
            parse_weight("1,sqrt2", 2)

    def test_weight_length_mismatch(self):
        with pytest.raises(UsageError, match="rank-2"):
            parse_weight("1,2,3", 2)

    @pytest.mark.parametrize(
        "text",
        [
            # a 5,001-digit value: its eigenvalues could not be printed
            "1e5000,0",
            # each under Python's 4,300-digit limit, their lcm is not
            f"1/{10**3000 + 1},1/{10**3000 + 3}",
            # Fraction would build a 10**9-digit integer
            "1e999999999,0",
        ],
        ids=["exponent", "denominators", "huge-exponent"],
    )
    def test_weight_entry_above_the_digit_cap(self, text):
        start = time.perf_counter()
        with pytest.raises(UsageError, match="weight entry 1 has more than 100 digits"):
            parse_weight(text, 2)
        assert time.perf_counter() - start < 1

    def test_weight_at_the_digit_cap_prints_at_rank_twenty(self, capsys):
        # twenty 99-digit denominators over a numerator of 1: 100 digits each
        weight = ",".join(f"1/{10**98 + 2 * k + 1}" for k in range(20))
        assert parse_weight("1e99,0", 2) == (Fraction(10**99), Fraction(0))
        code, out, err = run_cli(
            capsys, "curvature", "A20/" + ",".join(["1"] + ["0"] * 19), "--weight", weight
        )
        assert (code, err) == (0, "")
        assert out.startswith("domain A20/1,") and "\nq " in out


class TestClassifyCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "C2/1,1")
        assert code == 0
        assert out == (
            "domain C2/1,1\n"
            "classical no\n"
            "hermitian_type yes\n"
            "dim_D 4\n"
            "dim_KV 1\n"
            "m0 3\n"
            "two_rho_nc 3,2\n"
            "bracket_generates yes\n"
            "cycle_chain_connected yes\n"
            "nonclassical_pair (1,0)+(0,1)\n"
            "farkas_directions 4\n"
        )

    def test_text_report_of_a_classical_domain(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "C2/0,1")
        assert code == 0
        assert out.endswith(
            "bracket_generates no\n"
            "cycle_chain_connected no\n"
            "classical_weight -1,-1\n"
        )
        assert "nonclassical_pair" not in out and "farkas_directions" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "C2/1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["domain"] == {"type": "C", "rank": 2, "labels": [1, 1]}
        assert payload["dims"] == {
            "dim_D": 4,
            "dim_KV": 1,
            "m0": 3,
            "two_rho_nc": [3, 2],
        }
        assert payload["flags"]["classical"] is False
        assert payload["flags"]["hermitian_type"] is True
        assert payload["witnesses"]["nonclassical_pair"] == [[1, 0], [0, 1]]
        assert "classical_weight" not in payload["witnesses"]

    def test_json_classical_witness(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "C2/0,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["classical"] is True
        assert payload["witnesses"]["classical_weight"] == [-1, -1]
        assert "farkas_summary" not in payload["witnesses"]

    def test_json_farkas_round_trip(self, capsys):
        from pdclass.classifier import classify, grading_cone_system
        from pdclass.cone import FarkasCertificate, verify_certificate

        code, out, _ = run_cli(capsys, "classify", "C2/1,1", "--format", "json")
        payload = json.loads(out)
        summary = payload["witnesses"]["farkas_summary"]
        cert = FarkasCertificate(
            dimension=payload["domain"]["rank"],
            combinations=tuple(
                tuple(Fraction(c) for c in combo) for combo in summary["combinations"]
            ),
        )
        system = grading_cone_system(parse_domain("C2/1,1"))
        assert verify_certificate(system, cert)

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "C2/1,1", "--format", "csv")
        assert code == 0
        assert out == (
            "type,rank,labels,classical,hermitian,m0,dim_D\n"
            'C,2,"1,1",false,true,3,4\n'
        )

    def test_invalid_type_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "classify", "X9/1")
        assert code == 1
        assert out == ""
        assert "INVALID_TYPE_RANK" in err

    def test_label_out_of_range_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "C2/1,7")
        assert code == 1
        assert "LABEL_OUT_OF_RANGE" in err

    def test_compact_form_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "C2/0,2")
        assert code == 1
        assert "COMPACT_FORM" in err

    @pytest.mark.parametrize(
        "target", ["directory", "missing-directory", "name-too-long"]
    )
    def test_unwritable_out_exits_one(self, capsys, tmp_path, target):
        # the first two are caught before the run, the last when writing
        out_path = {
            "directory": tmp_path,
            "missing-directory": tmp_path / "absent" / "x",
            "name-too-long": tmp_path / ("x" * 300),
        }[target]
        code, out, err = run_cli(capsys, "classify", "C2/1,1", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error[USAGE]: cannot write {out_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_root_count_mismatch_exits_two(self, capsys, monkeypatch):
        # build_root_system is cached: clear it so A2 is built afresh with the
        # wrong count, and again so later tests do not see a stale system
        monkeypatch.setattr(pdclass.rootsys, "expected_root_count", lambda *_: 7)
        pdclass.rootsys.build_root_system.cache_clear()
        try:
            code, out, err = run_cli(capsys, "classify", "A2/1,0")
        finally:
            pdclass.rootsys.build_root_system.cache_clear()
        assert (code, out) == (2, "")
        assert err.startswith("error[INTERNAL_INCONSISTENCY]: A2: generated 6 roots")


class TestCurvatureCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "curvature", "C2/1,1", "--weight", "1,0")
        assert code == 0
        assert out == (
            "domain C2/1,1\n"
            "weight 1,0\n"
            "eigenvalues 0,-2,2,-2\n"
            "signature (1,1,2)\n"
            "q 2\n"
            "predicts_vanishing yes\n"
        )

    def test_fractional_weight_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "C2/1,1", "--weight", "1/2,0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == ["1/2", "0"]
        assert payload["eigenvalues"] == ["0", "-1", "1", "-1"]
        assert payload["signature"] == [1, 1, 2]
        assert payload["q"] == 2
        assert payload["predicts_vanishing"] is True

    def test_zero_weight(self, capsys):
        code, out, _ = run_cli(capsys, "curvature", "C2/1,1", "--weight", "0,0")
        assert code == 0
        assert "q 0\n" in out
        assert "predicts_vanishing no\n" in out

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "curvature", "C2/1,1", "--weight", "1,0", "--format", "csv"
        )
        assert code == 1
        assert "csv" in err


class TestStructuresCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "structures", "C2/1,1")
        assert code == 0
        assert "center_direction 1,-1\n" in out
        assert "S (-2,-1) (-1,0) (0,1) (1,1)\n" in out
        assert "parabolic (-1,-1) (0,-1) (1,0) (2,1)\n" in out
        assert "positive_system_simples (-2,-1) (1,1)\n" in out
        assert "enumeration count 8\n" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "structures", "C2/1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"]["S"] == [[-2, -1], [-1, 0], [0, 1], [1, 1]]
        assert payload["structure"]["positive_system_simples"] == [[-2, -1], [1, 1]]
        assert payload["splitting"]["center_direction"] == ["1", "-1"]
        assert payload["enumeration"]["count"] == 8
        assert payload["enumeration"]["truncated"] is False

    def test_nonhermitian_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "structures", "G2/1,0")
        assert code == 1
        assert "NOT_HERMITIAN" in err

    def test_large_system_skips_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "structures", "C4/1,1,1,1")
        assert code == 0
        assert "enumeration skipped (16 root pairs exceeds the display bound 12)" in out

    def test_small_system_enumerates(self, capsys):
        code, out, _ = run_cli(capsys, "structures", "A2/1,1")
        assert code == 0
        assert "enumeration count 6\n" in out


class TestSurveyCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "survey", "--types", "C", "--max-rank", "2", "--format", "csv"
        )
        assert code == 0
        assert out == (
            "type,rank,labels,classical,hermitian,m0,dim_D\n"
            'C,2,"0,1",true,true,3,3\n'
            'C,2,"1,0",false,false,2,3\n'
            'C,2,"1,1",false,true,3,4\n'
            'C,2,"1,2",false,false,2,4\n'
            'C,2,"2,1",true,true,3,4\n'
        )

    def test_text_aggregates(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--types", "A", "--max-rank", "1")
        assert code == 0
        assert "A1/1 classical=yes hermitian=yes m0=1 dim_D=1\n" in out
        assert "-- A1: total 1 classical 1 non-classical 0 hermitian 1\n" in out
        assert "failures 0\n" in out

    def test_exceptional_text_pinned(self, capsys):
        # the whole E6 report, byte for byte: no golden covers the E family
        code, out, _ = run_cli(capsys, "survey", "--types", "E", "--max-rank", "6")
        assert code == 0
        data = out.encode()
        assert len(data) == 37701
        assert hashlib.sha256(data).hexdigest() == (
            "bf59e10b804cbfdac958e64305bd51e68c096da8ae8ab14cbc27d59a0596cf5a"
        )

    def test_exceptional_rank_seven_text_pinned(self, capsys):
        # every E6 and E7 grading, byte for byte
        code, out, _ = run_cli(capsys, "survey", "--types", "E", "--max-rank", "7")
        assert code == 0
        data = out.encode()
        assert len(data) == 157799
        assert hashlib.sha256(data).hexdigest() == (
            "9bce93b903072ac3a96f4aca303041b641a3e22b237ec4fddb17e54de11fccff"
        )

    @pytest.mark.skipif(
        os.environ.get("PDCLASS_SLOW") != "1", reason="slow; set PDCLASS_SLOW=1 to run"
    )
    def test_exceptional_rank_eight_text_pinned(self, capsys):
        # every E6, E7 and E8 grading, byte for byte
        code, out, _ = run_cli(capsys, "survey", "--types", "E", "--max-rank", "8")
        assert code == 0
        data = out.encode()
        assert len(data) == 542435
        assert hashlib.sha256(data).hexdigest() == (
            "bbb6b52ee817975943e8c8b17e5b557d0ed44a0cdac22bd747e75d1ad2f5c062"
        )

    def test_text_lists_a_failure(self, capsys, monkeypatch):
        # C2/1,2 is the second member of the class of C2/1,0, and its
        # bracket verdict comes from the class batch
        original = pdclass.classifier.bracket_verdicts

        def flipped(gradings):
            verdicts = original(gradings)
            return tuple(v != (g.labels == (1, 2)) for g, v in zip(gradings, verdicts))

        monkeypatch.setattr(pdclass.classifier, "bracket_verdicts", flipped)
        code, out, _ = run_cli(capsys, "survey", "--types", "C", "--max-rank", "2")
        assert code == 2
        lines = out.splitlines()
        assert "C2/1,2" not in " ".join(lines[:-2])
        assert lines[-2] == "failures 1"
        assert lines[-1].startswith(
            "FAIL C2/1,2: InternalInconsistency: routes disagree with the parity class"
        )

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "survey", "--types", "G", "--max-rank", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert len(payload["rows"]) == 5
        assert payload["aggregates"] == [
            {
                "type": "G",
                "rank": 2,
                "total": 5,
                "classical": 0,
                "nonclassical": 5,
                "hermitian": 0,
            }
        ]
        assert payload["failures"] == []

    @pytest.mark.parametrize("types", ["c", "C,", " c , "])
    def test_family_letters_normalised(self, capsys, types):
        expected = run_cli(capsys, "survey", "--types", "C", "--max-rank", "2")
        assert expected[0] == 0
        assert run_cli(capsys, "survey", "--types", types, "--max-rank", "2") == expected

    def test_unknown_family_named(self, capsys):
        code, out, err = run_cli(capsys, "survey", "--types", "X", "--max-rank", "2")
        assert code == 1
        assert out == ""
        assert "INVALID_TYPE_RANK" in err
        assert "unknown family 'X'" in err

    def test_jobs_flag_deterministic(self, capsys):
        _, serial, _ = run_cli(
            capsys, "survey", "--types", "A,C", "--max-rank", "2", "--format", "csv"
        )
        _, threaded, _ = run_cli(
            capsys,
            "survey",
            "--types",
            "A,C",
            "--max-rank",
            "2",
            "--format",
            "csv",
            "--jobs",
            "4",
        )
        assert serial == threaded

    def test_import_leaves_the_thread_pool_unloaded(self):
        # only a survey with jobs > 1 imports concurrent.futures
        script = "import sys, pdclass.cli; print('concurrent.futures' in sys.modules)"
        src = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "survey.csv"
        code, out, _ = run_cli(
            capsys,
            "survey",
            "--types",
            "A",
            "--max-rank",
            "1",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("type,rank,labels")


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--types", "A,C", "--max-rank", "2")
        assert code == 0
        assert "CHECK triple_sum_reduction: ok (3 systems)\n" in out
        assert "CHECK compact_from_noncompact: ok (11 gradings)\n" in out
        assert "CHECK route_agreement: ok (11 gradings)\n" in out
        assert out.endswith("failures 0\n")

    def test_failing_lemma_lists_the_first_ten_domains(self, capsys, monkeypatch):
        monkeypatch.setattr(pdclass.cli, "verify_compact_from_noncompact", lambda g: False)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemmas", "--types", "A", "--max-rank", "3"
        )
        assert code == 2
        lines = out.splitlines()
        start = lines.index("CHECK compact_from_noncompact: FAIL (25 of 25 gradings)")
        assert lines[start + 1 : start + 12] == [
            "  A1/1",
            "  A2/0,1",
            "  A2/1,0",
            "  A2/1,1",
            "  A2/1,2",
            "  A2/2,1",
            "  A3/0,0,1",
            "  A3/0,1,0",
            "  A3/0,1,1",
            "  A3/0,1,2",
            "CHECK simple_noncompact_decomposition: ok (8 gradings)",
        ]
        assert lines[-1] == "failures 25"

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "equivalence", "--types", "A", "--max-rank", "2"
        )
        assert code == 0
        assert "triple_sum_reduction" not in out
        assert "CHECK route_agreement: ok (6 gradings)\n" in out


class TestRadiusBound:
    @pytest.mark.parametrize("subcommand", ["survey", "verify"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_radius_below_one_rejected_before_the_sweep(
        self, capsys, monkeypatch, tmp_path, subcommand, source
    ):
        def forbidden(*args):
            raise AssertionError("sweep or root system built before the radius check")

        for module in (pdclass.cli, pdclass.oracle):
            monkeypatch.setattr(module, "sweep_instances", forbidden)
            monkeypatch.setattr(module, "build_root_system", forbidden)
        argv = [subcommand, "--types", "A", "--max-rank", "2"]
        if source == "flag":
            argv += ["--radius", "0" if subcommand == "survey" else "-1"]
        else:
            config = tmp_path / "pdclass.cfg"
            config.write_text("oracle_radius = 0\n", encoding="utf-8")
            argv += ["--config", str(config)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err.startswith("error[USAGE]: radius must be >= 1")

    @pytest.mark.parametrize("subcommand", ["survey", "verify"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_radius_above_the_cap_rejected_before_the_sweep(
        self, capsys, tmp_path, nothing_built, subcommand, source
    ):
        argv = [subcommand, "--types", "A", "--max-rank", "2"]
        if source == "flag":
            argv += ["--radius", "11"]
        else:
            config = tmp_path / "pdclass.cfg"
            config.write_text("oracle_radius = 1000\n", encoding="utf-8")
            argv += ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        radius = 11 if source == "flag" else 1000
        assert err == f"error[USAGE]: radius must be <= 10, got {radius}\n"

    @pytest.mark.parametrize(
        "subcommand, option, families",
        [
            ("survey", ["--types", "A", "--max-rank", "20"], "A up to rank 20"),
            ("verify", ["--max-rank", "9"], "A,B,C,D,E,F,G up to rank 9"),
        ],
    )
    def test_sweep_above_the_grading_cap_rejected_before_the_sweep(
        self, capsys, nothing_built, subcommand, option, families
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, subcommand, *option)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err == (
            f"error[TOO_LARGE]: the sweep of {families} has more than 50000 gradings\n"
        )

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_below_one_rejected_before_the_sweep(
        self, capsys, tmp_path, nothing_built, source
    ):
        for jobs in ("0", "-3"):
            argv = ["survey", "--types", "A", "--max-rank", "2"]
            if source == "flag":
                argv += ["--jobs", jobs]
            else:
                config = tmp_path / "pdclass.cfg"
                config.write_text(f"jobs = {jobs}\n", encoding="utf-8")
                argv += ["--config", str(config)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error[USAGE]: jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_above_the_cap_rejected_before_the_sweep(
        self, capsys, tmp_path, nothing_built, source
    ):
        # the builders are forbidden, so no thread pool can start
        for jobs in ("65", "100000"):
            argv = ["survey", "--types", "A,B,C,D,E,F,G", "--max-rank", "8"]
            if source == "flag":
                argv += ["--jobs", jobs]
            else:
                config = tmp_path / "pdclass.cfg"
                config.write_text(f"jobs = {jobs}\n", encoding="utf-8")
                argv += ["--config", str(config)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error[USAGE]: jobs must be <= 64, got {jobs}\n"


    @pytest.mark.parametrize("subcommand", ["survey", "verify"])
    @pytest.mark.parametrize(
        "option, message",
        [
            (["--max-rank", "0"], "max rank must be >= 1, got 0"),
            (["--max-rank", "-3"], "max rank must be >= 1, got -3"),
            (["--types", ","], "the family list is empty"),
            (["--types", " , "], "the family list is empty"),
            (["--types", "E", "--max-rank", "3"], "no listed family has a rank <= 3"),
            (["--types", "D", "--max-rank", "3"], "no listed family has a rank <= 3"),
        ],
    )
    def test_empty_sweep_rejected_before_the_sweep(
        self, capsys, nothing_built, subcommand, option, message
    ):
        # an empty sweep would print "ok (0 gradings)" for every check
        code, out, err = run_cli(capsys, subcommand, *option)
        assert (code, out) == (1, "")
        assert err == f"error[USAGE]: {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_rank = 0", "max rank must be >= 1, got 0"),
            ("types = ,", "the family list is empty"),
        ],
    )
    def test_empty_sweep_from_config_rejected(
        self, capsys, tmp_path, nothing_built, line, message
    ):
        config = tmp_path / "pdclass.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "survey", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error[USAGE]: {message}\n"


    @pytest.mark.parametrize("target", ["directory", "missing-directory"])
    @pytest.mark.parametrize(
        "argv", [["classify", "C2/1,1"], ["survey"], ["verify"]], ids=lambda a: a[0]
    )
    def test_unwritable_out_rejected_before_building(
        self, capsys, tmp_path, nothing_built, argv, target
    ):
        out_path = tmp_path if target == "directory" else tmp_path / "absent" / "x"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error[USAGE]: cannot write {out_path}: ")
        assert not (tmp_path / "absent").exists()


@pytest.mark.usefixtures("nothing_built")
class TestFormats:
    """The format is checked against the subcommand before anything is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "C2/1,1"],
            ["survey"],
            ["curvature", "C2/1,1", "--weight", "1,0"],
            ["structures", "C2/1,1"],
            ["verify"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_format_without_renderer_rejected(self, capsys, tmp_path, argv):
        config = tmp_path / "pdclass.cfg"
        config.write_text("format = xml\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error[USAGE]: {argv[0]} reports have no xml form\n"

    @pytest.mark.parametrize(
        "argv",
        [["curvature", "C2/1,1", "--weight", "1,0"], ["structures", "C2/1,1"]],
        ids=lambda argv: argv[0],
    )
    def test_csv_rejected_before_building(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, out) == (1, "")
        assert err == f"error[USAGE]: {argv[0]} reports have no csv form\n"


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "pdclass.cfg"
        config.write_text(
            "# the G2 sweep\n\ntypes = G\n   \nmax_rank = 2\nformat = csv\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "survey", "--config", str(config))
        assert code == 0
        assert out.startswith("type,rank,labels")
        assert out.count("\nG,2,") == 5

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "pdclass.cfg"
        config.write_text("types = G\nformat = csv\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "survey", "--config", str(config), "--types", "A", "--max-rank", "1"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows == ["A,1,1,true,true,1,1"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "pdclass.cfg"
        config.write_text("colour = blue\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "survey", "--config", str(config))
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("types = A\nmax_rank 2\n", ":2: expected key=value"),
            ("max_rank = x\n", " config value max_rank='x'"),
        ],
        ids=["no-equals", "non-integer"],
    )
    def test_malformed_line_rejected(self, capsys, tmp_path, nothing_built, text, message):
        config = tmp_path / "pdclass.cfg"
        config.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "survey", "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error[USAGE]: ") and err.endswith(message + "\n")

    def test_undecodable_file_rejected(self, capsys, tmp_path, nothing_built):
        config = tmp_path / "pdclass.cfg"
        config.write_bytes(b"types = A\xff\n")
        code, out, err = run_cli(capsys, "survey", "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith(f"error[USAGE]: cannot read config {config}: 'utf-8' codec")

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "survey", "--config", str(tmp_path / "absent.cfg")
        )
        assert code == 1
        assert "cannot read config" in err


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "classify", "C3/1,0,1", "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1

    def test_structures_repeat_identical(self, capsys):
        _, first, _ = run_cli(capsys, "structures", "A3/1,0,1", "--format", "json")
        _, second, _ = run_cli(capsys, "structures", "A3/1,0,1", "--format", "json")
        assert first == second


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pdclass", "classify", "C2/1,1", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["flags"]["classical"] is False

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pdclass", "classify", "X9/1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "INVALID_TYPE_RANK" in proc.stderr

    def test_label_count_error_before_building(self):
        # building A120 takes tens of seconds; the label count needs none of it
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pdclass", "classify", "A120/1"],
            capture_output=True,
            text=True,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "expected 120 labels for A120, got 1" in proc.stderr

    def test_bad_flag_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pdclass", "classify", "C2/1,1", "--format", "xml"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


class TestGolden:
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("classify_C2_1_1.txt", ["classify", "C2/1,1"]),
            ("classify_C2_1_1.json", ["classify", "C2/1,1", "--format", "json"]),
            ("classify_C2_1_1.csv", ["classify", "C2/1,1", "--format", "csv"]),
            (
                "classify_E6_0_1_0_0_0_0.json",
                ["classify", "E6/0,1,0,0,0,0", "--format", "json"],
            ),
            (
                "curvature_C2_1_1_w_1_2_0.json",
                ["curvature", "C2/1,1", "--weight", "1/2,0", "--format", "json"],
            ),
            ("structures_C2_1_1.txt", ["structures", "C2/1,1"]),
            ("structures_C2_1_1.json", ["structures", "C2/1,1", "--format", "json"]),
            ("structures_C4_1_1_1_1.txt", ["structures", "C4/1,1,1,1"]),
            ("survey_AC_2.txt", ["survey", "--types", "A,C", "--max-rank", "2"]),
            (
                "survey_AC_2.csv",
                ["survey", "--types", "A,C", "--max-rank", "2", "--format", "csv"],
            ),
            (
                "survey_AC_2.json",
                ["survey", "--types", "A,C", "--max-rank", "2", "--format", "json"],
            ),
            ("verify_AC_2.txt", ["verify", "--types", "A,C", "--max-rank", "2"]),
            (
                "curvature_C2_1_1_w_1_0.txt",
                ["curvature", "C2/1,1", "--weight", "1,0"],
            ),
            ("structures_C3_1_1_1.txt", ["structures", "C3/1,1,1"]),
            (
                "structures_C3_1_1_1.json",
                ["structures", "C3/1,1,1", "--format", "json"],
            ),
        ],
    )
    def test_stdout_matches_golden(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


class TestScripts:
    @staticmethod
    def run_script(name, *args):
        src = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src))),
        )

    @pytest.mark.parametrize(
        "name, argv",
        [
            (
                "explore_structures_max_rank_3.txt",
                ["explore_structures.py", "--max-rank", "3"],
            ),
            (
                "run_survey_AC_2.txt",
                ["run_survey.py", "--types", "A,C", "--max-rank", "2"],
            ),
        ],
    )
    def test_stdout_matches_golden(self, name, argv):
        proc = self.run_script(*argv)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        if argv[0] == "run_survey.py":
            # the first line reports wall time, which no two runs share
            timing, _, out = out.partition("\n")
            assert re.fullmatch(r"11 gradings in \d+\.\ds \(radius 3, jobs 1\)", timing)
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("option", ["--radius", "--jobs"])
    def test_run_survey_rejects_values_below_one(self, option):
        proc = self.run_script("run_survey.py", option, "0")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(f"error: {option[2:]} must be >= 1, got 0\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-rank", "0"], "max rank must be >= 1, got 0"),
            (["--types", ","], "the family list is empty"),
            (["--types", "E", "--max-rank", "3"], "no listed family has a rank <= 3"),
        ],
    )
    def test_run_survey_rejects_an_empty_sweep(self, argv, message):
        proc = self.run_script("run_survey.py", *argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("script", ["run_survey.py", "explore_structures.py"])
    def test_scripts_reject_a_sweep_above_the_grading_cap(self, script):
        start = time.perf_counter()
        proc = self.run_script(script, "--max-rank", "9")
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(
            "error: the sweep of A,B,C,D,E,F,G up to rank 9 has more than 50000 gradings\n"
        )

    def test_run_survey_rejects_unknown_family(self):
        proc = self.run_script("run_survey.py", "--types", "X")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith("error: unknown family 'X'\n")
