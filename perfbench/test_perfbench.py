"""Tests of the benchmark harness itself, on tiny inputs.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    EXCEPTIONAL_ROUND,
    Exceptional,
    Structures,
    Sweep,
    load_reference,
)


@pytest.fixture(scope="module")
def reference():
    return load_reference(HERE / "reference.json")


def tiny(workload_class, **kwargs):
    workload = workload_class(**kwargs)
    workload.min_rounds = 1
    return workload


def tiny_sweep():
    return tiny(Sweep, types=("A", "G"), max_rank=2)


def tiny_structures():
    return tiny(Structures, types=("A", "C"), max_rank=2)


def tiny_exceptional():
    return tiny(Exceptional, round_strata=(("E6", "c"), ("E6", "n")))


def test_benchmark_json_names_every_metric_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == ["sweep", "exceptional", "structures"]
    assert [s for s, _ in EXCEPTIONAL_ROUND].count("E8") == 1


@pytest.mark.parametrize("trace, names", [(False, run.END_TO_END), (True, run.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(reference, trace, names):
    report = run.run_workload(tiny_sweep(), 1, 0, trace, reference)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    # the timed passes, plus one untraced and one traced with --trace 1
    assert result["attempted"] == (1 + 5 + 5) * (Sweep.passes + (2 if trace else 0))
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(names)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_corrupted_reference_counts_as_failed(reference):
    corrupted = copy.copy(reference)
    corrupted.sweep = dict(reference.sweep)
    verdict, m0, dim_d = corrupted.sweep["A2/0,1"]
    corrupted.sweep["A2/0,1"] = (verdict, m0 + 1, dim_d)
    result = run.run_workload(tiny_sweep(), 1, 0, False, corrupted)["result"]
    assert not result["correct"]
    assert result["failed"] == Sweep.passes and result["attempted"] == 11 * Sweep.passes


def test_corrupted_enumeration_count_counts_as_failed(reference):
    corrupted = copy.copy(reference)
    corrupted.structures = dict(reference.structures)
    corrupted.structures["C2/0,1"] = 4
    result = run.run_workload(tiny_structures(), 1, 0, False, corrupted)["result"]
    assert result["failed"] == 1 and not result["correct"]
    # the recorded count is the one backtracking and the hypercube agree on
    assert reference.structures["C2/0,1"] == 2


def test_forged_certificate_counts_as_failed(reference):
    workload = tiny_exceptional()
    pd, inputs, _ = run.set_up(workload, 3, reference)
    records, _ = run.measure(workload, pd, inputs, 0)
    assert run.tally(records)[1] == 0
    domain = next(r.item for r in records if reference.exceptional[r.item][0] != "c")
    payload = json.loads(workload.run(pd, domain))
    combos = payload["witnesses"]["farkas_summary"]["combinations"]
    combos[0][0] = str(Fraction(combos[0][0]) + 1)
    forged = run.checked(workload, pd, inputs, domain, json.dumps(payload, indent=2) + "\n", None)
    attempted, failed, problems = run.tally(records + [forged])
    assert failed == 1 and attempted == len(records) + 1
    assert any("does not replay" in p for p in problems)


def test_traced_run_matches_untraced_outputs(reference):
    for workload in (tiny_sweep(), tiny_structures(), tiny_exceptional()):
        report = run.run_workload(workload, 2, 0, True, reference)
        assert report["result"]["correct"], report["problems"]
        assert not any("differ" in p for p in report["problems"])


def test_layer_picture_matches_the_routes_each_workload_runs(reference):
    sweep = run.run_workload(tiny_sweep(), 1, 0, True, reference)["result"]["metrics"]
    structures = run.run_workload(tiny_structures(), 1, 0, True, reference)["result"]["metrics"]
    assert sweep["oracle.lattice_ms"]["value"] > 0
    assert sweep["cone.decide_ms"]["value"] > 0
    assert structures["oracle.lattice_ms"]["value"] == 0
    assert all(
        m["value"] == 0 for name, m in structures.items() if name.startswith("cone.")
    )
    assert structures["structures.enumerate_ms"]["value"] > 0


@pytest.mark.parametrize("make", [tiny_structures, tiny_sweep])
def test_traced_spans_share_an_id_per_grading(reference, make):
    report = run.run_workload(make(), 1, 0, True, reference)
    tracer = report["layers"]["tracer"]
    gradings = {span[4] for span in tracer.spans if span[0] != "oracle.survey"}
    ops = sum(1 for span in tracer.spans if span[0] == "bench.op")
    # one id per grading, plus one per survey operation around its gradings
    assert len(gradings) == report["notes"]["gradings"] + (ops if make is tiny_sweep else 0)
    for span in tracer.spans:
        parent = span[3]
        if parent is not None and span[0] != "oracle.check_instance":
            assert tracer.spans[parent][4] == span[4]
    assert all(t >= 0 for t in tracer.self_times())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
