"""Record the reference values the benchmark checks its outputs against.

Run from the repository root:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``.  Every value in it is one on which two
independent computations agree, and the script stops with an error where
they do not:

* sweep rows come from ``survey_crosscheck``, which classifies each grading
  by the three routes and cross-checks the verdict with the lattice scan;
* exceptional verdicts come from the definitional route and, independently,
  from bracket generation;
* enumeration counts come from ``enumerate_structures`` (backtracking) and
  from filtering the full sign hypercube against the structure conditions.

Per system, grading values are listed in ``sweep_instances`` order.  A
verdict is one letter: ``c`` classical (always of Hermitian type), ``h``
non-classical of Hermitian type, ``n`` non-classical and not Hermitian.
Regenerating takes about twenty minutes on one core.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pdclass import oracle  # noqa: E402
from pdclass.classifier import bracket_generation, is_classical_definitional  # noqa: E402
from pdclass.grading import make_grading  # noqa: E402
from pdclass.rootsys import build_root_system  # noqa: E402
from pdclass.structures import enumerate_structures, hermitian_splitting  # noqa: E402

from workloads import SWEEP_MAX_RANK, SWEEP_TYPES, domain_text, verdict_letter  # noqa: E402


def hypercube_count(g) -> int:
    """Structures counted by brute force over every sign choice, sharing no
    code with the backtracking enumeration."""
    rs = g.root_system
    isotropy = list(g.isotropy_roots)
    reps = [a for a in rs.positive_roots if a not in g.isotropy_roots]
    count = 0
    for signs in itertools.product((1, -1), repeat=len(reps)):
        chosen = {tuple(s * x for x in rep) for s, rep in zip(signs, reps)}
        if all(
            tuple(a + b for a, b in zip(v, s)) not in rs.roots
            or tuple(a + b for a, b in zip(v, s)) in chosen
            for v in isotropy
            for s in chosen
        ) and all(
            tuple(a + b for a, b in zip(s1, s2)) not in rs.roots
            or tuple(a + b for a, b in zip(s1, s2)) in chosen
            for s1 in chosen
            for s2 in chosen
        ):
            count += 1
    return count


def new_entry() -> dict:
    return {"verdicts": "", "m0": "", "dim_D": ""}


def add_grading(entry: dict, classical: bool, hermitian: bool, m0: int, dim_D: int) -> None:
    """Append one grading; m0 and dim_D are space-separated integer lists."""
    if classical and not hermitian:
        raise SystemExit("classical grading not of Hermitian type")
    entry["verdicts"] += verdict_letter(classical, hermitian)
    entry["m0"] = f"{entry['m0']} {m0}".lstrip()
    entry["dim_D"] = f"{entry['dim_D']} {dim_D}".lstrip()


def group_by_system(instances):
    systems: dict[str, list[tuple[int, ...]]] = {}
    for type_label, rank, labels in instances:
        systems.setdefault(f"{type_label}{rank}", []).append(labels)
    return systems


def sweep_reference() -> tuple[dict, dict]:
    result = oracle.survey_crosscheck(SWEEP_TYPES, SWEEP_MAX_RANK)
    if result.failures:
        raise SystemExit(f"sweep failures: {result.failures[:3]}")
    systems: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for row in result.rows:
        entry = systems.setdefault(f"{row.type_label}{row.rank}", new_entry())
        add_grading(entry, row.classical, row.hermitian, row.m0, row.dim_D)
        if not row.hermitian:
            continue
        g = make_grading(build_root_system(row.type_label, row.rank), row.labels)
        structures, truncated = enumerate_structures(g)
        brute = hypercube_count(g)
        domain = domain_text(row.type_label, row.rank, row.labels)
        if truncated or len(structures) != brute:
            raise SystemExit(f"{domain}: backtracking {len(structures)}, hypercube {brute}")
        counts[domain] = brute
        print(domain, brute, flush=True)
    return systems, counts


def exceptional_reference() -> dict:
    systems = {}
    for name, labels_list in group_by_system(oracle.sweep_instances(["E"], 8)).items():
        rs = build_root_system("E", int(name[1:]))
        entry = new_entry()
        for labels in labels_list:
            g = make_grading(rs, labels)
            classical, _ = is_classical_definitional(g)
            generates, _ = bracket_generation(g)
            if classical == generates:
                raise SystemExit(f"E{rs.rank}/{labels}: definitional and bracket disagree")
            hermitian = hermitian_splitting(g) is not None
            add_grading(entry, classical, hermitian, g.m0, g.dim_D)
        systems[name] = entry
        print(name, entry["verdicts"].count("c"), "classical of", len(labels_list), flush=True)
    return systems


def main() -> None:
    sweep, counts = sweep_reference()
    reference = {
        "sweep": sweep,
        "structures": counts,
        "exceptional": exceptional_reference(),
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
