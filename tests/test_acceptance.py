"""Acceptance gate: one test per criterion, numbered to match the summary
lines that conftest prints at the end of the run.

Criteria 4 and 8 pin reference values for the C2 labels (0, 1), the
Hermitian symmetric domain Sp(4,R)/U(2).  Both values are derived by hand
in the tests' comments, independently of the program: the classical
witness -omega_2 = (-1, -1) and the count of 2 invariant complex
structures.  Each is also checked against a second oracle (the lattice
scan and the sign-hypercube enumeration respectively).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    SWEEP_SYSTEMS,
    acceptance_detail,
    brute_force_structures,
    sweep_label_vectors,
)
from pdclass.classifier import (
    classify,
    curvature_signature,
    grading_cone_system,
    predicts_vanishing,
    sign_violations,
    verify_compact_from_noncompact,
)
from pdclass.cone import decide_cone, make_cone_system, verify_certificate
from pdclass.grading import make_grading
from pdclass.oracle import lattice_cone_search, survey_crosscheck
from pdclass.rootsys import build_root_system, verify_triple_sum_reduction
from pdclass.structures import (
    enumerate_structures,
    new_complex_structure,
    parabolic_of,
    positive_system_of,
    validate_structure,
)
from pdclass.cli import render_survey_csv

SWEEP_FAMILIES = ["A", "B", "C", "D", "G", "F"]
SWEEP_MAX_RANK = 4


@pytest.fixture(scope="module")
def sweep():
    """Every grading of the sweep, classified once; (gradings, reports, secs)."""
    t0 = time.perf_counter()
    gradings = {}
    reports = {}
    for type_label, rank in SWEEP_SYSTEMS:
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            g = make_grading(rs, labels)
            gradings[(type_label, rank, labels)] = g
            reports[(type_label, rank, labels)] = classify(g)
    return gradings, reports, time.perf_counter() - t0


def test_criterion_1(sweep):
    """All three routes agree on every grading of the sweep, within budget."""
    gradings, reports, elapsed = sweep
    assert len(reports) == 403
    assert elapsed < 300.0
    # classify() raises InternalInconsistency on any route disagreement, so
    # reaching this point means all three verdicts matched everywhere; the
    # proof objects must still sit on the right side of the split.
    for report in reports.values():
        assert (report.witness_classical is not None) == report.classical
        assert (report.witness_nonclassical is not None) == (not report.classical)
        assert (report.farkas is not None) == (not report.classical)
        assert report.bracket_generates == (not report.classical)
        if report.classical:
            assert report.hermitian_type
    n_classical = sum(1 for r in reports.values() if r.classical)
    acceptance_detail(
        1,
        f"403 gradings, {n_classical} classical, routes agree, {elapsed:.1f}s",
    )


def test_criterion_2():
    """The triple-sum reduction holds cleanly on every sweep system, and
    dropping the degeneracy exclusion breaks it already in rank two."""
    t0 = time.perf_counter()
    for type_label, rank in SWEEP_SYSTEMS:
        rs = build_root_system(type_label, rank)
        holds, violations = verify_triple_sum_reduction(rs)
        assert holds, (type_label, rank, violations[:3])
        assert violations == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    a2 = build_root_system("A", 2)
    holds, violations = verify_triple_sum_reduction(a2, include_degenerate=True)
    assert not holds
    assert len(violations) >= 1
    acceptance_detail(
        2,
        f"13 systems clean in {elapsed:.2f}s; degenerate A2 triples: "
        f"{len(violations)} violations",
    )


def test_criterion_3(sweep):
    """Brackets of noncompact pairs span the nonzero compact directions."""
    gradings, reports, _ = sweep
    for key, g in gradings.items():
        assert verify_compact_from_noncompact(g), key
    acceptance_detail(3, f"holds on all {len(gradings)} gradings")


def test_criterion_4():
    """Rank-two worked fixtures, then the pinned classical witness
    -omega_2 = (-1, -1) for the C2 labels (0, 1), confirmed by the cone,
    by classify and by the lattice oracle; (1, 0) lies outside that cone."""
    c2 = build_root_system("C", 2)

    g11 = make_grading(c2, (1, 1))
    r11 = classify(g11)
    assert not r11.classical
    assert r11.hermitian_type
    assert r11.m0 == 3 and r11.dim_D == 4
    assert r11.witness_nonclassical == ((1, 0), (0, 1))
    sys11 = grading_cone_system(g11)
    assert lattice_cone_search(sys11, 3) is None
    assert verify_certificate(sys11, r11.farkas)

    g01 = make_grading(c2, (0, 1))
    r01 = classify(g01)
    assert r01.classical
    assert r01.hermitian_type
    sys01 = grading_cone_system(g01)
    assert sys01.contains(r01.witness_classical)
    point = lattice_cone_search(sys01, 3)
    assert point == (-3, -3)
    assert sys01.contains(point)

    # Pinned reference value, derived by hand.  With the symmetrised form
    # (a1,a1) = 2, (a1,a2) = -2, (a2,a2) = 4, the cone asks (w,a) >= 0 on the
    # compact positive (1,0) and (w,b) <= 0 on the noncompact positives
    # (0,1), (1,1), (2,1).  The fundamental weight of the single noncompact
    # simple root is omega_2 = a1 + a2: it pairs to 0 with a1 and to 2 with
    # a2, i.e. to 1 with the coroot a2/2.  So -omega_2 = (-1, -1) pairs to 0
    # with (1,0) and to -2 with each noncompact positive: a classical witness.
    pinned = (-1, -1)
    assert sys01.contains(pinned)
    assert r01.witness_classical == pinned
    # (1, 0) pairs to +2 with (2, 1), so it breaks the noncompact-side
    # inequality there; it is not a witness under either sign convention.
    assert not sys01.contains((1, 0))

    acceptance_detail(
        4,
        "pinned witness (-1,-1) = -omega_2 verified; (1,0) outside the cone; "
        f"lattice point {point} verified",
    )


def test_criterion_5(sweep):
    """Every seeded random weight on a non-classical grading hits at least
    one negative curvature eigenvalue, so the vanishing predicate fires."""
    gradings, reports, _ = sweep
    rng = random.Random(58231)
    checked = 0
    n_nonclassical = 0
    for key, g in gradings.items():
        if reports[key].classical:
            continue
        n_nonclassical += 1
        rank = g.root_system.rank
        for _ in range(100):
            weight = tuple(rng.randint(-5, 5) for _ in range(rank))
            while not any(weight):
                weight = tuple(rng.randint(-5, 5) for _ in range(rank))
            q = sign_violations(g, weight)
            assert q >= 1, (key, weight)
            assert predicts_vanishing(g, weight)
            (n_pos, n_zero, n_neg), _ = curvature_signature(g, weight)
            assert n_neg == q
            checked += 1
    assert n_nonclassical > 0
    acceptance_detail(
        5,
        f"{n_nonclassical} non-classical gradings x 100 weights = "
        f"{checked} samples, q >= 1 on every one",
    )


def test_criterion_6(sweep):
    """The full new-structure pipeline succeeds on every non-classical
    grading of Hermitian type in the sweep, with no anomaly raised."""
    gradings, reports, _ = sweep
    n_cases = 0
    for key, g in gradings.items():
        report = reports[key]
        if report.classical or not report.hermitian_type:
            continue
        ns = new_complex_structure(g)
        ok, violations = validate_structure(g, ns.structure.roots)
        assert ok, (key, violations)
        assert ns.differs_from_original, key
        assert ns.projection_holomorphic, key
        parabolic = parabolic_of(g, ns.structure)
        assert len(parabolic) == len(ns.structure.roots) + len(g.isotropy_roots)
        positive, simples = positive_system_of(g, ns.structure)
        assert len(simples) == g.root_system.rank
        rs = g.root_system
        assert not rs.root_set_sum(ns.splitting.minus_roots, ns.splitting.minus_roots)
        n_cases += 1
    assert n_cases > 0
    acceptance_detail(6, f"{n_cases} non-classical Hermitian gradings, all clean")


def test_criterion_7(sweep):
    """Fuzzed sign flips of sweep-derived cone systems: every decision
    carries a verified proof object, survives positive rescaling of the
    normals, and matches the radius-two lattice scan one-sidedly."""
    gradings, _, _ = sweep
    pool = [grading_cone_system(g) for g in gradings.values()]
    rng = random.Random(90217)
    n_trivial = 0
    for _ in range(1000):
        base = rng.choice(pool)
        normals = tuple(
            tuple(-x for x in n) if rng.random() < 0.5 else n for n in base.normals
        )
        system = make_cone_system(normals)
        decision = decide_cone(system)
        if decision.trivial:
            n_trivial += 1
            assert verify_certificate(system, decision.certificate)
        else:
            assert any(decision.witness)
            assert system.contains(decision.witness)
        scales = [
            rng.choice((1, 2, 3, Fraction(1, 2), Fraction(5, 3))) for _ in normals
        ]
        rescaled = make_cone_system(
            [tuple(s * x for x in n) for s, n in zip(scales, normals)]
        )
        assert decide_cone(rescaled).trivial == decision.trivial
        point = lattice_cone_search(system, 2)
        if point is not None:
            assert not decision.trivial
        if not decision.trivial and max(abs(x) for x in decision.witness) <= 2:
            assert point is not None
    acceptance_detail(
        7, f"1000 fuzzed systems, {n_trivial} trivial, all proofs verified"
    )


def test_criterion_8():
    """Structure enumeration against the sign-hypercube oracle, then the
    pinned count 2 for the C2 labels (0, 1): p+ and its conjugate p-."""
    a1 = make_grading(build_root_system("A", 1), (1,))
    found_a1, truncated = enumerate_structures(a1)
    assert not truncated
    assert len(found_a1) == 2
    assert {cs.roots for cs in found_a1} == brute_force_structures(a1)
    assert frozenset({(1,)}) in {cs.roots for cs in found_a1}

    c2 = build_root_system("C", 2)
    g11 = make_grading(c2, (1, 1))
    found_11, truncated = enumerate_structures(g11)
    assert not truncated
    assert len(found_11) == 8
    assert {cs.roots for cs in found_11} == brute_force_structures(g11)
    original = frozenset(c2.positive_roots) - frozenset(g11.isotropy_roots)
    assert original in {cs.roots for cs in found_11}

    g01 = make_grading(c2, (0, 1))
    found_01, truncated = enumerate_structures(g01)
    assert not truncated
    oracle_01 = brute_force_structures(g01)
    assert {cs.roots for cs in found_01} == oracle_01
    assert len(found_01) == len(oracle_01)
    original_01 = frozenset(c2.positive_roots) - frozenset(g01.isotropy_roots)
    assert original_01 in {cs.roots for cs in found_01}

    # Pinned reference value, derived by hand.  The only isotropy root is
    # a1 = (1, 0), and its string (0,1) -> (1,1) -> (2,1) links all three
    # noncompact positives, so invariance under the isotropy forces one sign
    # on all three.  Both uniform choices, p+ and p-, are closed under sums,
    # so there are exactly 2: the complex structure of the Hermitian
    # symmetric space and its conjugate.
    assert len(found_01) == 2

    acceptance_detail(
        8,
        "pinned count 2 for C2/0,1 (p+ and p-) verified by backtracking and "
        "the hypercube oracle (A1: 2, C2/1,1: 8, all matching)",
    )


def test_criterion_9():
    """Survey output over the sweep is byte-identical across repeated runs
    and across worker counts."""
    runs = [
        survey_crosscheck(SWEEP_FAMILIES, SWEEP_MAX_RANK),
        survey_crosscheck(SWEEP_FAMILIES, SWEEP_MAX_RANK),
        survey_crosscheck(SWEEP_FAMILIES, SWEEP_MAX_RANK, jobs=4),
    ]
    outputs = []
    for result in runs:
        assert result.failures == ()
        assert len(result.rows) == 403
        outputs.append(render_survey_csv(result).encode("utf-8"))
    assert outputs[0] == outputs[1] == outputs[2]
    acceptance_detail(
        9,
        f"{len(outputs[0])} bytes identical across two serial runs and jobs=4",
    )
