"""Cone feasibility: frozen small systems, oracle agreement, certificates."""
from __future__ import annotations

import ast
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdclass
from conftest import (
    SWEEP_SYSTEMS,
    cone_has_nonzero_point,
    reference_decide_cone,
    reference_phase_one,
    sweep_label_vectors,
)
from pdclass.cone import (
    ConeSystem,
    FarkasCertificate,
    _phase_one,
    decide_cone,
    make_cone_system,
    signed_directions,
    verify_certificate,
)
from pdclass.errors import InternalInconsistency
from pdclass.grading import make_grading
from pdclass.rootsys import build_root_system


def grading_cone(type_label, rank, labels):
    g = make_grading(build_root_system(type_label, rank), labels)
    normals = [g.root_system.bilinear_row(a) for a in g.compact_positive]
    normals += [
        tuple(-x for x in g.root_system.bilinear_row(b))
        for b in g.noncompact_positive
    ]
    return make_cone_system(normals)


def assert_matches_reference(sys):
    """Same decision, witness and certificate Fractions as the reference
    Fraction simplex in conftest, which takes the same pivots."""
    decision = decide_cone(sys)
    trivial, witness, combinations = reference_decide_cone(sys.normals)
    assert decision.trivial == trivial
    assert decision.witness == witness
    if trivial:
        got = decision.certificate.combinations
        assert got == combinations
        assert all(type(c) is Fraction for combo in got for c in combo)
    else:
        assert decision.certificate is None


class TestFrozenSystems:
    def test_c2_1_1_trivial(self):
        sys = grading_cone("C", 2, (1, 1))
        assert sys.normals == (
            (0, 2),
            (-2, 2),
            (2, -4),
            (-2, 0),
        )
        decision = decide_cone(sys)
        assert decision.trivial
        assert decision.witness is None
        assert verify_certificate(sys, decision.certificate)

    def test_c2_0_1_nontrivial(self):
        sys = grading_cone("C", 2, (0, 1))
        assert sys.normals == ((2, -2), (2, -4), (0, -2), (-2, 0))
        decision = decide_cone(sys)
        assert not decision.trivial
        assert decision.witness == (-1, -1)
        assert sys.contains(decision.witness)

    def test_mixed_sign_four_normal_system(self):
        # same shape as a rank-2 grading system but with the third normal
        # replaced so the first coordinate axis stays available
        sys = make_cone_system([(2, -2), (2, 0), (2, -4), (0, -2)])
        decision = decide_cone(sys)
        assert not decision.trivial
        assert decision.witness == (1, -1)
        assert sys.contains(decision.witness)
        assert sys.contains((1, 0))

    def test_half_line(self):
        decision = decide_cone(make_cone_system([(1,)]))
        assert not decision.trivial
        assert decision.witness == (1,)

    def test_negative_half_line(self):
        decision = decide_cone(make_cone_system([(-2,)]))
        assert not decision.trivial
        # sign is preserved by normalization: the cone is the negative ray
        assert decision.witness == (-1,)

    def test_full_plane_from_zero_normal(self):
        decision = decide_cone(make_cone_system([(0, 0)]))
        assert not decision.trivial
        assert decision.witness is not None and any(decision.witness)

    def test_rational_normals_stored_as_integer_multiples(self):
        normals = [
            (Fraction(1, 2), Fraction(-2, 3)),
            (Fraction(-3, 4), 1),
            (0, 0),
            (2, Fraction(6, 5)),
        ]
        sys = make_cone_system(normals)
        assert sys.normals == ((3, -4), (-3, 4), (0, 0), (10, 6))
        assert all(type(x) is int for n in sys.normals for x in n)
        for given_normal, stored in zip(normals, sys.normals):
            multiples = {Fraction(a) / b for a, b in zip(stored, given_normal) if b}
            assert len(multiples) <= 1 and all(k > 0 for k in multiples)
        # the cone is the line through (4, 3); the witness is a point of it
        decision = decide_cone(sys)
        assert decision.witness == (4, 3)
        assert sys.contains(decision.witness)

    def test_rational_trivial_cone_replays_against_integer_normals(self):
        sys = make_cone_system(
            [(Fraction(1, 3), 0), (0, Fraction(2, 7)), (Fraction(-1, 2), Fraction(-1, 5))]
        )
        assert sys.normals == ((1, 0), (0, 2), (-5, -2))
        decision = decide_cone(sys)
        assert decision.trivial
        assert verify_certificate(sys, decision.certificate)
        assert_matches_reference(sys)

    def test_construction_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_cone_system([])
        with pytest.raises(ValueError):
            make_cone_system([(1, 0), (1,)])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_cone_system([()])

    @pytest.mark.parametrize(
        "normals",
        [
            # unchecked, this one was decided NONTRIVIAL with witness (1,),
            ((1,), (1, 0)),
            # this one TRIVIAL, its third entry ignored,
            ((1, 0), (-1, 0), (0, 1), (0, -1, 5)),
            # and this one raised IndexError
            ((1, 0), (1,)),
            (),
            ((), ()),
        ],
    )
    def test_hand_built_system_checks_its_shape(self, normals):
        with pytest.raises(ValueError, match="normal"):
            ConeSystem(normals)

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(1), 0.5, "1"])
    def test_hand_built_system_needs_int_entries(self, entry):
        with pytest.raises(ValueError, match="int entries"):
            ConeSystem(((1, 0), (0, entry)))

    def test_contains_checks_the_point_length(self):
        sys = make_cone_system([(1, 0), (0, 1)])
        assert sys.contains((0, 1))
        for point in [(1,), (1, 0, 0), (1, 0, -1)]:
            with pytest.raises(ValueError, match="2 coordinates"):
                sys.contains(point)


class TestCertificates:
    def test_certificate_replays_exactly(self):
        sys = grading_cone("C", 2, (1, 1))
        cert = decide_cone(sys).certificate
        assert len(cert.combinations) == 4
        for direction, coeffs in zip(signed_directions(2), cert.combinations):
            recombined = [
                sum(c * n[i] for c, n in zip(coeffs, sys.normals)) for i in range(2)
            ]
            assert tuple(recombined) == direction

    def test_tampered_sign_rejected(self):
        sys = grading_cone("C", 2, (1, 1))
        cert = decide_cone(sys).certificate
        combos = [list(c) for c in cert.combinations]
        for row in combos:
            for j, value in enumerate(row):
                if value > 0:
                    row[j] = -value
                    bad = FarkasCertificate(2, tuple(tuple(c) for c in combos))
                    assert not verify_certificate(sys, bad)
                    return
        raise AssertionError("certificate had no positive coefficient")

    def test_tampered_sum_rejected(self):
        sys = grading_cone("C", 2, (1, 1))
        cert = decide_cone(sys).certificate
        combos = [list(c) for c in cert.combinations]
        combos[0][0] += Fraction(1, 7)
        bad = FarkasCertificate(2, tuple(tuple(c) for c in combos))
        assert not verify_certificate(sys, bad)

    @pytest.mark.parametrize("spec", [("C", 2, (1, 1)), ("E", 6, (0, 1, 0, 0, 0, 0))])
    def test_nonzero_last_coefficient_rejected(self, spec):
        # the replay sums over the support; the last normal must be in it
        sys = grading_cone(*spec)
        combos = [list(c) for c in decide_cone(sys).certificate.combinations]
        assert combos[0][-1] == 0 and any(sys.normals[-1])
        combos[0][-1] = Fraction(1)
        bad = FarkasCertificate(sys.dimension, tuple(tuple(c) for c in combos))
        assert not verify_certificate(sys, bad)

    @pytest.mark.parametrize("spec", [("C", 2, (1, 1)), ("E", 6, (0, 1, 0, 0, 0, 0))])
    def test_balanced_negative_coefficients_rejected(self, spec):
        # minus the combination for -e1 sums exactly to +e1, with wrong signs
        sys = grading_cone(*spec)
        combos = list(decide_cone(sys).certificate.combinations)
        combos[0] = tuple(-c for c in combos[1])
        assert any(c < 0 for c in combos[0])
        recombined = tuple(
            sum(c * n[i] for c, n in zip(combos[0], sys.normals))
            for i in range(sys.dimension)
        )
        assert recombined == signed_directions(sys.dimension)[0]
        bad = FarkasCertificate(sys.dimension, tuple(combos))
        assert not verify_certificate(sys, bad)

    # the cone of (2, 0), (0, 3), (-1, -1) is {0}; a valid combination for
    # -e1 is (1/2, 2/3, 2), with denominators 2, 3 and 1 (common one 6)
    MIXED = make_cone_system([(2, 0), (0, 3), (-1, -1)])
    MIXED_COMBINATIONS = (
        (Fraction(1, 2), 0, 0),
        (Fraction(1, 2), Fraction(2, 3), 2),
        (0, Fraction(1, 3), 0),
        (Fraction(1, 2), 0, 1),
    )

    def test_mixed_denominators_replay(self):
        assert verify_certificate(
            self.MIXED, FarkasCertificate(2, self.MIXED_COMBINATIONS)
        )
        assert decide_cone(self.MIXED).trivial

    def test_tampered_mixed_denominators_rejected(self):
        # 1/2 and 1/3 in one combination: (1 - 2, 1 - 2) = (-1, -1) != -e1
        combos = list(self.MIXED_COMBINATIONS)
        combos[1] = (Fraction(1, 2), Fraction(1, 3), 2)
        assert not verify_certificate(self.MIXED, FarkasCertificate(2, tuple(combos)))
        # (1, 1) for +e1: right in the first coordinate, wrong in the second
        combos = list(self.MIXED_COMBINATIONS)
        combos[0] = (Fraction(1, 2), Fraction(1, 3), 0)
        assert not verify_certificate(self.MIXED, FarkasCertificate(2, tuple(combos)))

    def test_plain_int_coefficients(self):
        sys = make_cone_system([(1, 0), (0, 1), (-1, -1)])
        good = ((1, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 1))
        assert verify_certificate(sys, FarkasCertificate(2, good))
        forged = ((1, 0, 0), (0, 1, 2), (0, 1, 0), (1, 0, 1))
        assert not verify_certificate(sys, FarkasCertificate(2, forged))
        mixed = ((Fraction(1), 0, 0), (0, 1, Fraction(1, 2)), (0, 1, 0), (1, 0, 1))
        assert not verify_certificate(sys, FarkasCertificate(2, mixed))

    def test_float_coefficient_rejected(self):
        combos = list(self.MIXED_COMBINATIONS)
        combos[0] = (0.5, 0, 0)
        assert not verify_certificate(self.MIXED, FarkasCertificate(2, tuple(combos)))

    def test_empty_support_rejected(self):
        # an all-zero combination sums to the origin, never to a direction
        combos = list(self.MIXED_COMBINATIONS)
        for k in range(len(combos)):
            forged = combos[:k] + [(0, Fraction(0), 0)] + combos[k + 1 :]
            assert not verify_certificate(
                self.MIXED, FarkasCertificate(2, tuple(forged))
            )

    def test_negative_numerator_rejected(self):
        # -1/2 times (-2, 0) is +e1: the right sum with a negative coefficient
        sys = make_cone_system([(2, 0), (-2, 0), (0, 1), (0, -1)])
        good = (
            (Fraction(1, 2), 0, 0, 0),
            (0, Fraction(1, 2), 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )
        assert verify_certificate(sys, FarkasCertificate(2, good))
        forged = list(good)
        forged[0] = (0, Fraction(-1, 2), 0, 0)
        assert sum(c * n[0] for c, n in zip(forged[0], sys.normals)) == 1
        assert not verify_certificate(sys, FarkasCertificate(2, tuple(forged)))

    def test_wrong_shape_rejected(self):
        sys = grading_cone("C", 2, (1, 1))
        cert = decide_cone(sys).certificate
        assert not verify_certificate(sys, FarkasCertificate(3, cert.combinations))
        assert not verify_certificate(
            sys, FarkasCertificate(2, cert.combinations[:-1])
        )
        # one combination one coefficient short of the number of normals
        short = (cert.combinations[0][:-1],) + cert.combinations[1:]
        assert not verify_certificate(sys, FarkasCertificate(2, short))


class TestDeterminismAndScaling:
    def test_repeat_runs_identical(self):
        sys = grading_cone("C", 2, (0, 1))
        first = decide_cone(sys)
        second = decide_cone(sys)
        assert first.witness == second.witness
        sys2 = grading_cone("C", 2, (1, 1))
        assert (
            decide_cone(sys2).certificate.combinations
            == decide_cone(sys2).certificate.combinations
        )

    @pytest.mark.parametrize(
        "scales", [(1, 2, 3, 4), (Fraction(1, 2), 5, Fraction(7, 3), 1)]
    )
    def test_positive_rescaling_keeps_branch(self, scales):
        for labels in [(1, 1), (0, 1), (1, 0), (2, 1), (1, 2)]:
            sys = grading_cone("C", 2, labels)
            scaled = make_cone_system(
                [
                    tuple(s * x for x in normal)
                    for s, normal in zip(scales, sys.normals)
                ]
            )
            original = decide_cone(sys)
            rescaled = decide_cone(scaled)
            assert original.trivial == rescaled.trivial
            if not rescaled.trivial:
                assert sys.contains(rescaled.witness)


class TestEliminationOracleAgreement:
    @pytest.mark.parametrize(
        "type_label,rank", [(t, r) for t, r in SWEEP_SYSTEMS if r <= 3]
    )
    def test_sweep_systems_match_oracle(self, type_label, rank):
        for labels in sweep_label_vectors(rank):
            sys = grading_cone(type_label, rank, labels)
            expected = cone_has_nonzero_point(sys.normals, rank)
            decision = decide_cone(sys)
            assert decision.trivial == (not expected)
            if not decision.trivial:
                assert sys.contains(decision.witness)
            else:
                assert verify_certificate(sys, decision.certificate)
            assert_matches_reference(sys)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda dim: st.lists(
                st.tuples(*[st.integers(-5, 5) for _ in range(dim)]),
                min_size=1,
                max_size=6,
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_random_systems_match_oracle(self, normals):
        dim = len(normals[0])
        sys = make_cone_system(normals)
        decision = decide_cone(sys)
        assert decision.trivial == (not cone_has_nonzero_point(normals, dim))
        if not decision.trivial:
            assert any(decision.witness)
            assert sys.contains(decision.witness)

    @given(
        st.lists(
            st.tuples(*[st.integers(-5, 5) for _ in range(5)]), min_size=1, max_size=7
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_dimension_five_systems_match_oracle(self, normals):
        # elimination grows doubly exponentially: dimension 5 with at most 7
        # normals stays within milliseconds, dimension 6 with 8 takes seconds
        sys = make_cone_system(normals)
        decision = decide_cone(sys)
        assert decision.trivial == (not cone_has_nonzero_point(normals, 5))
        if not decision.trivial:
            assert sys.contains(decision.witness)
        assert_matches_reference(sys)


def sweep_class_systems():
    """One cone system per parity class of the sweep, as a survey decides
    them: the system depends only on which roots are compact, that is on
    which labels equal 1."""
    systems = {}
    for type_label, rank in SWEEP_SYSTEMS:
        for labels in sweep_label_vectors(rank):
            key = type_label, rank, tuple(c == 1 for c in labels)
            if key not in systems:
                systems[key] = grading_cone(type_label, rank, labels)
    return list(systems.values())


def tableau_inputs(normals):
    """What ``decide_cone`` builds once per decision for ``_phase_one``."""
    return tuple(zip(*normals)), [sum(n) for n in normals]


def assert_directions_match_reference(normals):
    transposed, column_sums = tableau_inputs(normals)
    columns = [tuple(Fraction(x) for x in n) for n in normals]
    for index, direction in enumerate(signed_directions(len(normals[0]))):
        k, sign = index // 2, (1, -1)[index % 2]
        feasible, payload = _phase_one(normals, transposed, column_sums, k, sign)
        expected_feasible, expected = reference_phase_one(columns, direction)
        assert feasible == expected_feasible, direction
        if feasible:
            assert payload == expected, direction
            assert all(type(c) is Fraction for c in payload)
        else:
            # the integer dual is the reference's times the final common
            # denominator, a positive integer
            assert all(type(y) is int for y in payload)
            scale = next(Fraction(y) / e for y, e in zip(payload, expected) if e)
            assert scale > 0 and scale.denominator == 1, direction
            assert payload == tuple(scale * e for e in expected), direction


class TestPhaseOneTableau:
    """``decide_cone`` builds each decision's rows and sums once and solves
    every signed direction from copies of them; pivots, witnesses and
    certificates are the reference Fraction simplex's."""

    def test_sweep_class_systems_match_reference(self):
        systems = sweep_class_systems()
        assert len(systems) == 109
        for sys in systems:
            assert_matches_reference(sys)

    @pytest.mark.parametrize(
        "normals",
        [
            grading_cone("C", 2, (1, 1)).normals,
            grading_cone("C", 2, (0, 1)).normals,
            ((2, -2), (2, 0), (2, -4), (0, -2)),
        ],
        ids=["C2/1,1", "C2/0,1", "mixed-sign"],
    )
    def test_frozen_directions_match_reference(self, normals):
        assert_directions_match_reference(normals)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda dim: st.lists(
                st.tuples(*[st.integers(-5, 5) for _ in range(dim)]),
                min_size=1,
                max_size=6,
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_random_directions_match_reference(self, normals):
        assert_directions_match_reference(make_cone_system(normals).normals)

    @pytest.mark.parametrize("coordinate", range(3))
    def test_combination_checked_in_every_coordinate(self, coordinate):
        # the tableau solves the true normals; the check reads normals that
        # differ from them in one coordinate, so some combination misses
        normals = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
        transposed, column_sums = tableau_inputs(normals)
        forged = tuple(
            tuple(x + (i == coordinate) for i, x in enumerate(n)) for n in normals
        )
        with pytest.raises(InternalInconsistency, match="combination"):
            for k in range(3):
                for sign in (1, -1):
                    _phase_one(forged, transposed, column_sums, k, sign)

    def test_replay_and_scan_share_nothing_with_the_solve(self):
        # the certificate replay and the lattice scan read only the system's
        # normals, so neither can fail the way the solve they check does
        package = Path(pdclass.__file__).parent
        functions = {
            node.name: node
            for module in ("cone.py", "oracle.py")
            for node in ast.parse((package / module).read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)
        }
        solve_names = {"_phase_one", "_ZERO", "transposed", "column_sums"}
        assert solve_names <= {
            n.id
            for name in ("decide_cone", "_phase_one")
            for n in ast.walk(functions[name])
            if isinstance(n, ast.Name)
        }
        for name in ("verify_certificate", "lattice_cone_search"):
            used = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(functions[name])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            assert used & solve_names == set(), name


# rank 4 and exceptional gradings, classical and not, for the slow reference
REFERENCE_SAMPLE = [
    ("A", 4, (1, 0, 0, 1)),
    ("A", 4, (0, 1, 1, 0)),
    ("B", 4, (0, 1, 0, 2)),
    ("B", 4, (1, 0, 0, 0)),
    ("C", 4, (1, 1, 1, 1)),
    ("C", 4, (0, 0, 0, 1)),
    ("D", 4, (2, 1, 0, 1)),
    ("D", 4, (1, 0, 0, 0)),
    ("F", 4, (0, 0, 0, 1)),
    ("F", 4, (1, 2, 1, 0)),
    ("E", 6, (1, 0, 0, 0, 0, 0)),
    ("E", 6, (0, 1, 0, 0, 0, 0)),
    ("E", 6, (2, 0, 1, 0, 2, 1)),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1)),
    ("E", 7, (0, 2, 1, 0, 0, 1, 2)),
    # 120 normals each
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 1)),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
]

_entry = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


class TestReferenceSimplexAgreement:
    """Beyond the sweep systems above: higher ranks, and rational normals,
    which ``make_cone_system`` scales to integer normals."""

    @pytest.mark.parametrize("type_label,rank,labels", REFERENCE_SAMPLE)
    def test_rank_four_and_exceptional_sample(self, type_label, rank, labels):
        assert_matches_reference(grading_cone(type_label, rank, labels))

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda dim: st.lists(
                st.one_of(
                    st.just((0,) * dim), st.tuples(*[_entry for _ in range(dim)])
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_rational_systems(self, normals):
        assert_matches_reference(make_cone_system(normals))

    @given(
        st.integers(min_value=5, max_value=8).flatmap(
            lambda dim: st.lists(
                st.one_of(
                    st.just((0,) * dim), st.tuples(*[_entry for _ in range(dim)])
                ),
                min_size=1,
                max_size=12,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_e_sized_systems(self, normals):
        # the ranks of E6-E8 and one below; the elimination oracle is left
        # to dimension 5 (TestEliminationOracleAgreement), since at
        # dimension 6 and up it can take seconds to minutes per system
        assert_matches_reference(make_cone_system(normals))


_OPTIMIZED_SCRIPT = """
from dataclasses import replace

import pdclass.classifier
import pdclass.cone
import pdclass.oracle
import pdclass.structures
from pdclass.classifier import curvature_signature, grading_cone_system
from pdclass.cli import main, parse_domain
from pdclass.errors import HermitianAnomaly, InternalInconsistency, ValidationFailed

if __debug__:
    raise SystemExit("assertions are still enabled")
for argv in (
    ["classify", "E6/0,1,0,0,0,0"],
    ["curvature", "C2/1,1", "--weight", "1,0"],
    ["structures", "C2/1,1"],
):
    if main(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
# a member whose root split differs from its parity class fails alone
make_grading = pdclass.oracle.make_grading


def forged_split(rs, labels):
    g = make_grading(rs, labels)
    if tuple(labels) == (2, 1):
        return replace(g, compact_positive=g.compact_positive[1:])
    return g


pdclass.oracle.make_grading = forged_split
failures = pdclass.oracle.survey_crosscheck(["C"], 2).failures
if [domain for domain, _ in failures] != ["C2/2,1"]:
    raise SystemExit(f"a forged root split failed {failures}")
if not failures[0][1].startswith("InternalInconsistency: root split"):
    raise SystemExit(f"a forged root split gave {failures[0][1]}")
pdclass.oracle.make_grading = make_grading
# a member whose batch bracket verdict is forged fails alone; C2/1,2 is the
# second member of the class of C2/1,0
bracket_verdicts = pdclass.classifier.bracket_verdicts


def forged_verdicts(gradings):
    verdicts = bracket_verdicts(gradings)
    return tuple(v != (g.labels == (1, 2)) for g, v in zip(gradings, verdicts))


pdclass.classifier.bracket_verdicts = forged_verdicts
failures = pdclass.oracle.survey_crosscheck(["C"], 2).failures
if [domain for domain, _ in failures] != ["C2/1,2"]:
    raise SystemExit(f"a forged bracket verdict failed {failures}")
if "routes disagree with the parity class" not in failures[0][1]:
    raise SystemExit(f"a forged bracket verdict gave {failures[0][1]}")
pdclass.classifier.bracket_verdicts = bracket_verdicts
c2 = parse_domain("C2/1,1")
# a held bracket verdict that the other routes contradict
try:
    pdclass.classifier.classify(c2, False)
    raise SystemExit("a flipped bracket verdict left classify")
except InternalInconsistency:
    pass
pdclass.classifier.sign_violations = lambda g, weight: -1
try:
    curvature_signature(c2, (1, 0))
    raise SystemExit("a wrong violation count left curvature_signature")
except InternalInconsistency:
    pass
validate_structure = pdclass.structures.validate_structure
pdclass.structures.validate_structure = lambda g, chosen: (False, (("forged", ()),))
try:
    pdclass.structures.new_complex_structure(c2)
    raise SystemExit("a rejected structure left new_complex_structure")
except ValidationFailed:
    pass
pdclass.structures.validate_structure = validate_structure
pdclass.structures._rejected = lambda table, isotropy, members: (1 << len(members)) - 1
try:
    pdclass.structures.enumerate_structures(c2)
    raise SystemExit("a rejected structure left enumerate_structures")
except ValidationFailed as exc:
    if "disagree" not in str(exc):
        raise SystemExit(f"the checkers' disagreement went unreported: {exc}")
# +-1 on every noncompact root of A2/1,1 but 2 on its compact root (1,1)
forged = replace(parse_domain("A2/1,1"), compact_center_basis=((1, 1),))
try:
    pdclass.structures.hermitian_splitting(forged)
    raise SystemExit("a center direction off a compact root left hermitian_splitting")
except HermitianAnomaly:
    pass
pdclass.cone.verify_certificate = lambda sys, cert: False
try:
    pdclass.cone.decide_cone(grading_cone_system(parse_domain("E6/0,1,0,0,0,0")))
except InternalInconsistency:
    raise SystemExit(0)
raise SystemExit("a rejected certificate left decide_cone")
"""


class TestOptimizedMode:
    def test_checks_survive_python_O(self):
        proc = subprocess.run(
            [executable, "-O", "-c", _OPTIMIZED_SCRIPT],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "classical no\n" in proc.stdout
        assert "signature (1,1,2)\n" in proc.stdout
        assert "enumeration count 8\n" in proc.stdout

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, so the package checks by raising
        # a PdclassError; a bare AssertionError would escape the CLI's handler
        def raises_assertion_error(node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                return False
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return isinstance(exc, ast.Name) and exc.id == "AssertionError"

        package = Path(pdclass.__file__).parent
        asserts = [
            f"{path.relative_to(package)}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert) or raises_assertion_error(node)
        ]
        assert asserts == []

    def test_scripts_have_no_assert_statements(self):
        # the same check over scripts/*.py, whose checks must survive -O too
        def raises_assertion_error(node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                return False
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return isinstance(exc, ast.Name) and exc.id == "AssertionError"

        scripts = Path(__file__).resolve().parents[1] / "scripts"
        paths = sorted(scripts.glob("*.py"))
        assert paths
        asserts = [
            f"{path.name}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert) or raises_assertion_error(node)
        ]
        assert asserts == []
