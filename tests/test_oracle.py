"""Tests for the lattice-box oracle and the survey cross-check."""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import pdclass.classifier
import pdclass.oracle
from pdclass.classifier import (
    classify,
    grading_cone_system,
    is_classical_definitional,
)
from pdclass.cone import decide_cone, make_cone_system
from pdclass.grading import make_grading
from pdclass.oracle import (
    check_instance,
    lattice_cone_search,
    survey_crosscheck,
    sweep_instances,
)
from pdclass.rootsys import build_root_system

from conftest import SWEEP_SYSTEMS, lattice_points_in_cone, sweep_label_vectors

SWEEP_FAMILIES = sorted({type_label for type_label, _ in SWEEP_SYSTEMS})
SWEEP_MAX_RANK = max(rank for _, rank in SWEEP_SYSTEMS)


def assert_scan_matches_brute_force(system, radius):
    """The pruned scan returns the full scan's first hit, or None."""
    hits = lattice_points_in_cone(system.normals, radius, system.dimension)
    found = lattice_cone_search(system, radius)
    assert found == (hits[0] if hits else None), (system.normals, radius)


def row_fields(row):
    return (
        row.type_label, row.rank, row.labels, row.classical, row.hermitian, row.m0, row.dim_D
    )


def counting(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends its arguments to
    ``calls``."""
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


def exceptional_sample(rank):
    """Every E-rank grading with a single label 1 and the rest 0, and every
    (len // 7)-th one in sweep order."""
    single = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    swept = [labels for _, r, labels in sweep_instances(["E"], rank) if r == rank]
    return single + swept[:: len(swept) // 7]


class TestLatticeSearch:
    def test_radius_below_one_rejected(self):
        system = make_cone_system([(1, 0)])
        for radius in (0, -1):
            with pytest.raises(ValueError, match="radius must be >= 1"):
                lattice_cone_search(system, radius)

    def test_half_line(self):
        system = make_cone_system([(1,)])
        assert lattice_cone_search(system, 1) == (1,)

    def test_first_hit_is_lexicographic_minimum(self, c2):
        system = grading_cone_system(make_grading(c2, (0, 1)))
        assert lattice_cone_search(system, 2) == (-2, -2)
        assert lattice_cone_search(system, 3) == (-3, -3)

    def test_trivial_cone_yields_nothing(self, c2):
        system = grading_cone_system(make_grading(c2, (1, 1)))
        assert lattice_cone_search(system, 3) is None

    def test_mixed_sign_normals(self):
        system = make_cone_system([(2, -2), (2, 0), (2, -4), (0, -2)])
        assert lattice_cone_search(system, 2) == (0, -2)

    def test_found_point_lies_in_cone(self, c2):
        system = grading_cone_system(make_grading(c2, (0, 1)))
        point = lattice_cone_search(system, 3)
        assert system.contains(point)

    def test_matches_slow_scan(self):
        # every sweep grading at radius 1, 2 and 3
        for type_label, rank in SWEEP_SYSTEMS:
            rs = build_root_system(type_label, rank)
            for labels in sweep_label_vectors(rank):
                system = grading_cone_system(make_grading(rs, labels))
                for radius in (1, 2, 3):
                    assert_scan_matches_brute_force(system, radius)

    @pytest.mark.parametrize("rank", [6, 7])
    def test_matches_slow_scan_on_exceptional_sample(self, rank):
        rs = build_root_system("E", rank)
        for labels in exceptional_sample(rank):
            system = grading_cone_system(make_grading(rs, labels))
            assert_scan_matches_brute_force(system, 1)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_matches_slow_scan_on_random_rational_systems(self, data):
        dim = data.draw(st.integers(1, 4))
        entry = st.one_of(
            st.integers(-4, 4),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
        )
        # mixed signs, Fraction entries and zero normals
        normal = st.one_of(st.tuples(*[entry] * dim), st.just((0,) * dim))
        normals = data.draw(st.lists(normal, min_size=1, max_size=6))
        radius = data.draw(st.integers(1, 3))
        assert_scan_matches_brute_force(make_cone_system(normals), radius)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 3),
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=5
        ).filter(lambda rows: any(any(r) for r in rows)),
    )
    def test_one_sided_contract(self, radius, normals):
        system = make_cone_system(normals)
        found = lattice_cone_search(system, radius)
        decision = decide_cone(system)
        if found is not None:
            # a concrete point refutes triviality
            assert not decision.trivial
            assert system.contains(found)
        if not decision.trivial and max(map(abs, decision.witness)) <= radius:
            assert found is not None


class TestSweepInstances:
    def test_lexicographic_order(self):
        instances = sweep_instances(["C", "A"], 2)
        assert instances == sorted(instances)
        assert instances[0] == ("A", 1, (1,))

    def test_rank_floors(self):
        instances = sweep_instances(["A", "B", "C", "D", "E", "F", "G"], 3)
        families = {t for t, _, _ in instances}
        # D starts at rank 4, E at 6, F is rank 4 only
        assert families == {"A", "B", "C", "G"}

    def test_all_labels_have_a_one(self):
        for _, _, labels in sweep_instances(["B"], 3):
            assert 1 in labels

    def test_counts_per_rank(self):
        instances = sweep_instances(["A"], 4)
        by_rank = {}
        for _, rank, _ in instances:
            by_rank[rank] = by_rank.get(rank, 0) + 1
        assert by_rank == {1: 1, 2: 5, 3: 19, 4: 65}


class TestCheckInstance:
    def test_row_fields(self):
        row = check_instance("C", 2, (1, 1))
        assert (row.classical, row.hermitian) == (False, True)
        assert (row.m0, row.dim_D) == (3, 4)

    def test_nonhermitian_instance(self):
        row = check_instance("G", 2, (1, 0))
        assert (row.classical, row.hermitian) == (False, False)

    def test_classical_instance(self):
        row = check_instance("A", 1, (1,))
        assert (row.classical, row.hermitian) == (True, True)

    def test_e6_classical_and_first_nonclassical_gradings(self):
        # every route, the in-box witness check and the structure checks at rank 6
        rs = build_root_system("E", 6)
        instances = [labels for _, _, labels in sweep_instances(["E"], 6)]
        classical = [
            labels
            for labels in instances
            if is_classical_definitional(make_grading(rs, labels))[0]
        ]
        nonclassical = [labels for labels in instances if labels not in classical]
        assert (len(classical), len(nonclassical)) == (64, 601)
        for labels in classical:
            assert check_instance("E", 6, labels).classical
        for labels in nonclassical[:40]:
            assert not check_instance("E", 6, labels).classical


class TestSurvey:
    def test_single_grading_family(self):
        result = survey_crosscheck(["A"], 1)
        assert len(result.rows) == 1
        assert result.failures == ()
        agg = result.aggregates[0]
        assert (agg.total, agg.n_classical, agg.n_nonclassical, agg.n_hermitian) == (
            1,
            1,
            0,
            1,
        )

    def test_rank_two_symplectic_counts(self):
        result = survey_crosscheck(["C"], 2)
        assert result.failures == ()
        agg = result.aggregates[0]
        assert (agg.total, agg.n_classical, agg.n_nonclassical, agg.n_hermitian) == (
            5,
            2,
            3,
            3,
        )
        verdicts = {row.labels: row.classical for row in result.rows}
        assert verdicts[(1, 1)] is False
        assert verdicts[(0, 1)] is True

    def test_no_hermitian_split_form(self):
        result = survey_crosscheck(["G"], 2)
        agg = result.aggregates[0]
        assert agg.total == 5
        assert agg.n_hermitian == 0

    def test_failures_empty_through_rank_three(self):
        result = survey_crosscheck(["A", "B", "C", "G"], 3)
        assert result.failures == ()
        assert len(result.rows) == (1 + 5 + 19) + (5 + 19) + (5 + 19) + 5

    def test_job_count_does_not_change_result(self):
        serial = survey_crosscheck(["A", "C", "G"], 2)
        threaded = survey_crosscheck(["A", "C", "G"], 2, jobs=4)
        assert list(map(row_fields, serial.rows)) == list(map(row_fields, threaded.rows))
        assert serial.failures == threaded.failures

    def test_radius_below_one_raises_before_the_sweep(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("sweep or root system built before the radius check")

        monkeypatch.setattr(pdclass.oracle, "sweep_instances", forbidden)
        monkeypatch.setattr(pdclass.oracle, "build_root_system", forbidden)
        for radius in (0, -1):
            with pytest.raises(ValueError, match="radius must be >= 1"):
                survey_crosscheck(["A", "C"], 2, radius=radius)

    def test_jobs_below_one_raises_before_the_sweep(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("sweep or root system built before the jobs check")

        monkeypatch.setattr(pdclass.oracle, "sweep_instances", forbidden)
        monkeypatch.setattr(pdclass.oracle, "build_root_system", forbidden)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                survey_crosscheck(["A", "C"], 2, jobs=jobs)

    @pytest.mark.parametrize(
        "types, max_rank, message",
        [
            (["A", "C"], 0, "max rank must be >= 1, got 0"),
            (["A", "C"], -3, "max rank must be >= 1, got -3"),
            ([], 2, "the family list is empty"),
            (["", " "], 2, "the family list is empty"),
        ],
    )
    def test_empty_sweep_raises_before_the_sweep(
        self, monkeypatch, types, max_rank, message
    ):
        def forbidden(*args):
            raise AssertionError("sweep or root system built before the input check")

        monkeypatch.setattr(pdclass.oracle, "sweep_instances", forbidden)
        monkeypatch.setattr(pdclass.oracle, "build_root_system", forbidden)
        with pytest.raises(ValueError, match=message):
            survey_crosscheck(types, max_rank)

    def test_one_cone_system_per_grading(self, monkeypatch):
        # the lattice oracle reads the system the cone route decided on, and
        # only the first grading of each parity class builds one: C2's five
        # gradings fall into three classes
        built = []
        make_cone_system = pdclass.classifier.make_cone_system

        def counting(normals):
            built.append(normals)
            return make_cone_system(normals)

        monkeypatch.setattr(pdclass.classifier, "make_cone_system", counting)
        result = survey_crosscheck(["C"], 2)
        assert result.failures == ()
        assert len(result.rows) == 5
        assert len(built) == 3

    def test_rows_align_with_classify(self):
        result = survey_crosscheck(["B"], 2)
        for row in result.rows:
            rs = build_root_system(row.type_label, row.rank)
            report = classify(make_grading(rs, row.labels))
            assert row.classical == report.classical
            assert row.hermitian == bool(report.hermitian_type)
            assert (row.m0, row.dim_D) == (report.m0, report.dim_D)


class TestParityClasses:
    """The survey decides the cone once per parity class (which labels equal
    1) and runs the definitional and bracket routes on every grading."""

    def test_work_per_class_and_per_grading_on_the_sweep(self, monkeypatch):
        names = ("decide", "lattice", "definitional", "bracket", "grading", "structures")
        calls = {name: [] for name in names}
        counting(monkeypatch, pdclass.classifier, "decide_cone", calls["decide"])
        counting(monkeypatch, pdclass.oracle, "lattice_cone_search", calls["lattice"])
        counting(
            monkeypatch, pdclass.classifier, "is_classical_definitional", calls["definitional"]
        )
        counting(monkeypatch, pdclass.classifier, "bracket_generation", calls["bracket"])
        counting(monkeypatch, pdclass.oracle, "make_grading", calls["grading"])
        counting(monkeypatch, pdclass.oracle, "new_complex_structure", calls["structures"])
        result = survey_crosscheck(SWEEP_FAMILIES, SWEEP_MAX_RANK)
        assert result.failures == ()
        assert len(result.rows) == 403
        assert len(calls["decide"]) == len(calls["lattice"]) == 109
        assert len(calls["definitional"]) == len(calls["bracket"]) == 403
        # each grading once, plus the first grading of a class with others
        assert 403 <= len(calls["grading"]) <= 403 + 109
        graded = {(g.root_system.type_label, g.labels) for (g,) in calls["definitional"]}
        assert len(graded) == 403
        # the structures checks on every non-classical Hermitian grading
        assert len(calls["structures"]) == sum(
            not row.classical and row.hermitian for row in result.rows
        ) == 113

    def test_rows_equal_per_grading_check_instance_rows(self):
        result = survey_crosscheck(SWEEP_FAMILIES, SWEEP_MAX_RANK)
        instances = sweep_instances(SWEEP_FAMILIES, SWEEP_MAX_RANK)
        assert [row_fields(row) for row in result.rows] == [
            row_fields(check_instance(*instance)) for instance in instances
        ]

    def test_member_with_a_different_split_fails_alone(self, monkeypatch):
        # C2/0,1 and C2/2,1 form one class; C2/2,1 is its second member
        original = pdclass.oracle.make_grading

        def forged(rs, labels):
            g = original(rs, labels)
            if tuple(labels) == (2, 1):
                return replace(g, compact_positive=g.compact_positive[1:])
            return g

        monkeypatch.setattr(pdclass.oracle, "make_grading", forged)
        result = survey_crosscheck(["C"], 2)
        assert [domain for domain, _ in result.failures] == ["C2/2,1"]
        assert result.failures[0][1].startswith("InternalInconsistency: root split")
        assert [row.labels for row in result.rows] == [(0, 1), (1, 0), (1, 1), (1, 2)]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failed_representative_leaves_its_class_checked_one_by_one(
        self, monkeypatch, jobs
    ):
        # the class of A3/0,1,0 has the members (0,1,0), (0,1,2), (2,1,0), (2,1,2)
        checked = []
        original = pdclass.oracle.check_instance

        def failing(type_label, rank, labels, radius):
            checked.append(labels)
            if labels == (0, 1, 0):
                raise RuntimeError("forged fault")
            return original(type_label, rank, labels, radius)

        monkeypatch.setattr(pdclass.oracle, "check_instance", failing)
        result = survey_crosscheck(["A"], 3, jobs=jobs)
        assert result.failures == (("A3/0,1,0", "RuntimeError: forged fault"),)
        members = [(0, 1, 2), (2, 1, 0), (2, 1, 2)]
        assert all(labels in checked for labels in members)
        reference = {
            labels: row_fields(original("A", 3, labels, 3)) for labels in members
        }
        rows = {row.labels: row_fields(row) for row in result.rows if row.rank == 3}
        assert {labels: rows[labels] for labels in members} == reference
        assert len(result.rows) == 1 + 5 + 18

    @pytest.mark.parametrize("route", ["is_classical_definitional", "bracket_generation"])
    def test_member_whose_route_disagrees_fails_alone(self, monkeypatch, route):
        # C2/1,2 is the second member of the class of C2/1,0
        original = getattr(pdclass.classifier, route)

        def flipped(g):
            verdict, proof = original(g)
            return (not verdict if g.labels == (1, 2) else verdict), proof

        monkeypatch.setattr(pdclass.classifier, route, flipped)
        result = survey_crosscheck(["C"], 2)
        assert [domain for domain, _ in result.failures] == ["C2/1,2"]
        assert "routes disagree with the parity class" in result.failures[0][1]
        assert len(result.rows) == 4
