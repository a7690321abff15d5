"""Grading construction, derived root sets, and the compact-center solver."""
from __future__ import annotations

import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXCEPTIONAL_SAMPLE,
    SWEEP_SYSTEMS,
    reference_grade,
    reference_nullspace,
    sweep_label_vectors,
)
from pdclass.errors import CompactForm, LabelOutOfRange
from pdclass.grading import HodgeGrading, make_grading, rational_nullspace
from pdclass.rootsys import build_root_system, root_key


def grading(type_label, rank, labels):
    return make_grading(build_root_system(type_label, rank), labels)


class TestC2Fixtures:
    def test_labels_1_1(self):
        g = grading("C", 2, (1, 1))
        grades = [reference_grade(g, a) for a in g.root_system.positive_roots]
        assert grades == [1, 1, 2, 3]
        assert g.isotropy_roots == frozenset()
        assert g.compact_positive == ((1, 1),)
        assert g.noncompact_positive == ((1, 0), (0, 1), (2, 1))
        assert g.fiber_roots == ((1, 1),)
        assert g.tangent_roots == ((1, 0), (0, 1), (1, 1), (2, 1))
        assert (g.dim_D, g.dim_KV, g.m0) == (4, 1, 3)
        assert g.two_rho_nc == (3, 2)
        assert g.compact_center_basis == ((1, -1),)

    def test_labels_0_1(self):
        g = grading("C", 2, (0, 1))
        grades = [reference_grade(g, a) for a in g.root_system.positive_roots]
        assert grades == [0, 1, 1, 1]
        assert g.isotropy_roots == frozenset({(1, 0), (-1, 0)})
        assert g.compact_positive == ((1, 0),)
        assert g.noncompact_positive == ((0, 1), (1, 1), (2, 1))
        assert g.fiber_roots == ()
        assert g.tangent_roots == ((0, 1), (1, 1), (2, 1))
        assert (g.dim_D, g.dim_KV, g.m0) == (3, 0, 3)
        assert g.two_rho_nc == (3, 3)
        assert g.compact_center_basis == ((0, 1),)

    def test_labels_2_1(self):
        g = grading("C", 2, (2, 1))
        grades = [reference_grade(g, a) for a in g.root_system.positive_roots]
        assert grades == [2, 1, 3, 5]
        assert g.isotropy_roots == frozenset()
        assert g.compact_positive == ((1, 0),)
        assert g.noncompact_positive == ((0, 1), (1, 1), (2, 1))
        assert g.fiber_roots == ((1, 0),)
        assert (g.dim_D, g.dim_KV, g.m0) == (4, 1, 3)
        assert g.compact_center_basis == ((0, 1),)


class TestOtherFixtures:
    def test_a1(self):
        g = grading("A", 1, (1,))
        assert g.isotropy_roots == frozenset()
        assert g.compact_positive == ()
        assert g.noncompact_positive == ((1,),)
        assert (g.dim_D, g.dim_KV, g.m0) == (1, 0, 1)
        assert g.compact_center_basis == ((1,),)

    def test_g2_1_0(self):
        g = grading("G", 2, (1, 0))
        assert g.isotropy_roots == frozenset({(0, 1), (0, -1)})
        assert g.compact_positive == ((0, 1), (2, 1))
        assert g.noncompact_positive == ((1, 0), (1, 1), (3, 1), (3, 2))
        assert g.fiber_roots == ((2, 1),)
        assert (g.dim_D, g.dim_KV, g.m0) == (5, 1, 4)
        # compact roots span the plane: no center, so no Hermitian structure
        assert g.compact_center_basis == ()

    def test_g2_0_1(self):
        g = grading("G", 2, (0, 1))
        assert g.compact_positive == ((1, 0), (3, 2))
        assert g.noncompact_positive == ((0, 1), (1, 1), (2, 1), (3, 1))
        assert g.compact_center_basis == ()

    def test_a3_1_0_1(self):
        g = grading("A", 3, (1, 0, 1))
        assert g.isotropy_roots == frozenset({(0, 1, 0), (0, -1, 0)})
        assert g.compact_positive == ((0, 1, 0), (1, 1, 1))
        assert g.noncompact_positive == ((1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1))
        assert g.compact_center_basis == ((1, 0, -1),)


class TestValidation:
    def test_rejects_wrong_length(self):
        rs = build_root_system("C", 2)
        with pytest.raises(LabelOutOfRange):
            make_grading(rs, (1,))

    @pytest.mark.parametrize("labels", [(3, 1), (1, -1), (1, 7)])
    def test_rejects_out_of_range(self, labels):
        rs = build_root_system("C", 2)
        with pytest.raises(LabelOutOfRange):
            make_grading(rs, labels)

    @pytest.mark.parametrize("labels", [(0,), (2,)])
    def test_rejects_compact_form_rank_one(self, labels):
        rs = build_root_system("A", 1)
        with pytest.raises(CompactForm):
            make_grading(rs, labels)

    def test_rejects_compact_form(self):
        rs = build_root_system("C", 2)
        with pytest.raises(CompactForm):
            make_grading(rs, (0, 2))


def all_sweep_gradings():
    for type_label, rank in SWEEP_SYSTEMS:
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            yield make_grading(rs, labels)


class TestDerivedSetConsistency:
    @pytest.mark.parametrize("type_label,rank", SWEEP_SYSTEMS)
    def test_partition_identities(self, type_label, rank):
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            g = make_grading(rs, labels)
            isotropy_positive = {a for a in rs.positive_roots if a in g.isotropy_roots}
            assert set(g.compact_positive) == set(g.fiber_roots) | isotropy_positive
            assert set(g.tangent_roots) == set(g.fiber_roots) | set(
                g.noncompact_positive
            )
            assert g.compact_roots | g.noncompact_roots == rs.roots
            assert not (g.compact_roots & g.noncompact_roots)
            assert g.compact_roots == {tuple(-x for x in a) for a in g.compact_roots}
            assert g.isotropy_roots <= g.compact_roots
            assert g.dim_D - g.dim_KV == g.m0

    @staticmethod
    def assert_sets_match_reference_grade(g):
        # isotropy is grade 0, compact is even grade, and the positive sets
        # keep the order of positive_roots
        rs = g.root_system
        grade = {a: reference_grade(g, a) for a in rs.roots}
        even = [a for a in rs.positive_roots if grade[a] % 2 == 0]
        assert g.isotropy_roots == {a for a in rs.roots if grade[a] == 0}
        assert g.compact_roots == {a for a in rs.roots if grade[a] % 2 == 0}
        assert g.noncompact_roots == rs.roots - g.compact_roots
        assert g.compact_positive == tuple(even)
        assert g.noncompact_positive == tuple(
            a for a in rs.positive_roots if grade[a] % 2
        )
        assert g.fiber_roots == tuple(a for a in even if grade[a])
        assert g.tangent_roots == tuple(a for a in rs.positive_roots if grade[a])

    def test_sets_match_reference_grade_on_sweep(self):
        for g in all_sweep_gradings():
            self.assert_sets_match_reference_grade(g)

    @pytest.mark.parametrize("type_label,rank,labels", EXCEPTIONAL_SAMPLE)
    def test_sets_match_reference_grade_on_exceptional_sample(
        self, type_label, rank, labels
    ):
        self.assert_sets_match_reference_grade(grading(type_label, rank, labels))

    def test_grade_additivity_everywhere(self):
        for g in all_sweep_gradings():
            rs = g.root_system
            grade = {a: reference_grade(g, a) for a in rs.roots}
            for a in rs.roots:
                for b in rs.roots:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in rs.roots:
                        assert grade[s] == grade[a] + grade[b]
                        # so parity, hence compactness, adds too
                        same = (a in g.compact_roots) == (b in g.compact_roots)
                        assert (s in g.compact_roots) == same
            # spot phrasing of the same fact on the label vector itself
            assert all(grade[s] == c for s, c in zip(rs.simple_roots, g.labels))


class TestCompactCenter:
    @pytest.mark.parametrize("type_label,rank", SWEEP_SYSTEMS)
    def test_center_against_sympy(self, type_label, rank):
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            g = make_grading(rs, labels)
            basis = g.compact_center_basis
            dim = len(basis)
            rows = sorted(g.compact_positive)
            if rows:
                matrix = sympy.Matrix(rows)
                assert dim == rs.rank - matrix.rank()
                for vec in basis:
                    assert all(
                        sum(r * v for r, v in zip(row, vec)) == 0 for row in rows
                    )
            else:
                assert dim == rs.rank
            if basis:
                assert sympy.Matrix(list(basis)).rank() == len(basis)
            for vec in basis:
                first = next(x for x in vec if x != 0)
                assert first > 0

    def test_center_dimension_at_most_one_on_sweep(self):
        # equal-rank involution of a simple algebra: the compact part has
        # center of dimension 0 or 1 (dimension 1 = Hermitian type), except
        # the degenerate rank-one case where there are no compact roots
        for g in all_sweep_gradings():
            dim = len(g.compact_center_basis)
            if g.compact_positive:
                assert dim in (0, 1)
            else:
                assert g.root_system.rank == 1


@st.composite
def integer_matrices(draw):
    """Integer rows of length 1 to 8, mixing fresh rows with zero rows,
    duplicates and integer combinations of earlier rows (rank deficiency)."""
    dim = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["fresh", "zero"] + (["duplicate", "combination"] if rows else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            row = draw(st.tuples(*[st.integers(-4, 4) for _ in range(dim)]))
        elif kind == "zero":
            row = (0,) * dim
        elif kind == "duplicate":
            row = draw(st.sampled_from(rows))
        else:
            p, q = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = tuple(s * x + t * y for x, y in zip(p, q))
        rows.append(row)
    return rows, dim


class TestReferenceNullspace:
    """The integer elimination against the Fraction Gauss-Jordan nullspace it
    replaced (``conftest.reference_nullspace``): the same basis, bit for bit,
    on the compact and the noncompact positives."""

    @staticmethod
    def assert_matches_reference(g):
        rank = g.root_system.rank
        compact = sorted(g.compact_positive, key=root_key)
        noncompact = sorted(g.noncompact_positive, key=root_key)
        assert g.compact_center_basis == reference_nullspace(compact, rank)
        assert rational_nullspace(noncompact, rank) == reference_nullspace(
            noncompact, rank
        )

    def test_every_sweep_grading(self):
        for g in all_sweep_gradings():
            self.assert_matches_reference(g)

    @pytest.mark.parametrize("type_label,rank,labels", EXCEPTIONAL_SAMPLE)
    def test_exceptional_sample(self, type_label, rank, labels):
        self.assert_matches_reference(grading(type_label, rank, labels))

    @given(integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_integer_matrices(self, matrix):
        rows, dim = matrix
        assert rational_nullspace(rows, dim) == reference_nullspace(rows, dim)


@st.composite
def sweep_grading(draw):
    type_label, rank = draw(st.sampled_from(SWEEP_SYSTEMS))
    labels = draw(
        st.lists(st.sampled_from([0, 1, 2]), min_size=rank, max_size=rank).filter(
            lambda ls: 1 in ls
        )
    )
    return make_grading(build_root_system(type_label, rank), tuple(labels))


class TestProperties:
    @given(sweep_grading())
    @settings(max_examples=60, deadline=None)
    def test_parity_matches_compactness(self, g):
        for a in g.root_system.roots:
            assert (a in g.compact_roots) == (reference_grade(g, a) % 2 == 0)

    @given(sweep_grading(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_rho_nc_is_linear_sum(self, g, data):
        total = [0] * g.root_system.rank
        for b in g.noncompact_positive:
            total = [t + x for t, x in zip(total, b)]
        assert g.two_rho_nc == tuple(total)
        assert reference_grade(g, g.two_rho_nc) % 2 == g.m0 % 2
