"""Tests for the three classicality routes, curvature counts, and reports."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdclass.classifier import (
    bracket_generation,
    classify,
    cone_criterion,
    curvature_signature,
    grading_cone_system,
    is_classical_definitional,
    partition_noncompact,
    predicts_vanishing,
    sign_violations,
    verify_compact_from_noncompact,
    verify_simple_noncompact_decomposition,
)
from pdclass.errors import PreconditionClassical
from pdclass.grading import make_grading
from pdclass.rootsys import build_root_system

from conftest import SWEEP_SYSTEMS, sweep_label_vectors

# Small systems only; the full sweep lives in the acceptance suite.
SMALL_SYSTEMS = [(t, r) for t, r in SWEEP_SYSTEMS if r <= 3]


def small_gradings():
    for type_label, rank in SMALL_SYSTEMS:
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            yield make_grading(rs, labels)


class TestDefinitionalRoute:
    def test_first_compact_sum_pair(self, c2):
        g = make_grading(c2, (1, 1))
        assert is_classical_definitional(g) == (False, ((1, 0), (0, 1)))

    def test_sum_free_noncompact_half(self, c2):
        assert is_classical_definitional(make_grading(c2, (0, 1))) == (True, None)

    def test_pair_with_long_root_sum(self, c2):
        # (1,0) + (1,1) = (2,1) has grade 4
        assert is_classical_definitional(make_grading(c2, (1, 2))) == (
            False,
            ((1, 0), (1, 1)),
        )

    def test_short_pair_in_g2(self, g2):
        assert is_classical_definitional(make_grading(g2, (1, 0))) == (
            False,
            ((1, 0), (1, 1)),
        )

    def test_middle_node_compact(self):
        g = make_grading(build_root_system("A", 3), (1, 0, 1))
        assert is_classical_definitional(g) == (False, ((1, 0, 0), (0, 1, 1)))


class TestConeRoute:
    def test_trivial_cone_has_certificate(self, c2):
        decision = cone_criterion(make_grading(c2, (1, 1)))
        assert decision.trivial
        assert decision.witness is None
        assert decision.certificate is not None

    def test_nontrivial_cone_has_witness(self, c2):
        decision = cone_criterion(make_grading(c2, (0, 1)))
        assert not decision.trivial
        assert decision.witness == (-1, -1)
        assert decision.certificate is None

    def test_same_halves_same_cone(self, c2):
        # labels (0,1) and (2,1) induce the same parity classes
        a = grading_cone_system(make_grading(c2, (0, 1)))
        b = grading_cone_system(make_grading(c2, (2, 1)))
        assert a.normals == b.normals

    @pytest.mark.parametrize("labels", [(1, 1), (0, 1), (1, 0), (2, 1)])
    def test_normals_are_the_integer_bilinear_rows(self, c2, labels):
        # the integer rows go into the cone system unchanged, which keeps the
        # witnesses and certificates of every grading as they were
        g = make_grading(c2, labels)
        rows = [c2.bilinear_row(a) for a in g.compact_positive]
        rows += [tuple(-x for x in c2.bilinear_row(b)) for b in g.noncompact_positive]
        system = grading_cone_system(g)
        assert system.normals == tuple(rows)
        assert all(type(x) is int for n in system.normals for x in n)

    def test_rank_one_witness(self, a1):
        decision = cone_criterion(make_grading(a1, (1,)))
        assert decision.witness == (-1,)

    def test_normals_follow_canonical_root_order(self, c2):
        system = grading_cone_system(make_grading(c2, (1, 1)))
        # one compact positive (1,1), then the three noncompact positives negated
        assert system.normals == (
            (Fraction(0), Fraction(2)),
            (Fraction(-2), Fraction(2)),
            (Fraction(2), Fraction(-4)),
            (Fraction(-2), Fraction(0)),
        )


class TestBracketRoute:
    def test_generates_with_trace(self, c2):
        generates, trace = bracket_generation(make_grading(c2, (1, 1)))
        assert generates
        assert trace == ((-1, -1), (1, 0), (0, 1), (2, 1))

    def test_abelian_half_never_generates(self, c2):
        generates, trace = bracket_generation(make_grading(c2, (0, 1)))
        assert not generates
        assert trace == ()

    def test_classical_with_nonempty_fiber(self, c2):
        # fiber root (1,0) adds nothing new against the abelian half
        generates, trace = bracket_generation(make_grading(c2, (2, 1)))
        assert not generates
        assert trace == ()

    def test_trace_in_g2(self, g2):
        generates, trace = bracket_generation(make_grading(g2, (1, 0)))
        assert generates
        assert trace == ((-2, -1), (1, 0), (1, 1), (0, -1), (0, 1), (3, 1), (3, 2))

    def test_trace_reaches_middle_simple(self):
        g = make_grading(build_root_system("A", 3), (1, 0, 1))
        generates, trace = bracket_generation(g)
        assert generates
        assert trace == (
            (-1, -1, -1),
            (1, 0, 0),
            (1, 1, 0),
            (0, 0, 1),
            (0, 1, 1),
            (0, -1, 0),
            (0, 1, 0),
        )


class TestSignViolations:
    def test_two_violations(self, c2):
        g = make_grading(c2, (1, 1))
        assert sign_violations(g, (1, 0)) == 2
        assert predicts_vanishing(g, (1, 0))

    def test_single_violation(self, c2):
        g = make_grading(c2, (0, 1))
        assert sign_violations(g, (1, 0)) == 1

    def test_cone_witness_has_none(self, c2):
        g = make_grading(c2, (0, 1))
        assert sign_violations(g, (-1, -1)) == 0
        assert not predicts_vanishing(g, (-1, -1))

    def test_zero_weight(self, c2):
        for labels in sweep_label_vectors(2):
            assert sign_violations(make_grading(c2, labels), (0, 0)) == 0

    def test_fractional_weight(self, c2):
        g = make_grading(c2, (1, 1))
        q = sign_violations(g, (Fraction(1, 2), Fraction(0)))
        assert q == sign_violations(g, (1, 0))


class TestCurvatureSignature:
    def test_mixed_signature(self, c2):
        g = make_grading(c2, (1, 1))
        signature, eigenvalues = curvature_signature(g, (1, 0))
        assert eigenvalues == (0, -2, 2, -2)
        assert signature == (1, 1, 2)

    def test_signature_with_kernel_direction(self, c2):
        g = make_grading(c2, (0, 1))
        signature, eigenvalues = curvature_signature(g, (1, 0))
        assert eigenvalues == (2, 2, 0, -2)
        assert signature == (2, 1, 1)

    def test_zero_weight_flat(self, c2):
        g = make_grading(c2, (1, 1))
        signature, eigenvalues = curvature_signature(g, (0, 0))
        assert signature == (0, 4, 0)
        assert set(eigenvalues) == {0}

    def test_negatives_count_violations(self):
        for g in small_gradings():
            for weight in ((1,) * g.root_system.rank, (1,) + (0,) * (g.root_system.rank - 1)):
                signature, eigenvalues = curvature_signature(g, weight)
                assert len(eigenvalues) == len(g.root_system.positive_roots)
                assert signature[2] == sign_violations(g, weight)
                assert sum(signature) == len(eigenvalues)


class TestNoncompactPartition:
    def test_negative_pairing_block(self, c2):
        g = make_grading(c2, (1, 1))
        nc1, nc2, nc3 = partition_noncompact(g, (1, 0))
        assert nc1 == ((0, 1),)
        assert nc2 == ()
        assert nc3 == ((1, 0), (2, 1))

    def test_partition_for_second_weight(self, c2):
        g = make_grading(c2, (1, 1))
        nc1, nc2, nc3 = partition_noncompact(g, (0, -1))
        assert nc1 == ((0, 1),)
        assert nc2 == ()
        assert nc3 == ((1, 0), (2, 1))

    def test_blocks_cover_noncompact_positives(self):
        for g in small_gradings():
            nc1, nc2, nc3 = partition_noncompact(g, (1,) * g.root_system.rank)
            merged = sorted(nc1 + nc2 + nc3)
            assert merged == sorted(g.noncompact_positive)
            assert len(nc1) + len(nc2) + len(nc3) == g.m0

    def test_step_difference_block(self, g2):
        # (3,1) - (1,0)? no; (3,1) sits two compact steps away, so nc2 catches
        # exactly the noncompact roots one compact step above a negative one.
        g = make_grading(g2, (1, 0))
        nc1, nc2, nc3 = partition_noncompact(g, (0, 1))
        for beta in nc2:
            assert any(
                tuple(x - y for x, y in zip(beta, b1)) in set(g.compact_positive)
                for b1 in nc1
            )


class TestCompactFromNoncompact:
    def test_holds_on_fixtures(self, a1, c2, g2):
        for rs, labels in ((a1, (1,)), (c2, (1, 1)), (c2, (0, 1)), (g2, (1, 0))):
            assert verify_compact_from_noncompact(make_grading(rs, labels))

    def test_holds_on_small_sweep(self):
        for g in small_gradings():
            assert verify_compact_from_noncompact(g)


class TestSimpleNoncompactDecomposition:
    def test_nonclassical_gradings_decompose(self, c2, g2):
        assert verify_simple_noncompact_decomposition(make_grading(c2, (1, 1)))
        assert verify_simple_noncompact_decomposition(make_grading(g2, (1, 0)))

    def test_requires_nonclassical(self, c2):
        with pytest.raises(PreconditionClassical):
            verify_simple_noncompact_decomposition(make_grading(c2, (0, 1)))

    def test_holds_wherever_defined(self):
        for g in small_gradings():
            classical, _ = is_classical_definitional(g)
            if not classical:
                assert verify_simple_noncompact_decomposition(g)


class TestClassify:
    def test_nonclassical_hermitian_report(self, c2):
        report = classify(make_grading(c2, (1, 1)))
        assert report.domain_text == "C2/1,1"
        assert not report.classical
        assert report.hermitian_type
        assert (report.dim_D, report.dim_KV, report.m0) == (4, 1, 3)
        assert report.two_rho_nc == (3, 2)
        assert report.witness_nonclassical == ((1, 0), (0, 1))
        assert report.witness_classical is None
        assert report.farkas is not None
        assert report.bracket_generates

    def test_classical_report(self, a1):
        report = classify(make_grading(a1, (1,)))
        assert report.classical
        assert report.hermitian_type
        assert (report.dim_D, report.dim_KV, report.m0) == (1, 0, 1)
        assert report.two_rho_nc == (1,)
        assert report.witness_classical == (-1,)
        assert report.farkas is None
        assert not report.bracket_generates

    def test_nonclassical_nonhermitian_report(self, g2):
        report = classify(make_grading(g2, (1, 0)))
        assert not report.classical
        assert not report.hermitian_type
        assert (report.dim_D, report.dim_KV, report.m0) == (5, 1, 4)

    def test_classical_with_fiber(self, c2):
        report = classify(make_grading(c2, (2, 1)))
        assert report.classical
        assert report.hermitian_type
        assert (report.dim_D, report.dim_KV, report.m0) == (4, 1, 3)
        assert report.witness_classical == (-1, -1)

    def test_routes_agree_on_small_sweep(self):
        for g in small_gradings():
            report = classify(g)
            assert report.classical == (report.witness_nonclassical is None)
            assert report.classical == (not report.bracket_generates)
            assert report.classical == (report.witness_classical is not None)
            assert report.classical == (report.farkas is None)
            if report.classical:
                assert report.hermitian_type

    def test_domain_text_format(self):
        report = classify(make_grading(build_root_system("A", 3), (1, 0, 2)))
        assert report.domain_text == "A3/1,0,2"


class TestDynkinSymmetry:
    def test_chain_reversal_preserves_verdicts(self):
        for rank in (2, 3, 4):
            rs = build_root_system("A", rank)
            for labels in sweep_label_vectors(rank):
                a = classify(make_grading(rs, labels))
                b = classify(make_grading(rs, tuple(reversed(labels))))
                assert a.classical == b.classical
                assert bool(a.hermitian_type) == bool(b.hermitian_type)
                assert (a.dim_D, a.dim_KV, a.m0) == (b.dim_D, b.dim_KV, b.m0)

    def test_fork_leg_swap_preserves_verdicts(self):
        rs = build_root_system("D", 4)
        # nodes 0, 2, 3 are the three legs off the center node 1
        def permute(labels, perm):
            legs = [labels[0], labels[2], labels[3]]
            swapped = [legs[p] for p in perm]
            return (swapped[0], labels[1], swapped[1], swapped[2])

        for labels in ((1, 0, 0, 0), (1, 0, 2, 0), (1, 1, 0, 2)):
            base = classify(make_grading(rs, labels))
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                other = classify(make_grading(rs, permute(labels, perm)))
                assert base.classical == other.classical
                assert bool(base.hermitian_type) == bool(other.hermitian_type)
                assert (base.dim_D, base.m0) == (other.dim_D, other.m0)


@st.composite
def sweep_grading(draw):
    type_label, rank = draw(st.sampled_from(SMALL_SYSTEMS))
    rs = build_root_system(type_label, rank)
    labels = draw(
        st.tuples(*[st.sampled_from((0, 1, 2)) for _ in range(rank)]).filter(
            lambda c: 1 in c
        )
    )
    return make_grading(rs, labels)


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(sweep_grading(), st.data())
    def test_violations_bound_curvature(self, g, data):
        weight = data.draw(
            st.tuples(*[st.integers(-6, 6) for _ in range(g.root_system.rank)])
        )
        q = sign_violations(g, weight)
        signature, eigenvalues = curvature_signature(g, weight)
        assert 0 <= q <= len(g.root_system.positive_roots)
        assert signature[2] == q
        assert len(eigenvalues) == len(g.root_system.positive_roots)

    @settings(deadline=None, max_examples=40)
    @given(sweep_grading())
    def test_negated_weight_swaps_strict_signs(self, g):
        weight = (1,) * g.root_system.rank
        sig_plus, _ = curvature_signature(g, weight)
        sig_minus, _ = curvature_signature(g, tuple(-x for x in weight))
        assert sig_plus == (sig_minus[2], sig_minus[1], sig_minus[0])

    @settings(deadline=None, max_examples=30)
    @given(sweep_grading())
    def test_classify_is_deterministic(self, g):
        a = classify(g)
        b = classify(g)
        assert a.classical == b.classical
        assert a.witness_nonclassical == b.witness_nonclassical
        assert a.witness_classical == b.witness_classical
        assert a.closure_trace == b.closure_trace
