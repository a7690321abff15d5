"""Tests for the three classicality routes, curvature counts, and reports."""
from __future__ import annotations

import ast
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from itertools import compress, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pdclass
from pdclass.classifier import (
    _sum_table,
    bracket_generation,
    bracket_verdicts,
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
from pdclass.errors import InternalInconsistency, PreconditionClassical
from pdclass.grading import make_grading
from pdclass.rootsys import build_root_system

from conftest import (
    EXCEPTIONAL_SAMPLE,
    SWEEP_SYSTEMS,
    reference_bracket_generation,
    sweep_label_vectors,
)

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


class TestReferenceBracketAgreement:
    """The semi-naive closure against the round-by-round closure it replaced
    (``conftest.reference_bracket_generation``): the same verdict and the
    same trace, discovery order included."""

    @pytest.mark.parametrize("type_label,rank", SWEEP_SYSTEMS)
    def test_every_sweep_grading(self, type_label, rank):
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            g = make_grading(rs, labels)
            assert bracket_generation(g) == reference_bracket_generation(g)

    @pytest.mark.parametrize("type_label,rank,labels", EXCEPTIONAL_SAMPLE)
    def test_exceptional_sample(self, type_label, rank, labels):
        g = make_grading(build_root_system(type_label, rank), labels)
        assert bracket_generation(g) == reference_bracket_generation(g)


def parity_classes(rs, label_vectors):
    """The gradings of ``rs`` grouped by which labels equal 1, in order."""
    classes = {}
    for labels in label_vectors:
        key = tuple(c == 1 for c in labels)
        classes.setdefault(key, []).append(make_grading(rs, labels))
    return list(classes.values())


def single_one_class(rank, position):
    """The gradings with their one label 1 at ``position`` and every other
    label 0 or 2: a parity class of 2**(rank - 1) members."""
    return [
        rest[:position] + (1,) + rest[position:]
        for rest in product((0, 2), repeat=rank - 1)
    ]


def assert_batch_agrees(gradings):
    assert bracket_verdicts(gradings) == tuple(
        bracket_generation(g)[0] for g in gradings
    )


class TestBracketVerdicts:
    """The bit-sliced batch gives ``bracket_generation``'s verdict for every
    grading it is handed."""

    @pytest.mark.parametrize("type_label,rank", SWEEP_SYSTEMS)
    def test_every_sweep_class(self, type_label, rank):
        rs = build_root_system(type_label, rank)
        for gradings in parity_classes(rs, sweep_label_vectors(rank)):
            assert_batch_agrees(gradings)

    def test_every_e6_class(self):
        rs = build_root_system("E", 6)
        for gradings in parity_classes(rs, sweep_label_vectors(6)):
            assert_batch_agrees(gradings)

    def test_e7_class_of_64_members(self):
        # bit 63 and beyond: the masks are wider than a machine word
        rs = build_root_system("E", 7)
        gradings = [make_grading(rs, labels) for labels in single_one_class(7, 0)]
        assert len(gradings) == 64
        assert_batch_agrees(gradings)

    def test_two_e7_classes_interleaved(self):
        # every member of the first class generates and none of the second,
        # so the verdicts alternate over 128 bits
        rs = build_root_system("E", 7)
        first, second = single_one_class(7, 0), single_one_class(7, 6)
        gradings = [
            make_grading(rs, labels)
            for pair in zip(first, second)
            for labels in pair
        ]
        assert bracket_verdicts(gradings) == (True, False) * 64
        assert_batch_agrees(gradings)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_forged_seeds(self, data):
        # both closures are defined for any seed, and unlike a grading's,
        # a forged seed can need more than one pass over the sums
        type_label, rank = data.draw(
            st.sampled_from([("A", 3), ("B", 2), ("G", 2), ("C", 3), ("D", 4)])
        )
        rs = build_root_system(type_label, rank)
        grading = make_grading(rs, (1,) * rank)
        positives = rs.positive_roots
        subsets = st.lists(
            st.booleans(), min_size=len(positives), max_size=len(positives)
        ).map(lambda flags: tuple(compress(positives, flags)))
        size = data.draw(st.integers(min_value=1, max_value=6))
        gradings = []
        for _ in range(size):
            fiber, noncompact = data.draw(subsets), data.draw(subsets)
            gradings.append(replace(grading, fiber_roots=fiber, noncompact_positive=noncompact))
        assert_batch_agrees(gradings)

    def test_batch_of_one(self, c2, g2):
        for rs, labels in ((c2, (1, 1)), (c2, (0, 1)), (g2, (1, 0))):
            assert_batch_agrees([make_grading(rs, labels)])

    def test_empty_batch(self):
        assert bracket_verdicts([]) == ()

    def test_gradings_of_two_root_systems_rejected(self, c2, g2):
        with pytest.raises(ValueError, match="one root system"):
            bracket_verdicts([make_grading(c2, (1, 1)), make_grading(g2, (1, 0))])

    def test_sum_table_built_on_first_use_only(self):
        rs = build_root_system.__wrapped__("C", 3)
        before = _sum_table.cache_info()
        bracket_verdicts([make_grading(rs, (1, 0, 2))])
        bracket_verdicts([make_grading(rs, (0, 1, 0))])
        after = _sum_table.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 1, before.currsize + 1)
        # importing the package builds no table
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import pdclass.cli, pdclass.oracle\n"
                "print(pdclass.classifier._sum_table.cache_info().currsize)",
            ],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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
    def test_never_builds_the_structure_tables(self):
        # the routes must not share the table the structures layer reads
        for type_label, rank, labels in EXCEPTIONAL_SAMPLE:
            rs = build_root_system.__wrapped__(type_label, rank)
            classify(make_grading(rs, labels))
            assert "root_table" not in rs.__dict__

    def test_only_structures_and_rootsys_read_the_tables(self):
        # the static side of the test above, over every module: no other
        # module reads the table, and in structures.py the Hermitian
        # splitting neither reads it nor calls a function that does
        tables = {"root_table"}

        def reads_table(node):
            return any(
                isinstance(n, ast.Attribute) and n.attr in tables
                or isinstance(n, ast.Constant) and n.value in tables
                for n in ast.walk(node)
            )

        package = Path(pdclass.__file__).parent
        trees = {
            path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))
        }
        assert {"rootsys.py", "structures.py", "classifier.py"} <= trees.keys()
        others = [
            name for name, tree in trees.items()
            if name not in ("rootsys.py", "structures.py") and reads_table(tree)
        ]
        assert others == []
        functions = {
            node.name: node
            for node in trees["structures.py"].body
            if isinstance(node, ast.FunctionDef)
        }
        calls = {
            name: {
                n.func.id
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            }
            for name, node in functions.items()
        }
        readers = {name for name, node in functions.items() if reads_table(node)}
        while more := {name for name in functions if calls[name] & readers} - readers:
            readers |= more
        assert "make_structure" in readers
        assert "hermitian_splitting" not in readers

    def test_batch_shares_nothing_with_the_tuple_closure(self):
        # the batch and the function that builds its table read no root table
        # and use none of bracket_generation's helpers, so the survey's bracket
        # route and the one classify runs on its own cannot fail the same way
        path = Path(pdclass.__file__).parent / "classifier.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = {
            node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        helpers = {"root_add", "root_neg", "root_key", "bisect", "bisect_left"}
        for name in ("bracket_verdicts", "_sum_table"):
            used = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(functions[name])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            constants = {
                n.value for n in ast.walk(functions[name]) if isinstance(n, ast.Constant)
            }
            assert "root_table" not in used | constants, name
            assert used & helpers == set(), name
            assert "bracket_generation" not in used, name
        called = {
            n.func.id
            for n in ast.walk(functions["bracket_verdicts"])
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert "_sum_table" in called

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


def assert_held_verdict_agrees(g):
    """``classify(g, generates)`` with the batch verdict reports what
    ``classify(g)`` does, but for the empty closure trace; the flipped
    verdict is a route disagreement."""
    (generates,) = bracket_verdicts([g])
    full, held = classify(g), classify(g, generates)
    assert held.closure_trace == ()
    for field in fields(full):
        if field.name == "closure_trace":
            continue
        a, b = getattr(full, field.name), getattr(held, field.name)
        if is_dataclass(a):
            a, b = vars(a), vars(b)
        assert a == b, field.name
    with pytest.raises(InternalInconsistency, match="criteria disagree"):
        classify(g, not generates)


class TestClassifyWithHeldVerdict:
    @pytest.mark.parametrize("type_label,rank", SWEEP_SYSTEMS)
    def test_every_sweep_grading(self, type_label, rank):
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            assert_held_verdict_agrees(make_grading(rs, labels))

    @pytest.mark.parametrize(
        "type_label,rank,labels", [s for s in EXCEPTIONAL_SAMPLE if s[1] == 6]
    )
    def test_e6_sample(self, type_label, rank, labels):
        assert_held_verdict_agrees(make_grading(build_root_system(type_label, rank), labels))


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
