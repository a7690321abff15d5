"""Tests for the Hermitian splitting, the new structure, and enumeration."""
from __future__ import annotations

import bisect
import itertools
import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from pdclass.errors import HermitianAnomaly, NotHermitian, TooLarge, ValidationFailed
from pdclass.grading import make_grading
from pdclass.rootsys import build_root_system, root_key, root_neg
from pdclass.structures import (
    ComplexStructure,
    enumerate_structures,
    hermitian_splitting,
    is_projection_holomorphic,
    make_structure,
    new_complex_structure,
    parabolic_of,
    positive_system_of,
    validate_structure,
    _propagate,
    _escapes,
    _rejected,
    _sums,
)

from conftest import (
    EXCEPTIONAL_SAMPLE,
    SWEEP_SYSTEMS,
    brute_force_structures,
    reference_enumerate_structures,
    reference_hermitian_splitting,
    reference_make_structure,
    reference_positive_system_of,
    reference_search,
    reference_sums_outside,
    reference_validate_structure,
    sweep_label_vectors,
)


def hermitian_gradings(max_rank=3):
    for type_label, rank in SWEEP_SYSTEMS:
        if rank > max_rank:
            continue
        rs = build_root_system(type_label, rank)
        for labels in sweep_label_vectors(rank):
            g = make_grading(rs, labels)
            if len(g.compact_center_basis) == 1:
                yield g


@lru_cache(maxsize=None)
def hermitian_sweep():
    """The 214 Hermitian-type gradings of the sweep systems (rank <= 4)."""
    return tuple(hermitian_gradings(max_rank=4))


@lru_cache(maxsize=None)
def hermitian_exceptional():
    """The Hermitian-type E6 and E7 gradings of the exceptional sample."""
    gradings = (
        make_grading(build_root_system(t, r), labels)
        for t, r, labels in EXCEPTIONAL_SAMPLE
        if r in (6, 7)
    )
    return tuple(g for g in gradings if hermitian_splitting(g) is not None)


@lru_cache(maxsize=None)
def hermitian_e6_enumerable():
    """The 5 Hermitian-type E6 gradings with at most 24 root pairs, the
    default ``max_pairs``: masks over 72 roots, past one machine word."""
    return tuple(
        g
        for g in all_gradings("E", 6)
        if len(g.tangent_roots) <= 24 and len(g.compact_center_basis) == 1
    )


def all_gradings(type_label, rank):
    rs = build_root_system(type_label, rank)
    return (make_grading(rs, labels) for labels in sweep_label_vectors(rank))


def splitting_outcome(split, g):
    """``None``, the center direction and halves, or the type and message of
    a ``HermitianAnomaly``."""
    try:
        hs = split(g)
    except HermitianAnomaly as exc:
        return "raised", str(exc)
    if hs is None:
        return None
    z = hs.center_direction
    return tuple(map(type, z)), z, hs.plus_roots, hs.minus_roots


def sign_vectors(g):
    reps = [a for a in g.root_system.positive_roots if a not in g.isotropy_roots]
    for signs in itertools.product((1, -1), repeat=len(reps)):
        yield frozenset(tuple(s * x for x in rep) for s, rep in zip(signs, reps))


def validation_outcome(validate, g, candidate):
    """``(ok, violations)``, or the message of a ``ValidationFailed``."""
    try:
        return validate(g, candidate)
    except ValidationFailed as exc:
        return "raised", str(exc)


def reference_rejects(g, candidates):
    """For each candidate, whether ``reference_validate_structure`` rejects
    it; a ``ValidationFailed`` counts as a rejection."""
    return [
        validation_outcome(reference_validate_structure, g, c)[0] is not True
        for c in candidates
    ]


def batch_rejects(g, candidates):
    """For each root-only candidate, whether its bit is set in the mask of
    the enumeration's batch check."""
    table = g.root_system.root_table
    isotropy = sum(1 << table.index[a] for a in g.isotropy_roots)
    rows = [bytes(a in c for a in table.roots) for c in candidates]
    rejected = _rejected(table, isotropy, rows)
    return [bool(rejected >> t & 1) for t in range(len(candidates))]


class TestHermitianSplitting:
    def test_balanced_center_direction(self, c2):
        hs = hermitian_splitting(make_grading(c2, (1, 1)))
        assert hs.center_direction == (Fraction(1), Fraction(-1))
        assert hs.plus_roots == {(1, 0), (2, 1), (0, -1)}
        assert hs.minus_roots == {(-1, 0), (-2, -1), (0, 1)}

    def test_axis_center_direction(self, c2):
        hs = hermitian_splitting(make_grading(c2, (0, 1)))
        assert hs.center_direction == (Fraction(0), Fraction(1))
        assert hs.plus_roots == {(0, 1), (1, 1), (2, 1)}

    def test_doubled_label_same_splitting(self, c2):
        # labels (2,1) and (0,1) share halves, hence share the splitting
        hs = hermitian_splitting(make_grading(c2, (2, 1)))
        assert hs.center_direction == (Fraction(0), Fraction(1))
        assert hs.plus_roots == {(0, 1), (1, 1), (2, 1)}

    def test_semisimple_compact_part(self, g2):
        assert hermitian_splitting(make_grading(g2, (1, 0))) is None

    def test_three_node_chain(self):
        g = make_grading(build_root_system("A", 3), (1, 0, 1))
        hs = hermitian_splitting(g)
        assert hs.center_direction == (Fraction(1), Fraction(0), Fraction(-1))
        assert hs.plus_roots == {(1, 0, 0), (1, 1, 0), (0, 0, -1), (0, -1, -1)}

    def test_values_are_plus_minus_one(self):
        for g in hermitian_gradings():
            hs = hermitian_splitting(g)
            assert hs is not None
            z = hs.center_direction
            for b in g.noncompact_roots:
                value = sum(c * x for c, x in zip(z, b))
                assert value in (1, -1)
                assert (value == 1) == (b in hs.plus_roots)
            for a in g.compact_roots:
                assert sum(c * x for c, x in zip(z, a)) == 0

    def test_sign_convention_on_lowest_noncompact_simple(self):
        for g in hermitian_gradings():
            hs = hermitian_splitting(g)
            lowest = next(i for i, c in enumerate(g.labels) if c == 1)
            assert g.root_system.simple_roots[lowest] in hs.plus_roots

    def test_center_direction_is_one_at_lowest_label_one(self):
        # the direction needs no sign flip: its first nonzero coordinate is
        # at the lowest label-1 simple root, and the nullspace makes it positive
        for g in hermitian_sweep() + hermitian_exceptional():
            lowest = g.labels.index(1)
            assert hermitian_splitting(g).center_direction[lowest] == 1, g.labels

    def test_minus_half_is_abelian(self):
        for g in hermitian_gradings():
            hs = hermitian_splitting(g)
            assert not g.root_system.root_set_sum(hs.minus_roots, hs.minus_roots)

    def test_same_outcome_as_the_pairwise_sums(self):
        # every sweep grading, and every E6 and E7 grading: the same None,
        # the same center direction and halves, or the same raise
        gradings = itertools.chain(
            (g for t, r in SWEEP_SYSTEMS for g in all_gradings(t, r)),
            all_gradings("E", 6),
            all_gradings("E", 7),
        )
        counts = {"None": 0, "split": 0}
        for g in gradings:
            outcome = splitting_outcome(hermitian_splitting, g)
            assert outcome == splitting_outcome(reference_hermitian_splitting, g), g.labels
            counts["None" if outcome is None else "split"] += 1
        assert counts == {"None": 2041, "split": 1086}

    @pytest.mark.parametrize(
        "forged, message",
        [
            # +-1 on every noncompact root, but +-2 on the compact roots
            # +-(1,1); the first in canonical order is named
            (((1, 1),), "does not vanish on the compact root (-1, -1)"),
            (((2, 1),), "no scaling of the center direction gives values +-1"),
            (((1, 0),), "no scaling of the center direction gives values +-1"),
            (((1, -1), (1, 1)), "compact center has dimension 2"),
        ],
        ids=["off-compact-root", "non-uniform", "zero-value", "dimension-two"],
    )
    def test_forged_center_direction_raises(self, a2, forged, message):
        g = make_grading(a2, (1, 1))
        assert g.compact_roots - g.isotropy_roots == {(1, 1), (-1, -1)}
        g = replace(g, compact_center_basis=forged)
        with pytest.raises(HermitianAnomaly, match=re.escape(message)):
            hermitian_splitting(g)
        with pytest.raises(HermitianAnomaly):
            reference_hermitian_splitting(g)


class TestValidateStructure:
    def test_original_half_is_valid(self, c2):
        g = make_grading(c2, (1, 1))
        ok, violations = validate_structure(g, g.tangent_roots)
        assert ok and violations == ()

    def test_mixed_half_is_valid(self, c2):
        g = make_grading(c2, (1, 1))
        ok, _ = validate_structure(g, {(1, 0), (0, -1), (1, 1), (2, 1)})
        assert ok

    def test_broken_sum_closure(self, c2):
        g = make_grading(c2, (1, 1))
        ok, violations = validate_structure(g, {(1, 0), (0, 1), (-1, -1), (2, 1)})
        assert not ok
        assert (("sum_closure", ((1, 0), (0, 1), (1, 1))) in violations)

    def test_broken_isotropy_invariance(self, c2):
        g = make_grading(c2, (0, 1))
        ok, violations = validate_structure(g, {(0, 1), (-1, -1), (2, 1)})
        assert not ok
        assert any(v[0] == "isotropy_invariance" for v in violations)

    def test_half_selection_required(self, c2):
        g = make_grading(c2, (1, 1))
        ok, violations = validate_structure(g, {(1, 0), (-1, 0), (0, 1), (1, 1)})
        assert not ok
        assert any(v[0] == "half_selection" for v in violations)

    def test_isotropy_roots_rejected(self, c2):
        g = make_grading(c2, (0, 1))
        ok, violations = validate_structure(g, {(1, 0), (0, 1), (1, 1), (2, 1)})
        assert not ok
        assert any(v[0] == "universe" for v in violations)

    def test_make_structure_raises_on_invalid(self, c2):
        g = make_grading(c2, (1, 1))
        with pytest.raises(ValidationFailed):
            make_structure(g, {(1, 0), (0, 1), (-1, -1), (2, 1)})

    def test_agrees_with_hypercube_oracle(self, c2, g2):
        for rs, labels in ((c2, (1, 1)), (c2, (0, 1)), (g2, (1, 0))):
            g = make_grading(rs, labels)
            expected = brute_force_structures(g)
            for chosen in sign_vectors(g):
                ok, _ = validate_structure(g, chosen)
                assert ok == (chosen in expected)


class TestNewStructure:
    def test_fiber_plus_minus_half(self, c2):
        ns = new_complex_structure(make_grading(c2, (1, 1)))
        assert ns.structure.roots == {(1, 1), (-1, 0), (-2, -1), (0, 1)}
        assert ns.differs_from_original
        assert ns.projection_holomorphic

    def test_sorted_roots_canonical(self, c2):
        ns = new_complex_structure(make_grading(c2, (1, 1)))
        roots = tuple(sorted(ns.structure.roots, key=root_key))
        assert roots == ((-2, -1), (-1, 0), (0, 1), (1, 1))

    def test_classical_case_flips_noncompact_half(self, c2):
        g = make_grading(c2, (0, 1))
        ns = new_complex_structure(g)
        assert ns.structure.roots == {(0, -1), (-1, -1), (-2, -1)}
        assert ns.differs_from_original
        assert ns.projection_holomorphic

    def test_classical_with_fiber_direction(self, c2):
        g = make_grading(c2, (2, 1))
        ns = new_complex_structure(g)
        assert ns.structure.roots == {(1, 0), (0, -1), (-1, -1), (-2, -1)}

    def test_three_node_chain(self):
        g = make_grading(build_root_system("A", 3), (1, 0, 1))
        ns = new_complex_structure(g)
        assert ns.structure.roots == {
            (1, 1, 1),
            (-1, 0, 0),
            (-1, -1, 0),
            (0, 0, 1),
            (0, 1, 1),
        }
        assert ns.differs_from_original
        assert ns.projection_holomorphic

    def test_requires_splitting(self, g2):
        with pytest.raises(NotHermitian):
            new_complex_structure(make_grading(g2, (1, 0)))

    def test_noncompact_half_always_minus(self):
        for g in hermitian_gradings():
            ns = new_complex_structure(g)
            noncompact_part = {
                a for a in ns.structure.roots if a in g.noncompact_roots
            }
            assert noncompact_part == ns.splitting.minus_roots
            assert ns.differs_from_original

    def test_minus_half_sum_free(self):
        for g in hermitian_gradings():
            ns = new_complex_structure(g)
            rs = g.root_system
            assert not rs.root_set_sum(
                ns.splitting.minus_roots, ns.splitting.minus_roots
            )


class TestParabolic:
    def test_new_structure_parabolic(self, c2):
        g = make_grading(c2, (1, 1))
        ns = new_complex_structure(g)
        assert parabolic_of(g, ns.structure) == {(-1, -1), (1, 0), (2, 1), (0, -1)}

    def test_original_parabolic_contains_negative_half(self, c2):
        g = make_grading(c2, (0, 1))
        cs = make_structure(g, g.tangent_roots)
        assert parabolic_of(g, cs) == {
            (1, 0),
            (-1, 0),
            (0, -1),
            (-1, -1),
            (-2, -1),
        }

    def test_set_holding_a_non_root_rejected(self, c2):
        g = make_grading(c2, (1, 1))
        cs = new_complex_structure(g).structure
        assert (1, 2) not in c2.roots
        forged = ComplexStructure(cs.roots | {(1, 2)}, g.isotropy_roots)
        with pytest.raises(ValidationFailed, match="parabolic union its opposite misses roots"):
            parabolic_of(g, forged)
        with pytest.raises(ValidationFailed, match="structure does not induce a half-system"):
            positive_system_of(g, forged)

    def test_opposite_intersection_is_isotropy(self):
        for g in hermitian_gradings():
            ns = new_complex_structure(g)
            p = parabolic_of(g, ns.structure)
            assert p & {tuple(-x for x in a) for a in p} == g.isotropy_roots


class TestPositiveSystem:
    def test_new_structure_simples(self, c2):
        g = make_grading(c2, (1, 1))
        ns = new_complex_structure(g)
        positive, simples = positive_system_of(g, ns.structure)
        assert positive == ns.structure.roots
        assert simples == ((-2, -1), (1, 1))

    def test_original_structure_recovers_simple_roots(self, c2, g2):
        for rs, labels in ((c2, (1, 1)), (g2, (1, 0))):
            g = make_grading(rs, labels)
            cs = make_structure(g, g.tangent_roots)
            positive, simples = positive_system_of(g, cs)
            assert positive == rs.roots & frozenset(rs.positive_roots)
            assert simples == rs.simple_roots

    def test_half_and_closure(self):
        for g in hermitian_gradings():
            ns = new_complex_structure(g)
            positive, simples = positive_system_of(g, ns.structure)
            rs = g.root_system
            assert len(positive) == len(rs.positive_roots)
            assert positive | {tuple(-x for x in a) for a in positive} == rs.roots
            assert len(simples) == rs.rank

    def test_whole_system_is_no_half_system(self, c2):
        # closed under sums and covering the system, but holding each pair whole
        g = make_grading(c2, (1, 1))
        forged = ComplexStructure(c2.roots, g.isotropy_roots)
        with pytest.raises(ValidationFailed, match="structure does not induce a half-system"):
            positive_system_of(g, forged)


class TestProjectionHolomorphic:
    def test_original_structure_is_not(self, c2):
        g = make_grading(c2, (1, 1))
        hs = hermitian_splitting(g)
        cs = make_structure(g, g.tangent_roots)
        assert not is_projection_holomorphic(g, cs, hs)

    def test_new_structure_is(self, c2):
        g = make_grading(c2, (1, 1))
        ns = new_complex_structure(g)
        assert is_projection_holomorphic(g, ns.structure, ns.splitting)


class TestEnumerate:
    def test_rank_one(self, a1):
        structures, truncated = enumerate_structures(make_grading(a1, (1,)))
        assert len(structures) == 2
        assert not truncated
        assert {cs.roots for cs in structures} == {
            frozenset({(1,)}),
            frozenset({(-1,)}),
        }

    def test_full_rank_two(self, c2):
        g = make_grading(c2, (1, 1))
        structures, truncated = enumerate_structures(g)
        assert len(structures) == 8
        assert not truncated
        roots_seen = {cs.roots for cs in structures}
        assert frozenset(g.tangent_roots) in roots_seen
        assert new_complex_structure(g).structure.roots in roots_seen

    def test_isotropy_constrained_rank_two(self, c2):
        g = make_grading(c2, (0, 1))
        structures, _ = enumerate_structures(g)
        assert {cs.roots for cs in structures} == {
            frozenset(g.noncompact_positive),
            frozenset(tuple(-x for x in b) for b in g.noncompact_positive),
        }

    def test_empty_isotropy_counts_match_weyl_order(self):
        # with no isotropy, structures are exactly the positive systems
        for type_label, rank, labels, order in (
            ("A", 2, (1, 1), 6),
            ("C", 2, (2, 1), 8),
            ("G", 2, (1, 1), 12),
            ("A", 3, (1, 1, 1), 24),
            ("B", 3, (1, 1, 1), 48),
        ):
            g = make_grading(build_root_system(type_label, rank), labels)
            structures, truncated = enumerate_structures(g)
            assert not truncated
            assert len(structures) == order

    def test_agrees_with_hypercube_oracle(self):
        for g in hermitian_gradings(max_rank=3):
            structures, truncated = enumerate_structures(g)
            assert not truncated
            assert {cs.roots for cs in structures} == brute_force_structures(g)

    def test_nonhermitian_systems_enumerate_too(self, g2):
        g = make_grading(g2, (1, 0))
        structures, _ = enumerate_structures(g)
        assert {cs.roots for cs in structures} == brute_force_structures(g)

    def test_closed_under_negation(self, c2, g2):
        for rs, labels in ((c2, (1, 1)), (c2, (0, 1)), (g2, (1, 1))):
            structures, _ = enumerate_structures(make_grading(rs, labels))
            roots_seen = {cs.roots for cs in structures}
            assert len(roots_seen) % 2 == 0
            for chosen in roots_seen:
                assert frozenset(tuple(-x for x in a) for a in chosen) in roots_seen

    def test_canonical_output_order(self, c2):
        structures, _ = enumerate_structures(make_grading(c2, (1, 1)))
        keys = [tuple(sorted(cs.roots, key=root_key)) for cs in structures]
        assert keys == sorted(keys)

    def test_limit_truncates(self, c2):
        g = make_grading(c2, (1, 1))
        structures, truncated = enumerate_structures(g, limit=3)
        assert len(structures) == 3
        assert truncated

    def test_exact_limit_not_truncated(self, c2):
        g = make_grading(c2, (1, 1))
        structures, truncated = enumerate_structures(g, limit=8)
        assert len(structures) == 8
        assert not truncated

    def test_first_rejected_structure_is_named(self, c2, monkeypatch):
        # a propagation that forces nothing lets every sign vector through:
        # the first invalid one in output order is named, as make_structure
        # would name it
        monkeypatch.setattr(
            "pdclass.structures._propagate",
            lambda table, isotropy, isotropy_sums, assigned, pending: assigned | pending,
        )
        g = make_grading(c2, (1, 1))
        ordered = sorted(tuple(sorted(c, key=root_key)) for c in sign_vectors(g))
        first = next(c for c in ordered if not validate_structure(g, c)[0])
        with pytest.raises(ValidationFailed) as raised:
            enumerate_structures(g)
        assert str(raised.value) == f"invalid structure: {validate_structure(g, first)[1][0]}"

    def test_parabolic_built_on_first_read(self, c2):
        g = make_grading(c2, (0, 1))
        structures, _ = enumerate_structures(g)
        assert not any("parabolic_roots" in cs.__dict__ for cs in structures)
        cs = structures[0]
        parabolic = cs.parabolic_roots
        assert parabolic == frozenset(map(root_neg, cs.roots)) | g.isotropy_roots
        assert cs.parabolic_roots is parabolic

    def test_pair_bound(self, c2):
        with pytest.raises(TooLarge):
            enumerate_structures(make_grading(c2, (1, 1)), max_pairs=3)


@st.composite
def hermitian_case(draw):
    cases = list(hermitian_gradings(max_rank=3))
    return draw(st.sampled_from(cases))


def forced_closure(g, roots):
    """(ok, closure): the least set holding ``roots`` that is closed under
    adding isotropy roots and under sums of two members; ok when it holds
    no pair {a, -a} and no two members sum to an isotropy root."""
    rs = g.root_system
    closed = frozenset(roots)
    while True:
        sums = rs.roots & {
            tuple(x + y for x, y in zip(a, b))
            for a in closed
            for b in closed | g.isotropy_roots
        }
        if sums & g.isotropy_roots:
            return False, closed
        if sums <= closed:
            return not any(tuple(-x for x in a) in closed for a in closed), closed
        closed |= sums


class TestPropagation:
    def test_forces_the_closure(self):
        # one root, then a second on top: the assignment is the closure of
        # what was queued, or the propagation fails exactly when it is bad
        for g in hermitian_gradings(max_rank=3):
            rs = g.root_system
            table = rs.root_table
            isotropy = sum(1 << table.index[a] for a in g.isotropy_roots)
            sums = [_sums(table, i, isotropy) for i in range(len(table.roots))]

            def roots_of(mask):
                return frozenset(a for i, a in enumerate(table.roots) if mask >> i & 1)

            outside = sorted(rs.roots - g.isotropy_roots, key=root_key)
            for first in outside:
                assigned = _propagate(table, isotropy, sums, 0, 1 << table.index[first])
                expected_ok, expected = forced_closure(g, [first])
                assert (assigned is not None) == expected_ok
                if assigned is None:
                    continue
                assert roots_of(assigned) == expected
                for second in outside:
                    branch = _propagate(
                        table, isotropy, sums, assigned, 1 << table.index[second]
                    )
                    expected_ok, expected = forced_closure(g, [first, second])
                    assert (branch is not None) == expected_ok, (g.labels, first, second)
                    if branch is not None:
                        assert roots_of(branch) == expected


class TestProperties:
    @settings(deadline=None, max_examples=25)
    @given(hermitian_case())
    def test_every_enumerated_structure_validates(self, g):
        structures, _ = enumerate_structures(g)
        for cs in structures:
            ok, violations = validate_structure(g, cs.roots)
            assert ok, violations

    @settings(deadline=None, max_examples=25)
    @given(hermitian_case())
    def test_parabolic_shape(self, g):
        ns = new_complex_structure(g)
        assert ns.structure.parabolic_roots == (
            {tuple(-x for x in a) for a in g.fiber_roots}
            | ns.splitting.plus_roots
            | g.isotropy_roots
        )


@st.composite
def mixed_candidate(draw):
    """A grading and a candidate that starts from a valid structure and mixes
    in roots, non-roots (short and long vectors too), the zero vector,
    isotropy roots, both members of a pair and repeated entries."""
    g = draw(st.sampled_from(hermitian_sweep()))
    rs = g.root_system
    roots = sorted(rs.roots, key=root_key)
    start = sorted(new_complex_structure(g).structure.roots, key=root_key)
    kept = draw(st.lists(st.sampled_from(start), unique=True))
    entries = list(kept) + draw(st.lists(st.sampled_from(roots), max_size=4))
    coefficient = st.integers(-3, 3)
    for size in (rs.rank, rs.rank - 1, rs.rank + 1):
        vectors = st.tuples(*[coefficient] * size)
        entries += draw(st.lists(vectors, max_size=2 if size == rs.rank else 1))
    if draw(st.booleans()):
        entries.append((0,) * rs.rank)
    if g.isotropy_roots:
        isotropy = sorted(g.isotropy_roots, key=root_key)
        entries += draw(st.lists(st.sampled_from(isotropy), max_size=2))
    for a in draw(st.lists(st.sampled_from(roots), max_size=2)):
        entries += [a, tuple(-x for x in a)]
    if entries:
        entries += draw(st.lists(st.sampled_from(entries), max_size=3))
    return g, draw(st.permutations(entries))


@st.composite
def root_only_family(draw):
    """A grading and candidates of roots only, valid and invalid mixed:
    enumerated structures, sign vectors, and some of either with roots
    dropped or added (isotropy roots and negatives among them)."""
    g = draw(st.sampled_from(hermitian_sweep()))
    rs = g.root_system
    reps = [a for a in rs.positive_roots if a not in g.isotropy_roots]
    structures = [cs.roots for cs in enumerate_structures(g)[0]]
    family = draw(st.lists(st.sampled_from(structures), max_size=4))
    signs = st.lists(st.booleans(), min_size=len(reps), max_size=len(reps))
    family += [
        frozenset(a if up else root_neg(a) for up, a in zip(vector, reps))
        for vector in draw(st.lists(signs, min_size=1, max_size=6))
    ]
    roots = sorted(rs.roots, key=root_key)
    isotropy = sorted(g.isotropy_roots, key=root_key)
    for base in draw(st.lists(st.sampled_from(family), max_size=4)):
        dropped = draw(st.lists(st.sampled_from(sorted(base, key=root_key)), max_size=2))
        added = draw(st.lists(st.sampled_from(roots), max_size=2))
        if isotropy:
            added += draw(st.lists(st.sampled_from(isotropy), max_size=1))
        family.append(base.difference(dropped).union(added))
    return g, draw(st.permutations(family))


class TestReferenceAgreement:
    """Identical output to the pair scans kept in conftest.py."""

    def test_every_sign_vector(self):
        # validate_structure one candidate at a time, and the enumeration's
        # batch check on all of a grading's sign vectors at once
        checked = 0
        for g in hermitian_sweep():
            if len(g.tangent_roots) > 9:
                continue
            candidates = list(sign_vectors(g))
            expected = [
                validation_outcome(reference_validate_structure, g, c) for c in candidates
            ]
            for chosen, outcome in zip(candidates, expected):
                assert validation_outcome(validate_structure, g, chosen) == outcome, (
                    g.labels,
                    sorted(chosen),
                )
            assert batch_rejects(g, candidates) == [
                outcome[0] is not True for outcome in expected
            ], g.labels
            checked += len(candidates)
        assert checked == 29490

    def test_batch_check_on_enumerated_structures(self):
        # the first structures found, and the first with each isotropy root
        # added, which only the universe condition can reject
        for g in hermitian_sweep():
            found = [cs.roots for cs in enumerate_structures(g, limit=16)[0]]
            isotropy = sorted(g.isotropy_roots, key=root_key)
            candidates = found + [found[0] | {a} for a in isotropy]
            assert batch_rejects(g, candidates) == reference_rejects(g, candidates), g.labels

    def test_batch_check_beyond_one_word(self):
        # A4 without isotropy has 120 structures among its 1024 sign vectors,
        # so each column of the batch check spans more than one 64-bit word
        g = make_grading(build_root_system("A", 4), (1, 1, 1, 1))
        assert not g.isotropy_roots
        candidates = list(sign_vectors(g))
        expected = reference_rejects(g, candidates)
        assert expected.count(False) == 120
        assert batch_rejects(g, candidates) == expected

    @settings(deadline=None, max_examples=100)
    @given(root_only_family())
    def test_batch_check_on_mixed_families(self, case):
        g, candidates = case
        assert batch_rejects(g, candidates) == reference_rejects(g, candidates)

    def test_sums_outside_on_structure_sets(self):
        for g in hermitian_sweep() + hermitian_exceptional():
            rs = g.root_system
            table = rs.root_table
            cs = new_complex_structure(g).structure
            positive, _ = positive_system_of(g, cs)
            empty = frozenset()
            for first, second, closed in (
                (g.isotropy_roots, cs.roots, cs.roots),
                (cs.roots, cs.roots, cs.roots),
                (cs.parabolic_roots, cs.parabolic_roots, cs.parabolic_roots),
                (positive, positive, positive),
                (cs.parabolic_roots, cs.roots, empty),
                (rs.roots, g.noncompact_roots, g.isotropy_roots),
            ):
                masks = (sum(1 << table.index[a] for a in x) for x in (first, second, closed))
                assert _escapes(table, *masks) == list(
                    reference_sums_outside(rs, first, second, closed)
                )

    def test_new_structure_and_positive_system(self):
        for g in hermitian_sweep() + hermitian_exceptional():
            ns = new_complex_structure(g)
            expected = reference_make_structure(
                g, frozenset(g.fiber_roots) | ns.splitting.minus_roots
            )
            assert ns.structure.roots == expected.roots
            assert ns.structure.parabolic_roots == expected.parabolic_roots
            assert validate_structure(g, ns.structure.roots) == (True, ())
            assert positive_system_of(g, ns.structure) == (
                reference_positive_system_of(g, ns.structure)
            )

    def test_positive_system_of_unvalidated_sign_vectors(self):
        # most sign vectors are not closed under sums: the same first sum
        # outside the set must raise, and a closed one give the same simples
        checked = raised = 0
        for g in hermitian_sweep():
            if len(g.tangent_roots) > 7:
                continue
            for chosen in sign_vectors(g):
                cs = ComplexStructure(roots=chosen, isotropy_roots=g.isotropy_roots)
                outcome = validation_outcome(positive_system_of, g, cs)
                assert outcome == validation_outcome(reference_positive_system_of, g, cs)
                checked += 1
                raised += outcome[0] == "raised"
        assert (checked, raised) == (2610, 1998)

    def test_enumeration(self):
        assert len(hermitian_e6_enumerable()) == 5
        for g in hermitian_sweep() + hermitian_e6_enumerable():
            structures, truncated = enumerate_structures(g)
            expected, expected_truncated = reference_enumerate_structures(g)
            assert truncated == expected_truncated
            assert [(cs.roots, cs.parabolic_roots) for cs in structures] == [
                (cs.roots, cs.parabolic_roots) for cs in expected
            ]

    def test_enumeration_with_limit(self):
        for g in hermitian_sweep()[::20] + hermitian_e6_enumerable():
            for limit in (1, 2, 5):
                structures, truncated = enumerate_structures(g, limit=limit)
                expected, expected_truncated = reference_enumerate_structures(g, limit=limit)
                assert truncated == expected_truncated
                assert [cs.roots for cs in structures] == [cs.roots for cs in expected]
        # every limit up to the full count, so that a search taking the
        # structures in another order keeps another prefix.  The gradings of
        # B4 and C4 with 16 root pairs have no isotropy, so each system poses
        # one search: it is run at every limit on the first such grading,
        # and every grading must give its full output
        for type_label in "BC":
            expected = None
            for g in all_gradings(type_label, 4):
                if g.isotropy_roots:
                    continue
                if expected is None:
                    order, _ = reference_search(g)
                    assert len(order) == 384
                    expected = []
                    for limit, found in enumerate(order, 1):
                        bisect.insort(expected, (tuple(sorted(found, key=root_key)), found))
                        structures, truncated = enumerate_structures(g, limit=limit)
                        assert truncated == (limit < len(order))
                        assert [cs.roots for cs in structures] == [s for _, s in expected]
                structures, truncated = enumerate_structures(g)
                assert not truncated
                assert [cs.roots for cs in structures] == [s for _, s in expected]
            assert expected is not None

    @settings(deadline=None, max_examples=300)
    @given(mixed_candidate())
    def test_mixed_candidates(self, case):
        g, entries = case
        for candidate in (entries, [list(a) for a in entries], set(entries)):
            assert validation_outcome(validate_structure, g, candidate) == (
                validation_outcome(reference_validate_structure, g, candidate)
            )
